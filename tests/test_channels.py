import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtomo import channels as ch
from conftest import (
    embed_pair,
    random_density,
    random_hermitian,
    random_unitary,
    trace_overlap_fidelity,
    unitarity_deviation,
)

X = ch.PAULI_1Q["X"]
Y = ch.PAULI_1Q["Y"]
Z = ch.PAULI_1Q["Z"]
I2 = np.eye(2)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def apply_superop(s, rho):
    return ch.unvec(s @ ch.vec(rho))


class TestVec:
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ch.vec(m), np.array([1.0, 3.0, 2.0, 4.0]))

    def test_roundtrip(self):
        m = random_hermitian(4, 7)
        assert np.array_equal(ch.unvec(ch.vec(m)), m)

    def test_vec_of_sandwich(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(3)
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        lhs = ch.vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ ch.vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestPauliBasis:
    def test_single_qubit_products(self):
        assert np.array_equal(ch.pauli_product("X"), X)
        assert np.array_equal(ch.pauli_product("ZX"), np.kron(Z, X))

    def test_lexicographic_labels(self):
        basis = ch.pauli_basis(2)
        assert basis.labels[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert len(basis.labels) == 16

    def test_qubit_one_is_most_significant(self):
        # label "XI" acts with X on qubit 1, the leftmost tensor factor
        assert np.array_equal(ch.pauli_product("XI"), np.kron(X, I2))

    def test_raw_orthogonality(self):
        e = ch.pauli_basis(2).elements
        gram = np.einsum("pba,rba->pr", e.conj(), e)
        assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)

    def test_unit_normalization(self):
        e = ch.pauli_basis(2).unit().elements
        gram = np.einsum("pba,rba->pr", e.conj(), e)
        assert np.allclose(gram, np.eye(16), atol=1e-12)

    def test_bad_label_raises(self):
        with pytest.raises(ValueError):
            ch.pauli_product("XQ")


class TestSuperops:
    def test_unitary_superop_action(self):
        u = random_unitary(4, 11)
        rho = random_density(4, 12)
        s = ch.unitary_to_superop(u)
        assert np.allclose(apply_superop(s, rho), u @ rho @ u.conj().T, atol=1e-12)

    def test_kraus_superop_action(self):
        ops = ch.random_kraus_set(4, 3, seed=5)
        rho = random_density(4, 6)
        s = ch.kraus_to_superop(ops)
        direct = sum(k @ rho @ k.conj().T for k in ops)
        assert np.allclose(apply_superop(s, rho), direct, atol=1e-12)

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ch.InvalidKrausError):
            ch.kraus_to_superop([0.5 * I2])

    def test_compose_applies_inner_first(self):
        u, v = random_unitary(2, 1), random_unitary(2, 2)
        s = ch.unitary_to_superop(u) @ ch.unitary_to_superop(v)
        rho = random_density(2, 3)
        expected = u @ (v @ rho @ v.conj().T) @ u.conj().T
        assert np.allclose(apply_superop(s, rho), expected, atol=1e-12)


class TestChoi:
    def test_choi_matches_direct_summation(self):
        # oracle: (1/d) sum_{mu,nu} |mu><nu| (x) E(|mu><nu|), input half first
        s = ch.random_cptp_superop(4, seed=21)
        d = 4
        oracle = np.zeros((16, 16), dtype=complex)
        for mu, nu in itertools.product(range(d), repeat=2):
            basis_op = np.zeros((d, d), dtype=complex)
            basis_op[mu, nu] = 1.0
            out = apply_superop(s, basis_op)
            oracle += np.kron(basis_op, out)
        oracle /= d
        assert np.allclose(ch.superop_to_choi(s), oracle, atol=1e-12)

    def test_roundtrip(self):
        s = ch.random_cptp_superop(4, seed=22)
        assert np.allclose(ch.choi_to_superop(ch.superop_to_choi(s)), s, atol=1e-12)

    def test_cptp_choi_properties(self):
        choi = ch.superop_to_choi(ch.random_cptp_superop(4, seed=23))
        assert abs(np.trace(choi).real - 1.0) < 1e-12
        assert ch.choi_tp_deviation(choi) < 1e-12
        assert ch.is_cptp_choi(choi)

    def test_non_tp_detected(self):
        choi = ch.superop_to_choi(ch.unitary_to_superop(random_unitary(4, 2)))
        assert not ch.is_cptp_choi(1.5 * choi)

    def test_non_cp_detected(self):
        # the transpose map is positive but not completely positive
        d = 2
        s = np.zeros((4, 4))
        for i, j in itertools.product(range(d), repeat=2):
            s[i + d * j, j + d * i] = 1.0
        assert not ch.is_cptp_choi(ch.superop_to_choi(s))

    def test_output_reduction_witness(self):
        # tracing the output half leaves (1/d) Tr(E(|a><b|)) in entry (a, b)
        s = 0.7 * ch.random_cptp_superop(4, seed=24)
        red = ch.choi_output_reduction(ch.superop_to_choi(s))
        oracle = np.zeros((4, 4), dtype=complex)
        for a, b in itertools.product(range(4), repeat=2):
            basis_op = np.zeros((4, 4), dtype=complex)
            basis_op[a, b] = 1.0
            oracle[a, b] = np.trace(apply_superop(s, basis_op)) / 4.0
        assert np.allclose(red, oracle, atol=1e-12)
        tp = ch.superop_to_choi(ch.random_cptp_superop(4, seed=25))
        assert np.allclose(ch.choi_output_reduction(tp), np.eye(4) / 4.0, atol=1e-12)


class TestChi:
    def test_identity_channel_raw_chi(self):
        s = np.eye(16)
        chi = ch.superop_to_chi(s, ch.pauli_basis(2))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.allclose(chi, expected, atol=1e-12)

    def test_pauli_channel_raw_chi(self):
        # conjugation by IX has all weight on that basis element
        s = ch.unitary_to_superop(ch.pauli_product("IX"))
        chi = ch.superop_to_chi(s, ch.pauli_basis(2))
        expected = np.zeros((16, 16))
        expected[1, 1] = 1.0
        assert np.allclose(chi, expected, atol=1e-12)

    def test_unit_basis_chi_trace_four(self):
        basis = ch.pauli_basis(2).unit()
        for seed in (1, 2, 3):
            chi = ch.superop_to_chi(ch.random_cptp_superop(4, seed=seed), basis)
            assert abs(np.trace(chi).real - 4.0) < 1e-10
            assert np.linalg.eigvalsh((chi + chi.conj().T) / 2)[0] > -1e-10

    def test_chi_superop_roundtrip_both_bases(self):
        s = ch.random_cptp_superop(4, seed=31)
        for basis in (ch.pauli_basis(2), ch.pauli_basis(2).unit()):
            chi = ch.superop_to_chi(s, basis)
            assert np.allclose(ch.chi_to_superop(chi, basis), s, atol=1e-11)

    def test_chi_of_sum_convention(self):
        # E(rho) = sum chi[p,r] E_r rho E_p^dag with the raw basis
        rng = np.random.default_rng(8)
        chi = random_hermitian(16, 9)
        basis = ch.pauli_basis(2)
        rho = random_density(4, 10)
        s = ch.chi_to_superop(chi, basis)
        direct = np.zeros((4, 4), dtype=complex)
        for p, r in itertools.product(range(16), repeat=2):
            direct += chi[p, r] * basis.elements[r] @ rho @ basis.elements[p].conj().T
        assert np.allclose(apply_superop(s, rho), direct, atol=1e-11)


class TestEmbedding:
    def test_embed_operator_permutation_oracle(self):
        # manual embedding of CNOT onto qubits (1, 3) of three
        u = ch.embed_operator(CNOT, (1, 3), 3)
        oracle = np.zeros((8, 8), dtype=complex)
        for b1, b2, b3 in itertools.product(range(2), repeat=3):
            out1, out3 = b1, b3 ^ b1
            row = (out1 << 2) | (b2 << 1) | out3
            col = (b1 << 2) | (b2 << 1) | b3
            oracle[row, col] = 1.0
        assert np.allclose(u, oracle, atol=1e-12)

    def test_embed_operator_contiguous(self):
        u4 = random_unitary(4, 41)
        assert np.allclose(ch.embed_operator(u4, (1, 2), 3), np.kron(u4, I2), atol=1e-12)
        assert np.allclose(ch.embed_operator(u4, (2, 3), 3), np.kron(I2, u4), atol=1e-12)

    def test_embed_operator_single(self):
        assert np.allclose(ch.embed_operator(X, (2,), 3), np.kron(np.kron(I2, X), I2), atol=1e-12)

    def test_embed_pair_matches_kraus_embedding(self):
        ops = ch.random_kraus_set(4, 2, seed=42)
        s2 = ch.kraus_to_superop(ops)
        for pair in [(1, 2), (1, 3), (2, 3)]:
            embedded = embed_pair(s2, pair, 3)
            oracle = ch.kraus_to_superop([ch.embed_operator(k, pair, 3) for k in ops])
            assert np.allclose(embedded, oracle, atol=1e-10)

    def test_embed_pair_two_qubit_identity(self):
        # on a two-qubit register the embedding is the channel itself
        s2 = ch.random_cptp_superop(4, seed=43)
        chi = ch.superop_to_chi(s2, ch.pauli_basis(2))
        assert np.allclose(ch.embed_chi(chi, (1, 2), 2), s2, atol=1e-12)

    def test_embed_chi_matches_embed_pair(self):
        s2 = ch.random_cptp_superop(4, seed=44)
        chi = ch.superop_to_chi(s2, ch.pauli_basis(2))
        assert np.allclose(ch.embed_chi(chi, (1, 3), 3), embed_pair(s2, (1, 3), 3), atol=1e-11)

    def test_bad_pair_raises(self):
        with pytest.raises(ch.DimensionError):
            ch.embed_chi(np.eye(16), (2, 1), 3)
        with pytest.raises(ch.DimensionError):
            ch.embed_chi(np.eye(16), (1, 4), 3)


class TestPartialTrace:
    def test_product_state(self):
        r1, r2, r3 = (random_density(2, s) for s in (51, 52, 53))
        rho = np.kron(np.kron(r1, r2), r3)
        assert np.allclose(ch.partial_trace(rho, (1, 3), 3), np.kron(r1, r3), atol=1e-12)
        assert np.allclose(ch.partial_trace(rho, (2,), 3), r2, atol=1e-12)

    def test_manual_summation_oracle(self):
        rho = random_density(8, 54)
        # trace out qubit 2, keep (1, 3)
        oracle = np.zeros((4, 4), dtype=complex)
        for b1, b3, c1, c3 in itertools.product(range(2), repeat=4):
            for b2 in range(2):
                row = (b1 << 2) | (b2 << 1) | b3
                col = (c1 << 2) | (b2 << 1) | c3
                oracle[(b1 << 1) | b3, (c1 << 1) | c3] += rho[row, col]
        assert np.allclose(ch.partial_trace(rho, (1, 3), 3), oracle, atol=1e-12)

    def test_keep_order_matters(self):
        rho = random_density(8, 55)
        swapped = ch.partial_trace(rho, (3, 1), 3)
        straight = ch.partial_trace(rho, (1, 3), 3)
        swap = np.zeros((4, 4))
        for a, b in itertools.product(range(2), repeat=2):
            swap[(b << 1) | a, (a << 1) | b] = 1.0
        assert np.allclose(swapped, swap @ straight @ swap.T, atol=1e-12)


class TestPartialTraceChoi:
    def test_product_unitary_reduction(self):
        us = [random_unitary(2, s) for s in (61, 62, 63)]
        full = ch.unitary_to_superop(np.kron(np.kron(us[0], us[1]), us[2]))
        choi = ch.superop_to_choi(full)
        for (k, l) in [(1, 2), (1, 3), (2, 3)]:
            red = ch.partial_trace_choi(choi, (k, l))
            expected = ch.superop_to_choi(ch.unitary_to_superop(np.kron(us[k - 1], us[l - 1])))
            assert np.allclose(red, expected, atol=1e-12)

    def test_cnot_spectator_reductions(self):
        # reducing CNOT(1,2) (x) 1 onto pairs with the control or target as a
        # spectator leaves an even mixture of identity and a Pauli kick
        full = ch.unitary_to_superop(ch.embed_operator(CNOT, (1, 2), 3))
        choi = ch.superop_to_choi(full)

        def uchoi(u):
            return ch.superop_to_choi(ch.unitary_to_superop(u))

        assert np.allclose(ch.partial_trace_choi(choi, (1, 2)), uchoi(CNOT), atol=1e-12)
        mix13 = 0.5 * uchoi(np.kron(I2, I2)) + 0.5 * uchoi(np.kron(Z, I2))
        assert np.allclose(ch.partial_trace_choi(choi, (1, 3)), mix13, atol=1e-12)
        mix23 = 0.5 * uchoi(np.kron(I2, I2)) + 0.5 * uchoi(np.kron(X, I2))
        assert np.allclose(ch.partial_trace_choi(choi, (2, 3)), mix23, atol=1e-12)

    def test_preserves_trace(self):
        choi = ch.superop_to_choi(ch.random_cptp_superop(8, seed=64))
        red = ch.partial_trace_choi(choi, (1, 3))
        assert abs(np.trace(red) - np.trace(choi)) < 1e-12

    def test_two_qubit_passthrough(self):
        choi = ch.superop_to_choi(ch.random_cptp_superop(4, seed=65))
        assert np.array_equal(ch.partial_trace_choi(choi, (1, 2)), choi)


class TestMetrics:
    def test_trace_distance_orthogonal_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert abs(ch.trace_distance(a, b) - 1.0) < 1e-12
        assert ch.trace_distance(a, a) == 0.0

    def test_trace_distance_nuclear_norm_oracle(self):
        a, b = random_hermitian(4, 71), random_hermitian(4, 72)
        svals = np.linalg.svd(a - b, compute_uv=False)
        assert abs(ch.trace_distance(a, b) - 0.5 * svals.sum()) < 1e-10

    def test_overlap_fidelity_global_phase(self):
        u = random_unitary(8, 73)
        assert abs(trace_overlap_fidelity(u, np.exp(1j * 0.7) * u) - 1.0) < 1e-12

    def test_overlap_fidelity_orthogonal(self):
        assert trace_overlap_fidelity(I2, X) < 1e-12

    def test_hermiticity_and_unitarity(self):
        assert ch.hermiticity_deviation(random_hermitian(4, 74)) < 1e-12
        assert unitarity_deviation(random_unitary(4, 75)) < 1e-12
        assert unitarity_deviation(2 * np.eye(4)) > 1.0


class TestProjectPsdChi:
    def test_idempotent_on_valid_chi(self):
        chi = ch.superop_to_chi(ch.random_cptp_superop(4, seed=81), ch.pauli_basis(2).unit())
        assert np.allclose(ch.project_psd_chi(chi), chi, atol=1e-10)

    def test_clips_and_rescales(self):
        rng = np.random.default_rng(82)
        q = random_unitary(16, 83)
        vals = np.linspace(-0.5, 1.0, 16)
        chi = (q * vals) @ q.conj().T
        out = ch.project_psd_chi(chi)
        kept = np.clip(vals, 0.0, None)
        expected = (q * (kept * 4.0 / kept.sum())) @ q.conj().T
        assert np.allclose(out, expected, atol=1e-10)
        assert abs(np.trace(out).real - 4.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-12

    def test_degenerate_raises(self):
        with pytest.raises(ch.DegenerateChiError):
            ch.project_psd_chi(-np.eye(16))


class TestCptpResiduals:
    def test_zero_for_cptp_chi(self):
        basis = ch.pauli_basis(2).unit()
        chi = ch.superop_to_chi(ch.random_cptp_superop(4, seed=91), basis)
        assert np.abs(ch.cptp_residuals(chi)).max() < 1e-10

    def test_trace_component(self):
        basis = ch.pauli_basis(2).unit()
        chi = ch.superop_to_chi(ch.random_cptp_superop(4, seed=92), basis)
        r = ch.cptp_residuals(1.25 * chi)
        assert abs(r[0] - 1.0) < 1e-10

    def test_negative_eigenvalue_component(self):
        chi = np.zeros((16, 16), dtype=complex)
        chi[0, 0] = 4.5
        chi[1, 1] = -0.5
        r = ch.cptp_residuals(chi)
        assert abs(r[0]) < 1e-12
        assert abs(r[1] - 0.5) < 1e-12

    def test_completeness_block(self):
        chi = np.zeros((16, 16), dtype=complex)
        chi[0, 0] = 4.0
        r = ch.cptp_residuals(chi)
        assert np.abs(r).max() < 1e-12
        r2 = ch.cptp_residuals(2 * chi)
        # doubled identity weight doubles the completeness operator
        assert np.abs(r2[2:]).max() > 0.9


class TestRandomChannels:
    def test_kraus_completeness(self):
        ops = ch.random_kraus_set(4, 5, seed=101)
        assert ch.kraus_completeness_deviation(ops) < 1e-12

    def test_random_superop_cptp(self):
        s = ch.random_cptp_superop(4, seed=102)
        assert ch.is_cptp_choi(ch.superop_to_choi(s))

    def test_seed_determinism(self):
        a = ch.random_cptp_superop(4, seed=103)
        b = ch.random_cptp_superop(4, seed=103)
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_choi_roundtrip(seed):
    s = ch.random_cptp_superop(4, seed=seed)
    assert np.allclose(ch.choi_to_superop(ch.superop_to_choi(s)), s, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_chi_roundtrip_unit_basis(seed):
    basis = ch.pauli_basis(2).unit()
    s = ch.random_cptp_superop(4, seed=seed)
    chi = ch.superop_to_chi(s, basis)
    assert np.allclose(ch.chi_to_superop(chi, basis), s, atol=1e-10)
    assert abs(np.trace(chi).real - 4.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_composition_stays_cptp(seed):
    a = ch.random_cptp_superop(4, seed=seed)
    b = ch.random_cptp_superop(4, seed=seed + 1)
    assert ch.is_cptp_choi(ch.superop_to_choi(a @ b), psd_tol=1e-9, tp_tol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), pair_idx=st.integers(0, 2))
def test_property_reduction_of_embedded_channel(seed, pair_idx):
    pair = [(1, 2), (1, 3), (2, 3)][pair_idx]
    s2 = ch.random_cptp_superop(4, seed=seed)
    embedded = embed_pair(s2, pair, 3)
    red = ch.partial_trace_choi(ch.superop_to_choi(embedded), pair)
    assert np.allclose(red, ch.superop_to_choi(s2), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_trace_distance_metric(seed):
    a = ch.superop_to_choi(ch.random_cptp_superop(4, seed=seed))
    b = ch.superop_to_choi(ch.random_cptp_superop(4, seed=seed + 7))
    c = ch.superop_to_choi(ch.random_cptp_superop(4, seed=seed + 13))
    dab, dbc, dac = (ch.trace_distance(x, y) for x, y in ((a, b), (b, c), (a, c)))
    assert dab >= 0
    assert abs(ch.trace_distance(a, a)) < 1e-12
    assert dac <= dab + dbc + 1e-10
