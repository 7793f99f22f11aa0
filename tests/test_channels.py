import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtomo import channels as ch
from pairtomo.model import factor_superop
from conftest import (
    chi_to_superop,
    choi_to_superop,
    embed_pair,
    partial_trace,
    random_cptp_superop,
    random_density,
    random_hermitian,
    random_kraus_set,
    random_unitary,
    superop_to_chi,
    trace_overlap_fidelity,
    unitarity_deviation,
    unvec,
    vec,
)

X = ch.PAULI_1Q["X"]
Y = ch.PAULI_1Q["Y"]
Z = ch.PAULI_1Q["Z"]
I2 = np.eye(2)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def apply_superop(s, rho):
    return unvec(s @ vec(rho))


class TestValueRule:
    """The one rule by which records and configs give counts and reals."""

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3)])
    def test_whole_number_accepts_integers(self, value):
        got = ch.whole_number(value, "count", least=1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [True, "3", 2.5, None, [3]])
    def test_whole_number_refuses_others(self, value):
        with pytest.raises(ValueError, match="count must be an integer"):
            ch.whole_number(value, "count")

    def test_whole_number_floor(self):
        with pytest.raises(ValueError, match="count must be at least 1"):
            ch.whole_number(0, "count", least=1)

    @pytest.mark.parametrize("value", [2, 0.5, np.float64(0.5)])
    def test_real_number_accepts_reals(self, value):
        assert type(ch.real_number(value, "x")) is float

    @pytest.mark.parametrize("value", [True, "5e-5", None, 1j])
    def test_real_number_refuses_others(self, value):
        with pytest.raises(ValueError, match="x must be a real number"):
            ch.real_number(value, "x")


class TestVec:
    # the oracles' vectorization, which the superoperator convention assumes
    def test_column_stacking_order(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vec(m), np.array([1.0, 3.0, 2.0, 4.0]))

    def test_roundtrip(self):
        m = random_hermitian(4, 7)
        assert np.array_equal(unvec(vec(m)), m)

    def test_vec_of_sandwich(self):
        # vec(A X B) = (B^T kron A) vec(X)
        rng = np.random.default_rng(3)
        a, x, b = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3))
        lhs = vec(a @ x @ b)
        rhs = np.kron(b.T, a) @ vec(x)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestPauliBasis:
    def test_single_qubit_products(self):
        assert np.array_equal(ch.pauli_product("X"), X)
        assert np.array_equal(ch.pauli_product("ZX"), np.kron(Z, X))

    def test_lexicographic_labels(self):
        assert ch.PAULI_LABELS_2Q[:5] == ("II", "IX", "IY", "IZ", "XI")
        assert len(ch.PAULI_LABELS_2Q) == 16
        for label, e in zip(ch.PAULI_LABELS_2Q, ch.PAULI_UNIT_2Q):
            assert np.array_equal(2.0 * e, ch.pauli_product(label))

    def test_qubit_one_is_most_significant(self):
        # label "XI" acts with X on qubit 1, the leftmost tensor factor
        assert np.array_equal(ch.pauli_product("XI"), np.kron(X, I2))

    def test_raw_orthogonality(self):
        e = np.stack([ch.pauli_product(label) for label in ch.PAULI_LABELS_2Q])
        gram = np.einsum("pba,rba->pr", e.conj(), e)
        assert np.allclose(gram, 4.0 * np.eye(16), atol=1e-12)

    def test_unit_normalization(self):
        e = ch.PAULI_UNIT_2Q
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
        ops = random_kraus_set(4, 3, seed=5)
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
        s = random_cptp_superop(4, seed=21)
        d = 4
        oracle = np.zeros((16, 16), dtype=complex)
        for mu, nu in itertools.product(range(d), repeat=2):
            basis_op = np.zeros((d, d), dtype=complex)
            basis_op[mu, nu] = 1.0
            out = apply_superop(s, basis_op)
            oracle += np.kron(basis_op, out)
        oracle /= d
        assert np.allclose(ch.superop_to_choi(s), oracle, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_reshuffle_bits_and_fresh_memory(self, d):
        rng = np.random.default_rng(d)
        s = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        out = ch.superop_to_choi(s)
        expected = s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d) / d
        assert np.array_equal(out, expected)
        # at d=1 the reshuffle is a view of the input: the result must not be
        assert not np.shares_memory(out, s)

    def test_peak_memory_is_one_output(self):
        # at n=4 the output is a 256x256 complex matrix; the reshuffle and the
        # division by d share one array
        s = random_cptp_superop(16, seed=24)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ch.superop_to_choi(s)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes

    def test_roundtrip(self):
        s = random_cptp_superop(4, seed=22)
        assert np.allclose(choi_to_superop(ch.superop_to_choi(s)), s, atol=1e-12)

    def test_cptp_choi_properties(self):
        choi = ch.superop_to_choi(random_cptp_superop(4, seed=23))
        assert abs(np.trace(choi).real - 1.0) < 1e-12
        # tracing the output half of a TP map's Choi state leaves I / d
        red = np.einsum("aibi->ab", choi.reshape(4, 4, 4, 4))
        assert np.abs(red - np.eye(4) / 4.0).max() < 1e-12
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
        # a CP map that loses trace passes the PSD test and fails only the
        # output-reduction (trace-preservation) test
        s = 0.7 * random_cptp_superop(4, seed=24)
        choi = ch.superop_to_choi(s)
        assert np.linalg.eigvalsh(choi).min() > -1e-12
        assert not ch.is_cptp_choi(choi)
        assert ch.is_cptp_choi(ch.superop_to_choi(random_cptp_superop(4, seed=25)))

    # (row, col) of the perturbation in a 256x256 (n=4) Choi state, which the
    # Hermiticity pass reads in four blocks of 64 rows
    @pytest.mark.parametrize(
        "where",
        [(3, 40), (70, 120), (200, 250), (63, 64), (0, 255)],
        ids=["first_block", "middle_block", "last_block", "block_edge", "corner"],
    )
    @pytest.mark.parametrize("scale", [10.0, 0.1])
    def test_anti_hermitian_perturbation(self, where, scale):
        # I / 256 is CPTP with every eigenvalue 1/256, so only Hermiticity
        # can fail; the perturbation moves choi - choi^dag by scale * tol
        r, c = where
        z = 0.5 * scale * ch._CPTP_TOL * np.exp(0.3j)
        choi = np.eye(256, dtype=complex) / 256
        choi[r, c] += z
        choi[c, r] -= np.conj(z)
        whole = float(np.abs(choi - choi.conj().T).max()) <= ch._CPTP_TOL
        assert whole == (scale < 1)
        assert ch.is_cptp_choi(choi) == whole

    @pytest.mark.parametrize(
        "dim, where, value",
        [
            (16, (5, 5), np.nan),
            (16, (5, 5), np.inf),
            (16, (2, 9), complex(0.0, np.nan)),
            (256, (250, 3), -np.inf),
        ],
        ids=["nan_diagonal", "inf_diagonal", "nan_imaginary", "inf_last_block"],
    )
    def test_non_finite_is_not_cptp(self, dim, where, value):
        # eigvalsh raises on a NaN it meets; the check must answer, not raise
        choi = np.eye(dim, dtype=complex) / dim
        choi[where] = value
        assert not ch.is_cptp_choi(choi)

    def test_cptp_check_peak_memory_below_input(self):
        # the Hermiticity pass holds a few 64-row blocks, never a full-size
        # conjugate transpose or difference of the 256x256 (n=4) input
        choi = ch.superop_to_choi(random_cptp_superop(16, seed=24))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert ch.is_cptp_choi(choi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= choi.nbytes


class TestChi:
    # chi matrices are coordinates over the unit Paulis E_p = P_p / 2
    def test_identity_channel_chi(self):
        chi = superop_to_chi(np.eye(16))
        expected = np.zeros((16, 16))
        expected[0, 0] = 4.0
        assert np.allclose(chi, expected, atol=1e-12)
        assert np.allclose(factor_superop(expected, (1, 2), 2), np.eye(16), atol=1e-12)

    def test_pauli_channel_chi(self):
        # conjugation by IX has all weight on that basis element
        s = ch.unitary_to_superop(ch.pauli_product("IX"))
        expected = np.zeros((16, 16))
        expected[1, 1] = 4.0
        assert np.allclose(superop_to_chi(s), expected, atol=1e-12)
        assert np.allclose(factor_superop(expected, (1, 2), 2), s, atol=1e-12)

    def test_unit_basis_chi_trace_four(self):
        for seed in (1, 2, 3):
            chi = superop_to_chi(random_cptp_superop(4, seed=seed))
            assert abs(np.trace(chi).real - 4.0) < 1e-10
            assert np.linalg.eigvalsh((chi + chi.conj().T) / 2)[0] > -1e-10

    def test_chi_superop_roundtrip(self):
        chi = random_hermitian(16, 31)
        s = factor_superop(chi, (1, 2), 2)
        assert np.allclose(s, chi_to_superop(chi), atol=1e-12)
        assert np.allclose(superop_to_chi(s), chi, atol=1e-11)

    def test_chi_of_sum_convention(self):
        # E(rho) = sum chi[p,r] E_r rho E_p^dag over the unit Paulis
        chi = random_hermitian(16, 9)
        e = ch.PAULI_UNIT_2Q
        rho = random_density(4, 10)
        s = factor_superop(chi, (1, 2), 2)
        direct = np.zeros((4, 4), dtype=complex)
        for p, r in itertools.product(range(16), repeat=2):
            direct += chi[p, r] * e[r] @ rho @ e[p].conj().T
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

    def test_embed_operator_positions_follow_value_rule(self):
        # a fraction or a boolean is no qubit, where int() would read (1, 2)
        for positions in [(1.5, 2), (True, 2)]:
            with pytest.raises(ValueError, match="a qubit position must be an integer"):
                ch.embed_operator(CNOT, positions, 3)
        assert np.array_equal(ch.embed_operator(CNOT, (1.0, 3.0), 3), ch.embed_operator(CNOT, (1, 3), 3))

    def test_embed_pair_matches_kraus_embedding(self):
        ops = random_kraus_set(4, 2, seed=42)
        s2 = ch.kraus_to_superop(ops)
        for pair in [(1, 2), (1, 3), (2, 3)]:
            embedded = embed_pair(s2, pair, 3)
            oracle = ch.kraus_to_superop([ch.embed_operator(k, pair, 3) for k in ops])
            assert np.allclose(embedded, oracle, atol=1e-10)

    def test_embed_pair_two_qubit_identity(self):
        # on a two-qubit register the embedding is the channel itself
        s2 = random_cptp_superop(4, seed=43)
        assert np.allclose(factor_superop(superop_to_chi(s2), (1, 2), 2), s2, atol=1e-12)

    def test_factor_superop_matches_embed_pair(self):
        s2 = random_cptp_superop(4, seed=44)
        chi = superop_to_chi(s2)
        assert np.allclose(factor_superop(chi, (1, 3), 3), embed_pair(s2, (1, 3), 3), atol=1e-11)

    def test_bad_pair_raises(self):
        with pytest.raises(ch.DimensionError):
            factor_superop(np.eye(16), (2, 1), 3)
        with pytest.raises(ch.DimensionError):
            factor_superop(np.eye(16), (1, 4), 3)
        with pytest.raises(ch.DimensionError):
            factor_superop(np.eye(4), (1, 2), 3)


class TestPartialTrace:
    # the oracle partial trace that the sampled-tomography tests rely on
    def test_product_state(self):
        r1, r2, r3 = (random_density(2, s) for s in (51, 52, 53))
        rho = np.kron(np.kron(r1, r2), r3)
        assert np.allclose(partial_trace(rho, (1, 3), 3), np.kron(r1, r3), atol=1e-12)
        assert np.allclose(partial_trace(rho, (2,), 3), r2, atol=1e-12)

    def test_manual_summation_oracle(self):
        rho = random_density(8, 54)
        # trace out qubit 2, keep (1, 3)
        oracle = np.zeros((4, 4), dtype=complex)
        for b1, b3, c1, c3 in itertools.product(range(2), repeat=4):
            for b2 in range(2):
                row = (b1 << 2) | (b2 << 1) | b3
                col = (c1 << 2) | (b2 << 1) | c3
                oracle[(b1 << 1) | b3, (c1 << 1) | c3] += rho[row, col]
        assert np.allclose(partial_trace(rho, (1, 3), 3), oracle, atol=1e-12)

    def test_keep_order_matters(self):
        rho = random_density(8, 55)
        swapped = partial_trace(rho, (3, 1), 3)
        straight = partial_trace(rho, (1, 3), 3)
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
        choi = ch.superop_to_choi(random_cptp_superop(8, seed=64))
        red = ch.partial_trace_choi(choi, (1, 3))
        assert abs(np.trace(red) - np.trace(choi)) < 1e-12

    def test_two_qubit_passthrough(self):
        choi = ch.superop_to_choi(random_cptp_superop(4, seed=65))
        assert np.array_equal(ch.partial_trace_choi(choi, (1, 2)), choi)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_byte_equal_to_trace_of_permuted_axes(self, n):
        # the gather must add in np.trace's order, or fits change in rounding
        rng = np.random.default_rng(66 + n)
        d = 4**n
        choi = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = 4 ** (n - 2)
        for k, l in itertools.combinations(range(1, n + 1), 2):
            spect = [q for q in range(1, n + 1) if q not in (k, l)]
            kept = [k - 1, l - 1, n + k - 1, n + l - 1]
            traced = [q - 1 for q in spect] + [n + q - 1 for q in spect]
            perm = kept + traced + [2 * n + a for a in kept] + [2 * n + a for a in traced]
            t = choi.reshape([2] * (4 * n)).transpose(perm).reshape(16, m, 16, m)
            assert np.array_equal(ch.partial_trace_choi(choi, (k, l)), np.trace(t, axis1=1, axis2=3))

    def test_peak_memory_five_qubits(self):
        # a gather of the 16 * 16 * 64 summed entries, not a copy of the
        # 16 MB state
        rng = np.random.default_rng(67)
        choi = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        ch.partial_trace_choi(choi, (2, 4))  # the index table is a cached constant
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ch.partial_trace_choi(choi, (1, 5))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestPairSelector:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reduction_matches_partial_trace(self, n):
        s = random_cptp_superop(2**n, seed=68 + n)
        choi = ch.superop_to_choi(s)
        for pair in itertools.combinations(range(1, n + 1), 2):
            r = ch.pair_selector(pair, n)
            got = ch.superop_to_choi(r @ s @ r.T) / 2 ** (n - 2)
            assert np.allclose(got, ch.partial_trace_choi(choi, pair), atol=1e-13)

    def test_traces_spectators_and_embeds_with_identity(self):
        rho = random_density(16, 70)
        x = random_hermitian(4, 71)
        for pair in itertools.combinations(range(1, 5), 2):
            r = ch.pair_selector(pair, 4)
            assert np.allclose(unvec(r @ vec(rho)), partial_trace(rho, pair, 4), atol=1e-13)
            placed = ch.embed_operator(x, pair, 4)
            assert np.array_equal(unvec(r.T @ vec(x)), placed)

    def test_refuses_a_bad_pair(self):
        with pytest.raises(ch.DimensionError):
            ch.pair_selector((3, 1), 3)


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
        h = random_hermitian(4, 74)
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert unitarity_deviation(random_unitary(4, 75)) < 1e-12
        assert unitarity_deviation(2 * np.eye(4)) > 1.0


class TestProjectPsdChi:
    def test_idempotent_on_valid_chi(self):
        chi = superop_to_chi(random_cptp_superop(4, seed=81))
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
        chi = superop_to_chi(random_cptp_superop(4, seed=91))
        assert np.abs(ch.cptp_residuals(chi)).max() < 1e-10

    def test_trace_component(self):
        chi = superop_to_chi(random_cptp_superop(4, seed=92))
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
        ops = random_kraus_set(4, 5, seed=101)
        assert np.abs(sum(k.conj().T @ k for k in ops) - np.eye(4)).max() < 1e-12

    def test_random_superop_cptp(self):
        s = random_cptp_superop(4, seed=102)
        assert ch.is_cptp_choi(ch.superop_to_choi(s))

    def test_seed_determinism(self):
        a = random_cptp_superop(4, seed=103)
        b = random_cptp_superop(4, seed=103)
        assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_choi_roundtrip(seed):
    s = random_cptp_superop(4, seed=seed)
    assert np.allclose(choi_to_superop(ch.superop_to_choi(s)), s, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_chi_roundtrip_unit_basis(seed):
    s = random_cptp_superop(4, seed=seed)
    chi = superop_to_chi(s)
    assert np.allclose(factor_superop(chi, (1, 2), 2), s, atol=1e-10)
    assert abs(np.trace(chi).real - 4.0) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_composition_stays_cptp(seed):
    a = random_cptp_superop(4, seed=seed)
    b = random_cptp_superop(4, seed=seed + 1)
    assert ch.is_cptp_choi(ch.superop_to_choi(a @ b))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), pair_idx=st.integers(0, 2))
def test_property_reduction_of_embedded_channel(seed, pair_idx):
    pair = [(1, 2), (1, 3), (2, 3)][pair_idx]
    s2 = random_cptp_superop(4, seed=seed)
    embedded = embed_pair(s2, pair, 3)
    red = ch.partial_trace_choi(ch.superop_to_choi(embedded), pair)
    assert np.allclose(red, ch.superop_to_choi(s2), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_trace_distance_metric(seed):
    a = ch.superop_to_choi(random_cptp_superop(4, seed=seed))
    b = ch.superop_to_choi(random_cptp_superop(4, seed=seed + 7))
    c = ch.superop_to_choi(random_cptp_superop(4, seed=seed + 13))
    dab, dbc, dac = (ch.trace_distance(x, y) for x, y in ((a, b), (b, c), (a, c)))
    assert dab >= 0
    assert abs(ch.trace_distance(a, a)) < 1e-12
    assert dac <= dab + dbc + 1e-10
