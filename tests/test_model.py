import numpy as np
import pytest

from pairtomo import channels as ch
from pairtomo.gates import CNOT_2Q, GateLayer, gate_unitary
from pairtomo.model import (
    N_PARAMS_PER_FACTOR,
    PairwiseModel,
    all_pairs,
    build_superop,
    chi_of_unitary,
    factor_superop,
    ideal_initial_guess,
    identity_chi,
    identity_model,
    pack,
    unpack,
)
from conftest import embed_pair, random_unitary


def model_of_unitaries(n, mapping):
    """Pairwise model whose factors conjugate by given two-qubit unitaries."""
    m = identity_model(n)
    for pair, u in mapping.items():
        m = m.replace_factor(pair, chi_of_unitary(u))
    return m


class TestStructure:
    def test_all_pairs_lexicographic(self):
        assert all_pairs(3) == ((1, 2), (1, 3), (2, 3))
        assert all_pairs(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        assert all_pairs(2) == ((1, 2),)

    def test_n_parameters(self):
        assert N_PARAMS_PER_FACTOR == 256
        assert pack(identity_model(2)).shape == (256,)
        assert pack(identity_model(3)).shape == (768,)

    def test_wrong_pair_order_rejected(self):
        factors = tuple((p, identity_chi()) for p in ((1, 3), (1, 2), (2, 3)))
        with pytest.raises(ValueError):
            PairwiseModel(3, factors)

    def test_replace_and_lookup(self):
        m = identity_model(3)
        chi = chi_of_unitary(CNOT_2Q)
        m2 = m.replace_factor((1, 3), chi)
        assert np.array_equal(m2.chi((1, 3)), chi)
        assert np.array_equal(m2.chi((1, 2)), identity_chi())
        with pytest.raises(KeyError):
            m2.chi((3, 1))


class TestIdentity:
    def test_identity_chi_form(self):
        chi = identity_chi()
        assert chi[0, 0] == 4.0
        assert np.trace(chi).real == 4.0
        assert np.count_nonzero(chi) == 1

    def test_identity_model_superop(self):
        for n in (2, 3):
            assert np.allclose(build_superop(identity_model(n)), np.eye(4**n), atol=1e-12)


class TestChiOfUnitary:
    def test_trace_four_and_psd(self):
        chi = chi_of_unitary(CNOT_2Q)
        assert abs(np.trace(chi).real - 4.0) < 1e-12
        vals = np.linalg.eigvalsh((chi + chi.conj().T) / 2)
        assert vals[0] > -1e-12
        # conjugation is an extreme point: a single nonzero eigenvalue
        assert np.sum(vals > 1e-10) == 1

    def test_round_trip_through_factor_superop(self):
        u = random_unitary(4, 5)
        s = factor_superop(chi_of_unitary(u), (1, 2), 2)
        assert np.allclose(s, ch.unitary_to_superop(u), atol=1e-11)


class TestFactorSuperop:
    def test_matches_embedded_unitary(self):
        u = random_unitary(4, 6)
        for pair in [(1, 2), (1, 3), (2, 3)]:
            s = factor_superop(chi_of_unitary(u), pair, 3)
            oracle = ch.unitary_to_superop(ch.embed_operator(u, pair, 3))
            assert np.allclose(s, oracle, atol=1e-11)

    def test_matches_embedded_channel(self):
        s2 = ch.random_cptp_superop(4, seed=7)
        # expansion over the unit basis is the stored trace-4 convention
        chi = ch.superop_to_chi(s2, ch.pauli_basis(2).unit())
        assert abs(np.trace(chi).real - 4.0) < 1e-10
        assert np.allclose(factor_superop(chi, (2, 3), 3), embed_pair(s2, (2, 3), 3), atol=1e-10)


class TestBuildSuperop:
    def test_first_factor_applied_last(self):
        u12, u13, u23 = (random_unitary(4, s) for s in (11, 12, 13))
        m = model_of_unitaries(3, {(1, 2): u12, (1, 3): u13, (2, 3): u23})
        full = (
            ch.embed_operator(u12, (1, 2), 3)
            @ ch.embed_operator(u13, (1, 3), 3)
            @ ch.embed_operator(u23, (2, 3), 3)
        )
        assert np.allclose(build_superop(m), ch.unitary_to_superop(full), atol=1e-10)

    def test_reduced_choi_of_model(self):
        u12 = random_unitary(4, 16)
        m = model_of_unitaries(3, {(1, 2): u12})
        red = ch.partial_trace_choi(ch.superop_to_choi(build_superop(m)), (1, 2))
        assert np.allclose(red, ch.superop_to_choi(ch.unitary_to_superop(u12)), atol=1e-10)


class TestPackUnpack:
    def test_roundtrip_from_vector_is_exact(self):
        rng = np.random.default_rng(21)
        v = rng.standard_normal(3 * N_PARAMS_PER_FACTOR)
        assert np.array_equal(pack(unpack(v, 3)), v)

    def test_roundtrip_from_model_is_exact(self):
        rng = np.random.default_rng(22)
        factors = []
        for pair in all_pairs(3):
            a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            factors.append((pair, (a + a.conj().T) / 2))
        m = PairwiseModel(3, tuple(factors))
        m2 = unpack(pack(m), 3)
        for (p1, c1), (p2, c2) in zip(m.factors, m2.factors):
            assert p1 == p2
            assert np.array_equal(c1, c2)

    def test_wrong_length_raises(self):
        with pytest.raises(ch.DimensionError):
            unpack(np.zeros(100), 3)

    def test_unpacked_chi_is_hermitian(self):
        rng = np.random.default_rng(23)
        m = unpack(rng.standard_normal(N_PARAMS_PER_FACTOR), 2)
        chi = m.chi((1, 2))
        assert ch.hermiticity_deviation(chi) == 0.0


class TestIdealInitialGuess:
    @pytest.mark.parametrize(
        "layer",
        [
            GateLayer(3, ("I", "I", "I"), None),
            GateLayer(3, ("X", "Y", "X"), None),
            GateLayer(3, ("I", "I", "Z"), None),
            GateLayer(3, ("I", "I", "I"), (1, 2)),
            GateLayer(3, ("I", "I", "I"), (1, 3)),
            GateLayer(3, ("I", "I", "I"), (2, 3)),
            GateLayer(3, ("I", "I", "I"), (2, 1)),
            GateLayer(3, ("I", "I", "I"), (3, 1)),
            GateLayer(3, ("I", "I", "X"), (1, 2)),
            GateLayer(2, ("I", "I"), (2, 1)),
            GateLayer(2, ("X", "Z"), None),
        ],
    )
    def test_reproduces_ideal_gate(self, layer):
        m = ideal_initial_guess(layer)
        oracle = ch.unitary_to_superop(gate_unitary(layer))
        assert np.allclose(build_superop(m), oracle, atol=1e-10)

    def test_cnot_sits_on_its_pair(self):
        m = ideal_initial_guess(GateLayer(3, ("I", "I", "I"), (1, 3)))
        assert np.array_equal(m.chi((1, 2)), identity_chi())
        assert np.array_equal(m.chi((2, 3)), identity_chi())
        assert not np.array_equal(m.chi((1, 3)), identity_chi())

    def test_factors_are_cptp(self):
        m = ideal_initial_guess(GateLayer(3, ("I", "Y", "I"), (1, 3)))
        for _, chi in m.factors:
            assert np.abs(ch.cptp_residuals(chi)).max() < 1e-10
