"""Tests for noisy process simulation and simulated two-qubit tomography."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from pairtomo import channels as ch
from pairtomo.gates import CNOT_2Q, GateLayer, gate_unitary
from pairtomo.simulate import (
    COHERENT_AXES,
    CoherentLocal,
    CRCoherent,
    Decoherence,
    UnsupportedErrorModelError,
    amplitude_damping_kraus,
    coherent_rotation,
    cr_cnot_unitary,
    cr_unitary,
    dephasing_kraus,
    error_superop,
    qubit_decoherence_kraus,
    sampled_pairwise_qpt,
    simulate_noisy_process,
    zz_coupling_hz,
)
from pairtomo.model import all_pairs
from pairtomo.reconstruct import TomographyData
from conftest import partial_trace, trace_overlap_fidelity, unvec, vec


class TestCoherentRotation:
    def test_matches_matrix_exponential(self):
        for axis in "XYZ":
            for phi in (0.0, 0.02, 0.2, -1.3):
                oracle = scipy.linalg.expm(1j * phi * ch.PAULI_1Q[axis])
                assert np.allclose(coherent_rotation(axis, phi), oracle, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-np.pi, np.pi), st.sampled_from("XYZ"))
    def test_unitary(self, phi, axis):
        u = coherent_rotation(axis, phi)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


class TestKrausSets:
    def test_amplitude_damping_completeness(self):
        for p in (0.0, 0.3, 1.0):
            ops = amplitude_damping_kraus(p)
            total = sum(k.conj().T @ k for k in ops)
            assert np.allclose(total, np.eye(2), atol=1e-12)

    def test_amplitude_damping_excited_population(self):
        p = 0.37
        s = ch.kraus_to_superop(amplitude_damping_kraus(p))
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = unvec(s @ vec(rho))
        assert abs(out[1, 1] - (1.0 - p)) < 1e-12
        assert abs(out[0, 0] - p) < 1e-12

    def test_dephasing_kills_coherence(self):
        q = 0.25
        s = ch.kraus_to_superop(dephasing_kraus(q))
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = unvec(s @ vec(plus))
        # off-diagonal shrinks by 1 - 2q, populations untouched
        assert abs(out[0, 1] - 0.5 * (1.0 - 2.0 * q)) < 1e-12
        assert abs(out[0, 0] - 0.5) < 1e-12

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            amplitude_damping_kraus(-0.01)
        with pytest.raises(ValueError):
            amplitude_damping_kraus(1.01)
        with pytest.raises(ValueError):
            dephasing_kraus(1.5)


class TestQubitDecoherence:
    def test_bloch_decay_rates(self):
        # independent oracle: T1 decays the excited population as exp(-t/T1)
        # and T2 decays the coherence as exp(-t/T2)
        t1, t2, dt = 50e-6, 30e-6, 400e-9
        pop_factor = np.exp(-dt / t1)
        coh_factor = np.exp(-dt / t2)
        s = ch.kraus_to_superop(qubit_decoherence_kraus(t1, t2, dt))
        excited = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = unvec(s @ vec(excited))
        assert abs(out[1, 1] - pop_factor) < 1e-12
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = unvec(s @ vec(plus))
        assert abs(out[0, 1] - 0.5 * coh_factor) < 1e-12

    def test_t2_equal_2t1_is_pure_damping(self):
        t1, dt = 50e-6, 400e-9
        s = ch.kraus_to_superop(qubit_decoherence_kraus(t1, 2 * t1, dt))
        oracle = ch.kraus_to_superop(amplitude_damping_kraus(1.0 - np.exp(-dt / t1)))
        assert np.allclose(s, oracle, atol=1e-12)

    def test_zero_duration_is_identity(self):
        s = ch.kraus_to_superop(qubit_decoherence_kraus(50e-6, 50e-6, 0.0))
        assert np.allclose(s, np.eye(4), atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(1e-6, 1e-3),
        st.floats(0.1, 2.0),
        st.floats(0.0, 1e-5),
    )
    def test_completeness(self, t1, t2_ratio, dt):
        ops = qubit_decoherence_kraus(t1, t2_ratio * t1, dt)
        total = sum(k.conj().T @ k for k in ops)
        assert np.allclose(total, np.eye(2), atol=1e-12)


class TestDecoherenceValidation:
    def test_t2_above_limit(self):
        with pytest.raises(ValueError):
            Decoherence(t1=50e-6, t2=101e-6, duration=50e-9)

    def test_nonpositive_times(self):
        with pytest.raises(ValueError):
            Decoherence(t1=0.0, t2=50e-6, duration=50e-9)
        with pytest.raises(ValueError):
            Decoherence(t1=50e-6, t2=-1.0, duration=50e-9)

    def test_negative_duration(self):
        with pytest.raises(ValueError):
            Decoherence(t1=50e-6, t2=50e-6, duration=-1e-9)

    def test_nonfinite_phi(self):
        with pytest.raises(ValueError):
            CoherentLocal(phi=np.nan)
        with pytest.raises(ValueError):
            CRCoherent(beta=np.inf, phi_zz=0.0)


class TestErrorSuperop:
    def test_coherent_axis_cycle(self):
        # axes repeat (X, Y, X) by qubit index
        phi = 0.2
        for n, axes in ((2, "XY"), (3, "XYX"), (4, "XYXX"), (5, "XYXXY")):
            u = coherent_rotation(axes[0], phi)
            for a in axes[1:]:
                u = np.kron(u, coherent_rotation(a, phi))
            oracle = ch.unitary_to_superop(u)
            assert np.allclose(error_superop(CoherentLocal(phi), n), oracle, atol=1e-12)
        assert COHERENT_AXES == ("X", "Y", "X")

    def test_decoherence_is_product_channel(self):
        err = Decoherence(t1=50e-6, t2=30e-6, duration=400e-9)
        single = ch.kraus_to_superop(qubit_decoherence_kraus(err.t1, err.t2, err.duration))
        oracle = np.kron(single, single)
        # kron of column-stacked superoperators needs an interleaving, so
        # compare through the Choi of a product channel instead
        got = error_superop(err, 2)
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 2] = 1.0
        lhs = unvec(got @ vec(rho))
        a = np.zeros((2, 2), dtype=complex)
        a[0, 1] = 1.0
        b = np.zeros((2, 2), dtype=complex)
        b[1, 0] = 1.0
        # rho = a kron b, so the product channel maps it to E(a) kron E(b)
        ea = unvec(single @ vec(a))
        eb = unvec(single @ vec(b))
        assert np.allclose(lhs, np.kron(ea, eb), atol=1e-12)
        assert ch.is_cptp_choi(ch.superop_to_choi(got))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_decoherence_matches_kraus_enumeration(self, n):
        # oracle: every n-fold tensor product of the per-qubit Kraus operators
        err = Decoherence(t1=50e-6, t2=30e-6, duration=400e-9)
        per_qubit = qubit_decoherence_kraus(err.t1, err.t2, err.duration)
        oracle = np.zeros((4**n, 4**n), dtype=complex)
        for combo in itertools.product(per_qubit, repeat=n):
            k = np.eye(1, dtype=complex)
            for item in combo:
                k = np.kron(k, item)
            oracle += np.kron(k.conj(), k)
        assert np.abs(error_superop(err, n) - oracle).max() < 1e-14

    def test_cr_cannot_stand_alone(self):
        with pytest.raises(UnsupportedErrorModelError):
            error_superop(CRCoherent(beta=0.1, phi_zz=1e-3), 3)


class TestCrossResonance:
    def test_unitary_matches_matrix_exponential(self):
        beta, phi_zz = 0.13, 2e-3
        h = (np.pi / 2 + beta) * ch.pauli_product("ZXI") / 2.0
        h = h + phi_zz * ch.pauli_product("IZZ") / 2.0
        oracle = scipy.linalg.expm(-1j * h)
        assert np.allclose(cr_unitary(beta, phi_zz), oracle, atol=1e-12)

    def test_perfect_interaction_gives_cnot(self):
        ideal = np.kron(CNOT_2Q, np.eye(2))
        got = cr_cnot_unitary(0.0, 0.0)
        f = trace_overlap_fidelity(got, ideal)
        assert abs(f - 1.0) < 1e-12

    def test_rotation_error_fidelity(self):
        # detuning the interaction angle by beta costs cos(beta/2)^2 in
        # trace-overlap fidelity: the dressing rotations commute out and
        # leave exp(-i beta ZX/2), whose trace is d cos(beta/2)
        ideal = np.kron(CNOT_2Q, np.eye(2))
        for beta in (np.pi / 16, np.pi / 8, 0.3):
            f = trace_overlap_fidelity(cr_cnot_unitary(beta, 0.0), ideal)
            assert abs(f - np.cos(beta / 2.0) ** 2) < 1e-12
        assert abs(
            trace_overlap_fidelity(cr_cnot_unitary(np.pi / 16, 0.0), ideal) - 0.990393
        ) < 1e-6
        assert abs(
            trace_overlap_fidelity(cr_cnot_unitary(np.pi / 8, 0.0), ideal) - 0.961940
        ) < 1e-6

    def test_zz_coupling_label(self):
        # one milliradian over a 400 ns pulse is a 2.5 kHz coupling
        assert zz_coupling_hz(1e-3) == pytest.approx(2500.0)
        assert zz_coupling_hz(4e-3) == pytest.approx(10000.0)


class TestSimulateNoisyProcess:
    def test_error_follows_gate(self):
        gate = GateLayer(2, ("Z", "I"))
        err = CoherentLocal(0.3)
        # Z on qubit 1 does not commute with its X-axis error, so the
        # order of composition is observable
        u_gate = gate_unitary(gate)
        u_err = np.kron(coherent_rotation("X", 0.3), coherent_rotation("Y", 0.3))
        oracle = ch.unitary_to_superop(u_err @ u_gate)
        wrong_order = ch.unitary_to_superop(u_gate @ u_err)
        proc = simulate_noisy_process(gate, err)
        assert np.allclose(proc.superop, oracle, atol=1e-12)
        assert not np.allclose(proc.superop, wrong_order, atol=1e-6)
        assert proc.n_qubits == 2
        assert proc.gate == gate
        assert proc.error == err

    def test_cr_replaces_process(self):
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        err = CRCoherent(beta=0.1, phi_zz=1e-3)
        proc = simulate_noisy_process(gate, err)
        oracle = ch.unitary_to_superop(cr_cnot_unitary(0.1, 1e-3))
        assert np.allclose(proc.superop, oracle, atol=1e-12)

    def test_cr_needs_three_qubits(self):
        with pytest.raises(UnsupportedErrorModelError):
            simulate_noisy_process(GateLayer(2, ("I", "I"), cnot=(1, 2)), CRCoherent(0.1, 1e-3))

    def test_output_is_cptp(self):
        proc = simulate_noisy_process(
            GateLayer(3, ("X", "Y", "X")), Decoherence(50e-6, 50e-6, 400e-9)
        )
        assert ch.is_cptp_choi(ch.superop_to_choi(proc.superop))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "err",
        [CoherentLocal(0.13), Decoherence(50e-6, 40e-6, 400e-9)],
        ids=["coherent", "decoherence"],
    )
    def test_equals_dense_product(self, n, err):
        # the ideal layer is applied as a phased column permutation; it
        # must equal the dense product with the layer's superoperator
        rng = np.random.default_rng(n)
        for _ in range(6):
            labels = list(rng.choice(list("IXYZ"), n))
            cnot = None
            if rng.random() < 0.6:
                cnot = tuple(int(q) for q in rng.choice(np.arange(1, n + 1), 2, replace=False))
                for q in cnot:
                    labels[q - 1] = "I"
            gate = GateLayer(n, tuple(labels), cnot)
            dense = error_superop(err, n) @ ch.unitary_to_superop(gate_unitary(gate))
            superop = simulate_noisy_process(gate, err).superop
            assert superop.flags.c_contiguous
            assert np.array_equal(superop, dense), gate.label()

    @pytest.mark.parametrize(
        "err",
        [CoherentLocal(0.02), Decoherence(50e-6, 50e-6, 400e-9)],
        ids=["coherent", "decoherence"],
    )
    def test_peak_memory(self, err):
        # at n=4 the superoperator is a 256x256 complex matrix.  The peak is
        # two of that size, the error channel and its permuted columns, and
        # then the product and its Choi state, plus the CPTP self-check's
        # blocks of 64 rows, a quarter of the rows at n=4 (2.63x measured)
        gate = GateLayer(4, ("I", "I", "I", "I"), cnot=(1, 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            proc = simulate_noisy_process(gate, err)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.8 * proc.superop.nbytes


def reduced_choi_for_spectators(superop, pair, n, spect_bits):
    """Oracle: reduced Choi state on ``pair`` with the spectators prepared in
    the computational state ``spect_bits`` (qubit order, MSB first), built
    one superoperator column ``E(|x><y|)`` at a time."""
    k, l = pair
    d = 2**n
    spectators = [q for q in range(1, n + 1) if q not in (k, l)]
    choi = np.zeros((16, 16), dtype=complex)
    for mu_s, nu_s in itertools.product(range(4), repeat=2):
        bits_in = {k: (mu_s >> 1) & 1, l: mu_s & 1}
        bits_out = {k: (nu_s >> 1) & 1, l: nu_s & 1}
        for i, q in enumerate(spectators):
            b = (spect_bits >> (len(spectators) - 1 - i)) & 1
            bits_in[q] = b
            bits_out[q] = b
        x = sum(bits_in[q] << (n - q) for q in range(1, n + 1))
        y = sum(bits_out[q] << (n - q) for q in range(1, n + 1))
        out = unvec(superop[:, y * d + x])
        choi[4 * mu_s : 4 * mu_s + 4, 4 * nu_s : 4 * nu_s + 4] = partial_trace(out, pair, n)
    return choi / 4.0


def seed_drawing(n_states, state):
    """A seed whose single draw of a spectator state is ``state``."""
    for seed in itertools.count():
        if np.random.default_rng(seed).integers(0, n_states, size=1)[0] == state:
            return seed


class TestPairwiseQpt:
    def test_two_qubit_reduction_is_full_choi(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I"), cnot=(1, 2)), CoherentLocal(0.05))
        full = ch.superop_to_choi(proc.superop)
        assert np.allclose(TomographyData.from_process(proc).targets[0], full, atol=1e-12)
        assert np.allclose(sampled_pairwise_qpt(proc, (1, 2), 3, seed=0), full, atol=1e-12)

    def test_exhaustive_sampling_matches_exact(self):
        for labels in (("I", "Y", "I"), ("I", "Y", "I", "X")):
            gate = GateLayer(len(labels), labels, cnot=(1, 3))
            proc = simulate_noisy_process(gate, Decoherence(50e-6, 30e-6, 400e-9))
            exact = TomographyData.from_process(proc)
            for pair, target in zip(exact.pairs, exact.targets):
                sampled = sampled_pairwise_qpt(proc, pair, n_samples=1, seed=0, exhaustive=True)
                assert np.array_equal(sampled, target)

    @pytest.mark.parametrize("n", [3, 4])
    def test_single_preparation_matches_column_oracle(self, n):
        # one draw prepares the spectators in one computational state; the
        # selector form must agree with the column-by-column construction
        # for every pair and every state
        labels = ("X", "I", "I", "Z")[:n]
        proc = simulate_noisy_process(GateLayer(n, labels, cnot=(2, 3)), CoherentLocal(0.2))
        n_states = 2 ** (n - 2)
        for pair in all_pairs(n):
            for state in range(n_states):
                got = sampled_pairwise_qpt(proc, pair, 1, seed_drawing(n_states, state))
                oracle = reduced_choi_for_spectators(proc.superop, pair, n, state)
                assert np.abs(got - oracle).max() < 1e-12

    def test_sampled_mean_matches_column_oracle(self):
        gate = GateLayer(4, ("I", "Y", "I", "I"), cnot=(4, 1))
        proc = simulate_noisy_process(gate, CoherentLocal(0.1))
        draws = np.random.default_rng(7).integers(0, 4, size=5)
        oracle = [reduced_choi_for_spectators(proc.superop, (2, 4), 4, b) for b in draws]
        oracle = np.mean(oracle, axis=0)
        got = sampled_pairwise_qpt(proc, (2, 4), 5, seed=7)
        assert np.abs(got - oracle).max() < 1e-12

    def test_sampling_is_seed_deterministic(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.2))
        a = sampled_pairwise_qpt(proc, (1, 2), n_samples=5, seed=123)
        b = sampled_pairwise_qpt(proc, (1, 2), n_samples=5, seed=123)
        assert np.array_equal(a, b)

    def test_sampling_averages_spectator_states(self):
        # with a single draw the spectator is a pure computational state,
        # so averaging both branches by hand must reproduce the exact result
        proc = simulate_noisy_process(GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), CoherentLocal(0.1))
        exact = TomographyData.from_process(proc).targets[0]
        branches = [
            sampled_pairwise_qpt(proc, (1, 2), n_samples=40, seed=s, exhaustive=False)
            for s in (1, 2)
        ]
        # each branch is an average of draws from {|0>, |1>}; pooling many
        # draws converges to the uniform average
        pooled = (branches[0] + branches[1]) / 2.0
        assert np.linalg.norm(pooled - exact) < 0.3

    def test_sample_count_validation(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.2))
        with pytest.raises(ValueError):
            sampled_pairwise_qpt(proc, (1, 2), n_samples=0, seed=0)

    @pytest.mark.parametrize("n_samples", [True, 2.5, "2"])
    def test_sample_count_follows_value_rule(self, n_samples):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.2))
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            sampled_pairwise_qpt(proc, (1, 2), n_samples=n_samples, seed=0)

    def test_whole_number_float_sample_count(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.2))
        assert np.array_equal(
            sampled_pairwise_qpt(proc, (1, 3), n_samples=2.0, seed=5),
            sampled_pairwise_qpt(proc, (1, 3), n_samples=2, seed=5),
        )

    def test_pair_validation(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.2))
        with pytest.raises(ch.DimensionError):
            sampled_pairwise_qpt(proc, (2, 1), n_samples=1, seed=0)
