"""Tests for the pairwise least-squares reconstruction machinery."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pairtomo
from pairtomo import channels as ch
from pairtomo import serialize as se
from pairtomo.gates import GateLayer
from pairtomo.model import (
    PairwiseModel,
    all_pairs,
    build_superop,
    ideal_initial_guess,
    identity_model,
    pack,
    unpack,
)
from pairtomo.reconstruct import (
    SolverConfig,
    SolverDivergedError,
    TomographyData,
    _jacobian,
    model_trace_distances,
    residual_vector,
    solve,
)
from pairtomo.simulate import CoherentLocal, Decoherence, simulate_noisy_process


def cost_c1(model: PairwiseModel, data: TomographyData) -> float:
    """Data misfit: summed squared Frobenius distance of the pair reductions."""
    choi = ch.superop_to_choi(build_superop(model))
    total = 0.0
    for pair, target in zip(data.pairs, data.targets):
        diff = ch.partial_trace_choi(choi, pair) - target
        total += float(np.sum(diff.real**2 + diff.imag**2))
    return total


def random_model(n_qubits: int, seed: int, spread: float = 0.05) -> PairwiseModel:
    """Valid CPTP factors perturbed by a Hermitian kick of the given size."""
    rng = np.random.default_rng(seed)
    basis = ch.pauli_basis(2).unit()
    model = identity_model(n_qubits)
    for pair in all_pairs(n_qubits):
        s = ch.random_cptp_superop(4, seed=int(rng.integers(2**31)))
        chi = ch.superop_to_chi(s, basis)
        kick = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        chi = chi + spread * (kick + kick.conj().T) / 2.0
        model = model.replace_factor(pair, chi)
    return model


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps_tol == 1e-7
        assert cfg.max_iters == 500
        assert cfg.penalty_weight == 1.0
        assert cfg.seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_tol": 0.0},
            {"eps_tol": -1e-9},
            {"max_iters": 0},
            {"penalty_weight": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestTomographyData:
    def test_from_superop_infers_width(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.02))
        data = TomographyData.from_superop(proc.superop)
        assert data.n_qubits == 3
        assert data.pairs == ((1, 2), (1, 3), (2, 3))
        direct = TomographyData.from_process(proc)
        for a, b in zip(data.targets, direct.targets):
            assert np.array_equal(a, b)

    def test_pair_order_enforced(self):
        t = [np.eye(16) / 4.0] * 3
        with pytest.raises(ch.DimensionError):
            TomographyData(3, ((2, 1), (1, 3), (2, 3)), tuple(t))

    def test_target_count_and_shape(self):
        with pytest.raises(ch.DimensionError):
            TomographyData(3, all_pairs(3), (np.eye(16) / 4.0,) * 2)
        with pytest.raises(ch.DimensionError):
            TomographyData(2, all_pairs(2), (np.eye(4),))

    def test_targets_frozen(self):
        data = TomographyData(2, all_pairs(2), (np.eye(16, dtype=complex) / 4.0,))
        with pytest.raises(ValueError):
            data.targets[0][0, 0] = 9.0

    def test_validate_cptp(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "I", "I")), CoherentLocal(0.1))
        for target in TomographyData.from_process(proc).targets:
            assert ch.is_cptp_choi(target, psd_tol=1e-8, tp_tol=1e-8)
        # a document boundary refuses a target that is no channel's Choi state
        bad = TomographyData(2, all_pairs(2), (np.eye(16, dtype=complex),))
        assert not ch.is_cptp_choi(bad.targets[0], psd_tol=1e-8, tp_tol=1e-8)
        with pytest.raises(se.SerializationError, match="trace"):
            se.data_from_dict(se.data_to_dict(bad))


class TestResidualLayout:
    def test_lengths(self):
        # per pair 256 Hermitian coordinates, per factor 34 penalty entries
        for n, n_pairs in ((2, 1), (3, 3)):
            model = identity_model(n)
            gate = GateLayer(n, ("I",) * n)
            data = TomographyData.from_process(
                simulate_noisy_process(gate, CoherentLocal(0.05))
            )
            r = residual_vector(model, data)
            assert r.size == n_pairs * 256 + n_pairs * 34

    def test_data_block_vanishes_on_exact_model(self):
        proc = simulate_noisy_process(GateLayer(2, ("X", "Y")), CoherentLocal(0.07))
        data = TomographyData.from_process(proc)
        model = identity_model(2).replace_factor(
            (1, 2), ch.superop_to_chi(proc.superop, ch.pauli_basis(2).unit())
        )
        r = residual_vector(model, data)
        assert np.max(np.abs(r[:256])) < 1e-12
        # the factor is a valid channel, so the penalty block vanishes too
        assert np.max(np.abs(r[256:])) < 1e-10

    def test_penalty_block_scales_with_weight(self):
        model = identity_model(2).replace_factor((1, 2), 1.25 * np.eye(16, dtype=complex) / 4.0)
        gate = GateLayer(2, ("I", "I"))
        data = TomographyData.from_process(simulate_noisy_process(gate, CoherentLocal(0.0)))
        r1 = residual_vector(model, data, penalty_weight=1.0)
        r4 = residual_vector(model, data, penalty_weight=4.0)
        assert np.allclose(r4[256:], 2.0 * r1[256:], atol=1e-14)
        assert np.allclose(r4[:256], r1[:256], atol=1e-14)

    def test_data_block_norm_is_c1(self):
        # Hermitian coordinates keep the squared Frobenius norm of each pair
        # difference, so the data block carries exactly the data misfit
        model = random_model(3, seed=11)
        gate = GateLayer(3, ("X", "I", "I"), cnot=(2, 3))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, Decoherence(50e-6, 40e-6, 100e-9))
        )
        r = residual_vector(model, data)
        data_block = r[: 256 * len(data.pairs)]
        assert float(data_block @ data_block) == pytest.approx(cost_c1(model, data), rel=1e-12)

    def test_qubit_count_mismatch(self):
        data = TomographyData(2, all_pairs(2), (np.eye(16, dtype=complex) / 4.0,))
        with pytest.raises(ch.DimensionError):
            residual_vector(identity_model(3), data)


class TestCosts:
    def test_c1_frobenius_oracle(self):
        # all-identity model against data from an X Y X layer
        gate = GateLayer(3, ("X", "Y", "X"))
        proc = simulate_noisy_process(gate, CoherentLocal(0.0))
        data = TomographyData.from_process(proc)
        model = identity_model(3)
        choi = ch.superop_to_choi(build_superop(model))
        oracle = 0.0
        for pair, target in zip(data.pairs, data.targets):
            diff = ch.partial_trace_choi(choi, pair) - target
            oracle += float(np.sum(np.abs(diff) ** 2))
        data_block = residual_vector(model, data)[: 256 * len(data.pairs)]
        assert float(data_block @ data_block) == pytest.approx(oracle, rel=1e-12)
        assert oracle > 0.1

    def test_c2_is_residual_norm(self):
        # the cost a fit reports is the squared residual at its raw model
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, Decoherence(50e-6, 50e-6, 50e-9))
        )
        cfg = SolverConfig(max_iters=3, penalty_weight=0.7)
        result = solve(data, random_model(3, seed=5), cfg)
        r = residual_vector(result.raw_model, data, penalty_weight=0.7)
        assert result.cost == float(r @ r)
        assert result.cost_history[-1] == result.cost

    def test_c2_splits_into_data_and_penalty(self):
        model = random_model(3, seed=6)
        gate = GateLayer(3, ("X", "Y", "X"))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, CoherentLocal(0.02))
        )
        w = 1.3
        penalty = sum(
            float(np.sum(ch.cptp_residuals(chi) ** 2)) for _, chi in model.factors
        )
        r = residual_vector(model, data, penalty_weight=w)
        total = float(r @ r)
        assert total == pytest.approx(cost_c1(model, data) + w * penalty, rel=1e-12)

    def test_exact_model_costs_vanish(self):
        gate = GateLayer(3, ("X", "Y", "X"))
        proc = simulate_noisy_process(gate, CoherentLocal(0.0))
        data = TomographyData.from_process(proc)
        model = ideal_initial_guess(gate)
        assert cost_c1(model, data) < 1e-18
        r = residual_vector(model, data)
        assert float(r @ r) < 1e-18


class TestEngine:
    """The exact Jacobian that the fit's steps are solved with."""

    @pytest.mark.parametrize("n,seed", [(2, 7), (3, 8)])
    def test_jacobian_matches_central_difference(self, n, seed):
        # at an interior point, where no factor eigenvalue is near the
        # negative-eigenvalue threshold, the exact Jacobian and a central
        # difference of the residual agree to the difference's own error
        model = unpack(pack(random_model(n, seed=seed, spread=0.02)), n)
        vals = np.concatenate([np.linalg.eigvalsh(chi) for _, chi in model.factors])
        assert np.abs(vals).min() > 1e-3
        assert vals.min() < 0.0  # the negative-eigenvalue row is exercised
        gate = GateLayer(n, ("I",) * (n - 1) + ("X",))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, Decoherence(60e-6, 40e-6, 100e-9))
        )
        w = 0.7
        v = pack(model)
        jac = _jacobian(model, data, w)
        fn = lambda u: residual_vector(unpack(u, n), data, penalty_weight=w)
        step = 1e-6
        ref = np.empty_like(jac)
        for j in range(v.size):
            e = np.zeros_like(v)
            e[j] = step
            ref[:, j] = (fn(v + e) - fn(v - e)) / (2.0 * step)
        assert np.abs(jac - ref).max() < 1e-7

    def test_penalty_rows_at_psd_boundary(self):
        # identity factors sit on the PSD boundary (15 zero eigenvalues):
        # the one-sided negative-eigenvalue slope is zero there, and the
        # trace and completeness rows are the closed-form linear maps
        proc = simulate_noisy_process(GateLayer(2, ("X", "I")), CoherentLocal(0.05))
        data = TomographyData.from_process(proc)
        w = 2.0
        jac = _jacobian(identity_model(2), data, w)
        penalty = jac[256:]
        assert penalty.shape == (34, 256)
        assert np.array_equal(penalty[1], np.zeros(256))
        e = ch.pauli_basis(2).unit().elements
        root = np.sqrt(w)
        for t in range(256):
            unit = np.zeros(256)
            unit[t] = 1.0
            b = unpack(unit, 2).factors[0][1]
            comp = np.einsum("pr,pab,rac->bc", b, e.conj(), e)
            assert penalty[0, t] == pytest.approx(root * np.trace(b).real, abs=1e-14)
            assert np.allclose(penalty[2:18, t], root * comp.real.ravel(), atol=1e-14)
            assert np.allclose(penalty[18:, t], root * comp.imag.ravel(), atol=1e-14)


class TestSolve:
    def test_recovers_random_two_qubit_channel(self):
        # single-pair fitting is plain process tomography; a tight stopping
        # threshold drives the quadratic tail well below the 1e-6 oracle bound
        s = ch.random_cptp_superop(4, seed=42)
        data = TomographyData.from_superop(s, 2)
        result = solve(data, identity_model(2), SolverConfig(eps_tol=1e-10), true_superop=s)
        assert result.converged
        assert result.full_trace_distance < 1e-6
        assert result.pair_trace_distances[0] < 1e-6

    def test_cnot_decoherence_two_qubit(self):
        proc = simulate_noisy_process(
            GateLayer(2, ("I", "I"), cnot=(1, 2)), Decoherence(50e-6, 50e-6, 400e-9)
        )
        data = TomographyData.from_process(proc)
        # tight stopping threshold: the data is exactly representable, so the
        # quadratic tail runs until the answer matches the closed form
        result = solve(
            data,
            ideal_initial_guess(proc.gate),
            SolverConfig(eps_tol=1e-10),
            true_superop=proc.superop,
        )
        assert result.pair_trace_distances[0] <= 1e-6
        # representable data must converge in a handful of steps, not stall
        # against max_iters
        assert result.converged
        assert result.iterations < 20

    def test_ideal_data_ideal_guess_immediate(self):
        gate = GateLayer(3, ("X", "Y", "X"))
        proc = simulate_noisy_process(gate, CoherentLocal(0.0))
        data = TomographyData.from_process(proc)
        result = solve(data, ideal_initial_guess(gate), true_superop=proc.superop)
        assert result.converged
        assert result.iterations <= 1
        assert result.cost < 1e-14
        assert result.full_trace_distance < 1e-10

    def test_cost_history_monotone(self):
        proc = simulate_noisy_process(GateLayer(2, ("X", "Y")), CoherentLocal(0.1))
        data = TomographyData.from_process(proc)
        result = solve(data, identity_model(2))
        hist = np.asarray(result.cost_history)
        assert hist.size >= 2
        assert np.all(np.diff(hist) <= 0.0)

    def test_max_iters_leaves_unconverged_but_projected(self):
        proc = simulate_noisy_process(
            GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), Decoherence(50e-6, 50e-6, 400e-9)
        )
        data = TomographyData.from_process(proc)
        result = solve(data, ideal_initial_guess(proc.gate), SolverConfig(max_iters=2))
        assert not result.converged
        assert result.iterations == 2
        for _, chi in result.model.factors:
            vals = np.linalg.eigvalsh((chi + chi.conj().T) / 2.0)
            assert vals.min() >= -1e-12
            assert abs(np.trace(chi).real - 4.0) < 1e-12

    def test_projected_model_scores(self):
        # projected_cost and the reported trace distances are those of the
        # returned (projected) model
        proc = simulate_noisy_process(
            GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), CoherentLocal(0.02)
        )
        data = TomographyData.from_process(proc)
        cfg = SolverConfig(max_iters=3, penalty_weight=0.7)
        result = solve(data, ideal_initial_guess(proc.gate), cfg, true_superop=proc.superop)
        r = residual_vector(result.model, data, penalty_weight=0.7)
        assert result.projected_cost == pytest.approx(float(r @ r), rel=1e-12)
        assert model_trace_distances(result.model, data, proc.superop) == (
            result.pair_trace_distances,
            result.full_trace_distance,
        )
        assert model_trace_distances(result.model, data)[1] is None

    def test_deterministic(self):
        proc = simulate_noisy_process(GateLayer(2, ("X", "I")), CoherentLocal(0.04))
        data = TomographyData.from_process(proc)
        a = solve(data, ideal_initial_guess(proc.gate))
        b = solve(data, ideal_initial_guess(proc.gate))
        assert np.array_equal(pack(a.raw_model), pack(b.raw_model))
        assert a.cost_history == b.cost_history

    def test_divergence_reported(self):
        bad = np.full((16, 16), np.nan, dtype=complex)
        data = TomographyData(2, all_pairs(2), (bad,))
        with pytest.raises(SolverDivergedError):
            solve(data, identity_model(2))

    def test_truth_optional(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.02))
        data = TomographyData.from_process(proc)
        result = solve(data, identity_model(2), SolverConfig(max_iters=5))
        assert result.full_trace_distance is None

    def test_init_width_mismatch(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.02))
        data = TomographyData.from_process(proc)
        with pytest.raises(ch.DimensionError):
            solve(data, identity_model(3))


def test_solve_leaves_scipy_linalg_unloaded():
    # the fit needs numpy only: importing scipy.linalg would add about 0.2 s
    # and 27 MB to every process that fits
    src = str(Path(pairtomo.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys\n"
        "from pairtomo import channels as ch\n"
        "from pairtomo.model import identity_model\n"
        "from pairtomo.reconstruct import TomographyData, solve\n"
        "s = ch.random_cptp_superop(4, seed=3)\n"
        "solve(TomographyData.from_superop(s, 2), identity_model(2), true_superop=s)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
