"""Tests for the pairwise least-squares reconstruction machinery."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
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
)
from pairtomo.reconstruct import (
    SolverConfig,
    SolverDivergedError,
    TomographyData,
    _data_jacobian,
    _jacobian,
    _one_factor_data_rows,
    _pack,
    _penalty_jacobian,
    _unpack,
    model_trace_distances,
    residual_vector,
    solve,
)
from pairtomo.simulate import CoherentLocal, Decoherence, simulate_noisy_process
from conftest import random_cptp_superop, replace_factor, superop_to_chi


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
    model = identity_model(n_qubits)
    for pair in all_pairs(n_qubits):
        s = random_cptp_superop(4, seed=int(rng.integers(2**31)))
        chi = superop_to_chi(s)
        kick = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        chi = chi + spread * (kick + kick.conj().T) / 2.0
        model = replace_factor(model, pair, chi)
    return model


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps_tol == 1e-7
        assert cfg.max_iters == 500
        assert [f.name for f in dataclasses.fields(cfg)] == ["eps_tol", "max_iters"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_tol": 0.0},
            {"eps_tol": -1e-9},
            {"max_iters": 0},
            {"eps_tol": True},
            {"eps_tol": "1e-7"},
            {"max_iters": 2.5},
            {"max_iters": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_whole_float_max_iters_is_an_integer(self):
        cfg = SolverConfig(max_iters=3.0)
        assert cfg.max_iters == 3 and type(cfg.max_iters) is int


class TestTomographyData:
    def test_from_superop_infers_width(self):
        proc = simulate_noisy_process(GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.02))
        data = TomographyData.from_superop(proc.superop)
        assert data.n_qubits == 3
        assert data.pairs == ((1, 2), (1, 3), (2, 3))
        direct = TomographyData.from_process(proc)
        for a, b in zip(data.targets, direct.targets):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("width,stated", [(3, 2), (2, 3)])
    def test_from_superop_refuses_a_wrong_width(self, width, stated):
        # a smaller count would silently return the (1,2) reduction as valid
        # data, a larger one fail on a pair the superoperator does not have
        gate = GateLayer(width, ("I",) * width, cnot=(1, 2))
        superop = simulate_noisy_process(gate, CoherentLocal(0.0)).superop
        with pytest.raises(
            ch.DimensionError, match=f"superoperator of {width} qubits given with n_qubits={stated}"
        ):
            TomographyData.from_superop(superop, stated)

    def test_qubit_count_follows_value_rule(self):
        one = (np.eye(16) / 4.0,)
        assert TomographyData(2.0, ((1, 2),), one).n_qubits == 2
        assert type(TomographyData.from_superop(np.eye(16), 2.0).n_qubits) is int
        for bad in (True, 2.5):
            with pytest.raises(ValueError, match="n_qubits must be an integer"):
                TomographyData(bad, ((1, 2),), one)
            with pytest.raises(ValueError, match="n_qubits must be an integer"):
                TomographyData.from_superop(np.eye(16), bad)
        with pytest.raises(ch.DimensionError, match="at least two qubits"):
            TomographyData(1, (), ())
        with pytest.raises(ch.DimensionError):
            TomographyData.from_superop(np.array(1.0))

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
            assert ch.is_cptp_choi(target)
        # a document boundary refuses a target that is no channel's Choi state
        bad = TomographyData(2, all_pairs(2), (np.eye(16, dtype=complex),))
        assert not ch.is_cptp_choi(bad.targets[0])
        with pytest.raises(se.SerializationError, match="not a CPTP channel"):
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
        model = replace_factor(identity_model(2), (1, 2), superop_to_chi(proc.superop))
        r = residual_vector(model, data)
        assert np.max(np.abs(r[:256])) < 1e-12
        # the factor is a valid channel, so the penalty block vanishes too
        assert np.max(np.abs(r[256:])) < 1e-10

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
        # the cost history starts at the squared residual of the starting
        # point, and the reported cost is its last entry: the cost of the
        # last iterate, before projection
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, Decoherence(50e-6, 50e-6, 50e-9))
        )
        init = random_model(3, seed=5)
        result = solve(data, init, SolverConfig(max_iters=3))
        r = residual_vector(_unpack(_pack(init), 3), data)
        assert result.cost_history[0] == float(r @ r)
        assert result.cost == result.cost_history[-1]
        assert len(result.cost_history) > 1

    def test_c2_splits_into_data_and_penalty(self):
        model = random_model(3, seed=6)
        gate = GateLayer(3, ("X", "Y", "X"))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, CoherentLocal(0.02))
        )
        penalty = sum(
            float(np.sum(ch.cptp_residuals(chi) ** 2)) for _, chi in model.factors
        )
        r = residual_vector(model, data)
        total = float(r @ r)
        assert total == pytest.approx(cost_c1(model, data) + penalty, rel=1e-12)

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
        model = _unpack(_pack(random_model(n, seed=seed, spread=0.02)), n)
        vals = np.concatenate([np.linalg.eigvalsh(chi) for _, chi in model.factors])
        assert np.abs(vals).min() > 1e-3
        assert vals.min() < 0.0  # the negative-eigenvalue row is exercised
        gate = GateLayer(n, ("I",) * (n - 1) + ("X",))
        data = TomographyData.from_process(
            simulate_noisy_process(gate, Decoherence(60e-6, 40e-6, 100e-9))
        )
        v = _pack(model)
        jac = _jacobian(model, data)
        fn = lambda u: residual_vector(_unpack(u, n), data)
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
        jac = _jacobian(identity_model(2), data)
        penalty = jac[256:]
        assert penalty.shape == (34, 256)
        assert np.array_equal(penalty[1], np.zeros(256))
        e = ch.PAULI_UNIT_2Q
        for t in range(256):
            unit = np.zeros(256)
            unit[t] = 1.0
            b = _unpack(unit, 2).factors[0][1]
            comp = np.einsum("pr,pab,rac->bc", b, e.conj(), e)
            assert penalty[0, t] == pytest.approx(np.trace(b).real, abs=1e-14)
            assert np.allclose(penalty[2:18, t], comp.real.ravel(), atol=1e-14)
            assert np.allclose(penalty[18:, t], comp.imag.ravel(), atol=1e-14)

    def test_one_factor_jacobian_copies_read_only_data_rows(self):
        # a one-factor Jacobian copies its data rows from a per-process
        # constant; for either data set, at a point with and one without a
        # negative eigenvalue, it must equal the rows built afresh, whichever
        # data set filled the constant
        datasets = [TomographyData.from_superop(random_cptp_superop(4, seed=s), 2) for s in (3, 4)]
        negative = _unpack(_pack(random_model(2, seed=9, spread=0.05)), 2)
        positive = _unpack(_pack(random_model(2, seed=9, spread=0.0)), 2)
        neg_row = 256 + 1  # the penalty's negative-eigenvalue row
        for data, other in (datasets, datasets[::-1]):
            _one_factor_data_rows.cache_clear()
            _jacobian(negative, other)
            assert not _one_factor_data_rows().flags.writeable
            for model in (negative, positive):
                fresh = np.zeros((256 + 34, 256))
                _data_jacobian(model, data, fresh[:256])
                _penalty_jacobian(model, fresh[256:])
                jac = _jacobian(model, data)
                assert np.array_equal(jac, fresh)
                assert jac[neg_row].any() == (model is negative)
                # writing into a returned Jacobian leaves the next one unchanged
                jac[:] = np.nan
                assert np.array_equal(_jacobian(model, data), fresh)


class TestSolve:
    def test_recovers_random_two_qubit_channel(self):
        # single-pair fitting is plain process tomography; a tight stopping
        # threshold drives the quadratic tail well below the 1e-6 oracle bound
        s = random_cptp_superop(4, seed=42)
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

    def test_stop_reason_small_decrease(self):
        s = random_cptp_superop(4, seed=42)
        data = TomographyData.from_superop(s, 2)
        result = solve(data, identity_model(2), SolverConfig(eps_tol=1e-10))
        assert result.stop_reason == "small_decrease"
        assert result.converged
        assert result.cost_history[-2] - result.cost_history[-1] < 1e-10

    def test_stop_reason_no_improving_step(self):
        # the identity model fits identity data at cost exactly 0, which no
        # step can lower
        data = TomographyData.from_superop(np.eye(16), 2)
        result = solve(data, identity_model(2))
        assert result.cost_history == (0.0,)
        assert result.stop_reason == "no_improving_step"
        assert result.converged
        assert result.iterations == 1

    def test_cold_and_warm_cache_give_the_same_fit(self):
        # the one-factor data rows are built at the first two-qubit fit; a
        # fit that builds them and one that finds them built by a fit of
        # another channel must agree bit for bit
        data = TomographyData.from_superop(random_cptp_superop(4, seed=42), 2)
        other = TomographyData.from_superop(random_cptp_superop(4, seed=5), 2)
        cfg = SolverConfig(eps_tol=1e-10)

        def fit():
            result = solve(data, identity_model(2), cfg)
            history = np.array(result.cost_history).tobytes()
            return _pack(result.model).tobytes(), history, result.iterations, result.stop_reason

        _one_factor_data_rows.cache_clear()
        cold = fit()
        _one_factor_data_rows.cache_clear()
        solve(other, identity_model(2), cfg)
        assert fit() == cold

    def test_stop_reason_max_iters(self):
        s = random_cptp_superop(4, seed=42)
        data = TomographyData.from_superop(s, 2)
        result = solve(data, identity_model(2), SolverConfig(eps_tol=1e-10, max_iters=2))
        assert result.stop_reason == "max_iters"
        assert not result.converged
        assert result.iterations == 2

    def test_peak_memory_is_jacobian_and_one_normal_matrix(self):
        # the damped systems are solved in h itself, and h is released before
        # the next Jacobian is built; 1 MiB covers everything smaller
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        proc = simulate_noisy_process(gate, CoherentLocal(0.02))
        data = TomographyData.from_process(proc)
        init = ideal_initial_guess(gate)
        jac_bytes = _jacobian(init, data).nbytes
        h_bytes = _pack(init).size ** 2 * 8
        solve(data, init, SolverConfig(max_iters=1))  # fill the module's caches
        tracemalloc.start()
        try:
            result = solve(data, init, SolverConfig(max_iters=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations == 3
        assert peak <= jac_bytes + h_bytes + 2**20

    def test_projected_model_scores(self):
        # the reported trace distances are those of the returned (projected)
        # model
        proc = simulate_noisy_process(
            GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), CoherentLocal(0.02)
        )
        data = TomographyData.from_process(proc)
        cfg = SolverConfig(max_iters=3)
        result = solve(data, ideal_initial_guess(proc.gate), cfg, true_superop=proc.superop)
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
        assert np.array_equal(_pack(a.model), _pack(b.model))
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
    # the runtime needs numpy only: scipy.optimize alone would add about
    # 46 MB and 0.4 s to every process that builds gate-set data and fits
    src = str(Path(pairtomo.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys\n"
        "from pairtomo import cli\n"
        "from pairtomo.gates import GateLayer\n"
        "from pairtomo.model import ideal_initial_guess\n"
        "from pairtomo.reconstruct import SolverConfig, solve\n"
        "from pairtomo.simulate import Decoherence, simulate_noisy_process\n"
        "gate = GateLayer(3, ('I', 'I', 'I'), cnot=(1, 2))\n"
        "proc = simulate_noisy_process(gate, Decoherence(50e-6, 50e-6, 400e-9))\n"
        "data = cli._fit_data(proc, 'papa_gst')\n"
        "init = ideal_initial_guess(gate)\n"
        "solve(data, init, SolverConfig(max_iters=2), true_superop=proc.superop)\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
