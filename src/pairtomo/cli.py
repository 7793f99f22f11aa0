"""Command line interface.

Subcommands:

* ``simulate``: build a noisy process and its pairwise tomography data.
* ``reconstruct``: fit a pairwise-factorized model to a process.
* ``bench-fig2``: the seven standard three-qubit benchmark cases, CSV out.
* ``sweep-cr``: cross-resonance CNOT reconstruction over a (beta, phi_zz) grid.
* ``sweep-tol``: solver tolerance study on two noisy-CNOT cases.
* ``diff-map``: element-wise |sigma - rho| matrix for one pair of a saved fit.

Exit codes: 0 when every case converged, 2 when some case did not converge,
1 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import channels as ch
from . import serialize as se
from .gates import GateLayer
from .gateset import NotDecomposableError, decompose_ideal_reduction, gst_sigma, simulate_gateset
from .model import PairwiseModel, all_pairs, build_superop, ideal_initial_guess, identity_model
from .reconstruct import SolverConfig, SolverDivergedError, TomographyData, solve
from .simulate import (
    CRCoherent,
    CoherentLocal,
    Decoherence,
    sampled_pairwise_qpt,
    simulate_noisy_process,
    zz_coupling_hz,
)

__all__ = [
    "UsageError",
    "FIG2_CASES",
    "BENCH_COLUMNS",
    "CR_COLUMNS",
    "TOL_COLUMNS",
    "DIFF_COLUMNS",
    "main",
    "console_entry",
]


class UsageError(Exception):
    """Bad configuration or a refused request; exits with status 1."""


# The seven standard three-qubit benchmark cases: idle, local-gate and CNOT
# layers under decoherence or coherent local rotations.
FIG2_CASES: tuple[tuple[str, GateLayer, object], ...] = (
    ("i", GateLayer(3, ("I", "I", "I"), None), Decoherence(50e-6, 50e-6, 50e-9)),
    ("ii", GateLayer(3, ("I", "I", "I"), None), Decoherence(50e-6, 50e-6, 400e-9)),
    ("iii", GateLayer(3, ("X", "Y", "X"), None), Decoherence(50e-6, 50e-6, 50e-9)),
    ("iv", GateLayer(3, ("I", "I", "I"), (1, 2)), Decoherence(50e-6, 50e-6, 400e-9)),
    ("v", GateLayer(3, ("X", "Y", "X"), None), CoherentLocal(0.02)),
    ("vi", GateLayer(3, ("X", "Y", "X"), None), CoherentLocal(0.2)),
    ("vii", GateLayer(3, ("I", "I", "I"), (1, 2)), CoherentLocal(0.02)),
)

BENCH_COLUMNS = (
    "schema",
    "case_id",
    "gate",
    "error",
    "mode",
    "td_full_papa",
    "td_full_ideal",
    "mean_td_pairs_papa",
    "mean_td_pairs_ideal",
    "iterations",
    "converged",
    "wall_time_s",
)

CR_COLUMNS = (
    "schema",
    "beta",
    "phi_zz",
    "zz_coupling_hz",
    "mode",
    "td_full_papa",
    "td_full_ideal",
    "mean_td_pairs_papa",
    "mean_td_pairs_ideal",
    "iterations",
    "converged",
    "wall_time_s",
)

TOL_COLUMNS = (
    "schema",
    "case_id",
    "eps_tol",
    "td_full_papa",
    "mean_td_pairs_papa",
    "iterations",
    "converged",
    "wall_time_s",
)

# one row per Choi matrix row: |sigma - rho| entries for a chosen pair
DIFF_COLUMNS = ("schema", "pair", "row") + tuple(f"c{j}" for j in range(16))

CR_BETAS = tuple(np.linspace(np.pi / 16, np.pi / 8, 4))
CR_PHIS = tuple(np.linspace(1e-3, 4e-3, 4))

TOL_EPS_GRID = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
TOL_CASES: tuple[tuple[str, GateLayer, object], ...] = (
    ("cnot_decoherence", GateLayer(3, ("I", "I", "I"), (1, 2)), Decoherence(50e-6, 50e-6, 400e-9)),
    ("cnot_coherent", GateLayer(3, ("I", "I", "I"), (1, 2)), CoherentLocal(0.02)),
)


def _load_config(path: str | None, required: bool = True) -> dict:
    if path is None:
        if required:
            raise UsageError("--config is required for this subcommand")
        return {}
    p = Path(path)
    if not p.exists():
        raise UsageError(f"config file {path} does not exist")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return cfg


def _tomography_for(process, tomo_cfg: dict, seed_override) -> TomographyData:
    mode = tomo_cfg.get("mode", "exact")
    if mode == "exact":
        return TomographyData.from_process(process)
    if mode in ("sampled", "exhaustive"):
        pairs = all_pairs(process.n_qubits)
        seed = seed_override if seed_override is not None else tomo_cfg.get("seed", 0)
        n_samples = int(tomo_cfg.get("n_samples", 16))
        targets = tuple(
            sampled_pairwise_qpt(
                process, p, n_samples, seed, exhaustive=(mode == "exhaustive")
            )
            for p in pairs
        )
        return TomographyData(process.n_qubits, pairs, targets)
    raise UsageError(f"unknown tomography mode {mode!r}")


def _gst_refusal(error) -> None:
    if isinstance(error, CRCoherent):
        raise UsageError(
            "gate-set mode refused: the cross-resonance error is gate-dependent, "
            "its residual ZZ term couples the target to the spectator on pair "
            "(2, 3), so characterizing the gate set under an independent error "
            "channel cannot represent it; rerun with mode 'papa'"
        )


def _gst_data(gate: GateLayer, error) -> TomographyData:
    """Predicted pair reductions from a characterized gate set plus the
    convex decomposition of the ideal layer."""
    _gst_refusal(error)
    pairs = all_pairs(gate.n_qubits)
    targets = []
    for pair in pairs:
        try:
            decomp = decompose_ideal_reduction(gate, pair)
        except NotDecomposableError as exc:
            raise UsageError(str(exc)) from exc
        characterized = simulate_gateset(pair, gate.n_qubits, error)
        targets.append(gst_sigma(decomp, characterized))
    return TomographyData(gate.n_qubits, pairs, tuple(targets))


def _model_metrics(model: PairwiseModel, data: TomographyData, true_superop) -> tuple[float, float]:
    choi = ch.superop_to_choi(build_superop(model))
    tds = [
        ch.trace_distance(ch.partial_trace_choi(choi, p), t)
        for p, t in zip(data.pairs, data.targets)
    ]
    full = ch.trace_distance(choi, ch.superop_to_choi(true_superop))
    return full, float(np.mean(tds))


def _resolve_process(spec, seed_override):
    """Process plus optional precomputed tomography from a config entry that
    is either a path to a saved process document or an inline gate+error."""
    if isinstance(spec, str):
        doc = se.load_json(spec)
        if doc.get("kind") != "process":
            raise UsageError(f"{spec} is not a process document")
        process = se.process_from_dict(doc["process"])
        data = se.data_from_dict(doc["tomography"]) if "tomography" in doc else None
        if data is not None and data.n_qubits != process.n_qubits:
            raise UsageError(
                f"{spec}: the tomography covers {data.n_qubits} qubits, "
                f"the process {process.n_qubits}"
            )
        return process, data
    if isinstance(spec, dict):
        gate = se.gate_from_dict(spec["gate"])
        error = se.error_from_dict(spec["error"])
        process = simulate_noisy_process(gate, error)
        data = None
        if "tomography" in spec:
            data = _tomography_for(process, spec["tomography"], seed_override)
        return process, data
    raise UsageError("config needs a 'process' entry (path or inline gate+error)")


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    try:
        gate = se.gate_from_dict(cfg["gate"])
        error = se.error_from_dict(cfg["error"])
    except KeyError as exc:
        raise UsageError(f"config is missing the {exc} entry") from exc
    process = simulate_noisy_process(gate, error)
    data = _tomography_for(process, cfg.get("tomography", {}), args.seed)
    se.save_json(
        {
            "kind": "process",
            "process": se.process_to_dict(process),
            "tomography": se.data_to_dict(data),
        },
        args.out,
    )
    print(f"simulated {gate.label()} under {se.error_label(error)} -> {args.out}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args.config)
    process, data = _resolve_process(cfg.get("process"), args.seed)
    mode = cfg.get("mode", "papa")
    if mode == "papa_gst":
        data = _gst_data(process.gate, process.error)
    elif mode == "papa":
        if data is None:
            data = TomographyData.from_process(process)
    else:
        raise UsageError(f"unknown mode {mode!r}; use 'papa' or 'papa_gst'")

    init_name = cfg.get("init", "ideal")
    if init_name == "ideal":
        init = ideal_initial_guess(process.gate)
    elif init_name == "identity":
        init = identity_model(process.n_qubits)
    else:
        raise UsageError(f"unknown init {init_name!r}; use 'ideal' or 'identity'")

    solver = se.config_from_dict(cfg.get("solver", {}))
    if args.seed is not None:
        solver = dataclasses.replace(solver, seed=args.seed)

    result = solve(data, init, solver, true_superop=process.superop)
    td_full_ideal, mean_td_ideal = _model_metrics(
        ideal_initial_guess(process.gate), data, process.superop
    )
    metrics = {
        "td_full_papa": result.full_trace_distance,
        "td_full_ideal": td_full_ideal,
        "mean_td_pairs_papa": result.mean_pair_trace_distance,
        "mean_td_pairs_ideal": mean_td_ideal,
    }
    se.save_json(
        {
            "kind": "reconstruction",
            "mode": mode,
            "gate": se.gate_to_dict(process.gate),
            "error": se.error_to_dict(process.error),
            "solver": se.config_to_dict(solver),
            "result": se.result_to_dict(result),
            "metrics": metrics,
        },
        args.out,
    )
    print(
        f"reconstructed {process.gate.label()} [{mode}]: "
        f"td_full {metrics['td_full_papa']:.3e} (ideal {metrics['td_full_ideal']:.3e}), "
        f"{result.iterations} iterations, converged={result.converged} -> {args.out}"
    )
    return 0 if result.converged else 2


def _solver_fields(data, gate, solver, true_superop) -> dict:
    """Fit metrics for one case; a diverged solver yields an unconverged
    record instead of aborting the batch."""
    try:
        result = solve(data, ideal_initial_guess(gate), solver, true_superop=true_superop)
    except SolverDivergedError:
        return {
            "td_full_papa": float("nan"),
            "mean_td_pairs_papa": float("nan"),
            "iterations": 0,
            "converged": False,
        }
    return {
        "td_full_papa": result.full_trace_distance,
        "mean_td_pairs_papa": result.mean_pair_trace_distance,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _run_fig2_case(case) -> dict:
    case_id, gate, error, mode, solver_dict = case
    t0 = time.perf_counter()
    process = simulate_noisy_process(gate, error)
    if mode == "papa_gst":
        data = _gst_data(gate, error)
    else:
        data = TomographyData.from_process(process)
    solver = se.config_from_dict(solver_dict)
    fit = _solver_fields(data, gate, solver, process.superop)
    td_full_ideal, mean_td_ideal = _model_metrics(ideal_initial_guess(gate), data, process.superop)
    wall = time.perf_counter() - t0
    return {
        "schema": se.SCHEMA_VERSION,
        "case_id": case_id,
        "gate": gate.label(),
        "error": se.error_label(error),
        "mode": mode,
        "td_full_ideal": td_full_ideal,
        "mean_td_pairs_ideal": mean_td_ideal,
        "wall_time_s": wall,
        **fit,
    }


def _run_cr_case(case) -> dict:
    beta, phi_zz, solver_dict = case
    t0 = time.perf_counter()
    gate = GateLayer(3, ("I", "I", "I"), (1, 2))
    error = CRCoherent(beta, phi_zz)
    process = simulate_noisy_process(gate, error)
    data = TomographyData.from_process(process)
    solver = se.config_from_dict(solver_dict)
    fit = _solver_fields(data, gate, solver, process.superop)
    td_full_ideal, mean_td_ideal = _model_metrics(ideal_initial_guess(gate), data, process.superop)
    wall = time.perf_counter() - t0
    return {
        "schema": se.SCHEMA_VERSION,
        "beta": beta,
        "phi_zz": phi_zz,
        "zz_coupling_hz": zz_coupling_hz(phi_zz),
        "mode": "papa",
        "td_full_ideal": td_full_ideal,
        "mean_td_pairs_ideal": mean_td_ideal,
        "wall_time_s": wall,
        **fit,
    }


def _run_tol_case(case) -> dict:
    case_id, gate, error, eps_tol, solver_dict = case
    t0 = time.perf_counter()
    process = simulate_noisy_process(gate, error)
    data = TomographyData.from_process(process)
    solver_dict = dict(solver_dict)
    solver_dict["eps_tol"] = eps_tol
    solver = se.config_from_dict(solver_dict)
    fit = _solver_fields(data, gate, solver, process.superop)
    wall = time.perf_counter() - t0
    return {
        "schema": se.SCHEMA_VERSION,
        "case_id": case_id,
        "eps_tol": eps_tol,
        "wall_time_s": wall,
        **fit,
    }


def _map_cases(fn, cases, jobs: int):
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, cases))
    return [fn(c) for c in cases]


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _batch_exit(rows) -> int:
    return 0 if all(row["converged"] for row in rows) else 2


def cmd_bench_fig2(args) -> int:
    cfg = _load_config(args.config, required=False)
    mode = cfg.get("mode", "papa_gst")
    if mode not in ("papa", "papa_gst"):
        raise UsageError(f"unknown mode {mode!r}; use 'papa' or 'papa_gst'")
    solver_dict = cfg.get("solver", {})
    se.config_from_dict(solver_dict)  # validate early, before any workers run
    cases = [(cid, gate, err, mode, solver_dict) for cid, gate, err in FIG2_CASES]
    rows = _map_cases(_run_fig2_case, cases, args.jobs)
    _write_csv(args.out, BENCH_COLUMNS, rows)
    for row in rows:
        ratio = row["td_full_ideal"] / max(row["td_full_papa"], 1e-300)
        print(
            f"case {row['case_id']:>4}: td_full {row['td_full_papa']:.3e} "
            f"(ideal {row['td_full_ideal']:.3e}, ratio {ratio:.1f}) "
            f"iters={row['iterations']} converged={row['converged']}"
        )
    print(f"wrote {args.out}")
    return _batch_exit(rows)


def cmd_sweep_cr(args) -> int:
    cfg = _load_config(args.config, required=False)
    mode = cfg.get("mode", "papa")
    if mode == "papa_gst":
        _gst_refusal(CRCoherent(float(CR_BETAS[0]), float(CR_PHIS[0])))
    elif mode != "papa":
        raise UsageError(f"unknown mode {mode!r}; use 'papa'")
    solver_dict = cfg.get("solver", {})
    se.config_from_dict(solver_dict)
    cases = [(float(b), float(p), solver_dict) for b in CR_BETAS for p in CR_PHIS]
    rows = _map_cases(_run_cr_case, cases, args.jobs)
    _write_csv(args.out, CR_COLUMNS, rows)
    worst = max(rows, key=lambda r: r["td_full_papa"])
    print(
        f"{len(rows)} grid points; worst td_full {worst['td_full_papa']:.3e} at "
        f"beta={worst['beta']:.4f}, phi_zz={worst['phi_zz']:.4f}"
    )
    print(f"wrote {args.out}")
    return _batch_exit(rows)


def cmd_sweep_tol(args) -> int:
    cfg = _load_config(args.config, required=False)
    solver_dict = cfg.get("solver", {})
    se.config_from_dict(solver_dict)
    eps_grid = cfg.get("eps_grid", list(TOL_EPS_GRID))
    cases = [
        (cid, gate, err, float(eps), solver_dict)
        for cid, gate, err in TOL_CASES
        for eps in eps_grid
    ]
    rows = _map_cases(_run_tol_case, cases, args.jobs)
    _write_csv(args.out, TOL_COLUMNS, rows)
    for row in rows:
        print(
            f"{row['case_id']:>16} eps={row['eps_tol']:.0e}: "
            f"td_full {row['td_full_papa']:.3e} iters={row['iterations']}"
        )
    print(f"wrote {args.out}")
    return _batch_exit(rows)


def cmd_diff_map(args) -> int:
    cfg = _load_config(args.config)
    process, data = _resolve_process(cfg.get("process"), args.seed)
    result_path = cfg.get("result")
    if not isinstance(result_path, str):
        raise UsageError("config needs a 'result' entry pointing at a reconstruction")
    doc = se.load_json(result_path)
    if doc.get("kind") != "reconstruction":
        raise UsageError(f"{result_path} is not a reconstruction document")
    model = se.model_from_dict(doc["result"]["model"])
    if model.n_qubits != process.n_qubits:
        raise UsageError("model and process qubit counts differ")
    pair = tuple(cfg.get("pair", (1, 2)))
    try:
        pair = ch._check_pair(pair, process.n_qubits)
    except ch.DimensionError as exc:
        raise UsageError(str(exc)) from exc
    if data is None:
        data = TomographyData.from_process(process)
    sigma = data.targets[data.pairs.index(pair)]
    rho = ch.partial_trace_choi(ch.superop_to_choi(build_superop(model)), pair)
    diff = np.abs(sigma - rho)
    rows = []
    for i in range(16):
        row = {"schema": se.SCHEMA_VERSION, "pair": f"{pair[0]}{pair[1]}", "row": i}
        row.update({f"c{j}": diff[i, j] for j in range(16)})
        rows.append(row)
    _write_csv(args.out, DIFF_COLUMNS, rows)
    print(f"pair {pair}: max |sigma - rho| = {float(diff.max()):.3e}")
    print(f"wrote {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairtomo",
        description="Pairwise-factorized reconstruction of multi-qubit processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_jobs=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=None, help="override sampling seed")
        if needs_jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.set_defaults(func=func)
        return p

    add("simulate", cmd_simulate, "simulate a noisy process and its pair tomography")
    add("reconstruct", cmd_reconstruct, "fit a pairwise model to a process")
    add("bench-fig2", cmd_bench_fig2, "run the seven standard benchmark cases", needs_jobs=True)
    add("sweep-cr", cmd_sweep_cr, "cross-resonance CNOT grid sweep", needs_jobs=True)
    add("sweep-tol", cmd_sweep_tol, "solver tolerance study", needs_jobs=True)
    add("diff-map", cmd_diff_map, "element-wise |sigma - rho| matrix for one pair of a fit")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, se.SerializationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
