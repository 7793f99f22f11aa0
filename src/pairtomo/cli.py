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
from typing import NamedTuple

import numpy as np

from . import channels as ch
from . import serialize as se
from .gates import GateLayer
from .gateset import NotDecomposableError, decompose_ideal_reduction, gst_sigma, simulate_gateset
from .model import all_pairs, build_superop, ideal_initial_guess, identity_model
from .reconstruct import SolverDivergedError, TomographyData, model_trace_distances, solve
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

# fit metrics after each batch row's label fields
_FIT_COLUMNS = (
    "mode",
    "td_full_papa",
    "td_full_ideal",
    "mean_td_pairs_papa",
    "mean_td_pairs_ideal",
    "iterations",
    "converged",
    "wall_time_s",
)
BENCH_COLUMNS = ("schema", "case_id", "gate", "error") + _FIT_COLUMNS
CR_COLUMNS = ("schema", "beta", "phi_zz", "zz_coupling_hz") + _FIT_COLUMNS
TOL_COLUMNS = ("schema", "case_id", "eps_tol", "td_full_papa", "mean_td_pairs_papa",
               "iterations", "converged", "wall_time_s")

# one row per Choi matrix row: |sigma - rho| entries for a chosen pair
DIFF_COLUMNS = ("schema", "pair", "row") + tuple(f"c{j}" for j in range(16))

CR_BETAS = tuple(np.linspace(np.pi / 16, np.pi / 8, 4))
CR_PHIS = tuple(np.linspace(1e-3, 4e-3, 4))

# the entries of an inline process object, and of a simulate config
_PROCESS_KEYS = ("gate", "error", "tomography")

TOL_EPS_GRID = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
TOL_CASES: tuple[tuple[str, GateLayer, object], ...] = (
    ("cnot_decoherence", GateLayer(3, ("I", "I", "I"), (1, 2)), Decoherence(50e-6, 50e-6, 400e-9)),
    ("cnot_coherent", GateLayer(3, ("I", "I", "I"), (1, 2)), CoherentLocal(0.02)),
)


def _known_keys(cfg: dict, *keys: str, what: str = "config") -> dict:
    """``cfg``, once it holds no entry other than ``keys``: a misspelt entry
    would otherwise leave its default in force without a word."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise UsageError(f"unknown {what} entries {unknown}; expected some of {list(keys)}")
    return cfg


def _entry(doc, key: str, path: str):
    """``doc[key]`` of a loaded document."""
    if not isinstance(doc, dict) or key not in doc:
        raise UsageError(f"{path} has no {key!r} entry")
    return doc[key]


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


def _int_entry(cfg: dict, key: str, default: int) -> int:
    try:
        return int(cfg.get(key, default))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def _mode(cfg: dict, default: str) -> str:
    mode = cfg.get("mode", default)
    if mode not in ("papa", "papa_gst"):
        raise UsageError(f"unknown mode {mode!r}; use 'papa' or 'papa_gst'")
    return mode


def _gate_and_error(cfg: dict):
    try:
        return se.gate_from_dict(cfg["gate"]), se.error_from_dict(cfg["error"])
    except KeyError as exc:
        raise UsageError(f"config is missing the {exc} entry") from exc


def _tomography_for(process, tomo_cfg, seed_override) -> TomographyData:
    if not isinstance(tomo_cfg, dict):
        raise UsageError("the 'tomography' entry must be a JSON object")
    mode = tomo_cfg.get("mode", "exact")
    if mode == "exact":
        return TomographyData.from_process(process)
    if mode in ("sampled", "exhaustive"):
        pairs = all_pairs(process.n_qubits)
        seed = seed_override if seed_override is not None else _int_entry(tomo_cfg, "seed", 0)
        n_samples = _int_entry(tomo_cfg, "n_samples", 16)
        if n_samples < 1:
            raise UsageError("n_samples must be at least 1")
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


def _fit_data(process, mode: str, data: TomographyData | None = None) -> TomographyData:
    """The pair data a fit sees.  In ``papa_gst`` mode each pair reduction
    is predicted from a characterized gate set plus the convex decomposition
    of the ideal layer; in ``papa`` mode it is the given tomography, else
    the exact reduction."""
    if mode != "papa_gst":
        return data if data is not None else TomographyData.from_process(process)
    gate = process.gate
    _gst_refusal(process.error)
    pairs = all_pairs(gate.n_qubits)
    targets = []
    for pair in pairs:
        try:
            decomp = decompose_ideal_reduction(gate, pair)
        except NotDecomposableError as exc:
            raise UsageError(str(exc)) from exc
        characterized = simulate_gateset(pair, gate.n_qubits, process.error)
        targets.append(gst_sigma(decomp, characterized))
    return TomographyData(gate.n_qubits, pairs, tuple(targets))


def _resolve_process(spec, seed_override):
    """Process plus optional precomputed tomography from a config entry that
    is either a path to a saved process document or an inline gate+error."""
    if isinstance(spec, str):
        doc = se.load_json(spec)
        if doc.get("kind") != "process":
            raise UsageError(f"{spec} is not a process document")
        process = se.process_from_dict(_entry(doc, "process", spec))
        data = se.data_from_dict(doc["tomography"]) if "tomography" in doc else None
        if data is not None and data.n_qubits != process.n_qubits:
            raise UsageError(
                f"{spec}: the tomography covers {data.n_qubits} qubits, "
                f"the process {process.n_qubits}"
            )
        return process, data
    if isinstance(spec, dict):
        _known_keys(spec, *_PROCESS_KEYS, what="process")
        process = simulate_noisy_process(*_gate_and_error(spec))
        data = None
        if "tomography" in spec:
            data = _tomography_for(process, spec["tomography"], seed_override)
        return process, data
    raise UsageError("config needs a 'process' entry (path or inline gate+error)")


def cmd_simulate(args) -> int:
    cfg = _known_keys(_load_config(args.config), *_PROCESS_KEYS)
    gate, error = _gate_and_error(cfg)
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
    cfg = _known_keys(_load_config(args.config), "process", "mode", "init", "solver")
    process, data = _resolve_process(cfg.get("process"), args.seed)
    mode = _mode(cfg, "papa")
    data = _fit_data(process, mode, data)

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
    ideal_tds, td_full_ideal = model_trace_distances(
        ideal_initial_guess(process.gate), data, process.superop
    )
    metrics = {
        "td_full_papa": result.full_trace_distance,
        "td_full_ideal": td_full_ideal,
        "mean_td_pairs_papa": result.mean_pair_trace_distance,
        "mean_td_pairs_ideal": float(np.mean(ideal_tds)),
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


class _Case(NamedTuple):
    """One batch row to compute: the label fields it reports, the process
    to simulate, the data mode and the solver record."""

    labels: dict
    gate: GateLayer
    error: object
    mode: str
    solver: dict


def _checked_solver(solver) -> dict:
    se.config_from_dict(solver)  # validate early, before any workers run
    return solver


def _fig2_cases(cfg: dict) -> list[_Case]:
    _known_keys(cfg, "mode", "solver")
    mode, solver = _mode(cfg, "papa_gst"), _checked_solver(cfg.get("solver", {}))
    return [
        _Case({"case_id": cid, "gate": gate.label(), "error": se.error_label(error)},
              gate, error, mode, solver)
        for cid, gate, error in FIG2_CASES
    ]


def _cr_cases(cfg: dict) -> list[_Case]:
    _known_keys(cfg, "mode", "solver")
    mode, solver = _mode(cfg, "papa"), _checked_solver(cfg.get("solver", {}))
    gate = GateLayer(3, ("I", "I", "I"), (1, 2))
    return [
        _Case({"beta": beta, "phi_zz": phi, "zz_coupling_hz": zz_coupling_hz(phi)},
              gate, CRCoherent(beta, phi), mode, solver)
        for beta in map(float, CR_BETAS)
        for phi in map(float, CR_PHIS)
    ]


def _tol_cases(cfg: dict) -> list[_Case]:
    _known_keys(cfg, "eps_grid", "solver")
    solver = _checked_solver(cfg.get("solver", {}))
    try:
        eps_grid = [float(eps) for eps in cfg.get("eps_grid", TOL_EPS_GRID)]
    except (TypeError, ValueError) as exc:
        raise UsageError(f"eps_grid must be a list of numbers: {exc}") from exc
    return [
        _Case({"case_id": cid, "eps_tol": eps},
              gate, error, "papa", _checked_solver({**solver, "eps_tol": eps}))
        for cid, gate, error in TOL_CASES
        for eps in eps_grid
    ]


def _run_case(case: _Case) -> dict:
    """Simulate the case's process, fit its pair data from the ideal guess
    and score the ideal-gate baseline.  A diverged fit gives an unconverged
    row of NaN metrics instead of aborting the batch."""
    t0 = time.perf_counter()
    process = simulate_noisy_process(case.gate, case.error)
    data = _fit_data(process, case.mode)
    ideal = ideal_initial_guess(case.gate)
    try:
        result = solve(data, ideal, se.config_from_dict(case.solver), true_superop=process.superop)
        fit = (result.full_trace_distance, result.mean_pair_trace_distance,
               result.iterations, result.converged)
    except SolverDivergedError:
        fit = (float("nan"), float("nan"), 0, False)
    ideal_tds, td_full_ideal = model_trace_distances(ideal, data, process.superop)
    return {
        "schema": se.SCHEMA_VERSION,
        **case.labels,
        "mode": case.mode,
        "td_full_papa": fit[0],
        "td_full_ideal": td_full_ideal,
        "mean_td_pairs_papa": fit[1],
        "mean_td_pairs_ideal": float(np.mean(ideal_tds)),
        "iterations": fit[2],
        "converged": fit[3],
        "wall_time_s": time.perf_counter() - t0,
    }


def _write_csv(path, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_batch(args) -> int:
    """Build the subcommand's cases from its config, run them, write the
    subcommand's CSV columns and print one summary line per row."""
    cases = args.cases(_load_config(args.config, required=False))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_run_case, cases))
    else:
        rows = [_run_case(case) for case in cases]
    _write_csv(args.out, args.columns, rows)
    for case, row in zip(cases, rows):
        label = " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in case.labels.items()
        )
        print(
            f"{label}: td_full {row['td_full_papa']:.3e} "
            f"(ideal {row['td_full_ideal']:.3e}) "
            f"iters={row['iterations']} converged={row['converged']}"
        )
    print(f"wrote {args.out}")
    return 0 if all(row["converged"] for row in rows) else 2


def cmd_diff_map(args) -> int:
    cfg = _known_keys(_load_config(args.config), "process", "result", "pair")
    process, data = _resolve_process(cfg.get("process"), args.seed)
    result_path = cfg.get("result")
    if not isinstance(result_path, str):
        raise UsageError("config needs a 'result' entry pointing at a reconstruction")
    doc = se.load_json(result_path)
    if doc.get("kind") != "reconstruction":
        raise UsageError(f"{result_path} is not a reconstruction document")
    model = se.model_from_dict(_entry(_entry(doc, "result", result_path), "model", result_path))
    if model.n_qubits != process.n_qubits:
        raise UsageError("model and process qubit counts differ")
    try:
        pair = ch._check_pair(tuple(cfg.get("pair", (1, 2))), process.n_qubits)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad 'pair' entry: {exc}") from exc
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

    def add(name, func, help_text, cases=None, columns=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON configuration file")
        p.add_argument("--out", required=True, help="output path")
        if cases is None:
            p.add_argument("--seed", type=int, default=None, help="override sampling seed")
        else:
            p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        p.set_defaults(func=func, cases=cases, columns=columns)

    add("simulate", cmd_simulate, "simulate a noisy process and its pair tomography")
    add("reconstruct", cmd_reconstruct, "fit a pairwise model to a process")
    add("bench-fig2", cmd_batch, "run the seven standard benchmark cases", _fig2_cases, BENCH_COLUMNS)
    add("sweep-cr", cmd_batch, "cross-resonance CNOT grid sweep", _cr_cases, CR_COLUMNS)
    add("sweep-tol", cmd_batch, "solver tolerance study", _tol_cases, TOL_COLUMNS)
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
