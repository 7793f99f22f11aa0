"""JSON serialization of gates, error models, models, data and fit results.

All documents carry ``"schema": "1"``.  Complex matrices are stored as
``{"rows", "cols", "reim"}`` where ``reim`` interleaves real and imaginary
parts in row-major entry order.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .gates import GateLayer
from .model import PairwiseModel
from .reconstruct import ReconstructionResult, SolverConfig, TomographyData
from .simulate import CoherentLocal, CRCoherent, Decoherence, ErrorModel, NoisyProcess

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "matrix_to_dict",
    "matrix_from_dict",
    "gate_to_dict",
    "gate_from_dict",
    "error_to_dict",
    "error_from_dict",
    "error_label",
    "model_to_dict",
    "model_from_dict",
    "config_to_dict",
    "config_from_dict",
    "data_to_dict",
    "data_from_dict",
    "process_to_dict",
    "process_from_dict",
    "result_to_dict",
    "result_from_dict",
    "save_json",
    "load_json",
]

SCHEMA_VERSION = "1"


class SerializationError(ValueError):
    """Document cannot be encoded or decoded."""


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SerializationError(f"expected a matrix, got ndim={m.ndim}")
    reim = np.empty(2 * m.size)
    reim[0::2] = m.real.ravel()
    reim[1::2] = m.imag.ravel()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "reim": reim.tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        rows, cols = int(d["rows"]), int(d["cols"])
        reim = np.asarray(d["reim"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed matrix record: {exc}") from exc
    if rows < 0 or cols < 0 or reim.shape != (2 * rows * cols,):
        raise SerializationError(
            f"matrix record claims {rows}x{cols} but carries {reim.size} scalars"
        )
    return (reim[0::2] + 1j * reim[1::2]).reshape(rows, cols)


def gate_to_dict(gate: GateLayer) -> dict:
    return {
        "n_qubits": gate.n_qubits,
        "single_qubit": list(gate.single_qubit),
        "cnot": list(gate.cnot) if gate.cnot is not None else None,
    }


def _record(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise SerializationError(f"{what} record must be a JSON object, got {d!r}")
    return d


def gate_from_dict(d: dict) -> GateLayer:
    _record(d, "gate")
    try:
        cnot = d.get("cnot")
        return GateLayer(
            int(d["n_qubits"]),
            tuple(str(s) for s in d["single_qubit"]),
            tuple(int(q) for q in cnot) if cnot else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed gate record: {exc}") from exc


def error_to_dict(error: ErrorModel) -> dict:
    if isinstance(error, CoherentLocal):
        return {"kind": "coherent_local", "phi": error.phi}
    if isinstance(error, Decoherence):
        return {
            "kind": "decoherence",
            "t1": error.t1,
            "t2": error.t2,
            "duration": error.duration,
        }
    if isinstance(error, CRCoherent):
        return {"kind": "cr_coherent", "beta": error.beta, "phi_zz": error.phi_zz}
    raise SerializationError(f"unknown error model {error!r}")


def error_from_dict(d: dict) -> ErrorModel:
    kind = _record(d, "error").get("kind")
    try:
        if kind == "coherent_local":
            return CoherentLocal(float(d["phi"]))
        if kind == "decoherence":
            return Decoherence(float(d["t1"]), float(d["t2"]), float(d["duration"]))
        if kind == "cr_coherent":
            return CRCoherent(float(d["beta"]), float(d["phi_zz"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed error record: {exc}") from exc
    raise SerializationError(f"unknown error kind {kind!r}")


def error_label(error: ErrorModel) -> str:
    """Compact deterministic text form, used in CSV rows."""
    d = error_to_dict(error)
    kind = d.pop("kind")
    args = ",".join(f"{k}={d[k]!r}" for k in sorted(d))
    return f"{kind}({args})"


def model_to_dict(model: PairwiseModel) -> dict:
    return {
        "n_qubits": model.n_qubits,
        "factors": [
            {"pair": list(pair), "chi": matrix_to_dict(chi)} for pair, chi in model.factors
        ],
    }


def model_from_dict(d: dict) -> PairwiseModel:
    try:
        factors = tuple(
            (tuple(int(q) for q in f["pair"]), matrix_from_dict(f["chi"]))
            for f in d["factors"]
        )
        return PairwiseModel(int(d["n_qubits"]), factors)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed model record: {exc}") from exc


_CONFIG_FIELDS = ("eps_tol", "max_iters", "penalty_weight", "seed")
# Fields of earlier schema-"1" solver records that no longer configure
# anything: read and ignored.
_RETIRED_CONFIG_FIELDS = ("fd_step",)


def config_to_dict(config: SolverConfig) -> dict:
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def config_from_dict(d: dict) -> SolverConfig:
    """Build a solver config from a possibly partial dict; missing fields
    take their defaults, retired fields are dropped."""
    unknown = set(_record(d, "solver")) - set(_CONFIG_FIELDS) - set(_RETIRED_CONFIG_FIELDS)
    if unknown:
        raise SerializationError(f"unknown solver fields {sorted(unknown)}")
    try:
        return SolverConfig(**{k: v for k, v in d.items() if k in _CONFIG_FIELDS})
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed solver record: {exc}") from exc


def data_to_dict(data: TomographyData) -> dict:
    return {
        "n_qubits": data.n_qubits,
        "pairs": [list(p) for p in data.pairs],
        "targets": [matrix_to_dict(t) for t in data.targets],
    }


# largest |t - t^dag| entry accepted in a tomography target: the fit scores
# only a target's Hermitian part
_HERMITIAN_TOL = 1e-9
# largest |Tr t - 1| accepted: a target is the Choi state of a two-qubit channel
_TRACE_TOL = 1e-9


def _finite_matrix(record, shape: tuple[int, int], what: str) -> np.ndarray:
    m = matrix_from_dict(record)
    if m.shape != shape:
        raise SerializationError(f"{what} has shape {m.shape}, expected {shape}")
    if not np.all(np.isfinite(m)):
        raise SerializationError(f"{what} has non-finite entries")
    return m


def data_from_dict(d: dict) -> TomographyData:
    """Tomography data from a document; every target must be a finite
    Hermitian 16x16 matrix of unit trace."""
    try:
        n_qubits = int(d["n_qubits"])
        pairs = tuple(tuple(int(q) for q in p) for p in d["pairs"])
        records = list(d["targets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed tomography record: {exc}") from exc
    if len(pairs) != n_qubits * (n_qubits - 1) // 2:
        raise SerializationError(f"{len(pairs)} pairs listed for {n_qubits} qubits")
    targets = []
    for i, record in enumerate(records):
        what = f"tomography target {i}"
        t = _finite_matrix(record, (16, 16), what)
        dev = float(np.abs(t - t.conj().T).max())
        if dev > _HERMITIAN_TOL:
            raise SerializationError(
                f"{what} is not Hermitian: |t - t^dag| reaches {dev:.3e}"
            )
        trace = complex(np.trace(t))
        if abs(trace - 1.0) > _TRACE_TOL:
            raise SerializationError(f"{what} has trace {trace:.6g}, expected 1")
        targets.append(t)
    try:
        return TomographyData(n_qubits, pairs, tuple(targets))
    except ValueError as exc:
        raise SerializationError(f"malformed tomography record: {exc}") from exc


def process_to_dict(process: NoisyProcess) -> dict:
    return {
        "n_qubits": process.n_qubits,
        "gate": gate_to_dict(process.gate),
        "error": error_to_dict(process.error),
        "superop": matrix_to_dict(process.superop),
    }


def process_from_dict(d: dict) -> NoisyProcess:
    """Process from a document; the superoperator must be a finite
    ``4**n x 4**n`` matrix for ``n_qubits`` and the gate must act on as
    many qubits."""
    try:
        n_qubits = int(d["n_qubits"])
        record, gate_record, error_record = d["superop"], d["gate"], d["error"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed process record: {exc}") from exc
    gate = gate_from_dict(gate_record)
    error = error_from_dict(error_record)
    if gate.n_qubits != n_qubits:
        raise SerializationError(
            f"process gate acts on {gate.n_qubits} qubits, expected {n_qubits}"
        )
    dim = 4**n_qubits
    superop = _finite_matrix(record, (dim, dim), "process superoperator")
    return NoisyProcess(n_qubits, superop, gate, error)


def result_to_dict(result: ReconstructionResult) -> dict:
    return {
        "model": model_to_dict(result.model),
        "raw_model": model_to_dict(result.raw_model),
        "cost": result.cost,
        "projected_cost": result.projected_cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "cost_history": list(result.cost_history),
        "pair_trace_distances": list(result.pair_trace_distances),
        "full_trace_distance": result.full_trace_distance,
    }


def result_from_dict(d: dict) -> ReconstructionResult:
    try:
        full_td = d["full_trace_distance"]
        return ReconstructionResult(
            model=model_from_dict(d["model"]),
            raw_model=model_from_dict(d["raw_model"]),
            cost=float(d["cost"]),
            projected_cost=float(d["projected_cost"]),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            cost_history=tuple(float(c) for c in d["cost_history"]),
            pair_trace_distances=tuple(float(t) for t in d["pair_trace_distances"]),
            full_trace_distance=None if full_td is None else float(full_td),
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed result record: {exc}") from exc


def save_json(payload: dict, path) -> None:
    """Write a schema-stamped JSON document; key order and float text are
    deterministic."""
    doc = {"schema": SCHEMA_VERSION}
    doc.update(payload)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SerializationError(f"{path} does not hold a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SerializationError(
            f"{path} has schema {doc.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    return doc
