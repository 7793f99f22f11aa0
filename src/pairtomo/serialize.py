"""JSON serialization of gates, error models, models, data and fit results.

All documents carry ``"schema": "1"``.  Complex matrices are stored as
``{"rows", "cols", "reim"}`` where ``reim`` interleaves real and imaginary
parts in row-major entry order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import channels as ch
from .gates import GateLayer
from .model import PairwiseModel
from .reconstruct import ReconstructionResult, SolverConfig, TomographyData
from .simulate import CoherentLocal, CRCoherent, Decoherence, ErrorModel, NoisyProcess

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "read_record",
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
    "save_json",
    "load_json",
]

SCHEMA_VERSION = "1"


class SerializationError(ValueError):
    """Document cannot be encoded or decoded."""


def read_record(d, what: str, required=(), optional=()) -> dict:
    """``d``, once it is a JSON object that holds every ``required`` entry
    and no entry outside ``required`` and ``optional``: a misspelt entry
    would otherwise leave its default in force without a word.  With
    ``optional=None`` any other entry is allowed, for a document whose other
    entries have readers of their own."""
    if not isinstance(d, dict):
        raise SerializationError(f"{what} must be a JSON object, got {type(d).__name__}")
    for key in required:
        if key not in d:
            raise SerializationError(f"{what} has no {key!r} entry")
    if optional is not None:
        unknown = sorted(set(d) - set(required) - set(optional))
        if unknown:
            raise SerializationError(
                f"unknown {what} entries {unknown}; expected some of {[*required, *optional]}"
            )
    return d


def matrix_to_dict(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise SerializationError(f"expected a matrix, got ndim={m.ndim}")
    reim = np.empty(2 * m.size)
    reim[0::2] = m.real.ravel()
    reim[1::2] = m.imag.ravel()
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "reim": reim.tolist()}


def matrix_from_dict(d: dict) -> np.ndarray:
    read_record(d, "matrix record", ("rows", "cols", "reim"))
    try:
        rows, cols = ch.whole_number(d["rows"], "rows"), ch.whole_number(d["cols"], "cols")
    except ValueError as exc:
        raise SerializationError(f"malformed matrix record: {exc}") from exc
    reim = d["reim"]
    # a JSON number decodes to int or float; a boolean or a string is
    # refused, not coerced.  One set of entry types per matrix keeps the
    # check cheap next to the decoding itself.
    if not isinstance(reim, list) or not set(map(type, reim)) <= {int, float}:
        raise SerializationError("malformed matrix record: reim must be a list of numbers")
    reim = np.asarray(reim, dtype=float)
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


def gate_from_dict(d: dict) -> GateLayer:
    read_record(d, "gate", ("n_qubits", "single_qubit"), ("cnot",))
    if not isinstance(d["single_qubit"], list):
        raise SerializationError(
            "malformed gate record: single_qubit must be a list of labels, "
            f"got {d['single_qubit']!r}"
        )
    try:
        cnot = d.get("cnot")
        return GateLayer(
            d["n_qubits"],
            tuple(d["single_qubit"]),
            tuple(cnot) if cnot is not None else None,
        )
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed gate record: {exc}") from exc


# an error record is its kind plus the fields of that kind's dataclass
_ERROR_KINDS = {
    "coherent_local": CoherentLocal,
    "decoherence": Decoherence,
    "cr_coherent": CRCoherent,
}


def error_to_dict(error: ErrorModel) -> dict:
    kind = next((k for k, model in _ERROR_KINDS.items() if type(error) is model), None)
    if kind is None:
        raise SerializationError(f"unknown error model {error!r}")
    return {"kind": kind, **asdict(error)}


def error_from_dict(d: dict) -> ErrorModel:
    kind = read_record(d, "error", ("kind",), optional=None)["kind"]
    model = _ERROR_KINDS.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise SerializationError(f"unknown error kind {kind!r}")
    names = [f.name for f in fields(model)]
    read_record(d, f"{kind} error", ("kind", *names))
    try:
        return model(*(d[name] for name in names))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed error record: {exc}") from exc


def error_label(error: ErrorModel) -> str:
    """Compact deterministic text form, used in CSV rows."""
    d = error_to_dict(error)
    kind = d.pop("kind")
    args = ",".join(f"{k}={d[k]!r}" for k in sorted(d))
    return f"{kind}({args})"


def _pair(record) -> tuple[int, ...]:
    return tuple(ch.whole_number(q, "a pair's qubit") for q in record)


def model_to_dict(model: PairwiseModel) -> dict:
    return {
        "n_qubits": model.n_qubits,
        "factors": [
            {"pair": list(pair), "chi": matrix_to_dict(chi)} for pair, chi in model.factors
        ],
    }


def model_from_dict(d: dict) -> PairwiseModel:
    """Model from a document; every chi must be a finite 16x16 matrix."""
    read_record(d, "model", ("n_qubits", "factors"))
    try:
        factors = tuple(
            (
                _pair(read_record(f, f"factor {i}", ("pair", "chi"))["pair"]),
                _finite_matrix(f["chi"], (16, 16), f"factor {i} chi"),
            )
            for i, f in enumerate(d["factors"])
        )
        return PairwiseModel(ch.whole_number(d["n_qubits"], "n_qubits"), factors)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed model record: {exc}") from exc


_CONFIG_FIELDS = ("eps_tol", "max_iters")
# Fields of earlier schema-"1" solver records that never changed a fit or no
# longer do: read and ignored.  ``penalty_weight`` is not among them: a record
# that set it asked for a different fit, so it is refused as unknown.
_RETIRED_CONFIG_FIELDS = ("fd_step", "seed")


def config_to_dict(config: SolverConfig) -> dict:
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def config_from_dict(d: dict) -> SolverConfig:
    """Build a solver config from a possibly partial dict; missing fields
    take their defaults, retired fields are dropped."""
    read_record(d, "solver", (), _CONFIG_FIELDS + _RETIRED_CONFIG_FIELDS)
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


def _finite_matrix(record, shape: tuple[int, int], what: str) -> np.ndarray:
    m = matrix_from_dict(record)
    if m.shape != shape:
        raise SerializationError(f"{what} has shape {m.shape}, expected {shape}")
    if not np.all(np.isfinite(m)):
        raise SerializationError(f"{what} has non-finite entries")
    return m


def data_from_dict(d: dict) -> TomographyData:
    """Tomography data from a document; every target must be a finite
    16x16 matrix that passes :func:`channels.is_cptp_choi`, the Choi state
    of a two-qubit channel."""
    read_record(d, "tomography record", ("n_qubits", "pairs", "targets"))
    try:
        n_qubits = ch.whole_number(d["n_qubits"], "n_qubits")
        pairs = tuple(_pair(p) for p in d["pairs"])
        records = list(d["targets"])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"malformed tomography record: {exc}") from exc
    targets = []
    for i, record in enumerate(records):
        t = _finite_matrix(record, (16, 16), f"tomography target {i}")
        if not ch.is_cptp_choi(t):
            raise SerializationError(f"tomography target {i} is not a CPTP channel's Choi state")
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
    """Process from a document; the gate must act on ``n_qubits`` qubits and
    the superoperator be a finite ``4**n x 4**n`` matrix for them that
    passes :func:`channels.is_cptp_choi`."""
    read_record(d, "process record", ("n_qubits", "gate", "error", "superop"))
    try:
        n_qubits = ch.whole_number(d["n_qubits"], "n_qubits")
    except ValueError as exc:
        raise SerializationError(f"malformed process record: {exc}") from exc
    gate = gate_from_dict(d["gate"])
    error = error_from_dict(d["error"])
    if gate.n_qubits != n_qubits:
        raise SerializationError(
            f"process gate acts on {gate.n_qubits} qubits, expected {n_qubits}"
        )
    dim = 4**n_qubits
    superop = _finite_matrix(d["superop"], (dim, dim), "process superoperator")
    if not ch.is_cptp_choi(ch.superop_to_choi(superop)):
        raise SerializationError("process superoperator is not a CPTP channel")
    return NoisyProcess(n_qubits, superop, gate, error)


def result_to_dict(result: ReconstructionResult) -> dict:
    return {
        "model": model_to_dict(result.model),
        "cost": result.cost,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "cost_history": list(result.cost_history),
        "pair_trace_distances": list(result.pair_trace_distances),
        "full_trace_distance": result.full_trace_distance,
    }


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
    if read_record(doc, str(path), ("schema",), optional=None)["schema"] != SCHEMA_VERSION:
        raise SerializationError(
            f"{path} has schema {doc.get('schema')!r}, expected {SCHEMA_VERSION!r}"
        )
    return doc
