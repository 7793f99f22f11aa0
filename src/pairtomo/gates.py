"""Single-layer gate circuits: one Pauli per qubit plus an optional CNOT."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DimensionError, PAULI_1Q, embed_operator, whole_number

__all__ = ["GateLayer", "CNOT_2Q", "gate_unitary"]

CNOT_2Q = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


@dataclass(frozen=True)
class GateLayer:
    """A single layer of simultaneous gates on ``n_qubits`` qubits.

    ``single_qubit`` holds one label per qubit from {I, X, Y, Z}; ``cnot``
    is an optional 1-based ``(control, target)``.  Qubits covered by the
    CNOT must carry the label I.  A layer has at least two qubits, the
    fewest that pairwise tomography covers.
    """

    n_qubits: int
    single_qubit: tuple[str, ...]
    cnot: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", whole_number(self.n_qubits, "n_qubits"))
        if self.n_qubits < 2:
            raise DimensionError(f"a gate layer needs at least two qubits, not {self.n_qubits}")
        object.__setattr__(self, "single_qubit", tuple(self.single_qubit))
        if len(self.single_qubit) != self.n_qubits:
            raise ValueError(
                f"{len(self.single_qubit)} single-qubit labels for n={self.n_qubits}"
            )
        for lab in self.single_qubit:
            if lab not in PAULI_1Q:
                raise ValueError(f"unknown single-qubit gate {lab!r}")
        if self.cnot is not None:
            c, t = (whole_number(q, "a CNOT qubit") for q in self.cnot)
            object.__setattr__(self, "cnot", (c, t))
            if c == t or not (1 <= c <= self.n_qubits and 1 <= t <= self.n_qubits):
                raise ValueError(f"invalid CNOT qubits {self.cnot}")
            if self.single_qubit[c - 1] != "I" or self.single_qubit[t - 1] != "I":
                raise ValueError("CNOT qubits must carry the single-qubit label I")

    def label(self) -> str:
        if self.cnot is None:
            return "".join(self.single_qubit)
        c, t = self.cnot
        extras = [
            f"{lab}{q}"
            for q, lab in enumerate(self.single_qubit, start=1)
            if lab != "I"
        ]
        return ",".join([f"CNOT{c}{t}"] + extras)


def gate_unitary(layer: GateLayer) -> np.ndarray:
    """Ideal unitary of a gate layer."""
    u = np.eye(1, dtype=complex)
    for lab in layer.single_qubit:
        u = np.kron(u, PAULI_1Q[lab])
    if layer.cnot is not None:
        u = embed_operator(CNOT_2Q, layer.cnot, layer.n_qubits) @ u
    return u
