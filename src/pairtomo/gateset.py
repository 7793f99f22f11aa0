"""Convex gate-set decompositions of ideal pair reductions.

The gate set is one table, :data:`GATESET_NAMES`: the CNOT followed by the
sixteen two-qubit Pauli products.  Reducing an ideal n-qubit Clifford layer
to a qubit pair (spectators traced out in the maximally mixed state) yields
a mixed two-qubit channel.  For the layers supported here, one Pauli per
qubit plus at most one CNOT, that mixture is a convex combination of the
gate set, with weights in closed form:

- on the CNOT's own pair the weight is 1 on CNOT; a CNOT whose control is
  the higher-numbered qubit is not in the set and is refused;
- otherwise each pair qubit carries one factor: its own Pauli with weight
  1, or, when the other CNOT qubit is traced out, I and Z with weight 1/2
  each on a CNOT control (it is dephased) and I and X with weight 1/2 each
  on a CNOT target.  The weights are the products of the two factors.

A decomposition is a tuple of ``(weight, index)`` terms whose indices point
into :data:`GATESET_NAMES`; a characterization is the tuple of the noisy
reduced Choi states of the gate-set elements on one pair, in table order.
Together they predict the reduction of the noisy layer on that pair without
tomographing the layer itself.
"""

from __future__ import annotations

import numpy as np

from . import channels as ch
from .gates import CNOT_2Q, GateLayer
from .simulate import ErrorModel, error_superop

__all__ = [
    "NotDecomposableError",
    "GATESET_NAMES",
    "decompose_ideal_reduction",
    "simulate_gateset",
    "gst_sigma",
]

GATESET_NAMES: tuple[str, ...] = ("CNOT",) + ch.PAULI_LABELS_2Q
_GATESET_UNITARIES = (CNOT_2Q,) + tuple(ch.pauli_product(label) for label in ch.PAULI_LABELS_2Q)


class NotDecomposableError(ValueError):
    """Reduction is not a convex mixture of the gate set."""


def _qubit_factor(gate: GateLayer, q: int) -> tuple[tuple[str, float], ...]:
    """Weighted one-qubit Paulis of qubit ``q`` when the CNOT, if any, is not
    on the pair."""
    if gate.cnot is not None:
        control, target = gate.cnot
        if q == control:
            return (("I", 0.5), ("Z", 0.5))
        if q == target:
            return (("I", 0.5), ("X", 0.5))
    return ((gate.single_qubit[q - 1], 1.0),)


def decompose_ideal_reduction(
    gate: GateLayer, pair: tuple[int, int]
) -> tuple[tuple[float, int], ...]:
    """The ideal reduction of ``gate`` on ``pair`` as ``(weight, index)``
    terms of a convex mixture of gate-set channels, sorted by index.

    Raises :class:`NotDecomposableError` when the CNOT acts on ``pair``
    with its control above its target.
    """
    pair = ch._check_pair(pair, gate.n_qubits)
    if gate.cnot is not None and set(gate.cnot) == set(pair):
        if gate.cnot != pair:
            raise NotDecomposableError(
                f"reduction of {gate.label()} on pair {pair} is a CNOT with "
                f"control {gate.cnot[0]} above target {gate.cnot[1]}, which is "
                "not a convex mixture of the gate set"
            )
        return ((1.0, GATESET_NAMES.index("CNOT")),)
    first, second = (_qubit_factor(gate, q) for q in pair)
    return tuple(sorted(
        ((wa * wb, GATESET_NAMES.index(la + lb)) for la, wa in first for lb, wb in second),
        key=lambda term: term[1],
    ))


def simulate_gateset(
    pair: tuple[int, int],
    n_qubits: int,
    error: ErrorModel,
) -> tuple[np.ndarray, ...]:
    """Tomography of each gate-set element under a gate-independent error,
    in table order: the element acts on ``pair``, the error acts on all
    qubits, spectators are traced out in the maximally mixed state."""
    pair = ch._check_pair(pair, n_qubits)
    err = error_superop(error, n_qubits)
    # nested calls, so that each full-size superoperator and Choi state is
    # freed as soon as the next step has used it
    return tuple(
        ch.partial_trace_choi(
            ch.superop_to_choi(err @ ch.unitary_to_superop(ch.embed_operator(u, pair, n_qubits))),
            pair,
        )
        for u in _GATESET_UNITARIES
    )


def gst_sigma(
    terms: tuple[tuple[float, int], ...], chois: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Predicted noisy reduction: the ideal convex weights ``terms`` of one
    pair applied to the characterized (noisy) gate-set states ``chois`` of
    the same pair."""
    out = np.zeros((16, 16), dtype=complex)
    for coef, idx in terms:
        out += coef * chois[idx]
    return out
