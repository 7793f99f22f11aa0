"""Convex gate-set decompositions of ideal pair reductions.

Reducing an ideal n-qubit Clifford layer to a qubit pair (spectators traced
out in the maximally mixed state) yields a mixed two-qubit channel.  For the
layers supported here, one Pauli per qubit plus at most one CNOT, that
mixture is a convex combination of a fixed two-qubit gate set, the CNOT plus
the sixteen Pauli products, with weights in closed form:

- on the CNOT's own pair the weight is 1 on CNOT; a CNOT whose control is
  the higher-numbered qubit is not in the set and is refused;
- otherwise each pair qubit carries one factor: its own Pauli with weight
  1, or, when the other CNOT qubit is traced out, I and Z with weight 1/2
  each on a CNOT control (it is dephased) and I and X with weight 1/2 each
  on a CNOT target.  The weights are the products of the two factors.

Given noisy tomography of just those gate-set elements, the reduction of the
noisy layer on each pair can then be predicted without tomographing the
layer itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .gates import CNOT_2Q, GateLayer
from .simulate import ErrorModel, error_superop

__all__ = [
    "NotDecomposableError",
    "GateSet",
    "two_qubit_gateset",
    "ConvexDecomposition",
    "decompose_ideal_reduction",
    "CharacterizedGateSet",
    "simulate_gateset",
    "gst_sigma",
]


class NotDecomposableError(ValueError):
    """Reduction is not a convex mixture of the gate set."""


@dataclass(frozen=True)
class GateSet:
    """Named two-qubit unitaries; tomography targets for pair reductions."""

    names: tuple[str, ...]
    unitaries: tuple[np.ndarray, ...]


def two_qubit_gateset() -> GateSet:
    """CNOT followed by the sixteen two-qubit Pauli products."""
    names = ("CNOT",) + ch.PAULI_LABELS_2Q
    unitaries = (CNOT_2Q,) + tuple(ch.pauli_product(label) for label in ch.PAULI_LABELS_2Q)
    return GateSet(names, unitaries)


@dataclass(frozen=True)
class ConvexDecomposition:
    """Convex weights over gate-set indices for one pair reduction."""

    pair: tuple[int, int]
    terms: tuple[tuple[float, int], ...]


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


def decompose_ideal_reduction(gate: GateLayer, pair: tuple[int, int]) -> ConvexDecomposition:
    """Express the ideal reduction of ``gate`` on ``pair`` as a convex
    mixture of gate-set channels, terms sorted by gate-set index.

    Raises :class:`NotDecomposableError` when the CNOT acts on ``pair``
    with its control above its target.
    """
    pair = ch._check_pair(pair, gate.n_qubits)
    names = two_qubit_gateset().names
    if gate.cnot is not None and set(gate.cnot) == set(pair):
        if gate.cnot != pair:
            raise NotDecomposableError(
                f"reduction of {gate.label()} on pair {pair} is a CNOT with "
                f"control {gate.cnot[0]} above target {gate.cnot[1]}, which is "
                "not a convex mixture of the gate set"
            )
        return ConvexDecomposition(pair, ((1.0, names.index("CNOT")),))
    first, second = (_qubit_factor(gate, q) for q in pair)
    terms = sorted(
        ((wa * wb, names.index(la + lb)) for la, wa in first for lb, wb in second),
        key=lambda term: term[1],
    )
    return ConvexDecomposition(pair, tuple(terms))


@dataclass(frozen=True)
class CharacterizedGateSet:
    """Noisy reduced Choi states of every gate-set element on one pair."""

    pair: tuple[int, int]
    chois: tuple[np.ndarray, ...]


def simulate_gateset(
    pair: tuple[int, int],
    n_qubits: int,
    error: ErrorModel,
) -> CharacterizedGateSet:
    """Tomography of each gate-set element under a gate-independent error:
    the element acts on ``pair``, the error acts on all qubits, spectators
    are traced out in the maximally mixed state."""
    pair = ch._check_pair(pair, n_qubits)
    err = error_superop(error, n_qubits)
    # nested calls, so that each full-size superoperator and Choi state is
    # freed as soon as the next step has used it
    chois = tuple(
        ch.partial_trace_choi(
            ch.superop_to_choi(err @ ch.unitary_to_superop(ch.embed_operator(u, pair, n_qubits))),
            pair,
        )
        for u in two_qubit_gateset().unitaries
    )
    return CharacterizedGateSet(pair, chois)


def gst_sigma(decomp: ConvexDecomposition, characterized: CharacterizedGateSet) -> np.ndarray:
    """Predicted noisy reduction: the ideal convex weights applied to the
    characterized (noisy) gate-set states."""
    if decomp.pair != characterized.pair:
        raise ValueError(
            f"decomposition is for pair {decomp.pair} but the characterized "
            f"set is for pair {characterized.pair}"
        )
    out = np.zeros((16, 16), dtype=complex)
    for coef, idx in decomp.terms:
        out += coef * characterized.chois[idx]
    return out
