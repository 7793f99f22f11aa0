"""Convex gate-set decompositions of ideal pair reductions.

Reducing an ideal n-qubit Clifford layer to a qubit pair (spectators traced
out in the maximally mixed state) yields a mixed two-qubit channel.  For the
gate layers supported here that mixture is always a convex combination of a
fixed two-qubit gate set: the CNOT plus the sixteen Pauli products.  Given
noisy tomography of just those gate-set elements, the reduction of the noisy
layer on each pair can then be predicted without tomographing the layer
itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .gates import CNOT_2Q, GateLayer, gate_unitary
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

# Balance between fitting the target state and enforcing unit total weight.
_SUM_WEIGHT = 10.0
# Tikhonov damping: among exact fits, prefer the minimum-norm coefficients.
_RIDGE = 1e-12
_RESIDUAL_TOL = 1e-6


class NotDecomposableError(ValueError):
    """Reduction is not a convex mixture of the gate set."""


@dataclass(frozen=True)
class GateSet:
    """Named two-qubit unitaries; tomography targets for pair reductions."""

    names: tuple[str, ...]
    unitaries: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.names)

    def chois(self) -> list[np.ndarray]:
        return [ch.superop_to_choi(ch.unitary_to_superop(u)) for u in self.unitaries]


def two_qubit_gateset() -> GateSet:
    """CNOT followed by the sixteen two-qubit Pauli products."""
    basis = ch.pauli_basis(2)
    names = ("CNOT",) + tuple(basis.labels)
    unitaries = (CNOT_2Q,) + tuple(basis.elements)
    return GateSet(names, unitaries)


@dataclass(frozen=True)
class ConvexDecomposition:
    """Convex weights over gate-set indices for one pair reduction."""

    pair: tuple[int, int]
    terms: tuple[tuple[float, int], ...]
    residual: float

    def coefficient(self, index: int) -> float:
        for coef, idx in self.terms:
            if idx == index:
                return coef
        return 0.0


def _fit_convex(target_choi: np.ndarray, chois: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Nonnegative least squares fit of ``target = sum_i c_i choi_i`` with a
    soft sum-to-one row; returns coefficients and the unaugmented residual."""
    # imported here: scipy.optimize adds about 50 MB and 0.6 s to importing the package
    from scipy.optimize import nnls

    m = len(chois)
    cols = [np.concatenate([c.real.ravel(), c.imag.ravel()]) for c in chois]
    a = np.stack(cols, axis=1)
    b = np.concatenate([target_choi.real.ravel(), target_choi.imag.ravel()])
    a_aug = np.vstack([a, _SUM_WEIGHT * np.ones((1, m)), np.sqrt(_RIDGE) * np.eye(m)])
    b_aug = np.concatenate([b, [_SUM_WEIGHT], np.zeros(m)])
    coefs, _ = nnls(a_aug, b_aug)
    achieved = sum(c * choi for c, choi in zip(coefs, chois))
    residual = float(np.linalg.norm(achieved - target_choi))
    return coefs, residual


def _ideal_reduction(gate: GateLayer, pair: tuple[int, int]) -> np.ndarray:
    superop = ch.unitary_to_superop(gate_unitary(gate))
    return ch.partial_trace_choi(ch.superop_to_choi(superop), pair)


def decompose_ideal_reduction(
    gate: GateLayer,
    pair: tuple[int, int],
    gateset: GateSet | None = None,
    coef_tol: float = 1e-10,
) -> ConvexDecomposition:
    """Express the ideal reduction of ``gate`` on ``pair`` as a convex
    mixture of gate-set channels.

    Raises :class:`NotDecomposableError` when no nonnegative combination
    reproduces the reduction.
    """
    pair = ch._check_pair(pair, gate.n_qubits)
    gs = gateset if gateset is not None else two_qubit_gateset()
    coefs, residual = _fit_convex(_ideal_reduction(gate, pair), gs.chois())
    if residual > _RESIDUAL_TOL:
        raise NotDecomposableError(
            f"reduction of {gate.label()} on pair {pair} is not a convex "
            f"mixture of the gate set (fit residual {residual:.3e})"
        )
    terms = tuple(
        (float(c), i) for i, c in enumerate(coefs) if c > coef_tol
    )
    return ConvexDecomposition(pair, terms, residual)


@dataclass(frozen=True)
class CharacterizedGateSet:
    """Noisy reduced Choi states of every gate-set element on one pair."""

    pair: tuple[int, int]
    n_qubits: int
    chois: tuple[np.ndarray, ...]


def simulate_gateset(
    pair: tuple[int, int],
    n_qubits: int,
    error: ErrorModel,
    gateset: GateSet | None = None,
) -> CharacterizedGateSet:
    """Tomography of each gate-set element under a gate-independent error:
    the element acts on ``pair``, the error acts on all qubits, spectators
    are traced out in the maximally mixed state."""
    pair = ch._check_pair(pair, n_qubits)
    gs = gateset if gateset is not None else two_qubit_gateset()
    err = error_superop(error, n_qubits)
    chois = []
    for u in gs.unitaries:
        ideal = ch.unitary_to_superop(ch.embed_operator(u, pair, n_qubits))
        choi = ch.superop_to_choi(err @ ideal)
        chois.append(ch.partial_trace_choi(choi, pair))
    return CharacterizedGateSet(pair, n_qubits, tuple(chois))


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
