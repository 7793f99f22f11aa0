"""Pairwise factor model of an n-qubit process.

The modeled channel is a fixed-order product of two-qubit channels, one per
qubit pair:

    E_hat = E_(1,2) o E_(1,3) o ... o E_(N-1,N)

with pairs in lexicographic order and the (1,2) factor applied last.  Each
factor is stored as a Hermitian 16x16 chi matrix in the trace-4
normalization (see :mod:`pairtomo.channels`).  The fitter's real
parameterization of a factor lives in :mod:`pairtomo.reconstruct`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .gates import CNOT_2Q, GateLayer

__all__ = [
    "all_pairs",
    "PairwiseModel",
    "identity_chi",
    "identity_model",
    "chi_of_unitary",
    "factor_superop",
    "build_superop",
    "ideal_initial_guess",
]


def all_pairs(n_qubits: int) -> tuple[tuple[int, int], ...]:
    """Qubit pairs (1-based) in lexicographic order."""
    if n_qubits < 2:
        raise ch.DimensionError("need at least two qubits")
    return tuple(
        (k, l) for k in range(1, n_qubits + 1) for l in range(k + 1, n_qubits + 1)
    )


@dataclass(frozen=True)
class PairwiseModel:
    """One trace-4 chi matrix per qubit pair, in lexicographic pair order."""

    n_qubits: int
    factors: tuple[tuple[tuple[int, int], np.ndarray], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", ch.whole_number(self.n_qubits, "n_qubits"))
        pairs = tuple(p for p, _ in self.factors)
        if pairs != all_pairs(self.n_qubits):
            raise ValueError(
                f"factors must cover pairs {all_pairs(self.n_qubits)} in order, got {pairs}"
            )
        for pair, chi in self.factors:
            if np.asarray(chi).shape != (16, 16):
                raise ch.DimensionError(f"factor {pair} chi has shape {np.asarray(chi).shape}")


def identity_chi() -> np.ndarray:
    """Trace-4 chi matrix of the two-qubit identity channel."""
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0] = 4.0
    return chi


def identity_model(n_qubits: int) -> PairwiseModel:
    return PairwiseModel(
        n_qubits, tuple((p, identity_chi()) for p in all_pairs(n_qubits))
    )


def chi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Trace-4 chi matrix of a two-qubit unitary conjugation:
    ``conj(c_p) c_r`` with ``c_p = Tr(E_p^dag u)`` its unit-Pauli
    coordinates."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ch.DimensionError(f"expected a 4x4 unitary, got {u.shape}")
    c = np.einsum("pab,ab->p", ch.PAULI_UNIT_2Q.conj(), u)
    return np.outer(c.conj(), c)


def factor_superop(chi: np.ndarray, pair, n_qubits: int) -> np.ndarray:
    """n-qubit superoperator ``sum_{p,r} chi[p, r] kron(conj(E_p), E_r)`` of
    one factor, with the unit Paulis ``E_p`` on ``pair`` and the identity
    on every other qubit."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ch.DimensionError(f"chi has shape {chi.shape}, expected (16, 16)")
    stack = ch._embedded_unit_paulis(ch._check_pair(pair, n_qubits), n_qubits)
    right = np.tensordot(chi, stack, axes=(1, 0))
    d = 2**n_qubits
    # sum_p kron(conj(E_p), right_p) without materializing the krons
    out = np.einsum("pik,pjl->ijkl", stack.conj(), right)
    return out.reshape(d * d, d * d)


def build_superop(model: PairwiseModel) -> np.ndarray:
    """Superoperator of the full model: left-to-right product over factors
    in lexicographic pair order, so the first factor is applied last."""
    out = None
    for pair, chi in model.factors:
        s = factor_superop(chi, pair, model.n_qubits)
        out = s if out is None else out @ s
    return out


def ideal_initial_guess(gate: GateLayer) -> PairwiseModel:
    """Model whose product equals the ideal gate layer exactly.

    The CNOT goes to its own pair's factor; each non-identity single-qubit
    gate goes to the lowest-index pair containing that qubit; every other
    factor is the identity.
    """
    n = gate.n_qubits
    pairs = all_pairs(n)
    unitaries = {p: np.eye(4, dtype=complex) for p in pairs}
    if gate.cnot is not None:
        c, t = gate.cnot
        pair = (min(c, t), max(c, t))
        orientation = (1, 2) if c < t else (2, 1)
        unitaries[pair] = ch.embed_operator(CNOT_2Q, orientation, 2)
    for q, lab in enumerate(gate.single_qubit, start=1):
        if lab == "I":
            continue
        pair = next(p for p in pairs if q in p)
        slot = (ch.PAULI_1Q[lab], np.eye(2)) if q == pair[0] else (np.eye(2), ch.PAULI_1Q[lab])
        unitaries[pair] = np.kron(*slot) @ unitaries[pair]
    return PairwiseModel(
        n, tuple((p, chi_of_unitary(unitaries[p])) for p in pairs)
    )
