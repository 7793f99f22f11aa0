"""Pairwise factor model of an n-qubit process.

The modeled channel is a fixed-order product of two-qubit channels, one per
qubit pair:

    E_hat = E_(1,2) o E_(1,3) o ... o E_(N-1,N)

with pairs in lexicographic order and the (1,2) factor applied last.  Each
factor is stored as a Hermitian 16x16 chi matrix in the trace-4
normalization (see :mod:`pairtomo.channels`), giving 256 real parameters
per factor in the flat packing used by the fitter: 16 diagonal entries,
then the real parts and imaginary parts of the 120 upper-triangle entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .gates import CNOT_2Q, GateLayer

__all__ = [
    "N_PARAMS_PER_FACTOR",
    "all_pairs",
    "PairwiseModel",
    "identity_chi",
    "identity_model",
    "chi_of_unitary",
    "factor_superop",
    "build_superop",
    "pack",
    "unpack",
    "ideal_initial_guess",
]

N_PARAMS_PER_FACTOR = 256

_TRIU = np.triu_indices(16, k=1)


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


def pack(model: PairwiseModel) -> np.ndarray:
    """Flatten a model into the fitter's real parameter vector."""
    blocks = []
    for _, chi in model.factors:
        chi = np.asarray(chi)
        upper = chi[_TRIU]
        blocks.append(np.concatenate([chi.diagonal().real, upper.real, upper.imag]))
    return np.concatenate(blocks)


def unpack(v: np.ndarray, n_qubits: int) -> PairwiseModel:
    """Inverse of :func:`pack`; bit-exact round trip in both directions."""
    v = np.asarray(v, dtype=float)
    pairs = all_pairs(n_qubits)
    if v.shape != (N_PARAMS_PER_FACTOR * len(pairs),):
        raise ch.DimensionError(
            f"parameter vector of length {v.size}, expected {N_PARAMS_PER_FACTOR * len(pairs)}"
        )
    factors = []
    for i, pair in enumerate(pairs):
        w = v[i * N_PARAMS_PER_FACTOR : (i + 1) * N_PARAMS_PER_FACTOR]
        factors.append((pair, _chi_from_params(w)))
    return PairwiseModel(n_qubits, tuple(factors))


def _chi_from_params(w: np.ndarray) -> np.ndarray:
    chi = np.zeros((16, 16), dtype=complex)
    np.fill_diagonal(chi, w[:16])
    upper = w[16:136] + 1j * w[136:256]
    chi[_TRIU] = upper
    chi[_TRIU[1], _TRIU[0]] = upper.conj()
    return chi


def _param_derivatives(g: np.ndarray) -> np.ndarray:
    """Derivatives of ``sum_{p,r} chi[p, r] * g[p, r]`` with respect to the
    256 parameters of :func:`_chi_from_params`, for complex ``g`` of shape
    ``(16, 16, ...)``; the result has shape ``(256, ...)``."""
    diag = np.arange(16)
    upper = g[_TRIU]
    lower = g[_TRIU[1], _TRIU[0]]
    diff = upper - lower
    diff *= 1j
    upper += lower
    return np.concatenate([g[diag, diag], upper, diff])


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
