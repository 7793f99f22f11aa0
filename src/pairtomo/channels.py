"""Quantum channel representations, conversions, and CPTP machinery.

Conventions, fixed once here and used everywhere else in the package:

* Vectorization is column-stacking, so ``vec(A @ X @ B) = (B.T kron A) @ vec(X)``
  and the superoperator of ``rho -> U rho U^dag`` is ``kron(U.conj(), U)``.
  A channel on n qubits is a ``4**n x 4**n`` matrix acting on column-stacked
  density matrices; channel composition is a plain matrix product.
* Qubit 1 is the leftmost tensor factor.  Computational basis states are
  ``|b1 b2 ... bn>`` with ``b1`` the most significant bit.
* The dual (Choi) state of a channel E is

      choi = (1 / 2**n) * sum_{u,v} |u><v| (x) E(|u><v|),

  input half first.  It has unit trace when E is trace preserving, is PSD
  when E is completely positive, and its partial trace over the output half
  equals ``I / 2**n`` exactly when E is trace preserving.
* Process (chi) matrices expand a channel over an operator basis ``{E_p}``:

      E(rho) = sum_{p,r} chi[p, r] * E_r @ rho @ E_p^dag.

  Basis elements are Pauli products in lexicographic order
  (II, IX, IY, IZ, XI, ...).  ``pauli_basis(n)`` returns the raw products,
  ``Tr(E_p^dag E_r) = 2**n * delta_pr``; in that scaling the identity channel
  has ``chi[0, 0] = 1``.  ``pauli_basis(n).unit()`` rescales the elements so
  that ``Tr(E_p^dag E_r) = delta_pr``, the normalization in which a CPTP
  two-qubit chi matrix is PSD with trace 4 and satisfies
  ``sum_{p,r} chi[p, r] E_p^dag E_r = I``.  The trace-4 form is what the
  pairwise model and the fitter store.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionError",
    "InvalidKrausError",
    "DegenerateChiError",
    "PAULI_1Q",
    "OperatorBasis",
    "pauli_product",
    "pauli_basis",
    "n_qubits_of",
    "vec",
    "unvec",
    "unitary_to_superop",
    "kraus_to_superop",
    "superop_to_choi",
    "choi_to_superop",
    "chi_to_superop",
    "superop_to_chi",
    "embed_operator",
    "embed_chi",
    "partial_trace",
    "partial_trace_choi",
    "choi_output_reduction",
    "choi_tp_deviation",
    "is_cptp_choi",
    "trace_distance",
    "project_psd_chi",
    "cptp_residuals",
    "hermiticity_deviation",
    "kraus_completeness_deviation",
    "random_kraus_set",
    "random_cptp_superop",
]

# Eigenvalues above this (in magnitude) count as genuinely negative when
# scoring positivity of a chi matrix.
NEGATIVE_EIG_TOL = 1e-12

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class InvalidKrausError(ValueError):
    """Kraus operators do not satisfy the completeness relation."""


class DegenerateChiError(ValueError):
    """Chi-matrix estimate carries no nonnegative spectral weight."""


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension, requiring a power of 2."""
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def pauli_product(label: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``pauli_product('XIZ')``."""
    out = np.eye(1, dtype=complex)
    for ch in label:
        try:
            out = np.kron(out, PAULI_1Q[ch])
        except KeyError:
            raise ValueError(f"unknown Pauli label {ch!r}") from None
    return out


@dataclass(frozen=True)
class OperatorBasis:
    """Ordered operator basis over an n-qubit space.

    ``elements`` has shape ``(4**n, 2**n, 2**n)``.  Raw Pauli-product bases
    satisfy ``Tr(E_i^dag E_j) = 2**n * delta_ij``; :meth:`unit` rescales to
    an orthonormal (Hilbert-Schmidt) basis.
    """

    n_qubits: int
    labels: tuple[str, ...]
    elements: np.ndarray

    def __post_init__(self) -> None:
        expected = (4**self.n_qubits, 2**self.n_qubits, 2**self.n_qubits)
        if self.elements.shape != expected:
            raise DimensionError(
                f"basis elements have shape {self.elements.shape}, expected {expected}"
            )

    def unit(self) -> "OperatorBasis":
        """Copy of the basis rescaled so that ``Tr(E_i^dag E_j) = delta_ij``."""
        scale = 2.0 ** (self.n_qubits / 2.0)
        return OperatorBasis(self.n_qubits, self.labels, self.elements / scale)


@functools.lru_cache(maxsize=None)
def _pauli_basis_cached(n_qubits: int) -> OperatorBasis:
    labels = tuple("".join(t) for t in itertools.product("IXYZ", repeat=n_qubits))
    elements = np.stack([pauli_product(lab) for lab in labels])
    elements.setflags(write=False)
    return OperatorBasis(n_qubits, labels, elements)


def pauli_basis(n_qubits: int) -> OperatorBasis:
    """Raw Pauli-product basis in lexicographic order (II, IX, IY, IZ, XI, ...)."""
    if n_qubits < 1:
        raise DimensionError("need at least one qubit")
    return _pauli_basis_cached(n_qubits)


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).ravel(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise DimensionError(f"vector of length {v.size} is not a square matrix")
    return v.reshape((d, d), order="F")


def _square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    return m


def unitary_to_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator of ``rho -> U rho U^dag`` (column-stacking convention)."""
    u = _square(u, "unitary")
    n_qubits_of(u.shape[0])
    return np.kron(u.conj(), u)


def kraus_to_superop(ops, atol: float = 1e-9) -> np.ndarray:
    """Superoperator of ``rho -> sum_i K_i rho K_i^dag``.

    Raises :class:`InvalidKrausError` when the completeness relation
    ``sum_i K_i^dag K_i = I`` is violated beyond ``atol``.
    """
    ops = [_square(k, "Kraus operator") for k in ops]
    if not ops:
        raise InvalidKrausError("empty Kraus set")
    d = ops[0].shape[0]
    n_qubits_of(d)
    dev = kraus_completeness_deviation(ops)
    if dev > atol:
        raise InvalidKrausError(f"completeness violated by {dev:.3e} (atol={atol:.1e})")
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        out += np.kron(k.conj(), k)
    return out


def kraus_completeness_deviation(ops) -> float:
    """Max absolute deviation of ``sum K^dag K`` from the identity."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    d = ops[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    return float(np.abs(acc - np.eye(d)).max())


def _choi_reshuffle(m: np.ndarray) -> np.ndarray:
    big = m.shape[0]
    d = int(round(np.sqrt(big)))
    if d * d != big:
        raise DimensionError(f"dimension {big} is not a perfect square")
    n_qubits_of(d)
    return m.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(big, big)


def superop_to_choi(s: np.ndarray) -> np.ndarray:
    """Choi (dual) state of a superoperator, normalized to unit trace for TP maps."""
    s = _square(s, "superoperator")
    d = int(round(np.sqrt(s.shape[0])))
    return _choi_reshuffle(s) / d


def choi_to_superop(choi: np.ndarray) -> np.ndarray:
    """Inverse of :func:`superop_to_choi`."""
    choi = _square(choi, "Choi state")
    d = int(round(np.sqrt(choi.shape[0])))
    return _choi_reshuffle(choi) * d


def chi_to_superop(chi: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Superoperator of ``rho -> sum_{p,r} chi[p,r] E_r rho E_p^dag``.

    The basis elements are used exactly as stored, so the same chi matrix
    describes different channels under ``pauli_basis(n)`` and its
    ``.unit()`` rescaling (they differ by a factor ``2**n``).
    """
    chi = _square(chi, "chi matrix")
    e = basis.elements
    if chi.shape[0] != e.shape[0]:
        raise DimensionError(
            f"chi has {chi.shape[0]} rows for a basis of {e.shape[0]} elements"
        )
    s = np.einsum("pr,pab,rcd->acbd", chi, e.conj(), e, optimize=True)
    big = e.shape[1] ** 2
    return s.reshape(big, big)


def superop_to_chi(s: np.ndarray, basis: OperatorBasis) -> np.ndarray:
    """Chi matrix of a superoperator over the given basis; inverse of
    :func:`chi_to_superop` for the same basis."""
    s = _square(s, "superoperator")
    d = 2**basis.n_qubits
    if s.shape[0] != d * d:
        raise DimensionError(f"superoperator shape {s.shape} does not match basis")
    choi = superop_to_choi(s)
    # Columns w_p = vec(E_p)/sqrt(d) satisfy choi = W chi^T W^dag.
    w = basis.elements.transpose(0, 2, 1).reshape(len(basis.labels), d * d).T / np.sqrt(d)
    g = w.conj().T @ w
    m = w.conj().T @ choi @ w
    x = np.linalg.solve(g, m)
    chi_t = np.linalg.solve(g.conj().T, x.conj().T).conj().T
    return chi_t.T


def embed_operator(op: np.ndarray, positions, n_qubits: int) -> np.ndarray:
    """Embed an m-qubit operator so that its k-th tensor slot acts on qubit
    ``positions[k]`` (1-based), identity elsewhere."""
    op = _square(op, "operator")
    m = n_qubits_of(op.shape[0])
    positions = tuple(int(q) for q in positions)
    if len(positions) != m:
        raise DimensionError(f"operator on {m} qubits given {len(positions)} positions")
    if len(set(positions)) != m or any(q < 1 or q > n_qubits for q in positions):
        raise DimensionError(f"invalid qubit positions {positions} for n={n_qubits}")
    rest = [q for q in range(1, n_qubits + 1) if q not in positions]
    full = np.kron(op, np.eye(2 ** (n_qubits - m), dtype=complex))
    t = full.reshape([2] * (2 * n_qubits))
    base_order = list(positions) + rest
    axis_of = {q: i for i, q in enumerate(base_order)}
    perm = [axis_of[q] for q in range(1, n_qubits + 1)]
    t = t.transpose(perm + [p + n_qubits for p in perm])
    d = 2**n_qubits
    return t.reshape(d, d)


@functools.lru_cache(maxsize=None)
def _embedded_pauli_stack(pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    """The 16 two-qubit Pauli products placed on ``pair`` of an n-qubit register."""
    k, l = pair
    mats = []
    for a, b in itertools.product("IXYZ", repeat=2):
        chars = ["I"] * n_qubits
        chars[k - 1] = a
        chars[l - 1] = b
        mats.append(pauli_product("".join(chars)))
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def _check_pair(pair, n_qubits: int) -> tuple[int, int]:
    k, l = (int(q) for q in pair)
    if not (1 <= k < l <= n_qubits):
        raise DimensionError(f"pair {pair} is not an ordered qubit pair for n={n_qubits}")
    return k, l


def embed_chi(chi: np.ndarray, pair, n_qubits: int) -> np.ndarray:
    """n-qubit superoperator of a two-qubit channel given by its chi matrix
    over the *raw* Pauli basis, acting on ``pair`` with identity elsewhere."""
    chi = _square(chi, "chi matrix")
    pair = _check_pair(pair, n_qubits)
    stack = _embedded_pauli_stack(pair, n_qubits)
    right = np.tensordot(chi, stack, axes=(1, 0))
    d = 2**n_qubits
    # sum_p kron(conj(P_p), right_p) without materializing the krons
    out = np.einsum("pik,pjl->ijkl", stack.conj(), right)
    return out.reshape(d * d, d * d)


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Partial trace of an n-qubit operator keeping the 1-based qubits in
    ``keep`` (in the order given)."""
    rho = _square(rho, "state")
    if rho.shape[0] != 2**n_qubits:
        raise DimensionError(f"state shape {rho.shape} does not match n={n_qubits}")
    keep = tuple(int(q) for q in keep)
    if len(set(keep)) != len(keep) or any(q < 1 or q > n_qubits for q in keep):
        raise DimensionError(f"invalid keep list {keep}")
    t = rho.reshape([2] * (2 * n_qubits))
    subs = list(range(2 * n_qubits))
    for q in range(n_qubits):
        if q + 1 not in keep:
            subs[n_qubits + q] = subs[q]
    out_axes = [q - 1 for q in keep] + [n_qubits + q - 1 for q in keep]
    red = np.einsum(t, subs, [subs[a] for a in out_axes])
    dk = 2 ** len(keep)
    return red.reshape(dk, dk)


def _choi_qubits(choi: np.ndarray) -> int:
    big = choi.shape[0]
    total = n_qubits_of(big)
    if total % 2:
        raise DimensionError(f"Choi dimension {big} is not 4**n")
    return total // 2


def partial_trace_choi(choi: np.ndarray, pair) -> np.ndarray:
    """Reduced two-qubit Choi state on ``pair``: traces the spectator qubits
    out of both the input and the output half.  Preserves the trace."""
    choi = _square(choi, "Choi state")
    n = _choi_qubits(choi)
    k, l = _check_pair(pair, n)
    if n == 2:
        return choi.copy()
    spect = [q for q in range(1, n + 1) if q not in (k, l)]
    kept_rows = [k - 1, l - 1, n + k - 1, n + l - 1]
    spect_rows = [q - 1 for q in spect] + [n + q - 1 for q in spect]
    perm = (
        kept_rows
        + spect_rows
        + [2 * n + a for a in kept_rows]
        + [2 * n + a for a in spect_rows]
    )
    m = 2 ** (2 * (n - 2))
    t = choi.reshape([2] * (4 * n)).transpose(perm).reshape(16, m, 16, m)
    return np.trace(t, axis1=1, axis2=3)


def choi_output_reduction(choi: np.ndarray) -> np.ndarray:
    """Partial trace of a Choi state over its output half; equals
    ``I / 2**n`` exactly when the channel is trace preserving."""
    choi = _square(choi, "Choi state")
    n = _choi_qubits(choi)
    d = 2**n
    return np.einsum("aibi->ab", choi.reshape(d, d, d, d))


def choi_tp_deviation(choi: np.ndarray) -> float:
    """Max deviation of the trace-preservation witness from ``I / 2**n``."""
    red = choi_output_reduction(choi)
    d = red.shape[0]
    return float(np.abs(red - np.eye(d) / d).max())


def is_cptp_choi(choi: np.ndarray, psd_tol: float = 1e-10, tp_tol: float = 1e-10) -> bool:
    """Whether a Choi state describes a CPTP channel within tolerances."""
    choi = _square(choi, "Choi state")
    if hermiticity_deviation(choi) > psd_tol:
        return False
    if float(np.linalg.eigvalsh(choi).min()) < -psd_tol:
        return False
    return choi_tp_deviation(choi) <= tp_tol


def hermiticity_deviation(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``0.5 * sum |eig(A - B)|`` between Hermitian operators."""
    a = _square(a, "operator")
    b = _square(b, "operator")
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    diff = a - b
    diff = (diff + diff.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def project_psd_chi(chi: np.ndarray) -> np.ndarray:
    """Nearest-PSD style repair of a chi-matrix estimate: diagonalize, drop
    negative eigenvalues, rescale the remainder to trace 4.

    Idempotent on PSD trace-4 inputs.  Raises :class:`DegenerateChiError`
    when no positive spectral weight remains.
    """
    chi = _square(chi, "chi matrix")
    h = (chi + chi.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    kept = np.clip(vals, 0.0, None)
    weight = kept.sum()
    if weight <= 0.0:
        raise DegenerateChiError("chi estimate has no nonnegative spectral weight")
    kept *= 4.0 / weight
    return (vecs * kept) @ vecs.conj().T


def cptp_residuals(chi: np.ndarray) -> np.ndarray:
    """Flat real residual vector scoring CPTP validity of a two-qubit chi
    matrix in the trace-4 normalization (over the unit-normalized Pauli
    basis ``E_p = P_p / 2``).

    Components, in order: ``Tr(chi) - 4``; the summed magnitude of
    eigenvalues below ``-1e-12``; then real and imaginary parts of all
    entries of ``sum_{p,r} chi[p,r] E_p^dag E_r - I``.  All 34 components
    vanish iff chi is CPTP.
    """
    chi = _square(chi, "chi matrix")
    if chi.shape != (16, 16):
        raise DimensionError(f"chi has shape {chi.shape}, expected (16, 16)")
    e = pauli_basis(2).elements / 2.0  # the elements of pauli_basis(2).unit()
    trace_term = float(np.trace(chi).real) - 4.0
    h = (chi + chi.conj().T) / 2.0
    vals = np.linalg.eigvalsh(h)
    neg = float(-vals[vals < -NEGATIVE_EIG_TOL].sum())
    mixed = np.tensordot(chi, e, axes=(1, 0))
    comp = np.tensordot(e.conj(), mixed, axes=([0, 1], [0, 1]))
    comp = comp - np.eye(e.shape[1])
    return np.concatenate(([trace_term, neg], comp.real.ravel(), comp.imag.ravel()))


def random_kraus_set(dim: int, n_kraus: int, seed) -> list[np.ndarray]:
    """Random Kraus set of a CPTP channel (Ginibre construction); the
    completeness relation holds to machine precision."""
    if n_kraus < 1:
        raise ValueError("need at least one Kraus operator")
    n_qubits_of(dim)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    gram = np.einsum("kba,kbc->ac", a.conj(), a)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [k @ inv_sqrt for k in a]


def random_cptp_superop(dim: int, seed, n_kraus: int | None = None) -> np.ndarray:
    """Superoperator of a random full-rank CPTP channel."""
    if n_kraus is None:
        n_kraus = dim * dim
    return kraus_to_superop(random_kraus_set(dim, n_kraus, seed))
