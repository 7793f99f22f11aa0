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
* A chi matrix is a two-qubit channel's coordinates over the unit Paulis
  ``E_p = P_p / 2`` in lexicographic order (II, IX, IY, IZ, XI, ...), the
  table ``PAULI_LABELS_2Q`` / ``PAULI_UNIT_2Q``:

      E(rho) = sum_{p,r} chi[p, r] * E_r @ rho @ E_p^dag.

  The ``E_p`` are orthonormal, ``Tr(E_p^dag E_r) = delta_pr``, so a CPTP
  channel has a PSD chi of trace 4 with ``sum_{p,r} chi[p, r] E_p^dag E_r = I``,
  and the identity channel has ``chi[0, 0] = 4``.  This is the only chi
  convention in the package: the pairwise model stores it, the fitter
  varies it, and :func:`cptp_residuals` and :func:`project_psd_chi` score
  and repair it.
"""

from __future__ import annotations

import functools
import itertools
import numbers

import numpy as np

__all__ = [
    "DimensionError",
    "InvalidKrausError",
    "DegenerateChiError",
    "whole_number",
    "real_number",
    "PAULI_1Q",
    "PAULI_LABELS_2Q",
    "PAULI_UNIT_2Q",
    "pauli_product",
    "n_qubits_of",
    "unitary_to_superop",
    "kraus_to_superop",
    "superop_to_choi",
    "embed_operator",
    "pair_selector",
    "partial_trace_choi",
    "is_cptp_choi",
    "trace_distance",
    "project_psd_chi",
    "cptp_residuals",
]

# Eigenvalues above this (in magnitude) count as genuinely negative when
# scoring positivity of a chi matrix.
NEGATIVE_EIG_TOL = 1e-12

# Completeness deviation of a Kraus set that :func:`kraus_to_superop` accepts.
_KRAUS_ATOL = 1e-9

# Largest anti-Hermitian entry, negative eigenvalue and trace-preservation
# miss that :func:`is_cptp_choi` accepts in a Choi state.
_CPTP_TOL = 1e-9

# Rows per block of the Hermiticity pass in :func:`is_cptp_choi`.  Its
# temporaries are a few blocks, not copies of the whole Choi state, which
# are 16 MB each at five qubits; an n=3 Choi state is one block.
_CPTP_BLOCK_ROWS = 64

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class DimensionError(ValueError):
    """Matrix dimensions incompatible with the requested operation."""


def whole_number(value, what: str, least: int | None = None) -> int:
    """``value`` as an ``int``: an integer, or a whole-number float such as
    ``3.0``, no less than ``least`` when that is given.  Booleans, strings
    and fractions are refused with a ``ValueError`` that names ``what``.
    The one rule for every count and index a record or config gives."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value!r}")
    return int(value)


def real_number(value, what: str) -> float:
    """``value`` as a ``float``; booleans and strings are refused with a
    ``ValueError`` that names ``what``.  The one rule for every real
    parameter a record or config gives."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


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


# The unit two-qubit Paulis E_p = P_p / 2, in lexicographic label order,
# with Tr(E_p^dag E_r) = delta_pr: the operator basis of every chi matrix.
PAULI_LABELS_2Q = tuple(a + b for a, b in itertools.product("IXYZ", repeat=2))
PAULI_UNIT_2Q = np.stack([pauli_product(lab) for lab in PAULI_LABELS_2Q]) / 2.0
PAULI_UNIT_2Q.setflags(write=False)


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


def kraus_to_superop(ops) -> np.ndarray:
    """Superoperator of ``rho -> sum_i K_i rho K_i^dag``.

    Raises :class:`InvalidKrausError` when the completeness relation
    ``sum_i K_i^dag K_i = I`` is violated beyond ``_KRAUS_ATOL``.
    """
    ops = [_square(k, "Kraus operator") for k in ops]
    if not ops:
        raise InvalidKrausError("empty Kraus set")
    d = ops[0].shape[0]
    n_qubits_of(d)
    acc = np.zeros((d, d), dtype=complex)
    for k in ops:
        acc += k.conj().T @ k
    dev = float(np.abs(acc - np.eye(d)).max())
    if dev > _KRAUS_ATOL:
        raise InvalidKrausError(f"completeness violated by {dev:.3e} (atol={_KRAUS_ATOL:.1e})")
    out = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        out += np.kron(k.conj(), k)
    return out


def superop_to_choi(s: np.ndarray) -> np.ndarray:
    """Choi (dual) state of a superoperator, normalized to unit trace for TP maps."""
    s = _square(s, "superoperator")
    big = s.shape[0]
    d = int(round(np.sqrt(big)))
    if d * d != big:
        raise DimensionError(f"dimension {big} is not a perfect square")
    n_qubits_of(d)
    shuffled = s.reshape(d, d, d, d).transpose(3, 1, 2, 0)
    # divide straight into one fresh C-ordered array: no second d**4 copy,
    # and never a view of ``s`` (at d=1 a reshape of the reshuffle is one)
    return np.true_divide(shuffled, d, order="C").reshape(big, big)


@functools.lru_cache(maxsize=None)
def _basis_indices(positions: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """The ``(2**k, 2**(n - k))`` table of ``k`` qubit ``positions``
    (1-based) in an n-qubit register (read-only): entry ``[a, s]`` is the
    basis index with the bits of ``a`` on ``positions`` and the bits of
    ``s`` on the other qubits, each in the order given, the first most
    significant.  The one place that knows where a qubit's bit sits."""
    rest = tuple(q for q in range(1, n_qubits + 1) if q not in positions)

    def place(qubits):
        # the index of each bit pattern on ``qubits``, zero elsewhere
        bits = (np.arange(2 ** len(qubits))[:, None] >> np.arange(len(qubits))[::-1]) & 1
        return bits @ (1 << (n_qubits - np.array(qubits, dtype=np.int64)))

    out = place(positions)[:, None] + place(rest)[None, :]
    out.setflags(write=False)
    return out


def embed_operator(op: np.ndarray, positions, n_qubits: int) -> np.ndarray:
    """Embed an m-qubit operator so that its k-th tensor slot acts on qubit
    ``positions[k]`` (1-based), identity elsewhere."""
    op = _square(op, "operator")
    m = n_qubits_of(op.shape[0])
    n_qubits = whole_number(n_qubits, "n_qubits")
    positions = tuple(whole_number(q, "a qubit position") for q in positions)
    if len(positions) != m:
        raise DimensionError(f"operator on {m} qubits given {len(positions)} positions")
    if len(set(positions)) != m or any(q < 1 or q > n_qubits for q in positions):
        raise DimensionError(f"invalid qubit positions {positions} for n={n_qubits}")
    idx = _basis_indices(positions, n_qubits)
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    # entry (idx[i, s], idx[j, s]) is op[i, j] for every spectator state s
    out[idx[:, None], idx[None, :]] = op[:, :, None]
    return out


@functools.lru_cache(maxsize=None)
def _embedded_unit_paulis(pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    """The 16 unit Paulis ``E_p`` placed on ``pair`` of an n-qubit register,
    identity elsewhere (read-only)."""
    idx = _basis_indices(pair, n_qubits)
    out = np.zeros((16, 2**n_qubits, 2**n_qubits), dtype=complex)
    out[:, idx[:, None], idx[None, :]] = PAULI_UNIT_2Q[..., None]
    out.setflags(write=False)
    return out


def _check_pair(pair, n_qubits: int) -> tuple[int, int]:
    k, l = (whole_number(q, "a pair's qubit") for q in pair)
    if not (1 <= k < l <= n_qubits):
        raise DimensionError(f"pair {pair} is not an ordered qubit pair for n={n_qubits}")
    return k, l


def pair_selector(pair, n_qubits: int) -> np.ndarray:
    """The ``16 x 4**n`` 0/1 matrix ``R`` of ``pair`` (complex).

    ``R @ vec(A)`` is ``vec`` of the two-qubit operator left by tracing the
    spectator qubits out of the n-qubit operator ``A``; ``R.T`` places a
    two-qubit operator on ``pair`` with the identity on the spectators.  So
    for a superoperator ``S``, ``superop_to_choi(R @ S @ R.T) / 2**(n - 2)``
    is ``partial_trace_choi(superop_to_choi(S), pair)`` up to rounding.
    """
    idx = _basis_indices(_check_pair(pair, n_qubits), n_qubits)
    # row col * 4 + row is 1 at vec index col * d + row of that entry, one per spectator state
    col, row = np.divmod(np.arange(16), 4)
    d = 2**n_qubits
    out = np.zeros((16, d * d), dtype=complex)
    out[np.arange(16)[:, None], idx[col] * d + idx[row]] = 1.0
    return out


def _choi_qubits(choi: np.ndarray) -> int:
    big = choi.shape[0]
    total = n_qubits_of(big)
    if total % 2:
        raise DimensionError(f"Choi dimension {big} is not 4**n")
    return total // 2


def partial_trace_choi(choi: np.ndarray, pair) -> np.ndarray:
    """Reduced two-qubit Choi state on ``pair``: traces the spectator qubits
    out of both the input and the output half.  Preserves the trace."""
    return _weighted_partial_trace(choi, pair, None)


def _weighted_partial_trace(choi: np.ndarray, pair, weights) -> np.ndarray:
    """:func:`partial_trace_choi` with each input spectator state ``b``
    (spectators in qubit order, the first most significant) weighted by
    ``weights[b]``, or unweighted for ``None``.  With all weights 1 it is
    the partial trace bit for bit; with ``weights[b] = 2**(n - 2)`` at one
    state ``b`` it is the reduced Choi state of the channel with the
    spectators prepared in ``b``.  A gather of the summed entries, never a
    copy of the whole state."""
    choi = _square(choi, "Choi state")
    n = _choi_qubits(choi)
    k, l = _check_pair(pair, n)
    # the Choi state's qubits are the input copies 1..n, then the outputs,
    # so a spectator index is its input state b, then its output state.
    # C-contiguous spectator-major indices make a C-contiguous gather, whose
    # sum over axis 0 adds in the same order as np.trace of the 4n-axis view
    idx = np.ascontiguousarray(_basis_indices((k, l, n + k, n + l), 2 * n).T)
    entries = choi[idx[:, :, None], idx[:, None, :]]
    if weights is not None:
        entries *= np.repeat(weights, len(entries) // len(weights))[:, None, None]
    return entries.sum(axis=0)


def is_cptp_choi(choi: np.ndarray) -> bool:
    """Whether a Choi state describes a CPTP channel: finite, Hermitian and
    PSD, and its partial trace over the output half is ``I / 2**n``, each
    within ``_CPTP_TOL``."""
    choi = _square(choi, "Choi state")
    for i in range(0, choi.shape[0], _CPTP_BLOCK_ROWS):
        rows = choi[i : i + _CPTP_BLOCK_ROWS]
        if not np.isfinite(rows).all():
            return False
        # one expression, so that no block temporary lives into the next
        gap = float(np.abs(rows - choi[:, i : i + _CPTP_BLOCK_ROWS].conj().T).max())
        if gap > _CPTP_TOL:
            return False
    if float(np.linalg.eigvalsh(choi).min()) < -_CPTP_TOL:
        return False
    d = 2 ** _choi_qubits(choi)
    # tracing the output half leaves (1/d) Tr(E(|a><b|)) in entry (a, b)
    red = np.einsum("aibi->ab", choi.reshape(d, d, d, d))
    return float(np.abs(red - np.eye(d) / d).max()) <= _CPTP_TOL


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
    e = PAULI_UNIT_2Q
    trace_term = float(np.trace(chi).real) - 4.0
    h = (chi + chi.conj().T) / 2.0
    vals = np.linalg.eigvalsh(h)
    neg = float(-vals[vals < -NEGATIVE_EIG_TOL].sum())
    mixed = np.tensordot(chi, e, axes=(1, 0))
    comp = np.tensordot(e.conj(), mixed, axes=([0, 1], [0, 1]))
    comp = comp - np.eye(e.shape[1])
    return np.concatenate(([trace_term, neg], comp.real.ravel(), comp.imag.ravel()))
