"""Least-squares reconstruction of a pairwise-factorized model from
two-qubit tomography data.

The fit minimizes, over all factor chi matrices,

    C2 = sum_pairs || sigma_pair(model) - rho_pair ||_F^2
         + sum_factors || cptp_residuals(chi) ||^2

with a damped least-squares (Levenberg-Marquardt) loop.  The CPTP penalty
has the fixed weight 1; :class:`SolverConfig` sets only when the loop
stops, and the result's ``stop_reason`` says which rule stopped it.  Each
iteration evaluates :func:`residual_vector` at the unpacked parameter
vector and builds its own :func:`_jacobian`, the exact Jacobian of that
residual.  With one factor (two-qubit data) the Jacobian's data rows depend
on neither the model nor the data, so they are a read-only per-process
constant, one 256 x 256 float64 array (0.5 MB) built at the first
two-qubit fit, which each Jacobian copies above its penalty rows.  A fit's
working memory is the Jacobian and one p x p normal matrix ``J^T J``, whose
diagonal each damping try overwrites in place, plus LAPACK's copy of it
inside ``np.linalg.solve``; the matrix is released before the next Jacobian
is built.  After the loop each factor is projected onto the PSD trace-4
cone, which repairs the small CPTP violations the soft penalty leaves
behind; the result holds only the projected model, and
:func:`model_trace_distances` scores it.

The fit's coordinates live here too.  Each factor's Hermitian chi matrix is
256 real parameters in the flat packing of :func:`_pack`: its 16 diagonal
entries, then the real parts and the imaginary parts of its 120
upper-triangle entries; :func:`_unpack` inverts it bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .model import PairwiseModel, all_pairs, build_superop, factor_superop

__all__ = [
    "SolverDivergedError",
    "SolverConfig",
    "TomographyData",
    "ReconstructionResult",
    "residual_vector",
    "model_trace_distances",
    "solve",
]

_LAMBDA_INIT = 1e-3
_LAMBDA_FLOOR = 1e-12
_DIAG_FLOOR = 1e-12
_MAX_DAMPING_TRIES = 20

# real parameters per factor, and the upper triangle they pack
_N_PARAMS_PER_FACTOR = 256
_TRIU = np.triu_indices(16, k=1)

# row and column of the 16 diagonal, then the 120 upper-triangle entries of
# a 16x16 matrix: the entries that fix a Hermitian matrix
_HERM_ROWS = np.concatenate([np.arange(16), _TRIU[0]])
_HERM_COLS = np.concatenate([np.arange(16), _TRIU[1]])
_SQRT2 = np.sqrt(2.0)
# the same entries as indices into a Choi matrix reshaped to (4, 4, 4, 4)
_HERM_CHOI = (_HERM_ROWS // 4, _HERM_ROWS % 4, _HERM_COLS // 4, _HERM_COLS % 4)


class SolverDivergedError(RuntimeError):
    """Residuals became non-finite; the fit cannot continue."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping controls for :func:`solve`.

    ``eps_tol`` is the per-step cost decrease below which the fit counts as
    converged; ``max_iters`` bounds the number of iterations, and a
    whole-number float such as ``3.0`` is read as that integer.
    """

    eps_tol: float = 1e-7
    max_iters: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_tol", ch.real_number(self.eps_tol, "eps_tol"))
        if not self.eps_tol > 0:
            raise ValueError("eps_tol must be positive")
        object.__setattr__(self, "max_iters", ch.whole_number(self.max_iters, "max_iters", least=1))


@dataclass(frozen=True)
class TomographyData:
    """Reduced two-qubit Choi targets, one per qubit pair in lexicographic
    order."""

    n_qubits: int
    pairs: tuple[tuple[int, int], ...]
    targets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_qubits", ch.whole_number(self.n_qubits, "n_qubits"))
        # counted first, so that a huge n_qubits is refused before its pair
        # list is built
        n_pairs = self.n_qubits * (self.n_qubits - 1) // 2
        if len(self.pairs) != n_pairs or len(self.targets) != n_pairs:
            raise ch.DimensionError(
                f"{len(self.pairs)} pairs and {len(self.targets)} targets for "
                f"{self.n_qubits} qubits; need one target per pair"
            )
        expected = all_pairs(self.n_qubits)
        if tuple(self.pairs) != expected:
            raise ch.DimensionError(
                f"pairs {self.pairs} must be the lexicographic list {expected}"
            )
        frozen = []
        for t in self.targets:
            t = np.asarray(t, dtype=complex)
            if t.shape != (16, 16):
                raise ch.DimensionError(f"target shape {t.shape}, expected (16, 16)")
            t = t.copy()
            t.setflags(write=False)
            frozen.append(t)
        object.__setattr__(self, "targets", tuple(frozen))
        object.__setattr__(self, "pairs", expected)

    @classmethod
    def from_superop(cls, superop: np.ndarray, n_qubits: int | None = None) -> "TomographyData":
        """Exact pairwise tomography of a known n-qubit superoperator.  A
        stated ``n_qubits`` must be the superoperator's own qubit count."""
        superop = ch._square(superop, "superoperator")
        width = ch.n_qubits_of(superop.shape[0]) // 2
        if n_qubits is not None and ch.whole_number(n_qubits, "n_qubits") != width:
            raise ch.DimensionError(
                f"superoperator of {width} qubits given with n_qubits={n_qubits}"
            )
        choi = ch.superop_to_choi(superop)
        pairs = all_pairs(width)
        targets = tuple(ch.partial_trace_choi(choi, p) for p in pairs)
        return cls(width, pairs, targets)

    @classmethod
    def from_process(cls, process) -> "TomographyData":
        return cls.from_superop(process.superop, process.n_qubits)


@dataclass(frozen=True)
class ReconstructionResult:
    """Fit output.  ``model`` is the solver's last iterate with its factors
    projected to PSD trace 4; ``cost`` is the cost of that iterate before
    the projection, the last entry of ``cost_history``.  ``stop_reason``
    says why the loop ended: ``"small_decrease"`` (an accepted step lowered
    the cost by less than ``eps_tol``), ``"no_improving_step"`` (no damping
    try lowered it) or ``"max_iters"``."""

    model: PairwiseModel
    cost: float
    iterations: int
    stop_reason: str
    cost_history: tuple[float, ...]
    pair_trace_distances: tuple[float, ...]
    full_trace_distance: float | None

    @property
    def converged(self) -> bool:
        """Whether the loop stopped on its own rather than at ``max_iters``."""
        return self.stop_reason != "max_iters"

    @property
    def mean_pair_trace_distance(self) -> float:
        return float(np.mean(self.pair_trace_distances))


def _pack(model: PairwiseModel) -> np.ndarray:
    """Flatten a model into the fitter's real parameter vector."""
    blocks = []
    for _, chi in model.factors:
        chi = np.asarray(chi)
        upper = chi[_TRIU]
        blocks.append(np.concatenate([chi.diagonal().real, upper.real, upper.imag]))
    return np.concatenate(blocks)


def _unpack(v: np.ndarray, n_qubits: int) -> PairwiseModel:
    """Inverse of :func:`_pack`; bit-exact round trip in both directions."""
    v = np.asarray(v, dtype=float)
    pairs = all_pairs(n_qubits)
    if v.shape != (_N_PARAMS_PER_FACTOR * len(pairs),):
        raise ch.DimensionError(
            f"parameter vector of length {v.size}, expected {_N_PARAMS_PER_FACTOR * len(pairs)}"
        )
    factors = []
    for i, pair in enumerate(pairs):
        w = v[i * _N_PARAMS_PER_FACTOR : (i + 1) * _N_PARAMS_PER_FACTOR]
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


def _hermitian_coordinates(entries: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian 16x16 matrices from their 136 diagonal
    and upper-triangle entries (last axis, in ``_HERM_ROWS``/``_HERM_COLS``
    order): the 16 diagonal entries, then ``sqrt(2)`` times the real and the
    imaginary parts of the upper triangle.  Their sum of squares is the
    squared Frobenius norm of the matrix."""
    upper = _SQRT2 * entries[..., 16:]
    return np.concatenate([entries[..., :16].real, upper.real, upper.imag], axis=-1)


def _model_choi(model: PairwiseModel, data: TomographyData) -> np.ndarray:
    """Choi state of the model's full product, for scoring against ``data``."""
    if model.n_qubits != data.n_qubits:
        raise ch.DimensionError("model and data qubit counts differ")
    return ch.superop_to_choi(build_superop(model))


def residual_vector(model: PairwiseModel, data: TomographyData) -> np.ndarray:
    """The residual that :func:`solve` minimizes: per pair, 256 real
    coordinates of the Hermitian difference ``sigma - rho`` (the diagonal,
    then ``sqrt(2)`` times the real and imaginary parts of the upper
    triangle), then per factor its 34 CPTP residuals.  Its squared norm is
    the fit's cost; for Hermitian targets the data block's is the summed
    squared Frobenius distance of the pair reductions."""
    choi = _model_choi(model, data)
    parts = []
    for pair, target in zip(data.pairs, data.targets):
        diff = ch.partial_trace_choi(choi, pair) - target
        parts.append(_hermitian_coordinates(diff[_HERM_ROWS, _HERM_COLS]))
    for _, chi in model.factors:
        parts.append(ch.cptp_residuals(chi))
    return np.concatenate(parts)


def model_trace_distances(
    model: PairwiseModel, data: TomographyData, true_superop: np.ndarray | None = None
) -> tuple[tuple[float, ...], float | None]:
    """Score a model: the trace distance of its reduction to each data pair
    from that pair's target, and the trace distance of its full Choi state
    from the true process's (``None`` without ``true_superop``).  These are
    the ``pair_trace_distances`` and ``full_trace_distance`` that
    :func:`solve` reports for its projected model."""
    choi = _model_choi(model, data)
    pair_tds = tuple(
        ch.trace_distance(ch.partial_trace_choi(choi, pair), target)
        for pair, target in zip(data.pairs, data.targets)
    )
    if true_superop is None:
        return pair_tds, None
    return pair_tds, ch.trace_distance(choi, ch.superop_to_choi(np.asarray(true_superop)))


@functools.lru_cache(maxsize=None)
def _pauli_gathers(pair: tuple[int, int], n_qubits: int):
    """Each embedded unit Pauli ``E`` on ``pair`` as a scaled signed
    permutation: ``E[x ^ c, c] = col[c]`` and ``E[c, x ^ c] = row[c]``.
    Returns the index maps ``x ^ c`` and the two phase tables, one row per
    Pauli."""
    stack = ch._embedded_unit_paulis(pair, n_qubits)
    c = np.arange(2**n_qubits)
    flips = np.argmax(np.abs(stack[:, :, 0]), axis=1)
    perms = flips[:, None] ^ c
    col = stack[np.arange(16)[:, None], perms, c]
    row = stack[np.arange(16)[:, None], c, perms]
    for a in (perms, col, row):
        a.setflags(write=False)
    return perms, col, row


@functools.lru_cache(maxsize=None)
def _penalty_template() -> np.ndarray:
    """Jacobian of :func:`channels.cptp_residuals` with respect to one
    factor's parameters, except its negative-eigenvalue row, which depends
    on the point and is left zero.  The trace and completeness rows are
    linear in chi, so theirs is constant."""
    e = ch.PAULI_UNIT_2Q
    completeness = np.einsum("pab,rac->prbc", e.conj(), e)
    cols = _param_derivatives(completeness).reshape(_N_PARAMS_PER_FACTOR, 16)
    out = np.zeros((34, _N_PARAMS_PER_FACTOR))
    out[0] = _param_derivatives(np.eye(16, dtype=complex)).real
    out[2:18] = cols.real.T
    out[18:34] = cols.imag.T
    out.setflags(write=False)
    return out


def _jacobian(model: PairwiseModel, data: TomographyData) -> np.ndarray:
    """Exact Jacobian of :func:`residual_vector` with respect to
    ``_pack(model)``: the data rows of :func:`_data_jacobian` above the
    penalty rows of :func:`_penalty_jacobian`."""
    m = len(data.pairs)
    jac = np.zeros(((256 + 34) * m, _N_PARAMS_PER_FACTOR * m))
    if m == 1:
        jac[:256] = _one_factor_data_rows()
    else:
        _data_jacobian(model, data, jac[: 256 * m])
    _penalty_jacobian(model, jac[256 * m :])
    return jac


@functools.lru_cache(maxsize=None)
def _one_factor_data_rows() -> np.ndarray:
    """The data rows of a one-factor :func:`_jacobian`, read-only.  With one
    factor they depend on neither the model nor the data (see
    :func:`_data_jacobian`), so any two-qubit model and data give them."""
    zero = np.zeros((16, 16), dtype=complex)
    pairs = all_pairs(2)
    out = np.zeros((256, _N_PARAMS_PER_FACTOR))
    _data_jacobian(PairwiseModel(2, ((pairs[0], zero),)), TomographyData(2, pairs, (zero,)), out)
    out.setflags(write=False)
    return out


def _data_jacobian(model: PairwiseModel, data: TomographyData, out: np.ndarray) -> None:
    """Write the Jacobian of the residual's ``256 m`` data rows into the
    zeroed ``out``.

    The model is linear in each factor's chi, so the Jacobian is exact.
    Column ``t`` of factor ``j``'s data block is the pair reduction of
    ``prefix_j @ S_j(B_t) @ suffix_j``, where ``B_t`` is the unit chi
    matrix of parameter ``t``.  ``S_j`` maps the matrix unit ``e_pr`` to
    ``kron(conj E_p, E_r)``, with ``E_p`` the unit Paulis on the factor's
    pair: a scaled signed permutation.  Each reduction only needs the 16
    rows of ``R_q @ prefix_j`` and the 16 columns of ``suffix_j @ R_q.T``
    (see :func:`channels.pair_selector`), so one product per factor and
    data pair gives all 256 ``(p, r)`` combinations at once.  Of each
    reduction's Choi matrix, only the 136 diagonal and upper-triangle
    entries are carried on, into the pair's 256 Hermitian-coordinate rows.
    With one factor the prefix and suffix are the selector alone, so these
    rows depend on neither the model nor the data, and
    :func:`_one_factor_data_rows` keeps them.
    """
    # factors and data pairs run over the same m pairs
    n, d, m = data.n_qubits, 2**data.n_qubits, len(data.pairs)
    superops = [factor_superop(chi, pair, n) for pair, chi in model.factors]
    select = np.concatenate([ch.pair_selector(pair, n) for pair in data.pairs])
    # suffixes[j]: the product of the factors after j, times R.T, with
    # the selectors R of all data pairs stacked
    suffixes = [None] * m
    acc = select.T
    for j in reversed(range(m)):
        suffixes[j] = acc
        acc = superops[j] @ acc
    prefix = select  # R times the product of the factors before j
    for j, (pair, _) in enumerate(model.factors):
        cols = slice(j * _N_PARAMS_PER_FACTOR, (j + 1) * _N_PARAMS_PER_FACTOR)
        perms, col_phase, row_phase = _pauli_gathers(pair, n)
        left_phase = col_phase.conj() / d
        for q in range(m):
            # left[p] = R_q prefix kron(conj E_p, I); right[r] = kron(I, E_r) suffix R_q.T
            u = prefix[16 * q : 16 * q + 16].reshape(16, d, d)
            left = u[:, perms, :] * left_phase[None, :, :, None]
            left = left.transpose(1, 0, 2, 3).reshape(256, d * d)
            w = suffixes[j][:, 16 * q : 16 * q + 16].reshape(d, d, 16)
            right = w[:, perms, :] * row_phase[None, :, :, None]
            right = right.transpose(0, 2, 1, 3).reshape(d * d, 256)
            reduced = (left @ right).reshape(16, 4, 4, 16, 4, 4)
            # axes (p, r), then the Hermitian entries of each 16x16 block
            # reshuffled to Choi order
            entries = reduced.transpose(0, 3, 5, 2, 4, 1)[(..., *_HERM_CHOI)]
            coords = _hermitian_coordinates(_param_derivatives(entries))
            out[256 * q : 256 * q + 256, cols] = coords.T
        prefix = prefix @ superops[j]


def _penalty_jacobian(model: PairwiseModel, out: np.ndarray) -> None:
    """Write the Jacobian of the residual's ``34 m`` penalty rows into
    ``out``, whose entries off the factors' diagonal blocks are zero.

    The block of each factor is :func:`_penalty_template` with its
    negative-eigenvalue row, the one-sided Hellmann-Feynman slope
    ``-sum_{lambda_k < -tol} v_k^dag B_t v_k``, written in; every entry of
    the block is overwritten, so ``out`` may hold the rows of another point.
    """
    template = _penalty_template()
    for j, (_, chi) in enumerate(model.factors):
        rows = slice(34 * j, 34 * (j + 1))
        cols = slice(j * _N_PARAMS_PER_FACTOR, (j + 1) * _N_PARAMS_PER_FACTOR)
        out[rows, cols] = template
        vals, vecs = np.linalg.eigh((chi + chi.conj().T) / 2.0)
        neg = vecs[:, vals < -ch.NEGATIVE_EIG_TOL]
        if neg.size:
            outer = neg.conj() @ neg.T
            out[34 * j + 1, cols] = -_param_derivatives(outer).real


def solve(
    data: TomographyData,
    init: PairwiseModel,
    config: SolverConfig | None = None,
    true_superop: np.ndarray | None = None,
) -> ReconstructionResult:
    """Fit a pairwise-factorized model to tomography data, starting from
    the model ``init``.

    When the true process superoperator is supplied the result carries the
    trace distance between the full Choi states as well.
    """
    cfg = config if config is not None else SolverConfig()
    if init.n_qubits != data.n_qubits:
        raise ch.DimensionError("initial model and data qubit counts differ")
    n = data.n_qubits
    v = _pack(init)
    model = _unpack(v, n)  # the Hermitian part of init, as the parameters hold it
    r = residual_vector(model, data)
    if not np.all(np.isfinite(r)):
        raise SolverDivergedError("initial residuals are not finite")
    cost = float(r @ r)
    history = [cost]
    lam = _LAMBDA_INIT
    stop_reason = "max_iters"
    iterations = 0

    for iteration in range(cfg.max_iters):
        iterations = iteration + 1
        jac = _jacobian(model, data)
        h = jac.T @ jac
        g = jac.T @ r
        del jac  # for every fit, not held while the next one is built
        diag = np.diag(h).copy()
        h_diag = diag + _DIAG_FLOOR
        accepted = False
        drop = 0.0
        for _attempt in range(_MAX_DAMPING_TRIES):
            # damped in place, so no second p x p matrix is built; the
            # diagonal sums are the same floating-point operations as h + diag(...)
            np.fill_diagonal(h, diag + lam * h_diag)
            try:
                # h is exactly symmetric: h.T is h in the order LAPACK reads
                delta = np.linalg.solve(h.T, -g)
            except np.linalg.LinAlgError:
                lam *= 3.0
                continue
            trial = v + delta
            trial_model = _unpack(trial, n)
            r_trial = residual_vector(trial_model, data)
            if np.all(np.isfinite(r_trial)):
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    drop = cost - cost_trial
                    v, model, r, cost = trial, trial_model, r_trial, cost_trial
                    history.append(cost)
                    lam = max(lam / 3.0, _LAMBDA_FLOOR)
                    accepted = True
                    break
            lam *= 3.0
        del h  # not held while the next Jacobian is built
        if not accepted:
            # no improving damped step exists at this point: local optimum
            stop_reason = "no_improving_step"
            break
        if drop < cfg.eps_tol:
            stop_reason = "small_decrease"
            break

    projected = PairwiseModel(
        n, tuple((pair, ch.project_psd_chi(chi)) for pair, chi in model.factors)
    )
    pair_tds, full_td = model_trace_distances(projected, data, true_superop)
    return ReconstructionResult(
        model=projected,
        cost=cost,
        iterations=iterations,
        stop_reason=stop_reason,
        cost_history=tuple(history),
        pair_trace_distances=pair_tds,
        full_trace_distance=full_td,
    )
