"""Least-squares reconstruction of a pairwise-factorized model from
two-qubit tomography data.

The fit minimizes, over all factor chi matrices,

    C2 = sum_pairs || sigma_pair(model) - rho_pair ||_F^2
         + penalty_weight * sum_factors || cptp_residuals(chi) ||^2

with a damped least-squares (Levenberg-Marquardt) loop on the exact
Jacobian of that residual.  After the loop each factor is projected onto
the PSD trace-4 cone, which repairs the small CPTP violations the soft
penalty leaves behind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import channels as ch
from .model import (
    _TRIU,
    N_PARAMS_PER_FACTOR,
    PairwiseModel,
    _chi_from_params,
    _param_derivatives,
    all_pairs,
    build_superop,
    factor_superop,
    pack,
    unpack,
)

__all__ = [
    "SolverDivergedError",
    "SolverConfig",
    "TomographyData",
    "ReconstructionResult",
    "cost_c2",
    "residual_vector",
    "solve",
]

_LAMBDA_INIT = 1e-3
_LAMBDA_FLOOR = 1e-12
_DIAG_FLOOR = 1e-12
_MAX_DAMPING_TRIES = 20

# row and column of the 16 diagonal, then the 120 upper-triangle entries of
# a 16x16 matrix: the entries that fix a Hermitian matrix
_HERM_ROWS = np.concatenate([np.arange(16), _TRIU[0]])
_HERM_COLS = np.concatenate([np.arange(16), _TRIU[1]])
_SQRT2 = np.sqrt(2.0)
# the same entries as indices into a Choi matrix reshaped to (4, 4, 4, 4)
_HERM_CHOI = (_HERM_ROWS // 4, _HERM_ROWS % 4, _HERM_COLS // 4, _HERM_COLS % 4)

# the CPTP penalty always scores two-qubit factors in the trace-4 convention
_UNIT_BASIS_2Q = None


def _unit_basis() -> "ch.OperatorBasis":
    global _UNIT_BASIS_2Q
    if _UNIT_BASIS_2Q is None:
        _UNIT_BASIS_2Q = ch.pauli_basis(2).unit()
    return _UNIT_BASIS_2Q


class SolverDivergedError(RuntimeError):
    """Residuals became non-finite; the fit cannot continue."""


@dataclass(frozen=True)
class SolverConfig:
    """Stopping and stepping controls for :func:`solve`.

    ``eps_tol`` is the per-step cost decrease below which the fit counts as
    converged.  ``penalty_weight`` scales the squared CPTP residuals of the
    factors in the cost.  ``seed`` is carried for provenance in saved
    results; the solver itself is deterministic.
    """

    eps_tol: float = 1e-7
    max_iters: int = 500
    penalty_weight: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.eps_tol > 0:
            raise ValueError("eps_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.penalty_weight < 0:
            raise ValueError("penalty_weight must be nonnegative")


@dataclass(frozen=True)
class TomographyData:
    """Reduced two-qubit Choi targets, one per qubit pair in lexicographic
    order."""

    n_qubits: int
    pairs: tuple[tuple[int, int], ...]
    targets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        expected = all_pairs(self.n_qubits)
        if tuple(self.pairs) != expected:
            raise ch.DimensionError(
                f"pairs {self.pairs} must be the lexicographic list {expected}"
            )
        if len(self.targets) != len(expected):
            raise ch.DimensionError("one target per pair required")
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
        """Exact pairwise tomography of a known n-qubit superoperator."""
        superop = np.asarray(superop, dtype=complex)
        if n_qubits is None:
            n_qubits = ch.n_qubits_of(superop.shape[0]) // 2
        choi = ch.superop_to_choi(superop)
        pairs = all_pairs(n_qubits)
        targets = tuple(ch.partial_trace_choi(choi, p) for p in pairs)
        return cls(n_qubits, pairs, targets)

    @classmethod
    def from_process(cls, process) -> "TomographyData":
        return cls.from_superop(process.superop, process.n_qubits)


@dataclass(frozen=True)
class ReconstructionResult:
    """Fit output.  ``model`` has factors projected to PSD trace 4;
    ``raw_model`` is the unprojected solver iterate."""

    model: PairwiseModel
    raw_model: PairwiseModel
    cost: float
    projected_cost: float
    iterations: int
    converged: bool
    cost_history: tuple[float, ...]
    pair_trace_distances: tuple[float, ...]
    full_trace_distance: float | None

    @property
    def mean_pair_trace_distance(self) -> float:
        return float(np.mean(self.pair_trace_distances))


def _hermitian_coordinates(entries: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian 16x16 matrices from their 136 diagonal
    and upper-triangle entries (last axis, in ``_HERM_ROWS``/``_HERM_COLS``
    order): the 16 diagonal entries, then ``sqrt(2)`` times the real and the
    imaginary parts of the upper triangle.  Their sum of squares is the
    squared Frobenius norm of the matrix."""
    upper = _SQRT2 * entries[..., 16:]
    return np.concatenate([entries[..., :16].real, upper.real, upper.imag], axis=-1)


def _stack_residual(
    product: np.ndarray,
    chis: list[np.ndarray],
    data: TomographyData,
    penalty_weight: float,
) -> np.ndarray:
    """Residual vector given the full-model superoperator and factor chis.

    Layout: per pair, the 256 Hermitian coordinates of (sigma - rho) (see
    :func:`_hermitian_coordinates`); then per factor the weighted CPTP
    residuals.
    """
    choi = ch.superop_to_choi(product)
    parts = []
    for pair, target in zip(data.pairs, data.targets):
        diff = ch.partial_trace_choi(choi, pair) - target
        parts.append(_hermitian_coordinates(diff[_HERM_ROWS, _HERM_COLS]))
    root = np.sqrt(penalty_weight)
    basis = _unit_basis()
    for chi in chis:
        parts.append(root * ch.cptp_residuals(chi, basis))
    return np.concatenate(parts)


def residual_vector(
    model: PairwiseModel, data: TomographyData, penalty_weight: float = 1.0
) -> np.ndarray:
    """The residual that :func:`solve` minimizes: per pair, 256 real
    coordinates of the Hermitian difference ``sigma - rho`` (the diagonal,
    then ``sqrt(2)`` times the real and imaginary parts of the upper
    triangle), then per factor its 34 CPTP residuals times
    ``sqrt(penalty_weight)``.  Its squared norm is :func:`cost_c2`; for
    Hermitian targets the data block's is the summed squared Frobenius
    distance of the pair reductions."""
    if model.n_qubits != data.n_qubits:
        raise ch.DimensionError("model and data qubit counts differ")
    chis = [chi for _, chi in model.factors]
    return _stack_residual(build_superop(model), chis, data, penalty_weight)


def cost_c2(model: PairwiseModel, data: TomographyData, penalty_weight: float = 1.0) -> float:
    """Data misfit plus weighted CPTP penalty; the quantity :func:`solve`
    minimizes."""
    r = residual_vector(model, data, penalty_weight)
    return float(r @ r)


@functools.lru_cache(maxsize=None)
def _pair_selector(pair: tuple[int, int], n_qubits: int) -> np.ndarray:
    """The ``16 x 4**n`` matrix ``R`` that reduces a superoperator ``M`` to
    its pair: ``R @ M @ R.T`` sums the entries whose output (rows) and input
    (columns) agree on every spectator qubit, so that
    ``partial_trace_choi(superop_to_choi(M), pair)`` is the Choi reshuffle
    of that 16x16 matrix divided by ``2**n``."""
    k, l = pair
    d = 2**n_qubits
    hi, lo = 1 << (n_qubits - k), 1 << (n_qubits - l)
    spect = (d - 1) & ~(hi | lo)
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    kept = (i & spect) == (j & spect)

    def pair_bits(x):
        return 2 * ((x & hi) > 0) + ((x & lo) > 0)

    out = np.zeros((16, d * d))
    out[(4 * pair_bits(i) + pair_bits(j))[kept], (i * d + j)[kept]] = 1.0
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _pauli_gathers(pair: tuple[int, int], n_qubits: int):
    """Each embedded two-qubit Pauli ``P`` on ``pair`` as a signed
    permutation: ``P[x ^ c, c] = col[c]`` and ``P[c, x ^ c] = row[c]``.
    Returns the index maps ``x ^ c`` and the two phase tables, one row per
    Pauli."""
    stack = ch._embedded_pauli_stack(pair, n_qubits)
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
    """Jacobian of :func:`channels.cptp_residuals` (unit basis) with respect
    to one factor's parameters, except its negative-eigenvalue row, which
    depends on the point and is left zero.  The trace and completeness rows
    are linear in chi, so theirs is constant."""
    e = _unit_basis().elements
    completeness = np.einsum("pab,rac->prbc", e.conj(), e)
    cols = _param_derivatives(completeness).reshape(N_PARAMS_PER_FACTOR, 16)
    out = np.zeros((34, N_PARAMS_PER_FACTOR))
    out[0] = _param_derivatives(np.eye(16, dtype=complex)).real
    out[2:18] = cols.real.T
    out[18:34] = cols.imag.T
    out.setflags(write=False)
    return out


class _Engine:
    """Residual and Jacobian evaluations for one data set.

    The model is linear in each factor's chi, so the Jacobian is exact.
    Column ``t`` of factor ``j``'s data block is the pair reduction of
    ``prefix_j @ S_j(B_t) @ suffix_j / 4``, where ``B_t`` is the unit chi
    matrix of parameter ``t`` and ``S_j(E_pr) = kron(conj P_p, P_r)`` is a
    signed permutation.  Each reduction only needs the 16 rows of
    ``R_q @ prefix_j`` and the 16 columns of ``suffix_j @ R_q.T`` (see
    :func:`_pair_selector`), so one product per factor and data pair gives
    all 256 ``(p, r)`` combinations at once.  Of each reduction's Choi
    matrix, only the 136 diagonal and upper-triangle entries are carried
    on, into the pair's 256 Hermitian-coordinate rows.  The penalty block is
    block-diagonal; its negative-eigenvalue row is the one-sided
    Hellmann-Feynman slope ``-sum_{lambda_k < -tol} v_k^dag B_t v_k``.
    """

    def __init__(self, data: TomographyData, penalty_weight: float) -> None:
        self.data = data
        self.n = data.n_qubits
        self.pairs = data.pairs
        self.penalty_weight = penalty_weight
        # the pair selectors of every data pair, stacked
        self.select = np.concatenate(
            [_pair_selector(p, self.n) for p in self.pairs]
        ).astype(complex)

    def _parts(self, v: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        chis = []
        superops = []
        for j, pair in enumerate(self.pairs):
            w = v[j * N_PARAMS_PER_FACTOR : (j + 1) * N_PARAMS_PER_FACTOR]
            chi = _chi_from_params(w)
            chis.append(chi)
            superops.append(factor_superop(chi, pair, self.n))
        return chis, superops

    @staticmethod
    def _fold(superops: list[np.ndarray]) -> np.ndarray:
        out = None
        for s in superops:
            out = s if out is None else out @ s
        return out

    def residual(self, v: np.ndarray) -> np.ndarray:
        chis, superops = self._parts(v)
        return _stack_residual(self._fold(superops), chis, self.data, self.penalty_weight)

    def jacobian(self, v: np.ndarray) -> np.ndarray:
        """Exact Jacobian of :meth:`residual` at ``v``."""
        v = np.asarray(v, dtype=float)
        chis, superops = self._parts(v)
        # factors and data pairs run over the same m pairs
        n, d, m = self.n, 2**self.n, len(self.pairs)
        data_rows = 256 * m
        jac = np.zeros((data_rows + 34 * m, v.size))
        # suffixes[j]: the product of the factors after j, times R.T, with
        # the selectors R of all data pairs stacked
        suffixes = [None] * m
        acc = self.select.T
        for j in reversed(range(m)):
            suffixes[j] = acc
            acc = superops[j] @ acc
        prefix = self.select  # R times the product of the factors before j
        root = np.sqrt(self.penalty_weight)
        template = root * _penalty_template()
        for j, pair in enumerate(self.pairs):
            cols = slice(j * N_PARAMS_PER_FACTOR, (j + 1) * N_PARAMS_PER_FACTOR)
            perms, col_phase, row_phase = _pauli_gathers(pair, n)
            left_phase = col_phase.conj() / (4.0 * d)
            for q in range(m):
                # left[p] = R_q prefix kron(conj P_p, I); right[r] = kron(I, P_r) suffix R_q.T
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
                jac[256 * q : 256 * q + 256, cols] = coords.T
            prefix = prefix @ superops[j]

            rows = slice(data_rows + 34 * j, data_rows + 34 * (j + 1))
            jac[rows, cols] = template
            vals, vecs = np.linalg.eigh((chis[j] + chis[j].conj().T) / 2.0)
            neg = vecs[:, vals < -ch.NEGATIVE_EIG_TOL]
            if neg.size:
                outer = neg.conj() @ neg.T
                jac[data_rows + 34 * j + 1, cols] = -root * _param_derivatives(outer).real
        return jac


def solve(
    data: TomographyData,
    init: PairwiseModel | np.ndarray,
    config: SolverConfig | None = None,
    true_superop: np.ndarray | None = None,
) -> ReconstructionResult:
    """Fit a pairwise-factorized model to tomography data.

    ``init`` is a starting model or packed parameter vector.  When the true
    process superoperator is supplied the result carries the trace distance
    between the full Choi states as well.
    """
    cfg = config if config is not None else SolverConfig()
    if isinstance(init, PairwiseModel):
        if init.n_qubits != data.n_qubits:
            raise ch.DimensionError("initial model and data qubit counts differ")
        v = pack(init)
    else:
        v = np.asarray(init, dtype=float).copy()

    engine = _Engine(data, cfg.penalty_weight)
    r = engine.residual(v)
    if not np.all(np.isfinite(r)):
        raise SolverDivergedError("initial residuals are not finite")
    cost = float(r @ r)
    history = [cost]
    lam = _LAMBDA_INIT
    converged = False
    iterations = 0

    for iteration in range(cfg.max_iters):
        iterations = iteration + 1
        jac = engine.jacobian(v)
        h = jac.T @ jac
        g = jac.T @ r
        del jac  # not held while the next one is built
        h_diag = np.diag(h) + _DIAG_FLOOR
        accepted = False
        drop = 0.0
        for _attempt in range(_MAX_DAMPING_TRIES):
            try:
                delta = np.linalg.solve(h + np.diag(lam * h_diag), -g)
            except np.linalg.LinAlgError:
                lam *= 3.0
                continue
            trial = v + delta
            r_trial = engine.residual(trial)
            if np.all(np.isfinite(r_trial)):
                cost_trial = float(r_trial @ r_trial)
                if cost_trial < cost:
                    drop = cost - cost_trial
                    v, r, cost = trial, r_trial, cost_trial
                    history.append(cost)
                    lam = max(lam / 3.0, _LAMBDA_FLOOR)
                    accepted = True
                    break
            lam *= 3.0
        if not accepted:
            # no improving damped step exists at this point: local optimum
            converged = True
            break
        if drop < cfg.eps_tol:
            converged = True
            break

    raw_model = unpack(v, data.n_qubits)
    projected = raw_model
    for pair, chi in raw_model.factors:
        projected = projected.replace_factor(pair, ch.project_psd_chi(chi))

    proj_super = build_superop(projected)
    proj_choi = ch.superop_to_choi(proj_super)
    pair_tds = tuple(
        ch.trace_distance(ch.partial_trace_choi(proj_choi, pair), target)
        for pair, target in zip(data.pairs, data.targets)
    )
    full_td = None
    if true_superop is not None:
        full_td = ch.trace_distance(proj_choi, ch.superop_to_choi(np.asarray(true_superop)))

    return ReconstructionResult(
        model=projected,
        raw_model=raw_model,
        cost=cost,
        projected_cost=cost_c2(projected, data, cfg.penalty_weight),
        iterations=iterations,
        converged=converged,
        cost_history=tuple(history),
        pair_trace_distances=pair_tds,
        full_trace_distance=full_td,
    )
