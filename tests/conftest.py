import numpy as np
import pytest

from pairtomo import channels as ch
from pairtomo.gates import GateLayer
from pairtomo.model import PairwiseModel


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-ish random unitary from the QR of a Ginibre matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(dim: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def unitarity_deviation(u: np.ndarray) -> float:
    """Max absolute deviation of ``U^dag U`` from the identity."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def trace_overlap_fidelity(u: np.ndarray, v: np.ndarray) -> float:
    """Squared normalized trace overlap ``|Tr(U^dag V)|**2 / d**2`` of two
    unitaries; equals 1 iff they agree up to a global phase."""
    return float(np.abs(np.trace(u.conj().T @ v)) ** 2 / u.shape[0] ** 2)


def embed_pair(s2: np.ndarray, pair, n_qubits: int) -> np.ndarray:
    """n-qubit superoperator of a two-qubit superoperator acting on ``pair``
    (slot 1 on the lower index), identity elsewhere: ``kron(s2, I)`` with
    its tensor axes moved to the pair's column and row positions."""
    k, l = pair
    n = n_qubits
    rest = [q for q in range(1, n + 1) if q not in pair]
    # axes of a column-stacked vector: column bits c1..cn, then row bits r1..rn
    order = [k - 1, l - 1, n + k - 1, n + l - 1]
    order += [q - 1 for q in rest] + [n + q - 1 for q in rest]
    inv = list(np.argsort(order))
    full = np.kron(s2, np.eye(4 ** (n - 2))).reshape([2] * (4 * n))
    return full.transpose(inv + [2 * n + a for a in inv]).reshape(4**n, 4**n)



# Oracles for the package's conventions, and helpers the package does not
# need itself.


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m).ravel(order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec` for square matrices."""
    v = np.asarray(v)
    d = int(round(np.sqrt(v.size)))
    assert d * d == v.size, f"vector of length {v.size} is not a square matrix"
    return v.reshape((d, d), order="F")


def random_kraus_set(dim: int, n_kraus: int, seed) -> list[np.ndarray]:
    """Random Kraus set of a CPTP channel (Ginibre construction); the
    completeness relation holds to machine precision."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_kraus, dim, dim)) + 1j * rng.standard_normal((n_kraus, dim, dim))
    gram = np.einsum("kba,kbc->ac", a.conj(), a)
    vals, vecs = np.linalg.eigh(gram)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return [k @ inv_sqrt for k in a]


def random_cptp_superop(dim: int, seed, n_kraus: int | None = None) -> np.ndarray:
    """Superoperator of a random CPTP channel, full rank by default."""
    n_kraus = dim * dim if n_kraus is None else n_kraus
    return ch.kraus_to_superop(random_kraus_set(dim, n_kraus, seed))


def choi_to_superop(choi: np.ndarray) -> np.ndarray:
    """Inverse of ``channels.superop_to_choi``: the same reshuffle, times d."""
    big = choi.shape[0]
    d = int(round(np.sqrt(big)))
    return choi.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(big, big) * d


def chi_to_superop(chi: np.ndarray) -> np.ndarray:
    """Two-qubit superoperator ``sum_{p,r} chi[p, r] kron(conj E_p, E_r)``
    of a trace-4 chi matrix, summed term by term over the unit Paulis."""
    e = ch.PAULI_UNIT_2Q
    return sum(chi[p, r] * np.kron(e[p].conj(), e[r]) for p in range(16) for r in range(16))


def superop_to_chi(s: np.ndarray) -> np.ndarray:
    """Trace-4 chi matrix of a two-qubit superoperator.  The columns
    ``w_p = vec(E_p)`` are orthonormal and the Choi state is
    ``W chi.T W^dag / 4``."""
    w = np.stack([vec(e) for e in ch.PAULI_UNIT_2Q], axis=1)
    return (4.0 * (w.conj().T @ ch.superop_to_choi(s) @ w)).T


def partial_trace(rho: np.ndarray, keep, n_qubits: int) -> np.ndarray:
    """Partial trace of an n-qubit operator keeping the 1-based qubits in
    ``keep`` (in the order given)."""
    t = rho.reshape([2] * (2 * n_qubits))
    subs = list(range(2 * n_qubits))
    for q in range(n_qubits):
        if q + 1 not in keep:
            subs[n_qubits + q] = subs[q]
    out_axes = [q - 1 for q in keep] + [n_qubits + q - 1 for q in keep]
    red = np.einsum(t, subs, [subs[a] for a in out_axes])
    dk = 2 ** len(keep)
    return red.reshape(dk, dk)


def pairwise_qpt(process, pair) -> np.ndarray:
    """Exact reduced two-qubit Choi state of a process on ``pair``
    (spectators prepared maximally mixed and traced out)."""
    return ch.partial_trace_choi(ch.superop_to_choi(process.superop), pair)


def replace_factor(model: PairwiseModel, pair, chi: np.ndarray) -> PairwiseModel:
    """Copy of a pairwise model with the factor on ``pair`` replaced."""
    pair = tuple(int(q) for q in pair)
    if pair not in (p for p, _ in model.factors):
        raise KeyError(f"no factor for pair {pair}")
    factors = tuple((p, chi if p == pair else c) for p, c in model.factors)
    return PairwiseModel(model.n_qubits, factors)


def identity_layer(n_qubits: int) -> GateLayer:
    return GateLayer(n_qubits, ("I",) * n_qubits)
