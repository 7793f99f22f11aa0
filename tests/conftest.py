import numpy as np
import pytest


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
