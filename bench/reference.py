"""Reference constructions for the benchmark's correctness checks.

Everything here is written from the conventions the package documents and
from closed forms, with numpy only; nothing imports ``pairtomo``:

* superoperators act on column-stacked matrices, so entry ``X[i, j]`` sits
  at ``j * d + i`` and ``rho -> A rho B`` is ``kron(B.T, A)``;
* qubit 1 is the most significant bit of a computational basis index;
* the Choi state is ``(1/d) sum_{u,v} |u><v| (x) E(|u><v|)``, input first;
* a pair factor is a trace-4 chi matrix over the unit Pauli basis ``P/2``,
  ``E(rho) = sum_{p,r} chi[p, r] E_r rho E_p^dag``, Paulis in the order
  II, IX, IY, IZ, XI, ..., ZZ;
* the pairwise model is ``E_(1,2) o E_(1,3) o ... o E_(n-1,n)``: the
  (1, 2) factor is applied last.
"""

from __future__ import annotations

import itertools

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
# the coherent error's rotation axes, repeating by qubit index
COHERENT_AXES = ("X", "Y", "X")


def kron_all(mats) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def pairs(n: int) -> list[tuple[int, int]]:
    """Qubit pairs (1-based) in lexicographic order."""
    return list(itertools.combinations(range(1, n + 1), 2))


def pair_paulis() -> list[np.ndarray]:
    """The sixteen two-qubit Pauli products in lexicographic order."""
    return [np.kron(PAULI[a], PAULI[b]) for a, b in itertools.product("IXYZ", repeat=2)]


def cnot(control: int, target: int, n: int) -> np.ndarray:
    """CNOT on 1-based qubits of an n-qubit register, as a permutation."""
    d = 2**n
    u = np.zeros((d, d), dtype=complex)
    for x in range(d):
        flip = (x >> (n - control)) & 1
        u[x ^ (flip << (n - target)), x] = 1.0
    return u


def layer_unitary(labels, cnot_pair=None) -> np.ndarray:
    """One Pauli per qubit, then the optional CNOT (on qubits labelled I)."""
    u = kron_all(PAULI[lab] for lab in labels)
    if cnot_pair is not None:
        u = cnot(cnot_pair[0], cnot_pair[1], len(labels)) @ u
    return u


def rotation(axis: str, phi: float) -> np.ndarray:
    """``cos(phi) I + i sin(phi) P``."""
    return np.cos(phi) * PAULI["I"] + 1j * np.sin(phi) * PAULI[axis]


def coherent_unitary(n: int, phi: float) -> np.ndarray:
    return kron_all(rotation(COHERENT_AXES[q % len(COHERENT_AXES)], phi) for q in range(n))


def unitary_superop(u: np.ndarray) -> np.ndarray:
    return np.kron(u.conj(), u)


def kraus_superop(kraus) -> np.ndarray:
    return sum(np.kron(k.conj(), k) for k in kraus)


def amplitude_damping(p: float) -> np.ndarray:
    """Single-qubit superoperator of amplitude damping with probability p."""
    k0 = np.array([[1, 0], [0, np.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(p)], [0, 0]], dtype=complex)
    return kraus_superop([k0, k1])


def dephasing(q: float) -> np.ndarray:
    """Single-qubit superoperator of a Z flip with probability q."""
    return kraus_superop([np.sqrt(1 - q) * PAULI["I"], np.sqrt(q) * PAULI["Z"]])


def decoherence(t1: float, t2: float, duration: float) -> np.ndarray:
    """One qubit idling for ``duration``: amplitude damping with
    ``p = 1 - exp(-t/t1)``, then dephasing at the pure rate
    ``1/t2 - 1/(2 t1)`` with flip probability ``(1 - exp(-t * rate)) / 2``."""
    p = 1.0 - np.exp(-duration / t1)
    rate = max(1.0 / t2 - 0.5 / t1, 0.0)
    q = 0.5 * (1.0 - np.exp(-duration * rate))
    return dephasing(q) @ amplitude_damping(p)


def embed_superop(s: np.ndarray, qubits, n: int) -> np.ndarray:
    """n-qubit superoperator acting as ``s`` on ``qubits`` (1-based, in the
    slot order of ``s``) and as the identity on every other qubit."""
    qubits = list(qubits)
    m = len(qubits)
    rest = [q for q in range(1, n + 1) if q not in qubits]
    r = len(rest)
    # Index axes: four blocks (row j, row i, column j, column i), one axis
    # per qubit in each block, for the local part and then the rest.
    t = np.multiply.outer(s.reshape([2] * (4 * m)), np.eye(4**r).reshape([2] * (4 * r)))
    axes = []
    for block in range(4):
        for q in range(1, n + 1):
            if q in qubits:
                axes.append(block * m + qubits.index(q))
            else:
                axes.append(4 * m + block * r + rest.index(q))
    return t.transpose(axes).reshape(4**n, 4**n)


def product_superop(local: dict) -> np.ndarray:
    """Tensor product of single-qubit channels, ``{qubit: superop}``."""
    n = len(local)
    out = np.eye(4**n, dtype=complex)
    for q, s in local.items():
        out = embed_superop(s, [q], n) @ out
    return out


def noisy_layer_superop(n: int, labels, cnot_pair, error) -> np.ndarray:
    """Truth process of a benchmark layer: the ideal layer, then the error.

    ``error`` is ``("coherent", phi)`` or ``("decoherence", t1, t2, t)``.
    """
    ideal = unitary_superop(layer_unitary(labels, cnot_pair))
    if error[0] == "coherent":
        err = unitary_superop(coherent_unitary(n, error[1]))
    else:
        err = product_superop({q: decoherence(*error[1:]) for q in range(1, n + 1)})
    return err @ ideal


def choi(s: np.ndarray) -> np.ndarray:
    """Choi state: entry ``[(u, a), (v, b)]`` is ``E(|u><v|)[a, b] / d``."""
    d = int(round(np.sqrt(s.shape[0])))
    u, a, v, b = np.indices((d, d, d, d))
    return s[b * d + a, v * d + u].reshape(d * d, d * d) / d


def pair_reduction(c: np.ndarray, pair) -> np.ndarray:
    """Two-qubit Choi state on ``pair``: the spectators' input and output
    indices are traced out, the kept order is (in_k, in_l, out_k, out_l)."""
    n = int(round(np.log2(c.shape[0]))) // 2
    k, l = pair
    # einsum letters: row input, row output, column input, column output
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    row_in = [next(letters) for _ in range(n)]
    row_out = [next(letters) for _ in range(n)]
    col_in = [s if q + 1 not in pair else next(letters) for q, s in enumerate(row_in)]
    col_out = [s if q + 1 not in pair else next(letters) for q, s in enumerate(row_out)]
    kept = [k - 1, l - 1]
    out = (
        [row_in[q] for q in kept] + [row_out[q] for q in kept]
        + [col_in[q] for q in kept] + [col_out[q] for q in kept]
    )
    spec = "".join(row_in + row_out + col_in + col_out) + "->" + "".join(out)
    return np.einsum(spec, c.reshape([2] * (4 * n))).reshape(16, 16)


def output_reduction(c: np.ndarray) -> np.ndarray:
    """Trace of a Choi state over its output half: ``I/d`` iff trace preserving."""
    d = int(round(np.sqrt(c.shape[0])))
    return c.reshape(d, d, d, d).trace(axis1=1, axis2=3)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = a - b
    return float(0.5 * np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def chi_superop(chi: np.ndarray) -> np.ndarray:
    """Two-qubit superoperator of a trace-4 chi matrix over ``P/2``."""
    basis = [p / 2.0 for p in pair_paulis()]
    return sum(
        chi[p, r] * np.kron(basis[p].conj(), basis[r])
        for p in range(16) for r in range(16)
    )


def chi_tp_deviation(chi: np.ndarray) -> float:
    """Element max of ``sum_{p,r} chi[p, r] E_p^dag E_r - I`` over ``P/2``."""
    basis = [p / 2.0 for p in pair_paulis()]
    acc = sum(chi[p, r] * basis[p].conj().T @ basis[r] for p in range(16) for r in range(16))
    return float(np.abs(acc - np.eye(4)).max())


def model_superop(n: int, factors) -> np.ndarray:
    """Product channel of ``[(pair, chi), ...]`` in lexicographic pair
    order, the first factor applied last."""
    out = np.eye(4**n, dtype=complex)
    for pair, chi in factors:
        out = out @ embed_superop(chi_superop(chi), pair, n)
    return out


def random_cptp(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Superoperator of a full-rank random channel: Ginibre operators
    ``A_k`` normalised as ``K_k = A_k G^{-1/2}``, ``G = sum_k A_k^dag A_k``."""
    a = rng.standard_normal((dim * dim, dim, dim)) + 1j * rng.standard_normal((dim * dim, dim, dim))
    g = sum(x.conj().T @ x for x in a)
    vals, vecs = np.linalg.eigh(g)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return kraus_superop([x @ inv_sqrt for x in a])
