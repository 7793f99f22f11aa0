"""Noisy n-qubit gate processes and simulated two-qubit tomography.

Error models:

* ``CoherentLocal(phi)``: a small simultaneous rotation on every qubit,
  ``cos(phi) I + i sin(phi) P`` with axis pattern (X, Y, X) repeating by
  qubit index, applied after the ideal gate.
* ``Decoherence(t1, t2, duration)``: per-qubit amplitude damping and pure
  dephasing for the gate duration, applied after the ideal gate.
* ``CRCoherent(beta, phi_zz)``: a three-qubit CNOT built from an imperfect
  cross-resonance interaction; this replaces the whole process of the
  CNOT(1,2) layer rather than composing with the ideal gate.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

import numpy as np

from . import channels as ch
from .gates import GateLayer, gate_unitary

__all__ = [
    "CoherentLocal",
    "Decoherence",
    "CRCoherent",
    "ErrorModel",
    "UnsupportedErrorModelError",
    "NoisyProcess",
    "COHERENT_AXES",
    "coherent_rotation",
    "amplitude_damping_kraus",
    "dephasing_kraus",
    "qubit_decoherence_kraus",
    "error_superop",
    "cr_unitary",
    "cr_cnot_unitary",
    "zz_coupling_hz",
    "simulate_noisy_process",
    "sampled_pairwise_qpt",
]

COHERENT_AXES = ("X", "Y", "X")


class UnsupportedErrorModelError(ValueError):
    """Error model cannot be applied in the requested context."""


def _real_fields(error) -> None:
    """Hold each field of a frozen error model as a ``float``, by the rule
    of :func:`channels.real_number`."""
    for f in fields(error):
        object.__setattr__(error, f.name, ch.real_number(getattr(error, f.name), f.name))


@dataclass(frozen=True)
class CoherentLocal:
    phi: float

    def __post_init__(self) -> None:
        _real_fields(self)
        if not np.isfinite(self.phi):
            raise ValueError("phi must be finite")


@dataclass(frozen=True)
class Decoherence:
    t1: float
    t2: float
    duration: float

    def __post_init__(self) -> None:
        _real_fields(self)
        if not (self.t1 > 0 and self.t2 > 0 and np.isfinite(self.duration)):
            raise ValueError("need t1 > 0, t2 > 0 and a finite duration")
        if self.t2 > 2 * self.t1 + 1e-12 * self.t1:
            raise ValueError("t2 cannot exceed 2*t1")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


@dataclass(frozen=True)
class CRCoherent:
    beta: float
    phi_zz: float

    def __post_init__(self) -> None:
        _real_fields(self)
        if not (np.isfinite(self.beta) and np.isfinite(self.phi_zz)):
            raise ValueError("beta and phi_zz must be finite")


ErrorModel = Union[CoherentLocal, Decoherence, CRCoherent]


@dataclass(frozen=True)
class NoisyProcess:
    """A simulated n-qubit process with its provenance."""

    n_qubits: int
    superop: np.ndarray
    gate: GateLayer
    error: ErrorModel


def coherent_rotation(axis: str, phi: float) -> np.ndarray:
    """``cos(phi) I + i sin(phi) P_axis`` on one qubit."""
    return np.cos(phi) * np.eye(2, dtype=complex) + 1j * np.sin(phi) * ch.PAULI_1Q[axis]


def amplitude_damping_kraus(p: float) -> list[np.ndarray]:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"damping probability {p} outside [0, 1]")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - p)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


def dephasing_kraus(q: float) -> list[np.ndarray]:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"dephasing probability {q} outside [0, 1]")
    return [np.sqrt(1.0 - q) * np.eye(2, dtype=complex), np.sqrt(q) * ch.PAULI_1Q["Z"]]


def qubit_decoherence_kraus(t1: float, t2: float, duration: float) -> list[np.ndarray]:
    """Kraus set of one qubit idling for ``duration``: amplitude damping with
    ``p = 1 - exp(-dt/t1)`` composed with pure dephasing, whose rate is
    ``1/t_phi = 1/t2 - 1/(2 t1)`` and probability ``q = (1 - exp(-dt/t_phi))/2``.
    """
    p = 1.0 - np.exp(-duration / t1)
    phi_rate = max(1.0 / t2 - 0.5 / t1, 0.0)
    q = 0.5 * (1.0 - np.exp(-duration * phi_rate))
    damp = amplitude_damping_kraus(p)
    deph = dephasing_kraus(q)
    return [kd @ ka for kd in deph for ka in damp]


def error_superop(error: ErrorModel, n_qubits: int) -> np.ndarray:
    """Superoperator of a gate-independent error model on n qubits."""
    if isinstance(error, CoherentLocal):
        u = np.eye(1, dtype=complex)
        for q in range(n_qubits):
            axis = COHERENT_AXES[q % len(COHERENT_AXES)]
            u = np.kron(u, coherent_rotation(axis, error.phi))
        return ch.unitary_to_superop(u)
    if isinstance(error, Decoherence):
        per_qubit = ch.kraus_to_superop(
            qubit_decoherence_kraus(error.t1, error.t2, error.duration)
        )
        s = np.eye(1, dtype=complex)
        for _ in range(n_qubits):
            s = np.kron(s, per_qubit)
        # the kron orders the vec index as (column, row) bit per qubit;
        # column stacking wants all column bits, then all row bits
        half = [*range(0, 2 * n_qubits, 2), *range(1, 2 * n_qubits, 2)]
        axes = half + [2 * n_qubits + a for a in half]
        return s.reshape([2] * (4 * n_qubits)).transpose(axes).reshape(s.shape)
    if isinstance(error, CRCoherent):
        raise UnsupportedErrorModelError(
            "the cross-resonance error is gate-dependent: it replaces the whole "
            "process, and its residual ZZ term couples the CNOT target to the "
            "spectator on pair (2, 3), so it cannot be applied as a standalone "
            "error channel"
        )
    raise TypeError(f"unknown error model {error!r}")


def cr_unitary(beta: float, phi_zz: float) -> np.ndarray:
    """Cross-resonance interaction on three qubits,
    ``exp(-i[(pi/2 + beta) ZXI/2 + phi_zz IZZ/2])``, built by exact
    diagonalization of the Hermitian generator."""
    h = (np.pi / 2 + beta) * ch.pauli_product("ZXI") / 2.0
    h = h + phi_zz * ch.pauli_product("IZZ") / 2.0
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


# Single-qubit dressing rotations of the cross-resonance CNOT.  Signs are
# fixed by requiring the composite at beta = phi_zz = 0 to equal
# CNOT(1,2) tensor I up to a global phase.
_RZ_M90 = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
_RX_P90 = (np.eye(2) + 1j * ch.PAULI_1Q["X"]) / np.sqrt(2.0)


def cr_cnot_unitary(beta: float, phi_zz: float) -> np.ndarray:
    """Full cross-resonance CNOT construction: perfect single-qubit
    rotations on qubits 1 and 2 dressing the imperfect interaction."""
    locals_ = np.kron(np.kron(_RZ_M90, _RX_P90), np.eye(2, dtype=complex))
    return locals_ @ cr_unitary(beta, phi_zz)


def zz_coupling_hz(phi_zz: float) -> float:
    """Always-on ZZ coupling rate (Hz) that accumulates the phase ``phi_zz``
    over one 400 ns cross-resonance pulse.  Labeling helper for sweeps."""
    return phi_zz / 400e-9


# the one layer the cross-resonance model implements
_CR_LAYER = GateLayer(3, ("I", "I", "I"), (1, 2))


def _after_layer(error_s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``error_s @ unitary_to_superop(u)`` for a layer unitary ``u``, which
    has one nonzero per column, ±1 or ±i: column ``c·d + r`` of the product
    is column ``perm[c]·d + perm[r]`` of ``error_s`` times ``conj(u_c)·u_r``,
    the one nonzero term of the dense product's sum."""
    perm = np.argmax(u != 0, axis=0)
    phase = u[perm, np.arange(len(u))]
    out = np.take(error_s, (perm[:, None] * len(u) + perm).ravel(), axis=1)
    out *= np.outer(phase.conj(), phase).ravel()
    out += 0.0  # -0.0 to 0.0, as in the dense product's sums
    return out


def simulate_noisy_process(gate: GateLayer, error: ErrorModel) -> NoisyProcess:
    """Superoperator of the noisy implementation of a gate layer.  The
    cross-resonance error takes only CNOT(1,2) with the identity on every
    qubit of three."""
    n = gate.n_qubits
    if isinstance(error, CRCoherent):
        if gate != _CR_LAYER:
            raise UnsupportedErrorModelError(
                f"the cross-resonance model implements only the {_CR_LAYER.label()} layer "
                f"on {_CR_LAYER.n_qubits} qubits, not the {gate.label()} layer on {n}"
            )
        superop = ch.unitary_to_superop(cr_cnot_unitary(error.beta, error.phi_zz))
    else:
        superop = _after_layer(error_superop(error, n), gate_unitary(gate))
    choi = ch.superop_to_choi(superop)
    if not ch.is_cptp_choi(choi):
        raise RuntimeError("simulated process failed CPTP validation")
    return NoisyProcess(n, superop, gate, error)


def sampled_pairwise_qpt(
    process: NoisyProcess,
    pair,
    n_samples: int,
    seed,
    exhaustive: bool = False,
) -> np.ndarray:
    """Reduced Choi state on ``pair`` averaged over computational-basis
    spectator preparations.

    With ``exhaustive=True`` every spectator state enters exactly once and
    the result equals the exact reduction
    (:meth:`~pairtomo.reconstruct.TomographyData.from_superop`) bit for
    bit; otherwise ``n_samples``, a whole number of at least 1,
    preparations are drawn uniformly with the given seed.  Either way it is
    the partial trace of the process's Choi state with each input
    spectator state weighted by how often it was prepared.
    """
    n_states = 2 ** (process.n_qubits - 2)
    if exhaustive:
        weights = np.ones(n_states)
    else:
        n_samples = ch.whole_number(n_samples, "n_samples", least=1)
        draws = np.random.default_rng(seed).integers(0, n_states, size=n_samples)
        weights = np.bincount(draws, minlength=n_states) * (n_states / n_samples)
    return ch._weighted_partial_trace(ch.superop_to_choi(process.superop), pair, weights)
