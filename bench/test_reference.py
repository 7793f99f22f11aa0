"""Closed-form checks of the benchmark's reference code.

    python3 -m pytest bench/test_reference.py
"""

import numpy as np
import pytest

import reference as ref


def bell_choi(n):
    d = 2**n
    phi = np.eye(d).reshape(d * d) / np.sqrt(d)
    return np.outer(phi, phi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_channel_choi_is_maximally_entangled(n):
    c = ref.choi(np.eye(4**n))
    assert np.allclose(c, bell_choi(n), atol=1e-15)
    assert np.allclose(ref.output_reduction(c), np.eye(2**n) / 2**n, atol=1e-15)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_amplitude_damping_choi(p):
    # basis order (in, out): 00, 01, 10, 11
    expected = 0.5 * np.array(
        [[1, 0, 0, np.sqrt(1 - p)], [0, 0, 0, 0], [0, 0, p, 0], [np.sqrt(1 - p), 0, 0, 1 - p]]
    )
    assert np.allclose(ref.choi(ref.amplitude_damping(p)), expected, atol=1e-15)


def test_dephasing_scales_coherences():
    q = 0.3
    rho = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])
    out = (ref.dephasing(q) @ rho.reshape(4, order="F")).reshape(2, 2, order="F")
    assert np.allclose(out, [[0.6, (1 - 2 * q) * rho[0, 1]], [(1 - 2 * q) * rho[1, 0], 0.4]])


def test_decoherence_without_pure_dephasing_is_amplitude_damping():
    t1, t = 50e-6, 400e-9
    assert np.allclose(
        ref.decoherence(t1, 2 * t1, t), ref.amplitude_damping(1 - np.exp(-t / t1)), atol=1e-15
    )


def test_cnot_matrices():
    std = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    assert np.array_equal(ref.cnot(1, 2, 2), std)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.array_equal(ref.cnot(2, 1, 2), swap @ std @ swap)
    # on three qubits CNOT(1, 3) maps |100> to |101>
    assert ref.cnot(1, 3, 3)[0b101, 0b100] == 1


def test_unitary_superop_acts_by_conjugation():
    u = ref.layer_unitary(("X", "I"), None) @ ref.cnot(1, 2, 2)
    rng = np.random.default_rng(0)
    rho = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = (ref.unitary_superop(u) @ rho.reshape(16, order="F")).reshape(4, 4, order="F")
    assert np.allclose(out, u @ rho @ u.conj().T)


def test_pair_reduction_of_a_product_channel_is_the_pair_channel():
    ad = ref.amplitude_damping(0.2)
    x = ref.unitary_superop(ref.PAULI["X"])
    rot = ref.unitary_superop(ref.rotation("Y", 0.3))
    full = ref.product_superop({1: ad, 2: rot, 3: x})
    expected = ref.choi(ref.product_superop({1: ad, 2: x}))
    assert np.allclose(ref.pair_reduction(ref.choi(full), (1, 3)), expected, atol=1e-15)


def test_embedding_places_slot_one_on_the_first_qubit():
    s = ref.unitary_superop(ref.cnot(1, 2, 2))
    assert np.allclose(ref.embed_superop(s, [1, 3], 3), ref.unitary_superop(ref.cnot(1, 3, 3)))
    assert np.allclose(ref.embed_superop(s, [3, 1], 3), ref.unitary_superop(ref.cnot(3, 1, 3)))


def test_chi_of_identity_and_of_a_pauli():
    chi = np.zeros((16, 16), dtype=complex)
    chi[0, 0] = 4.0
    assert np.allclose(ref.chi_superop(chi), np.eye(16))
    assert ref.chi_tp_deviation(chi) < 1e-15
    chi = np.zeros((16, 16), dtype=complex)
    chi[4, 4] = 4.0  # XI
    assert np.allclose(ref.chi_superop(chi), ref.unitary_superop(np.kron(ref.PAULI["X"], ref.PAULI["I"])))


def test_model_of_identity_factors_is_identity():
    eye = np.zeros((16, 16), dtype=complex)
    eye[0, 0] = 4.0
    assert np.allclose(ref.model_superop(3, [(p, eye) for p in ref.pairs(3)]), np.eye(64))


def test_random_channel_is_cptp_and_seeded():
    s = ref.random_cptp(4, np.random.default_rng(7))
    c = ref.choi(s)
    assert np.linalg.eigvalsh(c).min() > 0
    assert np.allclose(ref.output_reduction(c), np.eye(4) / 4, atol=1e-14)
    assert np.array_equal(s, ref.random_cptp(4, np.random.default_rng(7)))


def test_trace_distance_of_orthogonal_pure_states_is_one():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert ref.trace_distance(a, b) == pytest.approx(1.0)
