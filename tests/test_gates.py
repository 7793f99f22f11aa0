import numpy as np
import pytest

from pairtomo import channels as ch
from pairtomo.gates import CNOT_2Q, GateLayer, gate_unitary
from conftest import identity_layer, unitarity_deviation

I2 = np.eye(2)


class TestGateLayer:
    def test_label_rendering(self):
        assert GateLayer(3, ("X", "Y", "X"), None).label() == "XYX"
        assert GateLayer(3, ("I", "I", "I"), (1, 2)).label() == "CNOT12"
        assert GateLayer(3, ("I", "I", "X"), (1, 2)).label() == "CNOT12,X3"
        assert identity_layer(3).label() == "III"

    def test_validation(self):
        with pytest.raises(ValueError):
            GateLayer(3, ("X", "Y"), None)  # wrong arity
        with pytest.raises(ValueError):
            GateLayer(3, ("Q", "I", "I"), None)  # unknown label
        with pytest.raises(ValueError):
            GateLayer(3, ("I", "I", "I"), (1, 1))  # degenerate pair
        with pytest.raises(ValueError):
            GateLayer(3, ("I", "I", "I"), (0, 2))  # out of range
        with pytest.raises(ValueError):
            GateLayer(3, ("X", "I", "I"), (1, 2))  # CNOT qubit also rotated

    def test_frozen(self):
        layer = identity_layer(2)
        with pytest.raises(AttributeError):
            layer.n_qubits = 4


class TestGateUnitary:
    def test_cnot_two_qubits(self):
        assert np.allclose(gate_unitary(GateLayer(2, ("I", "I"), (1, 2))), CNOT_2Q, atol=1e-14)

    def test_cnot_flips_on_control_one(self):
        u = CNOT_2Q
        # |10> -> |11>, |11> -> |10>, control untouched otherwise
        assert u[3, 2] == 1 and u[2, 3] == 1 and u[0, 0] == 1 and u[1, 1] == 1

    def test_single_qubit_layer(self):
        u = gate_unitary(GateLayer(3, ("X", "Y", "X"), None))
        oracle = np.kron(np.kron(ch.PAULI_1Q["X"], ch.PAULI_1Q["Y"]), ch.PAULI_1Q["X"])
        assert np.allclose(u, oracle, atol=1e-14)

    def test_cnot_embedded_on_pair_13(self):
        u = gate_unitary(GateLayer(3, ("I", "I", "I"), (1, 3)))
        oracle = ch.embed_operator(CNOT_2Q, (1, 3), 3)
        assert np.allclose(u, oracle, atol=1e-14)

    def test_reversed_cnot(self):
        # control on qubit 2, target on qubit 1
        u = gate_unitary(GateLayer(2, ("I", "I"), (2, 1)))
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert np.allclose(u, swap @ CNOT_2Q @ swap, atol=1e-14)

    def test_mixed_layer(self):
        u = gate_unitary(GateLayer(3, ("I", "I", "Z"), (1, 2)))
        oracle = ch.embed_operator(CNOT_2Q, (1, 2), 3) @ np.kron(np.kron(I2, I2), ch.PAULI_1Q["Z"])
        assert np.allclose(u, oracle, atol=1e-14)

    def test_unitarity(self):
        for layer in (
            identity_layer(3),
            GateLayer(3, ("X", "Y", "X"), None),
            GateLayer(3, ("I", "I", "Y"), (2, 1)),
        ):
            assert unitarity_deviation(gate_unitary(layer)) < 1e-12
