"""Tests for convex gate-set decompositions and gate-set-based prediction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairtomo
from pairtomo import channels as ch
from pairtomo.gates import CNOT_2Q, GateLayer, gate_unitary
from pairtomo.gateset import (
    GATESET_NAMES,
    NotDecomposableError,
    decompose_ideal_reduction,
    gst_sigma,
    simulate_gateset,
)
from pairtomo.model import all_pairs
from pairtomo.simulate import (
    CoherentLocal,
    CRCoherent,
    Decoherence,
    UnsupportedErrorModelError,
    simulate_noisy_process,
)
from conftest import pairwise_qpt


def weight(terms, index: int) -> float:
    """The decomposition's weight on gate-set element ``index`` (0 if absent)."""
    return {idx: coef for coef, idx in terms}.get(index, 0.0)


def gateset_chois() -> list[np.ndarray]:
    """Ideal Choi states of the gate set, built here from its names."""
    unitaries = [CNOT_2Q] + [ch.pauli_product(name) for name in GATESET_NAMES[1:]]
    return [ch.superop_to_choi(ch.unitary_to_superop(u)) for u in unitaries]


def ideal_reduction(gate: GateLayer, pair) -> np.ndarray:
    superop = ch.unitary_to_superop(gate_unitary(gate))
    return ch.partial_trace_choi(ch.superop_to_choi(superop), pair)


@st.composite
def gate_layers(draw):
    n = draw(st.integers(2, 4))
    labels = list(draw(st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))
    cnot = draw(st.none() | st.permutations(range(1, n + 1)).map(lambda q: tuple(q[:2])))
    if cnot is not None:
        for q in cnot:
            labels[q - 1] = "I"
    return GateLayer(n, tuple(labels), cnot)


class TestGateSet:
    def test_structure(self):
        assert len(GATESET_NAMES) == 17
        assert GATESET_NAMES[0] == "CNOT"
        assert GATESET_NAMES[1:] == ch.PAULI_LABELS_2Q
        chois = gateset_chois()
        assert len(chois) == 17
        for c in chois:
            assert c.shape == (16, 16)
            assert ch.is_cptp_choi(c)

    def test_unitary_chois_are_rank_one(self):
        for c in gateset_chois():
            eigs = np.linalg.eigvalsh(c)
            assert eigs[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(eigs[:-1] < 1e-12)


class TestDecomposeIdealReduction:
    def test_cnot_on_its_own_pair(self):
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        terms = decompose_ideal_reduction(gate, (1, 2))
        assert {idx for _, idx in terms} == {0}
        assert weight(terms, 0) == pytest.approx(1.0, abs=1e-9)

    def test_cnot_control_with_spectator(self):
        # tracing out the target leaves a completely dephasing channel on
        # the control: (rho + Z1 rho Z1) / 2
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        oracle = 0.5 * (
            ch.superop_to_choi(ch.unitary_to_superop(ch.pauli_product("II")))
            + ch.superop_to_choi(ch.unitary_to_superop(ch.pauli_product("ZI")))
        )
        assert np.allclose(ideal_reduction(gate, (1, 3)), oracle, atol=1e-12)

        terms = decompose_ideal_reduction(gate, (1, 3))
        expected = {GATESET_NAMES.index("II"): 0.5, GATESET_NAMES.index("ZI"): 0.5}
        assert {idx for _, idx in terms} == set(expected)
        for idx, coef in expected.items():
            assert weight(terms, idx) == pytest.approx(coef, abs=1e-9)

    def test_cnot_target_with_spectator(self):
        # tracing out the control leaves (rho + X2 rho X2) / 2 and qubit 2
        # is the first member of pair (2, 3)
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        terms = decompose_ideal_reduction(gate, (2, 3))
        expected = {GATESET_NAMES.index("II"): 0.5, GATESET_NAMES.index("XI"): 0.5}
        assert {idx for _, idx in terms} == set(expected)
        for idx, coef in expected.items():
            assert weight(terms, idx) == pytest.approx(coef, abs=1e-9)

    def test_product_layer_is_single_term(self):
        gate = GateLayer(3, ("X", "Y", "X"))
        for pair, label in (((1, 2), "XY"), ((1, 3), "XX"), ((2, 3), "YX")):
            terms = decompose_ideal_reduction(gate, pair)
            assert {idx for _, idx in terms} == {GATESET_NAMES.index(label)}
            assert weight(terms, GATESET_NAMES.index(label)) == pytest.approx(1.0, abs=1e-9)

    def test_weights_sum_to_one(self):
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        for pair in ((1, 2), (1, 3), (2, 3)):
            terms = decompose_ideal_reduction(gate, pair)
            assert sum(c for c, _ in terms) == pytest.approx(1.0, abs=1e-9)

    def test_missing_coefficient_is_zero(self):
        gate = GateLayer(2, ("X", "Y"))
        terms = decompose_ideal_reduction(gate, (1, 2))
        assert weight(terms, 0) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(gate_layers())
    def test_weights_reproduce_ideal_reduction(self, gate):
        chois = gateset_chois()
        for pair in all_pairs(gate.n_qubits):
            if gate.cnot == pair[::-1]:
                with pytest.raises(NotDecomposableError):
                    decompose_ideal_reduction(gate, pair)
                continue
            terms = decompose_ideal_reduction(gate, pair)
            assert [idx for _, idx in terms] == sorted(idx for _, idx in terms)
            assert sum(c for c, _ in terms) == pytest.approx(1.0, abs=1e-12)
            mixture = sum(c * chois[idx] for c, idx in terms)
            assert np.max(np.abs(mixture - ideal_reduction(gate, pair))) < 1e-12

    def test_pair_validation(self):
        gate = GateLayer(3, ("X", "Y", "X"))
        with pytest.raises(ch.DimensionError):
            decompose_ideal_reduction(gate, (3, 1))


class TestSimulateGateset:
    def test_structure_and_cptp(self):
        chois = simulate_gateset((1, 2), 3, Decoherence(50e-6, 50e-6, 50e-9))
        assert len(chois) == len(GATESET_NAMES)
        for c in chois:
            assert ch.is_cptp_choi(c)

    def test_zero_error_reproduces_ideal(self):
        chois = simulate_gateset((1, 2), 3, CoherentLocal(0.0))
        for got, ideal in zip(chois, gateset_chois(), strict=True):
            assert np.allclose(got, ideal, atol=1e-12)

    def test_cr_error_rejected(self):
        with pytest.raises(UnsupportedErrorModelError):
            simulate_gateset((2, 3), 3, CRCoherent(0.1, 1e-3))


class TestGstSigma:
    @pytest.mark.parametrize(
        "gate,error",
        [
            (GateLayer(3, ("X", "Y", "X")), Decoherence(50e-6, 50e-6, 50e-9)),
            (GateLayer(3, ("X", "Y", "X")), CoherentLocal(0.02)),
            (GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), CoherentLocal(0.02)),
            (GateLayer(3, ("I", "I", "I"), cnot=(1, 2)), Decoherence(50e-6, 30e-6, 400e-9)),
        ],
    )
    def test_predicts_gate_independent_errors_exactly(self, gate, error):
        # for an error channel that does not depend on which gate-set
        # element was applied, linearity makes the convex-weighted noisy
        # gate-set states equal to the noisy layer's own reduction
        proc = simulate_noisy_process(gate, error)
        for pair in ((1, 2), (1, 3), (2, 3)):
            direct = pairwise_qpt(proc, pair)
            terms = decompose_ideal_reduction(gate, pair)
            chois = simulate_gateset(pair, 3, error)
            predicted = gst_sigma(terms, chois)
            assert np.max(np.abs(predicted - direct)) < 1e-9

    def test_gate_dependent_error_breaks_prediction(self):
        # the cross-resonance CNOT hides its error inside the entangling
        # pulse; gate-set tomography of individually applied elements
        # cannot see it, so the prediction misses the ZZ-coupled pair
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        proc = simulate_noisy_process(gate, CRCoherent(beta=np.pi / 16, phi_zz=1e-3))
        terms = decompose_ideal_reduction(gate, (2, 3))
        chois = simulate_gateset((2, 3), 3, CoherentLocal(0.0))
        predicted = gst_sigma(terms, chois)
        direct = pairwise_qpt(proc, (2, 3))
        assert ch.trace_distance(predicted, direct) > 1e-3


def test_import_leaves_scipy_optimize_unloaded():
    # the gate-set weights are written in closed form, so importing the
    # package never pulls in scipy.optimize; the CLI imports every submodule
    src = str(Path(pairtomo.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import sys, pkgutil, pairtomo.cli\n"
        "names = {m.name for m in pkgutil.iter_modules(pairtomo.__path__)}\n"
        "assert {n for n in names if f'pairtomo.{n}' not in sys.modules} == set(), names\n"
        "print('scipy.optimize' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"
