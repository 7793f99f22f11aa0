import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairtomo import channels as ch
from pairtomo.gates import GateLayer, gate_unitary
from pairtomo.model import PairwiseModel, chi_of_unitary, ideal_initial_guess
from pairtomo.reconstruct import ReconstructionResult, SolverConfig, TomographyData
from pairtomo.serialize import (
    SCHEMA_VERSION,
    SerializationError,
    config_from_dict,
    config_to_dict,
    data_from_dict,
    data_to_dict,
    error_from_dict,
    error_label,
    error_to_dict,
    gate_from_dict,
    gate_to_dict,
    load_json,
    matrix_from_dict,
    matrix_to_dict,
    model_from_dict,
    model_to_dict,
    process_from_dict,
    process_to_dict,
    result_to_dict,
    save_json,
)
from pairtomo.simulate import (
    CoherentLocal,
    CRCoherent,
    Decoherence,
    simulate_noisy_process,
)
from conftest import random_hermitian, replace_factor


class TestMatrixDict:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_roundtrip_exact(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        back = matrix_from_dict(matrix_to_dict(m))
        assert np.array_equal(back, m)

    def test_real_input_promoted(self):
        back = matrix_from_dict(matrix_to_dict(np.eye(3)))
        assert back.dtype == complex
        assert np.array_equal(back, np.eye(3))

    def test_rejects_vector(self):
        with pytest.raises(SerializationError):
            matrix_to_dict(np.arange(4.0))

    def test_rejects_missing_field(self):
        d = matrix_to_dict(np.eye(2))
        del d["reim"]
        with pytest.raises(SerializationError):
            matrix_from_dict(d)

    @pytest.mark.parametrize("entry", [True, "0.5", None, [0.5]])
    def test_rejects_entry_that_is_not_a_number(self, entry):
        # JSON numbers decode to int or float; nothing else is coerced
        d = {"rows": 1, "cols": 1, "reim": [1, entry]}
        with pytest.raises(SerializationError, match="list of numbers"):
            matrix_from_dict(d)

    def test_rejects_reim_that_is_not_a_list(self):
        with pytest.raises(SerializationError, match="list of numbers"):
            matrix_from_dict({"rows": 1, "cols": 1, "reim": "12"})

    def test_rejects_length_mismatch(self):
        d = matrix_to_dict(np.eye(2))
        d["rows"] = 3
        with pytest.raises(SerializationError, match="3x2"):
            matrix_from_dict(d)
        # negative sizes whose product matches the scalar count
        d["rows"], d["cols"] = -1, -4
        with pytest.raises(SerializationError, match="-1x-4"):
            matrix_from_dict(d)


class TestGateDict:
    def test_roundtrip_with_cnot(self):
        gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
        assert gate_from_dict(gate_to_dict(gate)) == gate

    def test_roundtrip_single_qubit_only(self):
        gate = GateLayer(3, ("X", "Y", "X"))
        back = gate_from_dict(gate_to_dict(gate))
        assert back == gate
        assert back.cnot is None

    def test_rejects_missing_field(self):
        with pytest.raises(SerializationError):
            gate_from_dict({"single_qubit": ["X"]})

    def test_rejects_bad_label(self):
        d = gate_to_dict(GateLayer(2, ("X", "Y")))
        d["single_qubit"] = ["X", "Q"]
        with pytest.raises(SerializationError):
            gate_from_dict(d)

    def test_rejects_labels_that_are_not_a_list(self):
        # a string's characters would otherwise read as labels
        d = gate_to_dict(GateLayer(2, ("X", "Y")))
        d["single_qubit"] = "XY"
        with pytest.raises(SerializationError, match="list"):
            gate_from_dict(d)


class TestErrorDict:
    @pytest.mark.parametrize(
        "error",
        [
            CoherentLocal(0.02),
            Decoherence(50e-6, 30e-6, 400e-9),
            CRCoherent(np.pi / 16, 1e-3),
        ],
    )
    def test_roundtrip(self, error):
        assert error_from_dict(error_to_dict(error)) == error
        d = json.loads(json.dumps(error_to_dict(error)))
        assert error_to_dict(error_from_dict(d)) == d

    def test_rejects_unknown_kind(self):
        with pytest.raises(SerializationError, match="unknown error kind"):
            error_from_dict({"kind": "depolarizing", "p": 0.1})

    def test_rejects_missing_parameter(self):
        with pytest.raises(SerializationError):
            error_from_dict({"kind": "coherent_local"})

    def test_label_is_deterministic(self):
        e = Decoherence(50e-6, 30e-6, 400e-9)
        assert error_label(e) == error_label(e)
        assert error_label(CoherentLocal(0.02)) == "coherent_local(phi=0.02)"

    def test_label_distinguishes_parameters(self):
        assert error_label(CoherentLocal(0.01)) != error_label(CoherentLocal(0.02))


class TestModelDict:
    def test_roundtrip(self):
        model = ideal_initial_guess(GateLayer(3, ("X", "Y", "X")))
        model = replace_factor(
            model, (1, 2), chi_of_unitary(gate_unitary(GateLayer(2, ("I", "I"), cnot=(1, 2))))
        )
        back = model_from_dict(model_to_dict(model))
        assert back.n_qubits == model.n_qubits
        assert tuple(p for p, _ in back.factors) == tuple(p for p, _ in model.factors)
        for (_, a), (_, b) in zip(back.factors, model.factors):
            assert np.array_equal(a, b)

    def test_rejects_missing_factors(self):
        with pytest.raises(SerializationError):
            model_from_dict({"n_qubits": 2})


class TestConfigDict:
    def test_roundtrip(self):
        cfg = SolverConfig(eps_tol=1e-8, max_iters=40)
        assert config_to_dict(cfg) == {"eps_tol": 1e-8, "max_iters": 40}
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_partial_dict_takes_defaults(self):
        cfg = config_from_dict({"max_iters": 9})
        assert cfg.max_iters == 9
        assert cfg == SolverConfig(max_iters=9)

    def test_empty_dict_is_default_config(self):
        assert config_from_dict({}) == SolverConfig()

    def test_rejects_unknown_field(self):
        with pytest.raises(SerializationError, match="learning_rate"):
            config_from_dict({"learning_rate": 0.1})

    def test_drops_retired_fd_step(self):
        # solver records written while the fit used finite differences
        # carry a step size; it no longer configures anything
        cfg = config_from_dict({"fd_step": 1e-6, "max_iters": 9})
        assert cfg == SolverConfig(max_iters=9)
        assert "fd_step" not in config_to_dict(cfg)
        with pytest.raises(SerializationError, match="learning_rate"):
            config_from_dict({"fd_step": 1e-6, "learning_rate": 0.1})

    def test_drops_retired_seed(self):
        # solver records once carried a seed that no fit ever read
        cfg = config_from_dict({"seed": 7, "max_iters": 9})
        assert cfg == SolverConfig(max_iters=9)
        assert "seed" not in config_to_dict(cfg)

    def test_rejects_invalid_value(self):
        with pytest.raises(SerializationError):
            config_from_dict({"eps_tol": -1.0})


class TestDataDict:
    def test_roundtrip(self):
        gate = GateLayer(2, ("X", "Y"))
        data = TomographyData.from_superop(ch.unitary_to_superop(gate_unitary(gate)))
        back = data_from_dict(data_to_dict(data))
        assert back.n_qubits == data.n_qubits
        assert back.pairs == data.pairs
        for a, b in zip(back.targets, data.targets):
            assert np.array_equal(a, b)

    def test_rejects_missing_targets(self):
        with pytest.raises(SerializationError):
            data_from_dict({"n_qubits": 2, "pairs": [[1, 2]]})

    @staticmethod
    def _doc_with_target(target) -> dict:
        return {"n_qubits": 2, "pairs": [[1, 2]], "targets": [matrix_to_dict(target)]}

    def test_rejects_target_shape(self):
        with pytest.raises(SerializationError, match="shape"):
            data_from_dict(self._doc_with_target(np.eye(4) / 4.0))

    def test_rejects_nonfinite_target(self):
        t = np.eye(16, dtype=complex) / 16.0
        t[3, 5] = np.nan
        with pytest.raises(SerializationError, match="non-finite"):
            data_from_dict(self._doc_with_target(t))

    def test_rejects_non_hermitian_target(self):
        t = np.eye(16, dtype=complex) / 16.0
        t[0, 1] = 1e-8j
        with pytest.raises(SerializationError, match="not a CPTP channel"):
            data_from_dict(self._doc_with_target(t))
        # rounding-level asymmetry is accepted
        t[0, 1] = 1e-12j
        assert data_from_dict(self._doc_with_target(t)).targets[0][0, 1] == 1e-12j

    def test_rejects_trace_other_than_one(self):
        t = np.eye(16, dtype=complex) / 16.0
        t[0, 0] += 1e-8
        with pytest.raises(SerializationError, match="not a CPTP channel"):
            data_from_dict(self._doc_with_target(t))
        # rounding-level drift is accepted
        t[0, 0] = 1.0 / 16.0 + 1e-12
        data_from_dict(self._doc_with_target(t))

    @pytest.mark.parametrize("defect", ["negative_eigenvalue", "not_trace_preserving"])
    def test_rejects_target_of_no_channel(self, defect):
        # both are Hermitian of unit trace: diag(2, -1, 0, ...) is not PSD,
        # and |00><00| is PSD but maps every input to a trace that is not 1
        t = np.zeros((16, 16), dtype=complex)
        if defect == "negative_eigenvalue":
            t[0, 0], t[1, 1] = 2.0, -1.0
        else:
            t[0, 0] = 1.0
        with pytest.raises(SerializationError, match="not a CPTP channel"):
            data_from_dict(self._doc_with_target(t))

    def test_rejects_pair_list_mismatch(self):
        doc = self._doc_with_target(np.eye(16) / 16.0)
        doc["pairs"] = [[1, 3]]
        with pytest.raises(SerializationError):
            data_from_dict(doc)
        # refused before the pair list of a huge register is built
        doc = self._doc_with_target(np.eye(16) / 16.0)
        doc["n_qubits"] = 10**6
        with pytest.raises(SerializationError, match="pairs"):
            data_from_dict(doc)


class TestProcessDict:
    def test_roundtrip(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I"), cnot=(1, 2)), CoherentLocal(0.01))
        back = process_from_dict(process_to_dict(proc))
        assert back.n_qubits == proc.n_qubits
        assert back.gate == proc.gate
        assert back.error == proc.error
        assert np.array_equal(back.superop, proc.superop)

    def test_rejects_missing_superop(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.01))
        d = process_to_dict(proc)
        del d["superop"]
        with pytest.raises(SerializationError):
            process_from_dict(d)

    def test_rejects_superop_shape_for_n_qubits(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.01))
        d = process_to_dict(proc)
        d["superop"] = matrix_to_dict(np.eye(4))
        with pytest.raises(SerializationError, match="shape"):
            process_from_dict(d)

    def test_rejects_nonfinite_superop(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.01))
        d = process_to_dict(proc)
        bad = proc.superop.copy()
        bad[2, 7] = np.inf
        d["superop"] = matrix_to_dict(bad)
        with pytest.raises(SerializationError, match="non-finite"):
            process_from_dict(d)

    @pytest.mark.parametrize("scale", [0.0, 0.7])
    def test_rejects_superop_that_is_not_a_channel(self, scale):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.01))
        d = process_to_dict(proc)
        d["superop"] = matrix_to_dict(scale * proc.superop)
        with pytest.raises(SerializationError, match="CPTP"):
            process_from_dict(d)

    def test_rejects_gate_width_mismatch(self):
        proc = simulate_noisy_process(GateLayer(2, ("I", "I")), CoherentLocal(0.01))
        d = process_to_dict(proc)
        d["gate"] = gate_to_dict(GateLayer(3, ("I", "I", "I")))
        with pytest.raises(SerializationError, match="qubits"):
            process_from_dict(d)


def test_result_models_roundtrip_bit_for_bit(tmp_path):
    # diff-map reads a fitted model back from a saved result document
    ideal = ideal_initial_guess(GateLayer(3, ("X", "I", "I"), cnot=(2, 3)))
    model = PairwiseModel(3, tuple(
        (pair, chi + 1e-3 * random_hermitian(16, seed=k))
        for k, (pair, chi) in enumerate(ideal.factors)
    ))
    res = ReconstructionResult(
        model=model,
        cost=0.25,
        iterations=3,
        stop_reason="small_decrease",
        cost_history=(1.0, 0.5, 0.25),
        pair_trace_distances=(0.01, 0.02, 0.03),
        full_trace_distance=0.02,
    )
    path = tmp_path / "result.json"
    save_json({"result": result_to_dict(res)}, path)
    record = load_json(path)["result"]
    back = model_from_dict(record["model"])
    assert back.n_qubits == model.n_qubits
    assert [p for p, _ in back.factors] == [p for p, _ in model.factors]
    for (_, a), (_, b) in zip(back.factors, model.factors):
        assert np.array_equal(a, b)


class TestFiles:
    def test_save_stamps_schema(self, tmp_path):
        path = tmp_path / "doc.json"
        save_json({"kind": "demo"}, path)
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == "demo"

    def test_load_returns_saved_payload(self, tmp_path):
        path = tmp_path / "doc.json"
        save_json({"value": 3}, path)
        assert load_json(path)["value"] == 3

    def test_matrix_survives_file_roundtrip_exactly(self, tmp_path):
        m = random_hermitian(16, seed=5)
        path = tmp_path / "m.json"
        save_json({"m": matrix_to_dict(m)}, path)
        assert np.array_equal(matrix_from_dict(load_json(path)["m"]), m)

    def test_save_is_byte_deterministic(self, tmp_path):
        payload = {"m": matrix_to_dict(random_hermitian(8, seed=3)), "z": 1}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_json(payload, a)
        save_json(payload, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_json(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(SerializationError, match="JSON object"):
            load_json(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "0"}))
        with pytest.raises(SerializationError, match="schema"):
            load_json(path)


def _document_paths(node, path=()):
    """Every key and list index of a JSON document, except inside the
    scalar arrays of matrix records, where only the first entry counts."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:1] if path and path[-1] == "reim" else node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(path + (key,))
        paths.extend(_document_paths(child, path + (key,)))
    return paths


def _valid_process_document() -> dict:
    proc = simulate_noisy_process(GateLayer(2, ("X", "I"), cnot=None), CoherentLocal(0.05))
    return {
        "process": process_to_dict(proc),
        "tomography": data_to_dict(TomographyData.from_process(proc)),
    }


_DOCUMENT = _valid_process_document()
_PATHS = [(name,) + path for name in _DOCUMENT for path in _document_paths(_DOCUMENT[name])]
_SWAPS = ("drop", "x", [1, 2], float("nan"), matrix_to_dict(np.eye(3)))


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(_PATHS), swap=st.sampled_from(_SWAPS))
def test_damaged_document_decodes_or_raises_serialization_error(path, swap):
    doc = json.loads(json.dumps(_DOCUMENT))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if swap == "drop":
        del node[last]
    else:
        node[last] = swap
    for decode, record in ((process_from_dict, doc["process"]), (data_from_dict, doc["tomography"])):
        try:
            decode(record)
        except SerializationError:
            pass
