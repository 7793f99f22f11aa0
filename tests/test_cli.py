import csv
import json
from pathlib import Path

import numpy as np
import pytest

from pairtomo import channels as ch
from pairtomo import serialize as se
from pairtomo.cli import (
    BENCH_COLUMNS,
    CR_BETAS,
    CR_COLUMNS,
    CR_PHIS,
    DIFF_COLUMNS,
    TOL_COLUMNS,
    _fig2_cases,
    _fit_data,
    _run_case,
    main,
)
from pairtomo.model import build_superop, ideal_initial_guess
from pairtomo.reconstruct import TomographyData, model_trace_distances, solve
from pairtomo.simulate import simulate_noisy_process


CNOT2_GATE = {"n_qubits": 2, "single_qubit": ["I", "I"], "cnot": [1, 2]}
DEC_ERROR = {"kind": "decoherence", "t1": 50e-6, "t2": 30e-6, "duration": 400e-9}


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


class TestSimulate:
    def test_writes_process_document(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"gate": CNOT2_GATE, "error": DEC_ERROR})
        out = tmp_path / "proc.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        doc = se.load_json(out)
        assert doc["kind"] == "process"
        process = se.process_from_dict(doc["process"])
        assert process.n_qubits == 2
        data = se.data_from_dict(doc["tomography"])
        assert data.pairs == ((1, 2),)

    def test_sampled_tomography_is_seed_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "gate": CNOT2_GATE,
                "error": DEC_ERROR,
                "tomography": {"mode": "sampled", "n_samples": 4, "seed": 3},
            },
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_gate_entry_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"error": DEC_ERROR})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
        assert "gate" in capsys.readouterr().err

    def test_unknown_tomography_mode_is_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"gate": CNOT2_GATE, "error": DEC_ERROR, "tomography": {"mode": "psychic"}},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1


class TestReconstruct:
    def test_recovers_two_qubit_process(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "process": {"gate": CNOT2_GATE, "error": DEC_ERROR},
                "mode": "papa",
                "solver": {"eps_tol": 1e-10},
            },
        )
        out = tmp_path / "fit.json"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
        doc = se.load_json(out)
        assert doc["kind"] == "reconstruction"
        assert doc["result"]["converged"] is True
        assert doc["metrics"]["td_full_papa"] <= 1e-6
        assert doc["metrics"]["td_full_papa"] < doc["metrics"]["td_full_ideal"]

    def test_unconverged_run_exits_2(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "process": {"gate": CNOT2_GATE, "error": DEC_ERROR},
                "solver": {"max_iters": 2, "eps_tol": 1e-12},
            },
        )
        out = tmp_path / "fit.json"
        assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
        assert se.load_json(out)["result"]["converged"] is False

    def test_output_is_deterministic(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "process": {"gate": CNOT2_GATE, "error": DEC_ERROR},
                "solver": {"max_iters": 5, "eps_tol": 1e-12},
            },
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        first = main(["reconstruct", "--config", cfg, "--out", str(a)])
        second = main(["reconstruct", "--config", cfg, "--out", str(b)])
        assert first == second
        assert a.read_bytes() == b.read_bytes()

    def test_gst_mode_refuses_cross_resonance(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            {
                "process": {
                    "gate": {"n_qubits": 3, "single_qubit": ["I", "I", "I"], "cnot": [1, 2]},
                    "error": {"kind": "cr_coherent", "beta": 0.2, "phi_zz": 1e-3},
                },
                "mode": "papa_gst",
            },
        )
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
        assert "(2, 3)" in capsys.readouterr().err

    def test_unknown_mode_is_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            {"process": {"gate": CNOT2_GATE, "error": DEC_ERROR}, "mode": "bayesian"},
        )
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["reconstruct", "--config", missing, "--out", str(tmp_path / "x.json")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_malformed_process_document_exits_1(self, tmp_path, capsys):
        proc_doc = tmp_path / "proc.json"
        gate = se.gate_from_dict(CNOT2_GATE)
        se.save_json(
            {
                "kind": "process",
                "process": {
                    "n_qubits": 2,
                    "gate": se.gate_to_dict(gate),
                    "error": DEC_ERROR,
                    "superop": se.matrix_to_dict(np.eye(4)),
                },
            },
            proc_doc,
        )
        cfg = write_config(tmp_path / "c.json", {"process": str(proc_doc)})
        assert main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _reconstruct_edited_document(tmp_path, capsys, edit) -> tuple[int, str]:
        """Simulate a process document, apply ``edit`` to it, reconstruct
        from it; returns the exit code and standard error."""
        sim_cfg = write_config(tmp_path / "s.json", {"gate": CNOT2_GATE, "error": DEC_ERROR})
        proc_doc = tmp_path / "proc.json"
        assert main(["simulate", "--config", sim_cfg, "--out", str(proc_doc)]) == 0
        capsys.readouterr()
        doc = se.load_json(proc_doc)
        edit(doc)
        proc_doc.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", {"process": str(proc_doc)})
        code = main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "x.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "defect", ["superop_shape", "nonfinite_superop", "non_hermitian_target", "no_process_entry"]
    )
    def test_invalid_process_document_is_plain_error(self, tmp_path, capsys, defect):
        def edit(doc):
            if defect == "no_process_entry":
                del doc["process"]
            elif defect == "superop_shape":
                doc["process"]["superop"] = se.matrix_to_dict(np.eye(4))
            elif defect == "nonfinite_superop":
                superop = se.matrix_from_dict(doc["process"]["superop"])
                superop[0, 0] = np.nan
                doc["process"]["superop"] = se.matrix_to_dict(superop)
            else:
                target = se.matrix_from_dict(doc["tomography"]["targets"][0])
                target[0, 1] += 1e-6
                doc["tomography"]["targets"][0] = se.matrix_to_dict(target)

        code, err = self._reconstruct_edited_document(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: ")

    def test_tomography_width_mismatch_is_usage_error(self, tmp_path, capsys):
        def edit(doc):
            three = TomographyData.from_superop(np.eye(64, dtype=complex), 3)
            doc["tomography"] = se.data_to_dict(three)

        code, err = self._reconstruct_edited_document(tmp_path, capsys, edit)
        assert code == 1
        assert err.startswith("error: ")


class TestBenchFig2:
    def test_csv_shape_and_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"solver": {"max_iters": 1}})
        out = tmp_path / "bench.csv"
        code = main(["bench-fig2", "--config", cfg, "--out", str(out)])
        rows = read_rows(out)
        assert rows[0].keys() == set(BENCH_COLUMNS) or list(rows[0]) == list(BENCH_COLUMNS)
        assert [r["case_id"] for r in rows] == ["i", "ii", "iii", "iv", "v", "vi", "vii"]
        assert all(r["schema"] == se.SCHEMA_VERSION for r in rows)
        assert all(r["mode"] == "papa_gst" for r in rows)
        assert all(r["converged"] == "False" for r in rows)
        assert code == 2

    def test_invalid_solver_field_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"solver": {"momentum": 0.9}})
        assert main(["bench-fig2", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_seed_flag_is_refused(self, tmp_path):
        # the batch cases take no sampling seed, so the flag is not offered
        with pytest.raises(SystemExit):
            main(["bench-fig2", "--seed", "1", "--out", str(tmp_path / "x.csv")])


def test_run_case_row_reports_the_fit_and_the_ideal_scores():
    case = _fig2_cases({"solver": {"max_iters": 2}})[3]  # iv, the CNOT under decoherence
    row = _run_case(case)
    process = simulate_noisy_process(case.gate, case.error)
    data = _fit_data(process, case.mode)
    ideal = ideal_initial_guess(case.gate)
    result = solve(data, ideal, se.config_from_dict(case.solver), true_superop=process.superop)
    assert row["td_full_papa"] == result.full_trace_distance
    assert row["mean_td_pairs_papa"] == result.mean_pair_trace_distance
    ideal_tds, ideal_full = model_trace_distances(ideal, data, process.superop)
    assert row["td_full_ideal"] == ideal_full
    assert row["mean_td_pairs_ideal"] == float(np.mean(ideal_tds))


class TestSweepTol:
    def config(self, tmp_path):
        return write_config(
            tmp_path / "c.json", {"eps_grid": [1e-4], "solver": {"max_iters": 1}}
        )

    def test_rows_cover_both_cases(self, tmp_path):
        out = tmp_path / "tol.csv"
        code = main(["sweep-tol", "--config", self.config(tmp_path), "--out", str(out)])
        rows = read_rows(out)
        assert list(rows[0]) == list(TOL_COLUMNS)
        assert [r["case_id"] for r in rows] == ["cnot_decoherence", "cnot_coherent"]
        assert code == 2

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-tol", "--config", cfg, "--out", str(a)])
        main(["sweep-tol", "--config", cfg, "--out", str(b)])
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
        assert strip(read_rows(a)) == strip(read_rows(b))

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = self.config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sweep-tol", "--config", cfg, "--out", str(a)])
        main(["sweep-tol", "--config", cfg, "--out", str(b), "--jobs", "2"])
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in rows]
        assert strip(read_rows(a)) == strip(read_rows(b))


class TestSweepCr:
    def test_csv_covers_grid(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", {"solver": {"max_iters": 1}})
        out = tmp_path / "cr.csv"
        code = main(["sweep-cr", "--config", cfg, "--out", str(out)])
        rows = read_rows(out)
        assert list(rows[0]) == list(CR_COLUMNS)
        assert len(rows) == 16
        grid = {(float(b), float(p)) for b in CR_BETAS for p in CR_PHIS}
        assert {(float(r["beta"]), float(r["phi_zz"])) for r in rows} == grid
        for r in rows:
            assert float(r["zz_coupling_hz"]) == pytest.approx(float(r["phi_zz"]) / 400e-9)
        assert code == 2

    def test_gst_mode_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"mode": "papa_gst"})
        assert main(["sweep-cr", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert "(2, 3)" in capsys.readouterr().err


class TestDiffMap:
    def fitted_pair(self, tmp_path):
        """Simulate, fit and diff a two-qubit process; returns all paths."""
        sim_cfg = write_config(
            tmp_path / "sim.json", {"gate": CNOT2_GATE, "error": DEC_ERROR}
        )
        proc = tmp_path / "proc.json"
        assert main(["simulate", "--config", sim_cfg, "--out", str(proc)]) == 0
        rec_cfg = write_config(tmp_path / "rec.json", {"process": str(proc)})
        fit = tmp_path / "fit.json"
        assert main(["reconstruct", "--config", rec_cfg, "--out", str(fit)]) == 0
        dm_cfg = write_config(
            tmp_path / "dm.json", {"process": str(proc), "result": str(fit)}
        )
        out = tmp_path / "diff.csv"
        assert main(["diff-map", "--config", dm_cfg, "--out", str(out)]) == 0
        return proc, fit, out

    def test_matrix_shape_and_magnitude(self, tmp_path):
        _, _, out = self.fitted_pair(tmp_path)
        rows = read_rows(out)
        assert list(rows[0]) == list(DIFF_COLUMNS)
        assert len(rows) == 16
        assert [int(r["row"]) for r in rows] == list(range(16))
        assert all(r["pair"] == "12" for r in rows)
        values = np.array([[float(r[f"c{j}"]) for j in range(16)] for r in rows])
        assert np.all(values >= 0)
        assert values.max() < 1e-5

    def test_entries_equal_recomputation_from_saved_model(self, tmp_path):
        proc, fit, out = self.fitted_pair(tmp_path)
        rows = read_rows(out)
        values = np.array([[float(r[f"c{j}"]) for j in range(16)] for r in rows])
        sigma = se.data_from_dict(se.load_json(proc)["tomography"]).targets[0]
        model = se.model_from_dict(se.load_json(fit)["result"]["model"])
        rho = ch.partial_trace_choi(ch.superop_to_choi(build_superop(model)), (1, 2))
        assert np.array_equal(values, np.abs(sigma - rho))

    def test_out_of_range_pair_is_usage_error(self, tmp_path):
        proc, fit, _ = self.fitted_pair(tmp_path)
        dm_cfg = write_config(
            tmp_path / "dm2.json",
            {"process": str(proc), "result": str(fit), "pair": [1, 3]},
        )
        assert main(["diff-map", "--config", dm_cfg, "--out", str(tmp_path / "d.csv")]) == 1

    def test_non_reconstruction_document_is_usage_error(self, tmp_path, capsys):
        sim_cfg = write_config(
            tmp_path / "sim.json", {"gate": CNOT2_GATE, "error": DEC_ERROR}
        )
        proc = tmp_path / "proc.json"
        assert main(["simulate", "--config", sim_cfg, "--out", str(proc)]) == 0
        dm_cfg = write_config(
            tmp_path / "dm.json", {"process": str(proc), "result": str(proc)}
        )
        assert main(["diff-map", "--config", dm_cfg, "--out", str(tmp_path / "d.csv")]) == 1
        assert "not a reconstruction" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["no_result_entry", "chi_3x3", "pair_21"])
    def test_malformed_reconstruction_document_is_plain_error(self, tmp_path, capsys, defect):
        proc, fit, _ = self.fitted_pair(tmp_path)
        doc = se.load_json(fit)
        if defect == "no_result_entry":
            del doc["result"]
        elif defect == "chi_3x3":
            doc["result"]["model"]["factors"][0]["chi"] = se.matrix_to_dict(np.eye(3))
        else:
            doc["result"]["model"]["factors"][0]["pair"] = [2, 1]
        fit.write_text(json.dumps(doc))
        capsys.readouterr()
        dm_cfg = write_config(tmp_path / "dm2.json", {"process": str(proc), "result": str(fit)})
        assert main(["diff-map", "--config", dm_cfg, "--out", str(tmp_path / "d.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")


INLINE_PROCESS = {"gate": CNOT2_GATE, "error": DEC_ERROR}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("simulate", {"gate": CNOT2_GATE, "error": "decoherence"}),
        ("simulate", {"gate": "cnot", "error": DEC_ERROR}),
        ("simulate", {"gate": CNOT2_GATE, "error": DEC_ERROR, "tomography": "exact"}),
        ("simulate", {**INLINE_PROCESS, "tomography": {"mode": "sampled", "n_samples": "x"}}),
        ("simulate", {**INLINE_PROCESS, "tomography": {"mode": "sampled", "n_samples": 0}}),
        ("reconstruct", {"process": INLINE_PROCESS, "solver": []}),
        ("reconstruct", {"process": {"gate": CNOT2_GATE}}),
        ("sweep-tol", {"eps_grid": ["a"]}),
        ("sweep-tol", {"eps_grid": 3}),
    ],
    ids=[
        "error_not_object",
        "gate_not_object",
        "tomography_not_object",
        "n_samples_not_integer",
        "n_samples_zero",
        "solver_not_object",
        "inline_process_without_error",
        "eps_grid_entry_not_number",
        "eps_grid_not_list",
    ],
)
def test_malformed_config_is_plain_error(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, payload, unknown",
    [
        ("simulate", {**INLINE_PROCESS, "tomograpy": {"mode": "sampled"}}, "tomograpy"),
        ("reconstruct", {"process": INLINE_PROCESS, "inti": "identity"}, "inti"),
        ("reconstruct", {"process": {**INLINE_PROCESS, "tomograpy": {}}}, "tomograpy"),
        ("bench-fig2", {"mdoe": "papa", "solver": {"max_iters": 1}}, "mdoe"),
        ("sweep-cr", {"mdoe": "papa", "solver": {"max_iters": 1}}, "mdoe"),
        (
            "sweep-tol",
            {"eps_grid": [1e-4], "solvr": {"max_iters": 1}, "mode": "papa_gst"},
            "solvr",
        ),
        ("diff-map", {"process": INLINE_PROCESS, "result": "fit.json", "pairs": [1, 2]}, "pairs"),
    ],
    ids=[
        "simulate",
        "reconstruct",
        "inline_process",
        "bench_fig2",
        "sweep_cr",
        "sweep_tol",
        "diff_map",
    ],
)
def test_unknown_config_entry_is_refused(tmp_path, capsys, command, payload, unknown):
    cfg = write_config(tmp_path / "c.json", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown")
    assert unknown in err
