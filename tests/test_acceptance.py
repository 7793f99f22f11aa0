"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

from pairtomo import channels as ch
from pairtomo.cli import CR_BETAS, _cr_cases, _fig2_cases, _run_case, _tol_cases
from pairtomo.gates import CNOT_2Q, GateLayer, gate_unitary
from pairtomo.gateset import (
    GATESET_NAMES,
    decompose_ideal_reduction,
    gst_sigma,
    simulate_gateset,
)
from pairtomo.model import all_pairs, factor_superop, identity_model, ideal_initial_guess
from pairtomo.reconstruct import SolverConfig, TomographyData, solve
from pairtomo.simulate import (
    CoherentLocal,
    CRCoherent,
    Decoherence,
    NoisyProcess,
    cr_cnot_unitary,
    simulate_noisy_process,
)
from conftest import choi_to_superop, pairwise_qpt, random_cptp_superop, superop_to_chi


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_1_two_qubit_oracle_equivalence():
    # 20 random CPTP channels, full pipeline, td <= 1e-6, under a minute.
    # The criterion pins no solver settings; a tight stopping threshold
    # lets the quadratic tail finish.
    t0 = time.perf_counter()
    cfg = SolverConfig(eps_tol=1e-10)
    worst = 0.0
    for seed in range(20):
        s = random_cptp_superop(4, seed)
        proc = NoisyProcess(2, s, GateLayer(2, ("I", "I")), CoherentLocal(0.0))
        target = pairwise_qpt(proc, (1, 2))
        data = TomographyData(2, ((1, 2),), (target,))
        result = solve(data, identity_model(2), cfg, true_superop=s)
        worst = max(worst, result.full_trace_distance)
    wall = time.perf_counter() - t0
    ok = worst <= 1e-6 and wall < 60.0
    assert report("1 n2-oracle", ok, f"worst td {worst:.2e}, {wall:.0f}s for 20 channels")


FIG2_MIN_RATIO = {"i": 5.0, "ii": 5.0, "iii": 5.0, "iv": 2.0, "v": 5.0, "vi": 5.0, "vii": 2.0}


def test_criterion_2_benchmark_improvement_ratios():
    rows = [_run_case(case) for case in _fig2_cases({})]
    failures = []
    for row in rows:
        cid = row["case_id"]
        ratio = row["td_full_ideal"] / row["td_full_papa"]
        if not row["td_full_papa"] < row["td_full_ideal"]:
            failures.append(f"{cid}: no improvement")
        if ratio < FIG2_MIN_RATIO[cid]:
            failures.append(f"{cid}: ratio {ratio:.2f} < {FIG2_MIN_RATIO[cid]}")
        if row["wall_time_s"] > 600.0:
            failures.append(f"{cid}: {row['wall_time_s']:.0f}s over budget")

    # zero-error variant of the X(x)Y(x)X case: ideal data, ideal guess
    gate = GateLayer(3, ("X", "Y", "X"))
    proc = simulate_noisy_process(gate, CoherentLocal(0.0))
    res = solve(
        data := TomographyData.from_process(proc),
        ideal_initial_guess(gate),
        true_superop=proc.superop,
    )
    if not res.full_trace_distance < 1e-10:
        failures.append(f"zero-error td {res.full_trace_distance:.2e}")

    ratios = ", ".join(
        f"{r['case_id']}={r['td_full_ideal'] / r['td_full_papa']:.1f}" for r in rows
    )
    assert report("2 fig2-bench", not failures, failures and "; ".join(failures) or ratios)


def test_criterion_3_cross_resonance_sweep():
    failures = []
    worst_ratio = np.inf
    for case in _cr_cases({}):
        beta, phi = case.labels["beta"], case.labels["phi_zz"]
        row = _run_case(case)
        ratio = row["td_full_ideal"] / row["td_full_papa"]
        worst_ratio = min(worst_ratio, ratio)
        if not row["td_full_papa"] < row["td_full_ideal"]:
            failures.append(f"beta={beta:.3f} phi={phi:.0e}: no improvement")
        if ratio < 3.0:
            failures.append(f"beta={beta:.3f} phi={phi:.0e}: ratio {ratio:.2f} < 3")

    # fidelity anchor: the beta-range gates at phi_zz=0 sit a little under
    # perfect, in the stated two-significant-figure band
    ideal = np.kron(CNOT_2Q, np.eye(2))
    fids = []
    for beta in (float(CR_BETAS[0]), float(CR_BETAS[-1])):
        u = cr_cnot_unitary(beta, 0.0)
        fids.append(abs(np.trace(ideal.conj().T @ u)) ** 2 / 64.0)
    if not all(0.945 <= f <= 0.995 for f in fids):
        failures.append(f"fidelity anchor {fids}")

    detail = f"16 points, worst ratio {worst_ratio:.2f}, anchor F {fids[0]:.4f}/{fids[1]:.4f}"
    assert report("3 cr-sweep", not failures, failures and "; ".join(failures) or detail)


def test_criterion_4_reduction_identities():
    gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
    errs = []

    def weights(pair):
        # each label's convex weight in the pair's decomposition, 0 if absent
        terms = {GATESET_NAMES[idx]: coef for coef, idx in decompose_ideal_reduction(gate, pair)}
        return lambda label: terms.get(label, 0.0)

    d12 = weights((1, 2))
    errs.append(abs(d12("CNOT") - 1.0))
    errs.extend(abs(d12(lbl)) for lbl in ("II", "ZI", "XI"))

    d13 = weights((1, 3))
    errs.append(abs(d13("II") - 0.5))
    errs.append(abs(d13("ZI") - 0.5))
    errs.append(abs(d13("CNOT")))

    d23 = weights((2, 3))
    errs.append(abs(d23("II") - 0.5))
    errs.append(abs(d23("XI") - 0.5))
    errs.append(abs(d23("CNOT")))

    worst = max(errs)
    assert report("4 reduction-identities", worst <= 1e-9, f"worst coefficient error {worst:.2e}")


def test_criterion_5_gateset_consistency():
    gates = (
        GateLayer(3, ("I", "I", "I")),
        GateLayer(3, ("X", "Y", "X")),
        GateLayer(3, ("I", "I", "I"), cnot=(1, 2)),
    )
    errors = (
        Decoherence(50e-6, 50e-6, 50e-9),
        Decoherence(50e-6, 50e-6, 400e-9),
        CoherentLocal(0.02),
        CoherentLocal(0.2),
    )
    worst_eq = 0.0
    for gate in gates:
        for error in errors:
            proc = simulate_noisy_process(gate, error)
            for pair in all_pairs(3):
                terms = decompose_ideal_reduction(gate, pair)
                sigma = gst_sigma(terms, simulate_gateset(pair, 3, error))
                td = ch.trace_distance(sigma, pairwise_qpt(proc, pair))
                worst_eq = max(worst_eq, td)

    # gate-dependent error: predictions from any independently characterized
    # gate set must miss; the ideal set is the natural stand-in
    cr_gate = GateLayer(3, ("I", "I", "I"), cnot=(1, 2))
    cr_proc = simulate_noisy_process(cr_gate, CRCoherent(np.pi / 16, 1e-3))
    cr_miss = 0.0
    for pair in all_pairs(3):
        terms = decompose_ideal_reduction(cr_gate, pair)
        sigma = gst_sigma(terms, simulate_gateset(pair, 3, CoherentLocal(0.0)))
        cr_miss = max(cr_miss, ch.trace_distance(sigma, pairwise_qpt(cr_proc, pair)))

    ok = worst_eq <= 1e-9 and cr_miss > 1e-3
    assert report(
        "5 gst-consistency", ok, f"worst equality td {worst_eq:.2e}, cr miss {cr_miss:.2e}"
    )


def test_criterion_6_conversion_metric_property_suite():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(250):
        rng = np.random.default_rng(seed)

        # conversion round trips on a random CPTP channel
        s = random_cptp_superop(4, seed)
        choi = ch.superop_to_choi(s)
        assert np.allclose(choi_to_superop(choi), s, atol=1e-12)
        chi = superop_to_chi(s)
        assert np.allclose(factor_superop(chi, (1, 2), 2), s, atol=1e-12)
        checked += 1

        # CPTP witness on a simulated process
        phi = float(rng.uniform(0.0, 0.3))
        proc = simulate_noisy_process(GateLayer(2, ("X", "I")), CoherentLocal(phi))
        assert ch.is_cptp_choi(ch.superop_to_choi(proc.superop))
        checked += 1

        # trace-distance axioms on a random triple
        rhos = [ch.superop_to_choi(random_cptp_superop(4, 1000 + 3 * seed + k)) for k in range(3)]
        d01 = ch.trace_distance(rhos[0], rhos[1])
        d12 = ch.trace_distance(rhos[1], rhos[2])
        d02 = ch.trace_distance(rhos[0], rhos[2])
        assert d01 >= 0.0 and abs(ch.trace_distance(rhos[0], rhos[0])) < 1e-14
        assert abs(d01 - ch.trace_distance(rhos[1], rhos[0])) < 1e-12
        assert d02 <= d01 + d12 + 1e-12
        checked += 1

        # projection: PSD, trace 4, idempotent
        h = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (h + h.conj().T) / 2.0
        p = ch.project_psd_chi(h)
        assert np.linalg.eigvalsh(p).min() >= -1e-12
        assert abs(np.trace(p).real - 4.0) < 1e-12
        assert np.allclose(ch.project_psd_chi(p), p, atol=1e-10)
        checked += 1

    wall = time.perf_counter() - t0
    ok = checked == 1000 and wall < 60.0
    assert report("6 property-suite", ok, f"{checked} cases in {wall:.1f}s")


def test_criterion_7_tolerance_saturation():
    tds = {}
    for case in _tol_cases({}):
        if case.labels["case_id"] == "cnot_coherent":
            tds[case.labels["eps_tol"]] = _run_case(case)["td_full_papa"]

    grid = sorted(tds, reverse=True)  # 1e-4 ... 1e-8
    monotone = all(tds[grid[k + 1]] <= tds[grid[k]] * 1.10 for k in range(len(grid) - 1))
    sat = abs(tds[1e-8] - tds[1e-7]) / tds[1e-7] <= 0.5
    profile = ", ".join(f"{eps:.0e}: {tds[eps]:.2e}" for eps in grid)
    assert report("7 tol-saturation", monotone and sat, profile)
