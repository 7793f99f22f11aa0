"""The benchmark's workloads: inputs made from the seed, the operations,
which call the package only through its public API, the checks of their
outputs against :mod:`reference`, and the tracer's patch list.

Import this module only after the BLAS thread count is pinned.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from pairtomo import channels, gateset, model, reconstruct, simulate
from pairtomo.gates import GateLayer

import reference as ref
from tracing import Proxy, Tracer

# The paper's fig2 cases: idle, local-gate and CNOT layers on three qubits
# under decoherence or coherent local rotations, with the least ratio
# td(ideal gate) / td(fit) each must reach in gate-set mode.
FIG2 = {
    "i": (("I", "I", "I"), None, ("decoherence", 50e-6, 50e-6, 50e-9), 5.0),
    "ii": (("I", "I", "I"), None, ("decoherence", 50e-6, 50e-6, 400e-9), 5.0),
    "iii": (("X", "Y", "X"), None, ("decoherence", 50e-6, 50e-6, 50e-9), 5.0),
    "iv": (("I", "I", "I"), (1, 2), ("decoherence", 50e-6, 50e-6, 400e-9), 2.0),
    "v": (("X", "Y", "X"), None, ("coherent", 0.02), 5.0),
    "vi": (("X", "Y", "X"), None, ("coherent", 0.2), 5.0),
    "vii": (("I", "I", "I"), (1, 2), ("coherent", 0.02), 2.0),
}
# All seven take about 100 s with one BLAS thread; a run has to stay near
# 40 s, so the workload keeps one decoherence case (idle), one coherent
# local case and the coherent CNOT with its 13-iteration tail.
FIG2_DEFAULT = ("i", "v", "vii")

ORACLE_CHANNELS = 20
ORACLE_EPS_TOL = 1e-10
# Acceptance criterion 1's bound on the full td.  A single fit above it is
# counted, not failed: the stopping rule ends some fits early (seed 105
# channel 2 stops at td 1.9e-5), so such a miss depends on the seed.  The
# geometric mean of a round's tds, which the criterion bounds as well, is
# checked against it.
ORACLE_MAX_TD = 1e-6
# The full td every single oracle fit must reach.  The worst seen today is
# 1.9e-5; a fit cut after 8 of its 11-15 iterations reads 1.5e-3 or more.
ORACLE_GATE_TD = 1e-4

# pairdata: (n, error) of each CNOT layer.  The workload leaves out n=5
# under decoherence: one round of it alone takes about 81 s.
PAIRDATA_LAYERS = {
    "n4-decoherence": (4, ("decoherence", 50e-6, 50e-6, 400e-9)),
    "n4-coherent": (4, ("coherent", 0.02)),
    "n5-coherent": (5, ("coherent", 0.02)),
    "n5-decoherence": (5, ("decoherence", 50e-6, 50e-6, 400e-9)),
}
PAIRDATA_DEFAULT = ("n4-decoherence", "n4-coherent", "n5-coherent")
SAMPLED_PREPARATIONS = 8

TRUTH_TOL = 1e-12
PSD_TOL = 1e-10
PAIR_TOL = 1e-9
EXACT_TOL = 1e-12
GATESET_TD_TOL = 1e-9
REPORT_TOL = 1e-9
FACTOR_TOL = 1e-10


@dataclass(frozen=True)
class Layer:
    """A noisy gate layer: the package's objects and the reference's view."""

    label: str
    labels: tuple[str, ...]
    cnot: tuple[int, int] | None
    error: tuple

    @property
    def n(self) -> int:
        return len(self.labels)

    def gate(self) -> GateLayer:
        return GateLayer(self.n, self.labels, self.cnot)

    def error_model(self):
        if self.error[0] == "coherent":
            return simulate.CoherentLocal(self.error[1])
        return simulate.Decoherence(*self.error[1:])

    def truth(self) -> np.ndarray:
        return ref.noisy_layer_superop(self.n, self.labels, self.cnot, self.error)


# ---------------------------------------------------------------- operations


def gateset_data(gate: GateLayer, error) -> reconstruct.TomographyData:
    """Pair data predicted from a characterized two-qubit gate set."""
    pairs = model.all_pairs(gate.n_qubits)
    targets = []
    for pair in pairs:
        decomp = gateset.decompose_ideal_reduction(gate, pair)
        characterized = gateset.simulate_gateset(pair, gate.n_qubits, error)
        targets.append(gateset.gst_sigma(decomp, characterized))
    return reconstruct.TomographyData(gate.n_qubits, pairs, tuple(targets))


def fig2_op(case):
    layer, gate, error, _ = case
    process = simulate.simulate_noisy_process(gate, error)
    data = gateset_data(gate, error)
    result = reconstruct.solve(
        data, model.ideal_initial_guess(gate), reconstruct.SolverConfig(),
        true_superop=process.superop,
    )
    return {"superop": process.superop, "gateset": data, "result": result}


def oracle_op(superop):
    data = reconstruct.TomographyData.from_superop(superop, 2)
    result = reconstruct.solve(
        data, model.identity_model(2), reconstruct.SolverConfig(eps_tol=ORACLE_EPS_TOL),
        true_superop=superop,
    )
    return {"exact": data, "result": result}


def pairdata_op(case):
    layer, gate, error, seed = case
    process = simulate.simulate_noisy_process(gate, error)
    pairs = model.all_pairs(layer.n)
    return {
        "superop": process.superop,
        "exact": reconstruct.TomographyData.from_process(process),
        "sampled": [
            simulate.sampled_pairwise_qpt(process, p, SAMPLED_PREPARATIONS, seed) for p in pairs
        ],
        "exhaustive": [
            simulate.sampled_pairwise_qpt(process, p, 1, seed, exhaustive=True) for p in pairs
        ],
        "gateset": gateset_data(gate, error),
    }


def answer(out) -> tuple:
    """What an operation computed, to compare a traced with an untraced run."""
    if "result" in out:
        r = out["result"]
        return (r.iterations, r.full_trace_distance) + tuple(r.pair_trace_distances)
    return tuple(
        t.tobytes()
        for key in ("exact", "gateset")
        for t in out[key].targets
    ) + tuple(t.tobytes() for key in ("sampled", "exhaustive") for t in out[key])


# -------------------------------------------------------------------- inputs


@dataclass
class Workload:
    name: str
    op: Callable[[object], dict]
    inputs: list
    labels: list[str]


def _case(layer: Layer, seed: int):
    return (layer, layer.gate(), layer.error_model(), seed)


def make_fig2(seed: int, case_ids=FIG2_DEFAULT) -> Workload:
    """The fixed fig2 cases; the seed only shuffles their order."""
    order = np.random.default_rng(seed).permutation(len(case_ids))
    ids = [case_ids[i] for i in order]
    layers = [Layer(cid, *FIG2[cid][:3]) for cid in ids]
    return Workload("fig2_n3", fig2_op, [_case(l, seed) for l in layers], ids)


def make_oracle(seed: int) -> Workload:
    """Random full-rank two-qubit channels drawn from the seed."""
    rng = np.random.default_rng(seed)
    chans = [ref.random_cptp(4, rng) for _ in range(ORACLE_CHANNELS)]
    return Workload("oracle_n2", oracle_op, chans, [f"ch{j}" for j in range(ORACLE_CHANNELS)])


def make_pairdata(seed: int, layer_ids=PAIRDATA_DEFAULT) -> Workload:
    """CNOT layers whose CNOT qubits (control below target) and Paulis on
    the other qubits are drawn from the seed."""
    rng = np.random.default_rng(seed)
    layers = []
    for lid in layer_ids:
        n, error = PAIRDATA_LAYERS[lid]
        c, t = sorted(int(q) for q in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        labels = tuple("I" if q in (c, t) else "IXYZ"[rng.integers(4)] for q in range(1, n + 1))
        layers.append(Layer(lid, labels, (c, t), error))
    labels = [f"{l.label}:{''.join(l.labels)}:CNOT{l.cnot[0]}{l.cnot[1]}" for l in layers]
    return Workload("pairdata", pairdata_op, [_case(l, seed) for l in layers], labels)


WORKLOADS = {"fig2_n3": make_fig2, "oracle_n2": make_oracle, "pairdata": make_pairdata}


# -------------------------------------------------------------------- checks


def _check_choi(c: np.ndarray, what: str, tol: float, problems: list) -> None:
    """PSD, unit trace and the trace-preservation witness."""
    d = int(round(math.sqrt(c.shape[0])))
    if np.abs(c - c.conj().T).max() > tol:
        problems.append(f"{what}: not Hermitian")
    low = float(np.linalg.eigvalsh((c + c.conj().T) / 2).min())
    if low < -max(tol, PSD_TOL):
        problems.append(f"{what}: eigenvalue {low:.3e}")
    if abs(np.trace(c) - 1) > tol:
        problems.append(f"{what}: trace {np.trace(c).real:.15f}")
    tp = float(np.abs(ref.output_reduction(c) - np.eye(d) / d).max())
    if tp > tol:
        problems.append(f"{what}: TP witness off by {tp:.3e}")


def _check_truth(superop, truth, what, problems) -> None:
    gap = float(np.abs(superop - truth).max())
    if gap > TRUTH_TOL:
        problems.append(f"{what}: process differs from the reference by {gap:.3e}")
    _check_choi(ref.choi(truth), f"{what} truth Choi", TRUTH_TOL, problems)


def _check_targets(targets, expected, pairs, what, problems, tol=EXACT_TOL) -> None:
    if len(targets) != len(pairs):
        problems.append(f"{what}: {len(targets)} targets for {len(pairs)} pairs")
        return
    for pair, t, e in zip(pairs, targets, expected):
        t = np.asarray(t)
        _check_choi(t, f"{what} {pair}", PAIR_TOL, problems)
        gap = float(np.abs(t - e).max())
        if gap > tol:
            problems.append(f"{what} {pair}: differs from the reference by {gap:.3e}")


def fit_facts(result, targets, truth_choi, n: int, problems: list, what: str) -> dict:
    """Check a fit against the reference product channel of its factors."""
    tp_dev = 0.0
    for pair, chi in result.model.factors:
        low = float(np.linalg.eigvalsh((chi + chi.conj().T) / 2).min())
        if low < -FACTOR_TOL or abs(np.trace(chi) - 4) > FACTOR_TOL:
            problems.append(f"{what} factor {pair}: min eig {low:.3e}, trace {np.trace(chi).real:.12f}")
        tp_dev = max(tp_dev, ref.chi_tp_deviation(chi))
    model_choi = ref.choi(ref.model_superop(n, result.model.factors))
    pairs = ref.pairs(n)
    if len(result.pair_trace_distances) != len(pairs):
        problems.append(f"{what}: {len(result.pair_trace_distances)} pair tds for {len(pairs)} pairs")
    for pair, target, reported in zip(pairs, targets, result.pair_trace_distances):
        td = ref.trace_distance(ref.pair_reduction(model_choi, pair), np.asarray(target))
        if abs(td - reported) > REPORT_TOL:
            problems.append(f"{what} {pair}: reported td {reported:.6e}, reference {td:.6e}")
    td_full = ref.trace_distance(model_choi, truth_choi)
    if abs(td_full - result.full_trace_distance) > REPORT_TOL:
        problems.append(
            f"{what}: reported full td {result.full_trace_distance:.6e}, reference {td_full:.6e}"
        )
    return {"td_full": td_full, "tp_dev": tp_dev}


def check(workload: Workload, index: int, out: dict, problems: list) -> dict:
    """Check one operation's outputs; returns the facts the metrics use."""
    case = workload.inputs[index]
    what = f"{workload.name}/{workload.labels[index]}"
    if workload.name == "oracle_n2":
        truth_choi = ref.choi(case)
        _check_choi(truth_choi, f"{what} truth Choi", TRUTH_TOL, problems)
        _check_targets(out["exact"].targets, [truth_choi], [(1, 2)], f"{what} exact", problems)
        facts = fit_facts(out["result"], out["exact"].targets, truth_choi, 2, problems, what)
        if not facts["td_full"] <= ORACLE_GATE_TD:
            problems.append(f"{what}: full td {facts['td_full']:.3e} > {ORACLE_GATE_TD}")
        facts["td_miss"] = not facts["td_full"] <= ORACLE_MAX_TD
        return facts

    layer = case[0]
    truth = layer.truth()
    _check_truth(out["superop"], truth, what, problems)
    truth_choi = ref.choi(truth)
    pairs = ref.pairs(layer.n)
    exact = [ref.pair_reduction(truth_choi, p) for p in pairs]
    gst = out["gateset"].targets
    _check_targets(gst, exact, pairs, f"{what} gateset", problems, tol=np.inf)
    for pair, t, e in zip(pairs, gst, exact):
        td = ref.trace_distance(np.asarray(t), e)
        if td > GATESET_TD_TOL:
            problems.append(f"{what} gateset {pair}: td {td:.3e} from the exact target")
    if workload.name == "pairdata":
        _check_targets(out["exact"].targets, exact, pairs, f"{what} exact", problems)
        _check_targets(out["exhaustive"], out["exact"].targets, pairs, f"{what} exhaustive", problems)
        _check_targets(out["sampled"], exact, pairs, f"{what} sampled", problems, tol=np.inf)
        return {}

    facts = fit_facts(out["result"], gst, truth_choi, layer.n, problems, what)
    ideal_choi = ref.choi(ref.unitary_superop(ref.layer_unitary(layer.labels, layer.cnot)))
    ratio = ref.trace_distance(ideal_choi, truth_choi) / facts["td_full"]
    least = FIG2[layer.label][3]
    if not ratio >= least:
        problems.append(f"{what}: improvement over the ideal gate {ratio:.2f} < {least}")
    facts["ratio"] = ratio
    return facts


def check_round(workload: Workload, facts: list[dict], problems: list) -> None:
    """Checks on a whole round's facts: the oracle fits' geometric mean td."""
    tds = [f["td_full"] for f in facts if "td_full" in f]
    if workload.name == "oracle_n2" and tds:
        geomean = math.exp(np.mean(np.log(tds)))
        if not geomean <= ORACLE_MAX_TD:
            problems.append(f"{workload.name}: geometric mean full td {geomean:.3e} > {ORACLE_MAX_TD}")


# ------------------------------------------------------------------- tracing


def install_tracer() -> Tracer:
    """Wrap the public functions of each module where their callers look
    them up: ``reconstruct`` imports ``factor_superop``/``build_superop``
    by name and ``gateset`` imports ``error_superop`` by name."""
    tr = Tracer()
    tr.patch("simulate.process", [simulate], "simulate_noisy_process")
    tr.patch("simulate.error_superop", [simulate, gateset], "error_superop")
    tr.patch("simulate.sampled", [simulate], "sampled_pairwise_qpt")
    tr.patch("simulate.exact", [reconstruct.TomographyData], "from_superop")
    tr.patch("gateset.decompose", [gateset], "decompose_ideal_reduction")
    tr.patch("gateset.characterize", [gateset], "simulate_gateset")
    tr.patch("gateset.predict", [gateset], "gst_sigma")
    tr.patch("model.factor_superop", [model, reconstruct], "factor_superop")
    tr.patch("model.build_superop", [model, reconstruct], "build_superop")
    for name in ("superop_to_choi", "partial_trace_choi", "cptp_residuals",
                 "project_psd_chi", "trace_distance"):
        tr.patch(f"channels.{name}", [channels], name)
    tr.patch("reconstruct.solve", [reconstruct], "solve")
    linalg = Proxy(np.linalg, solve=tr.span("reconstruct.linsolve", np.linalg.solve))
    tr.replace(reconstruct, "np", Proxy(np, linalg=linalg))
    return tr


def layer_metrics(totals: dict, facts: list[dict], results: list) -> dict:
    """Per-layer figures of one traced round."""
    def s(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    iterations = sum(r.iterations for r in results)
    accepted = sum(len(r.cost_history) - 1 for r in results)
    damped = s("reconstruct.linsolve", "calls")
    tds = [f["td_full"] for f in facts if "td_full" in f]
    return {
        "simulate.process_s": s("simulate.process"),
        "simulate.error_superop_s": s("simulate.error_superop"),
        "simulate.error_superop_calls": s("simulate.error_superop", "calls"),
        "simulate.tomography_s": s("simulate.exact") + s("simulate.sampled"),
        "gateset.decompose_s": s("gateset.decompose"),
        "gateset.characterize_s": s("gateset.characterize", "self_s"),
        "gateset.predict_s": s("gateset.predict"),
        "model.factor_superop_calls": s("model.factor_superop", "calls"),
        "model.factor_superop_s": s("model.factor_superop"),
        "model.build_superop_s": s("model.build_superop"),
        "channels.superop_to_choi_calls": s("channels.superop_to_choi", "calls"),
        "channels.superop_to_choi_s": s("channels.superop_to_choi"),
        "channels.partial_trace_choi_s": s("channels.partial_trace_choi"),
        "channels.cptp_residuals_s": s("channels.cptp_residuals"),
        "channels.project_psd_chi_s": s("channels.project_psd_chi"),
        "channels.trace_distance_s": s("channels.trace_distance"),
        "reconstruct.solve_s": s("reconstruct.solve"),
        "reconstruct.solve_self_s": s("reconstruct.solve", "self_s"),
        "reconstruct.linsolve_s": s("reconstruct.linsolve"),
        "reconstruct.s_per_iteration": s("reconstruct.solve") / iterations if iterations else 0.0,
        "reconstruct.iterations": iterations,
        "reconstruct.damped_solves": damped,
        "reconstruct.accepted_steps": accepted,
        "reconstruct.accept_ratio": accepted / damped if damped else 0.0,
        "reconstruct.stalled_fits": sum(r.iterations == len(r.cost_history) for r in results),
        "reconstruct.td_full_geomean": math.exp(np.mean(np.log(tds))) if tds else 0.0,
        "reconstruct.tp_dev_max": max((f["tp_dev"] for f in facts if "tp_dev" in f), default=0.0),
        "reconstruct.oracle_td_misses": sum(f.get("td_miss", False) for f in facts),
    }

