"""Run one benchmark workload of the pairwise-fit pipeline.

    python3 bench/run.py --workload fig2_n3 --seed 1 --seconds 30 --trace 0

A run repeats whole rounds of the workload's operations until ``--seconds``
would be passed, checks every output against the benchmark's reference code,
and prints one JSON object as its last line: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced round with ``--trace 1``.
Details go to ``bench/results/``.  See ``bench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
WORKLOAD_NAMES = ("fig2_n3", "oracle_n2", "pairdata")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cases", default=None,
                   help="fig2_n3 case ids or pairdata layer labels, comma-separated, "
                        "or 'all' (diagnostics)")
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads (diagnostics; the benchmark pins 1)")
    return p.parse_args(argv)


def run_round(wl, tracer=None):
    """One pass over the workload's operations: outputs, wall times, failures."""
    outs, times, failed = [], [], 0
    for index, item in enumerate(wl.inputs):
        if tracer is not None:
            tracer.op = index
        t0 = time.perf_counter()
        try:
            out = wl.op(item)
        except Exception:
            traceback.print_exc()
            out, failed = None, failed + 1
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return outs, times, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pairtomo" / "__init__.py").is_file():
        print(f"error: no package source under {src}; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(src))

    t_import = time.perf_counter()
    import numpy as np
    import scipy

    import workloads as wls

    t_inputs = time.perf_counter()
    choices = {"fig2_n3": wls.FIG2, "pairdata": wls.PAIRDATA_LAYERS}.get(args.workload)
    if args.cases and choices is not None:
        ids = tuple(choices) if args.cases == "all" else tuple(args.cases.split(","))
        if not set(ids) <= set(choices):
            print(f"error: --cases must be 'all' or among {sorted(choices)}", file=sys.stderr)
            return 2
        wl = wls.WORKLOADS[args.workload](args.seed, ids)
    else:
        wl = wls.WORKLOADS[args.workload](args.seed)
    t_first = time.perf_counter()
    setup_s = t_first - T_START

    rounds = []  # (outputs, op times, failures) per round
    if args.trace:
        rounds.append(run_round(wl))
        tracer = wls.install_tracer()
        try:
            rounds.append(run_round(wl, tracer))
        finally:
            tracer.restore()
    else:
        while True:  # whole rounds; stop before one would end past --seconds
            rounds.append(run_round(wl))
            elapsed = time.perf_counter() - t_first
            if elapsed + elapsed / len(rounds) > args.seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    round_s = [sum(times) for _, times, _ in rounds]

    problems: list[str] = []
    first = rounds[0][0]
    facts = [wls.check(wl, i, out, problems) if out is not None else {} for i, out in enumerate(first)]
    wls.check_round(wl, facts, problems)
    for r, (outs, _, _) in enumerate(rounds[1:], start=1):
        for index, (a, b) in enumerate(zip(first, outs)):
            if a is not None and b is not None and wls.answer(a) != wls.answer(b):
                problems.append(f"round {r} op {wl.labels[index]}: answer differs from round 0")

    ops = []
    for index, out in enumerate(first):
        row = {"op": wl.labels[index], "s": [times[index] for _, times, _ in rounds]}
        if out is not None and "result" in out:
            res = out["result"]
            row.update(iterations=res.iterations, td_full=res.full_trace_distance,
                       td_pairs_mean=res.mean_pair_trace_distance)
        if facts[index].get("td_miss"):
            row["td_miss"] = True
            print(f"NOTE: {wl.name} {row['op']} stopped above td {wls.ORACLE_MAX_TD}", file=sys.stderr)
        ops.append(row)
        extras = "".join(
            f", {k} {v:.6g}" for k, v in row.items() if k not in ("op", "s", "td_miss")
        )
        print(f"{wl.name} {row['op']}: s {min(row['s']):.3f}{extras}")

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": args.blas_threads,
        "cpu_count": os.cpu_count(),
    }
    print("env " + json.dumps(env))

    if args.trace:
        results = [out["result"] for out in rounds[1][0] if out is not None and "result" in out]
        metrics = wls.layer_metrics(tracer.totals(), facts, results)
        metrics["setup.import_s"] = t_inputs - t_import
        metrics["setup.inputs_s"] = t_first - t_inputs
        metrics["trace.overhead_s"] = round_s[1] - round_s[0]
    else:
        metrics = {"setup_s": setup_s, "run_s": statistics.median(round_s), "peak_rss_mb": peak_rss_mb}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3

    attempted = sum(len(outs) for outs, _, _ in rounds)
    failed = sum(f for _, _, f in rounds)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.cases:
        stem += f"-cases{args.cases.replace(',', '_')}"
    detail = dict(report, env=env, rounds_s=round_s, ops=ops, problems=problems,
                  args=vars(args))
    if args.trace:
        detail["spans"] = tracer.totals()
        tracer.write(RESULTS / f"{wl.name}.spans.jsonl.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for p in problems:
        print("CHECK FAILED: " + p, file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
