"""Guards for the package's export lists and the benchmark's tracer, which
looks functions up by name in the modules that call them."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pairtomo

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_export_lists_resolve():
    for info in pkgutil.iter_modules(pairtomo.__path__):
        module = importlib.import_module(f"pairtomo.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"pairtomo.{info.name}.__all__ names missing {name!r}"
    # one import path per name: the package itself re-exports nothing
    extra = [
        name
        for name, value in vars(pairtomo).items()
        if not (name.startswith("__") and name.endswith("__")) and not inspect.ismodule(value)
    ]
    assert extra == [], f"pairtomo re-exports {extra}; import them from their submodules"


def test_every_export_has_a_caller_outside_the_tests():
    # a public name whose only caller is a test is surface to delete: each
    # one must be read (as a name or an attribute) by the package's modules
    # or by the benchmark's
    package = Path(pairtomo.__file__).resolve().parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += [p for p in BENCH.glob("*.py") if not p.name.startswith("test_")]
    loaded = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unread = []
    for info in pkgutil.iter_modules(pairtomo.__path__):
        module = importlib.import_module(f"pairtomo.{info.name}")
        unread += [f"{info.name}.{n}" for n in getattr(module, "__all__", ()) if n not in loaded]
    assert unread == [], f"exported names with no caller outside the tests: {unread}"


def test_bench_tracer_installs_and_restores():
    # a subprocess, so that a tracer that fails halfway patches nothing here
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from pairtomo import reconstruct\n"
        "import workloads\n"
        "solve = reconstruct.solve\n"
        "tracer = workloads.install_tracer()\n"
        "assert reconstruct.solve is not solve\n"
        "tracer.restore()\n"
        "assert reconstruct.solve is solve\n"
    )
    src = str(Path(pairtomo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_sees_every_layer():
    # A refactor that routes a fit or a sampled reduction around a name the
    # tracer wraps would make that layer's metric read 0; here it fails.
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from pairtomo import model, reconstruct, simulate\n"
        "from pairtomo.gates import GateLayer\n"
        "import workloads\n"
        "tracer = workloads.install_tracer()\n"
        "gate, error = GateLayer(3, ('I', 'I', 'I'), (1, 2)), simulate.CoherentLocal(0.02)\n"
        "process = simulate.simulate_noisy_process(gate, error)\n"
        "data = workloads.gateset_data(gate, error)\n"
        "reconstruct.solve(data, model.ideal_initial_guess(gate),\n"
        "                  reconstruct.SolverConfig(max_iters=2), true_superop=process.superop)\n"
        "simulate.sampled_pairwise_qpt(process, (1, 3), 4, 0)\n"
        "totals = tracer.totals()\n"
        "print(' '.join(name for name in sys.argv[2:] if not totals.get(name, {}).get('calls')))\n"
    )
    spans = [
        "simulate.process",
        "simulate.error_superop",
        "simulate.sampled",
        "gateset.decompose",
        "gateset.characterize",
        "gateset.predict",
        "model.factor_superop",
        "model.build_superop",
        "channels.superop_to_choi",
        "channels.partial_trace_choi",
        "channels.cptp_residuals",
        "channels.project_psd_chi",
        "channels.trace_distance",
        "reconstruct.solve",
        "reconstruct.linsolve",
    ]
    src = str(Path(pairtomo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH), *spans], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [], f"spans with no calls: {proc.stdout.strip()}"
