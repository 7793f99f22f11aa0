"""Guards for the package's export lists and the benchmark's tracer, which
looks functions up by name in the modules that call them."""

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
    exported = set()
    for info in pkgutil.iter_modules(pairtomo.__path__):
        module = importlib.import_module(f"pairtomo.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"pairtomo.{info.name}.__all__ names missing {name!r}"
            exported.add(name)
    for name, value in vars(pairtomo).items():
        if not name.startswith("_") and not inspect.ismodule(value):
            assert name in exported, f"pairtomo.{name} is in no module's __all__"


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
