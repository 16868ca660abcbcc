"""The bench tracer still finds every name it hooks.

``bench/tracing.py`` hooks package functions by name; a hooked name that a
refactor deletes or renames is recorded as missing, and the traced bench
run then prints its metrics as null.  This catches that in the unit tests,
over the same modules ``bench/run.py`` traces.  Nothing under ``bench/`` is
edited: its modules are imported without writing bytecode, and every hook
is removed again.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("run", "tracing", "workloads")


def test_bench_tracer_finds_every_hooked_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    loaded = {name: sys.modules.pop(name) for name in BENCH_MODULES if name in sys.modules}
    try:
        run = importlib.import_module("run")
        modules = {name: importlib.import_module(name)
                   for name in run.REQUIRED_MODULES + run.TRACED_MODULES}
        tracer = run.Tracer(modules)
        try:
            tracer.install()
            assert tracer.missing == set()
        finally:
            tracer.uninstall()
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(loaded)
