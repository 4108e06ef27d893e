"""The names perfbench/tracer.py patches exist in the library: a deleted or
renamed one would otherwise fail only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from spinnets.polyring import MPoly

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    tracer = _load_tracer()
    missing = [(mod, attr) for mod, attr, _ in tracer.FUNCTIONS
               if not hasattr(importlib.import_module(mod), attr)]
    assert tracer.FUNCTIONS and not missing


def test_traced_methods_exist_on_mpoly():
    tracer = _load_tracer()
    missing = [name for name, _ in tracer.METHODS if not hasattr(MPoly, name)]
    assert tracer.METHODS and not missing
