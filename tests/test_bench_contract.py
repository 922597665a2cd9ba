"""The benchmark's trace mode wraps qmet attributes by name; they must resolve.

bench/tracer.py rebinds each (module, attribute) in TRACED_FUNCTIONS and each
RandomStream method in TRACED_METHODS with getattr / the class __dict__, so
renaming or deleting one of them breaks ``bench/run.py --trace 1``.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from qmet.streams import RandomStream

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    """bench/tracer.py as a module, leaving no bytecode under bench/."""
    spec = importlib.util.spec_from_file_location("qmet_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module_name,attr,span", TRACER.TRACED_FUNCTIONS)
def test_traced_function_resolves(module_name, attr, span):
    module = importlib.import_module(f"qmet.{module_name}")
    assert callable(getattr(module, attr)), span


@pytest.mark.parametrize("attr,span", TRACER.TRACED_METHODS)
def test_traced_random_stream_method_resolves(attr, span):
    assert callable(RandomStream.__dict__[attr]), span
