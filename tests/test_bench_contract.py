"""The benchmark's trace mode wraps qmet attributes by name; they must resolve.

bench/tracer.py rebinds each (module, attribute) in TRACED_FUNCTIONS and each
RandomStream method in TRACED_METHODS with getattr / the class __dict__, so
renaming or deleting one of them breaks ``bench/run.py --trace 1``. Its
counters read fields of the return values, so renaming or deleting one of
those breaks it too.
"""
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qmet import estimation, measurement, states, tomography
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


# (span name, one call on a tiny input, the counters its result adds); each
# input sets the flag its counter reads, and the test caps the MLE at one
# iteration
COUNTED_RESULTS = [
    ("streams.random", lambda: RandomStream(1).random(7),
     {"streams.random.uniforms": 7}),
    ("measurement.sample_counts",
     lambda: measurement.sample_counts(states.singlet(), measurement.DA_DA, 9,
                                       RandomStream(2)),
     {"measurement.sample_counts.shots": 9}),
    ("measurement.mix_counts",
     lambda: measurement.mix_counts(measurement.OutcomeCounts(3, 0, 0, 2),
                                    measurement.OutcomeCounts(1, 1, 1, 1), 0.5,
                                    RandomStream(3)),
     {"measurement.mix_counts.shots": 5}),
    # 1 - 4 f_pp = -3 lies below the negativity's range
    ("estimation.estimate",
     lambda: estimation.estimate(states.NEGATIVITY, "nonoptimal",
                                 measurement.OutcomeCounts(6, 0, 0, 0)),
     {"estimation.estimate.clamped": 1}),
    # |00><00| is a product state far from every rho(p, q)
    ("states.fit_family_params",
     lambda: states.fit_family_params(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)),
     {"states.fit_family_params.out_of_family": 1}),
    ("tomography.reconstruct_mle",
     lambda: tomography.reconstruct_mle(tomography.simulate_tomography(
         states.singlet(), 100, RandomStream(1))),
     {"tomography.reconstruct_mle.iterations": 1,
      "tomography.reconstruct_mle.not_converged": 1}),
]


@pytest.mark.parametrize("span,call,expected", COUNTED_RESULTS,
                         ids=[span for span, _, _ in COUNTED_RESULTS])
def test_traced_result_counters_resolve(span, call, expected, monkeypatch):
    monkeypatch.setattr(tomography, "MAX_STEPS", 1)
    assert span in TRACER.span_names()
    assert set(expected) <= set(TRACER.COUNTER_NAMES)
    counters = Counter()
    TRACER._count_result(span, counters, call())
    assert counters == Counter(expected)
