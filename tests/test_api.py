"""The package's public surface: qmet.__all__ and its record types."""
import dataclasses
import importlib
import pkgutil

import qmet
from qmet import estimation, harness, states, tomography


def test_all_names_resolve_once():
    assert len(qmet.__all__) == len(set(qmet.__all__))
    for name in qmet.__all__:
        assert hasattr(qmet, name), name


def test_per_kind_estimator_entry_points_are_gone():
    # estimate(kind, variant, ...) over the measure table replaces them
    for module in (qmet, estimation):
        names = set(dir(module))
        assert "ESTIMATORS" not in names
        assert not [name for name in names if name.startswith("est_")]
    assert "ESTIMATORS" not in qmet.__all__


def test_only_records_that_check_their_fields_are_dataclasses():
    # a plain value bundle is a NamedTuple; a dataclass earns its build cost
    # by validating in __post_init__
    found = []
    for info in pkgutil.iter_modules(qmet.__path__):
        module = importlib.import_module(f"qmet.{info.name}")
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.append(name)
                assert "__post_init__" in vars(obj), name
    assert sorted(found) == ["FisherReport", "OutcomeCounts", "SweepConfig",
                             "TomoDataset"]


def test_value_records_keep_their_fields():
    assert states.FamilyFit._fields == ("p", "q", "residual", "degenerate",
                                        "out_of_family")
    assert tomography.Reconstruction._fields == ("state", "log_likelihood",
                                                 "iterations", "converged")
    assert tomography.TomoReport._fields == ("fidelity", "fit", "measures")
    assert harness.EstimatorStats._fields == ("kind", "variant", "mean", "stddev",
                                              "theory_value", "unc_nonopt", "unc_qcrb")
    assert harness.SweepRow._fields == ("p_true", "p_fitted", "stats")
