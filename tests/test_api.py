"""The package's public surface: qmet.__all__."""
import qmet
from qmet import estimation


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
