"""Shared fixtures."""
import numpy as np
import pytest


@pytest.fixture
def eigensolves(monkeypatch):
    """A list that gains one entry per np.linalg.eigh or eigvalsh call.

    The LAPACK entry points themselves are counted, so a solve cannot slip
    past the count by going around a package wrapper.
    """
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def philox_builds(monkeypatch):
    """A list that gains one entry per np.random.Philox construction."""
    builds = []

    # the state setter checks the class name, so the subclass keeps it
    class Philox(np.random.Philox):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs.get("key"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", Philox)
    return builds
