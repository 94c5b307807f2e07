"""Fixtures shared by the test modules."""

import pytest

from modpoints import fqspace


@pytest.fixture
def broken_coxeter_path(monkeypatch):
    """The A7 path with its first two vectors swapped, which fails the Coxeter relations."""
    path = fqspace._a7_path()
    monkeypatch.setattr(fqspace, "_a7_path", lambda: (path[1], path[0]) + path[2:])
