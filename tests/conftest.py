"""Fixtures shared by the test modules."""

import pytest

from modpoints import fqspace


@pytest.fixture
def fresh_coxeter_generators():
    """Rebuild the cached Coxeter generators or the error of their search, the
    package's one process-wide cache, before and after a test that replaces
    the path search or counts the searches."""
    cached = fqspace._coxeter_search
    cached.cache_clear()
    yield
    cached.cache_clear()
