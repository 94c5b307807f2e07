"""``checks.Quantities`` is the package's one memo.

Nothing in ``src/modpoints`` caches for the lifetime of the process, and a
quantity that raised is raised again, not recomputed, for as long as its
``Quantities`` lives.
"""

import ast
import traceback
from pathlib import Path

import pytest

from modpoints import checks, fqspace

PACKAGE = Path(__file__).parents[1] / "src" / "modpoints"
PROCESS_WIDE_CACHES = {"lru_cache", "cache"}


def _process_wide_caches(tree):
    """Each ``functools.lru_cache`` or ``functools.cache`` that ``tree`` imports or names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            yield from (f"functools.{a.name}" for a in node.names if a.name in PROCESS_WIDE_CACHES)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in PROCESS_WIDE_CACHES
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        ):
            yield f"functools.{node.attr}"


def test_the_package_keeps_no_process_wide_cache():
    found = {
        f"{path.stem}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _process_wide_caches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()


def test_a_raising_quantity_runs_once_per_instance_and_reraises_with_its_own_traceback(
    broken_coxeter_path, monkeypatch
):
    calls, reflection = [], fqspace.reflection
    monkeypatch.setattr(fqspace, "reflection", lambda v: calls.append(v) or reflection(v))
    quantities = checks.Quantities()
    raised, frames = [], []
    for _ in range(3):
        with pytest.raises(AssertionError, match="fails on the path") as info:
            quantities.generators()
        raised.append(info.value)
        frames.append([(f.name, f.lineno) for f in traceback.extract_tb(info.value.__traceback__)])
    assert len(calls) == 7  # one search: seven transvections
    assert raised[0] is raised[1] is raised[2]
    # every read raises from the same frames, down to the failed relation
    assert frames[0] == frames[1] == frames[2]
    assert frames[0][-1][0] == "coxeter_generators"
    # a quantity that reads the failed one raises the same error, and runs no new search
    with pytest.raises(AssertionError) as info:
        quantities.group_summary()
    assert info.value is raised[0] and len(calls) == 7
    # a new instance searches again
    with pytest.raises(AssertionError, match="fails on the path"):
        checks.Quantities().generators()
    assert len(calls) == 14
