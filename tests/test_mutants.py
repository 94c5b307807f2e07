"""Each transcribed input, when changed, fails exactly the rows that read it.

``MUTANTS`` is keyed like ``TRANSCRIBED`` in ``test_transcribed.py``, by
(module, name), where the name ``CANONICAL[TOR]`` stands for the ``"TOR"``
entry of ``picard.CANONICAL``.  Each entry holds a replacement value and the
ids of the rows of ``checks.run_report`` whose status is then not ``pass``,
so the table maps which rows rest on which input.

A module attribute is patched with ``mock.patch.object``, a registry entry
with ``mock.patch.dict``.  Every module is imported before any patch, so
that no lazy import in the report binds a name while it is patched, and
``run_report`` reads a fresh ``Quantities`` for each mutant.  A value bound
by a ``from`` import is patched in the module of the reader that looks it
up, since patching the defining module alone reaches no reader.
"""

import importlib
import pkgutil
from unittest import mock

import pytest

import modpoints
from modpoints import checks

MODULES = {info.name: importlib.import_module(f"modpoints.{info.name}") for info in pkgutil.iter_modules(modpoints.__path__)}
picard = MODULES["picard"]

MUTANTS = {
    # e = 3 times the torus lcm, and e's divisors are the obstruction's candidates;
    # stability.COMPONENT_GROUP_ORDER patched alone fails no row, as blowup binds it by a from import
    ("blowup", "COMPONENT_GROUP_ORDER"): (3, {"picard.obstruction", "slice.stabilizer_scan"}),
    # duality asks for more low-degree values than the series has, and the IH tables are too short
    ("betti", "COMPLEX_DIMENSION"): (7, {"betti.M_K", "betti.routes_agree", "betti.tor_ordered", "betti.tor_unordered"}),
    # betti's value, bound by a from import: the proportionality (n + 1) L_ord - Htilde_ord / 2 - T_ord
    ("picard", "COMPLEX_DIMENSION"): (6, {"picard.identities"}),
    # main_correction prints "mod t^8"; the codimension bound does not reach t^8, so the series raises
    ("betti", "TRUNCATION_ORDER"): (8, {"betti.M_K", "betti.main_correction", "betti.routes_agree", "betti.semistable"}),
    # the codimension bound 6 - r no longer reaches t^6, so the series raises; a base of 8 fails no row
    ("betti", "STRATIFICATION_BOUND_BASE"): (6, {"betti.M_K", "betti.routes_agree", "betti.semistable"}),
    # the ordered table has no second route
    ("betti", "IH_BB_ORDERED"): ((1, 8, 30, 30, 8, 1), {"betti.tor_ordered"}),
    ("betti", "IH_BB_UNORDERED"): ((1, 1, 3, 3, 1, 1), {"betti.routes_agree", "betti.tor_unordered"}),
    # the boundary fibre, a square of planes, enters both assemblies
    ("betti", "PLANE_BETTI"): ((1, 1, 1, 1), {"betti.boundary", "betti.routes_agree", "betti.tor_ordered", "betti.tor_unordered"}),
    # (6 T)^5 is not the row's (7 T)^5; no identity reads TOR's canonical class
    ("picard", "CANONICAL[TOR]"): (picard.pK_BB + 6 * picard.T, {"picard.obstruction"}),
    # the coefficient of Delta is log_pair_canonical's and the obstruction's 5
    ("picard", "CANONICAL[K]"): (picard.fK_GIT + 4 * picard.Delta, {"picard.identities", "picard.obstruction"}),
    ("picard", "RELATIONS[H_ord]"): (27 * picard.L_ord, {"picard.identities"}),
}


def _patch(module, name, value):
    module = MODULES[module]
    if "[" not in name:
        return mock.patch.object(module, name, value)
    table, key = name.rstrip("]").split("[")
    registry = getattr(module, table)
    assert key in registry, name  # patch.dict would add a misspelt entry
    return mock.patch.dict(registry, {key: value})


def _not_passing():
    report = checks.run_report(list(checks.SUITE_NAMES))
    return {check["id"] for suite in report["suites"] for check in suite["checks"] if check["status"] != "pass"}


def test_an_unpatched_run_passes_every_row():
    assert _not_passing() == set()


@pytest.mark.parametrize("key", MUTANTS, ids=".".join)
def test_a_mutant_fails_exactly_its_rows(key):
    value, rows = MUTANTS[key]
    with _patch(*key, value):
        assert _not_passing() == rows
