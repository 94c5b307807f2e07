"""Each transcribed input, when changed, fails exactly the rows that read it.

``MUTANTS`` is keyed like ``TRANSCRIBED`` in ``test_transcribed.py``, by
(module, name), where the name ``CANONICAL[TOR]`` stands for the ``"TOR"``
entry of ``picard.CANONICAL``.  Each entry holds a replacement value, a
function for a function entry, and the ids of the rows of
``checks.run_report`` whose status is then not ``pass``, so the table maps
which rows rest on which input.

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
blowup = MODULES["blowup"]
_T0, _T1 = (MODULES["poly"].MultiPoly.variable(v) for v in ("t0", "t1"))

MUTANTS = {
    # e = 3 times the torus lcm, and e's divisors are the obstruction's candidates;
    # stability.COMPONENT_GROUP_ORDER patched alone fails no row, as blowup binds it by a from import
    ("blowup", "COMPONENT_GROUP_ORDER"): (3, {"picard.obstruction", "slice.stabilizer_scan"}),
    # the half h = (n + 1) / 2 becomes 4, read when called: the codimension bound 3 does not
    # reach t^8, so the semistable series raises; the main correction prints "mod t^8"; the
    # 3-value IH fixtures are one short of what duality completes, so both assemblies raise
    ("betti", "COMPLEX_DIMENSION"): (7, {
        "betti.M_K", "betti.main_correction", "betti.routes_agree", "betti.semistable",
        "betti.tor_ordered", "betti.tor_unordered",
    }),
    # betti's value, bound by a from import: the proportionality (n + 1) L_ord - Htilde_ord / 2 - T_ord
    ("picard", "COMPLEX_DIMENSION"): (6, {"picard.identities"}),
    # the codimension bound 6 - r no longer reaches t^6, so the series raises; a base of 8 fails no row
    ("betti", "STRATIFICATION_BOUND_BASE"): (6, {"betti.M_K", "betti.routes_agree", "betti.semistable"}),
    # b_4 of the ordered IH; the ordered table has no second route
    ("betti", "IH_BB_ORDERED"): ((1, 8, 30), {"betti.tor_ordered"}),
    # b_4 of the unordered IH: the decomposition route then disagrees with Kirwan's
    ("betti", "IH_BB_UNORDERED"): ((1, 1, 3), {"betti.routes_agree", "betti.tor_unordered"}),
    # the boundary fibre, a square of planes, enters both assemblies through b_0 and b_2;
    # (1, 1, 1, 1) changes only degrees above those and fails betti.boundary alone
    ("betti", "PLANE_BETTI"): ((1, 2, 1), {"betti.boundary", "betti.routes_agree", "betti.tor_ordered", "betti.tor_unordered"}),
    # (6 T)^5 is not the row's (7 T)^5; no identity reads TOR's canonical class
    ("picard", "CANONICAL[TOR]"): (picard.pK_BB + 6 * picard.T, {"picard.obstruction"}),
    # the coefficient of Delta is log_pair_canonical's and the obstruction's 5
    ("picard", "CANONICAL[K]"): (picard.fK_GIT + 4 * picard.Delta, {"picard.identities", "picard.obstruction"}),
    ("picard", "RELATIONS[H_ord]"): (27 * picard.L_ord, {"picard.identities"}),
    # every point unstable: the locus row reads the two sides, and the scan, whose e the
    # obstruction reads, finds no semistable support and raises, so both of those error
    ("blowup", "unstable_supports"): (
        lambda: [frozenset(blowup.PROJECTIVE_COORDINATES), frozenset()],
        {"slice.unstable_locus", "slice.stabilizer_scan", "picard.obstruction"},
    ),
    # both equations composed wrongly: their gcd's radical is t0^16 - t1^16, not the row's
    # t0^8 - t1^8, and the row shows both resultants beside it
    ("blowup", "antidiag_resultants"): (
        lambda: (_T0 ** 16 - _T1 ** 16,) * 2,
        {"slice.antidiag"},
    ),
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
