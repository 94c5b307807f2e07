"""Each checker accepts the program's real output and rejects a wrong one.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

Runs ``modpoints run all`` and ``run slice`` once each, and solves one
``elim`` problem, then corrupts each answer a checker is responsible for.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

from checkers import SUITES, check_elim, check_report  # noqa: E402
from ladder import make_problem, prepare, solve  # noqa: E402
from modpoints import poly  # noqa: E402

_reports = {}


def report(suite: str) -> dict:
    if suite not in _reports:
        out = subprocess.run(
            [sys.executable, "-m", "modpoints.cli", "run", suite, "--format", "json"],
            capture_output=True, check=True, env={"PYTHONPATH": str(SRC)},
        ).stdout
        _reports[suite] = json.loads(out)
    return copy.deepcopy(_reports[suite])


def check_by_id(rep: dict, check_id: str) -> dict:
    return next(c for s in rep["suites"] for c in s["checks"] if c["id"] == check_id)


def rejects(rep: dict, suites=SUITES) -> bool:
    return bool(check_report(rep, suites))


# ----------------------------------------------------------------------
# run all and run slice reports

def test_real_reports_are_accepted():
    assert check_report(report("all"), SUITES) == []
    assert check_report(report("slice"), ("slice",)) == []


def test_unknown_fields_are_ignored():
    rep = report("slice")
    rep["generated_by"] = "a later schema"
    for suite in rep["suites"]:
        for check in suite["checks"]:
            check["expected"] = check["payload"]
    assert check_report(rep, ("slice",)) == []


def test_failed_status_is_rejected():
    rep = report("all")
    check_by_id(rep, "stability.table")["status"] = "fail"
    assert rejects(rep)


def test_missing_suite_is_rejected():
    rep = report("all")
    rep["suites"] = rep["suites"][:-1]
    assert rejects(rep)


def test_wrong_group_order_is_rejected():
    rep = report("all")
    check_by_id(rep, "fq.group_order")["payload"] = 40319
    assert rejects(rep)


def test_wrong_census_is_rejected():
    rep = report("all")
    check_by_id(rep, "fq.census")["payload"] = [1, 36, 27]
    assert rejects(rep)
    rep = report("all")
    check_by_id(rep, "fq.perp")["payload"] = [18, 13]
    assert rejects(rep)


def test_wrong_orbit_sizes_are_rejected():
    rep = report("all")
    check_by_id(rep, "fq.orbits")["payload"] = {"isotropic": 28, "nonisotropic": 35}
    assert rejects(rep)


def test_wrong_stabilizer_is_rejected():
    rep = report("all")
    check_by_id(rep, "fq.stabilizer")["payload"] = 1151
    assert rejects(rep)
    rep = report("all")
    check_by_id(rep, "fq.stab_transitivity")["payload"]["nonisotropic_orbits"] = 2
    assert rejects(rep)


def test_wrong_self_intersection_is_rejected():
    rep = report("all")
    check_by_id(rep, "picard.intersections")["payload"]["unordered"] = "1/191"
    assert rejects(rep)
    rep = report("all")
    check_by_id(rep, "picard.intersections")["payload"]["ordered"] = "211"
    assert rejects(rep)
    rep = report("all")
    check_by_id(rep, "picard.intersections")["payload"]["component"] = "5"
    assert rejects(rep)


def test_wrong_betti_tables_are_rejected():
    rep = report("all")
    check_by_id(rep, "betti.M_K")["payload"] = [1, 2, 3, 3, 2, 2]  # not palindromic
    assert rejects(rep)
    rep = report("all")
    check_by_id(rep, "betti.routes_agree")["payload"]["decomposition"] = [1, 2, 4, 4, 2, 1]
    assert rejects(rep)


def test_wrong_slice_results_are_rejected():
    rep = report("slice")
    check_by_id(rep, "slice.multiplicity")["payload"]["Q"] = 5
    assert rejects(rep, ("slice",))
    rep = report("slice")
    check_by_id(rep, "slice.transversality")["payload"]["R"]["offending"] = ["u0", "u1"]
    assert rejects(rep, ("slice",))
    rep = report("slice")
    check_by_id(rep, "slice.antidiag")["payload"] = "t0^8 + t1^8"
    assert rejects(rep, ("slice",))


# ----------------------------------------------------------------------
# the elim ladder

def solved_problem():
    problem = make_problem(random.Random(7))
    return problem, solve(poly, prepare(poly, problem))


def test_real_elim_answers_are_accepted():
    problem, outputs = solved_problem()
    assert check_elim(problem, outputs) == []


def test_wrong_resultant_is_rejected():
    problem, outputs = solved_problem()
    a = poly.MultiPoly.variable("a")
    for wrong in (outputs["resultant"][-1] + a ** 3, outputs["resultant"][-1] * poly.MultiPoly.variable("x")):
        bad = dict(outputs, resultant=outputs["resultant"][:-1] + [wrong])
        assert check_elim(problem, bad)


def test_discriminant_sign_is_checked():
    problem, outputs = solved_problem()
    bad = dict(outputs, discriminant=[-outputs["discriminant"][0]] + outputs["discriminant"][1:])
    assert check_elim(problem, bad)


def test_wrong_gcd_is_rejected():
    problem, outputs = solved_problem()
    x = poly.MultiPoly.variable("x")
    bad = dict(outputs, gcd=[outputs["gcd"][0] * (x - 1)] + outputs["gcd"][1:])
    assert check_elim(problem, bad)


def test_wrong_squarefree_verdict_is_rejected():
    problem, outputs = solved_problem()
    bad = dict(outputs, squarefree=[(True, True)] + outputs["squarefree"][1:])
    assert check_elim(problem, bad)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError:
            failures += 1
            print(f"FAIL {name}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    sys.exit(1 if failures else 0)
