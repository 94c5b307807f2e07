"""Checks of the program's outputs that compute their expected values apart
from the program.

Each ``check_*`` function returns a list of problems; an empty list means
the output is accepted.  Reports are read by check ``id`` and unknown
fields are ignored, so a report that grows new fields stays checkable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Sequence

from ladder import VARIABLES, Problem, from_roots

SUITES = ("stability", "fq", "slice", "betti", "picard")


# ----------------------------------------------------------------------
# the quadratic space (F_2)^6 with form x1 x2 + x3 x4 + x5 x6

def _coords(v: int) -> List[int]:
    return [(v >> i) & 1 for i in range(6)]


def _form(v: int) -> int:
    x = _coords(v)
    return (x[0] * x[1] + x[2] * x[3] + x[4] * x[5]) % 2


def _pairing(u: int, v: int) -> int:
    x, y = _coords(u), _coords(v)
    return sum(x[2 * i] * y[2 * i + 1] + x[2 * i + 1] * y[2 * i] for i in range(3)) % 2


def fq_facts() -> Dict[str, object]:
    """Census, perp censuses and group order, by enumerating all 64 vectors."""
    isotropic = [v for v in range(1, 64) if _form(v) == 0]
    nonisotropic = [v for v in range(1, 64) if _form(v) == 1]
    perps = set()
    for h in isotropic:
        perp = [v for v in range(1, 64) if _pairing(v, h) == 0]
        perps.add((sum(1 for v in perp if _form(v) == 0), sum(1 for v in perp if _form(v) == 1)))
    # |O+_{2n}(q)| = 2 q^(n(n-1)) (q^n - 1) prod_{i<n} (q^(2i) - 1), n = 3, q = 2
    n, q = 3, 2
    order = 2 * q ** (n * (n - 1)) * (q ** n - 1) * math.prod(q ** (2 * i) - 1 for i in range(1, n))
    return {
        "census": [1, len(isotropic), len(nonisotropic)],
        "perps": perps,
        "order": order,
        "stabilizer": order // len(isotropic),
    }


# ----------------------------------------------------------------------
# reports of ``modpoints run``

def _by_id(report) -> Dict[str, dict]:
    return {
        check.get("id"): check
        for suite in report.get("suites", [])
        for check in suite.get("checks", [])
    }


def _expect(problems: List[str], what: str, actual, expected) -> None:
    if actual != expected:
        problems.append(f"{what}: got {actual!r}, expected {expected!r}")


def _payload(checks: Dict[str, dict], check_id: str, problems: List[str]):
    if check_id not in checks:
        problems.append(f"check {check_id} is missing")
        return None
    return checks[check_id].get("payload")


def check_fq(checks: Dict[str, dict]) -> List[str]:
    facts = fq_facts()
    problems: List[str] = []
    _expect(problems, "fq.census", _payload(checks, "fq.census", problems), facts["census"])
    (perp,) = facts["perps"]
    _expect(problems, "fq.perp", _payload(checks, "fq.perp", problems), list(perp))
    _expect(problems, "fq.group_order", _payload(checks, "fq.group_order", problems), facts["order"])
    _expect(
        problems,
        "fq.orbits",
        _payload(checks, "fq.orbits", problems),
        {"isotropic": facts["census"][1], "nonisotropic": facts["census"][2]},
    )
    _expect(problems, "fq.stabilizer", _payload(checks, "fq.stabilizer", problems), facts["stabilizer"])
    summary = _payload(checks, "fq.stab_transitivity", problems) or {}
    _expect(problems, "fq.stab_transitivity order", summary.get("stabilizer_order"), facts["stabilizer"])
    _expect(problems, "fq.stab_transitivity orbits", summary.get("nonisotropic_orbits"), 1)
    return problems


def check_picard(checks: Dict[str, dict]) -> List[str]:
    problems: List[str] = []
    numbers = _payload(checks, "picard.intersections", problems) or {}
    cusps = fq_facts()["census"][1]
    try:
        component = Fraction(numbers.get("component"))
        _expect(problems, "T_i^5", component, Fraction(6))
        _expect(problems, "T_ord^5", Fraction(numbers.get("ordered")), cusps * component)
        # T^5 = 35 * 6 / 8!
        _expect(problems, "T^5", Fraction(numbers.get("unordered")), Fraction(cusps * 6, math.factorial(8)))
    except (TypeError, ValueError) as exc:
        problems.append(f"picard.intersections: unreadable payload ({exc})")
    return problems


def check_betti(checks: Dict[str, dict]) -> List[str]:
    problems: List[str] = []
    kirwan = _payload(checks, "betti.M_K", problems)
    routes = _payload(checks, "betti.routes_agree", problems) or {}
    decomposition = _payload(checks, "betti.tor_unordered", problems)
    if not isinstance(kirwan, list) or not kirwan or kirwan[0] != 1:
        problems.append(f"betti.M_K: not a Betti table: {kirwan!r}")
    elif kirwan != kirwan[::-1]:
        problems.append(f"betti.M_K: {kirwan} is not palindromic")
    _expect(problems, "betti.tor_unordered", decomposition, kirwan)
    _expect(problems, "betti.routes_agree kirwan", routes.get("kirwan"), kirwan)
    _expect(problems, "betti.routes_agree decomposition", routes.get("decomposition"), kirwan)
    return problems


def check_slice(checks: Dict[str, dict]) -> List[str]:
    problems: List[str] = []
    _expect(
        problems,
        "slice.multiplicity",
        _payload(checks, "slice.multiplicity", problems),
        {"P": 6, "Q": 6, "R": 6},
    )
    crossing = _payload(checks, "slice.transversality", problems) or {}
    for chart, offending in (("P", {"u0", "u1"}), ("Q", {"u0", "u1"}), ("R", {"u1"})):
        report = crossing.get(chart) or {}
        _expect(problems, f"slice.transversality {chart} offending", set(report.get("offending", ())), offending)
        _expect(problems, f"slice.transversality {chart} squarefree", report.get("squarefree"), False)
    _expect(problems, "slice.antidiag", _payload(checks, "slice.antidiag", problems), "t0^8 - t1^8")
    return problems


CONTENT_CHECKS = {"fq": check_fq, "slice": check_slice, "betti": check_betti, "picard": check_picard}


def check_report(report, suites: Sequence[str]) -> List[str]:
    """Problems with a ``run --format json`` report of the named suites."""
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    problems: List[str] = []
    _expect(problems, "suites", [s.get("name") for s in report.get("suites", [])], list(suites))
    checks = _by_id(report)
    if not checks:
        problems.append("report has no checks")
    for check_id, check in checks.items():
        if check.get("status") != "pass":
            problems.append(f"check {check_id} has status {check.get('status')!r}")
    for suite in suites:
        if suite in CONTENT_CHECKS:
            problems += CONTENT_CHECKS[suite](checks)
    return problems


# ----------------------------------------------------------------------
# the elim ladder

def _as_dict(poly, problems: List[str], what: str) -> Dict:
    """{(deg_a, deg_x): coefficient} read through the public accessors."""
    names = poly.variables
    out = {}
    for exponent, coefficient in poly.terms.items():
        degrees = dict(zip(names, exponent))
        if any(e for v, e in degrees.items() if v not in VARIABLES):
            problems.append(f"{what}: stray variable in {poly}")
        out[(degrees.get("a", 0), degrees.get("x", 0))] = coefficient
    return out


def _check_in_a(problems: List[str], what: str, terms: Dict, bound: int, expected) -> None:
    """``terms`` is a polynomial in a of degree <= bound equal to ``expected(a)``.

    Two such polynomials that agree at bound + 1 points are equal.
    """
    if any(ex for _, ex in terms):
        problems.append(f"{what}: x was not eliminated")
        return
    degree = max((ea for ea, _ in terms), default=-1)
    if degree > bound:
        problems.append(f"{what}: degree {degree} in a exceeds {bound}")
        return
    for t in range(bound + 1):
        value = sum(c * Fraction(t) ** ea for (ea, _), c in terms.items())
        if value != expected(t):
            problems.append(f"{what}: wrong value at a = {t}")
            return


def _at(root, t):
    c, d = root
    return c + d * Fraction(t)


def check_elim(problem: Problem, outputs: Dict[str, list]) -> List[str]:
    """Problems with the program's answers to one ladder problem."""
    problems: List[str] = []
    for (roots, g), res in zip(problem.resultants, outputs["resultant"], strict=True):
        m = len(g) - 1

        def product_of_g(t, roots=roots, g=g):
            return math.prod(sum(c * _at(r, t) ** i for i, c in enumerate(g)) for r in roots)

        what = f"Res(f, g) with deg g = {m}"
        _check_in_a(problems, what, _as_dict(res, problems, what), len(roots) * m, product_of_g)
    for roots, res in zip(problem.discriminants, outputs["discriminant"], strict=True):
        n = len(roots)
        sign = (-1) ** (n * (n - 1) // 2)

        def discriminant(t, roots=roots, sign=sign):
            return sign * math.prod((_at(r, t) - _at(s, t)) ** 2 for r, s in combinations(roots, 2))

        what = f"Res(f, f') with deg f = {n}"
        _check_in_a(problems, what, _as_dict(res, problems, what), n * (n - 1), discriminant)
    for (h_roots, _, _), gcd, squarefree in zip(
        problem.gcds, outputs["gcd"], outputs["squarefree"], strict=True
    ):
        what = f"gcd with a planted factor of degree {len(h_roots)}"
        h = from_roots(h_roots)
        got = _as_dict(gcd, problems, what)
        if got != h and got != {k: -v for k, v in h.items()}:
            problems.append(f"{what}: got {gcd}")
        _expect(problems, f"is_squarefree ({what})", tuple(squarefree), (True, False))
    return problems

