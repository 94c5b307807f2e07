"""Seeded inputs for the ``elim`` workload.

One problem holds an instance at every rung of a fixed size ladder, so all
operations cost about the same.  Polynomials live in Z[a, x]: ``x`` is
eliminated and ``a`` is a parameter.  Every planted root is linear in the
parameter, r(a) = c + d*a with d != 0, and the roots of one problem are
distinct, so the expected answers are known from the construction alone:

* Res_x(f, g) = prod g(r_i) for monic f with planted roots r_i;
* Res_x(f, f') = (-1)^(n(n-1)/2) prod_{i<j} (r_i - r_j)^2;
* gcd(h*c, h*d) = +-h when h, c and d have no root in common;
* h*c is squarefree, and h*c*(x - r) is not when r is a root of h*c.

Polynomials here are plain dicts {(deg_a, deg_x): int}; the program only
ever receives them through its public ``MultiPoly`` constructor.  This module
does not import modpoints: ``prepare`` and ``solve`` take its ``poly`` module
as an argument, so the caller chooses which checkout is measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

VARIABLES = ("a", "x")

# deg g against a quadratic f: Sylvester sizes 4, 6, 10 and 18, the last
# being the 2 x 16 elimination of the slice suite's antidiagonal constraint.
RESULTANT_DEGREES = (2, 4, 8, 16)
RESULTANT_F_DEGREE = 2
# deg f for Res(f, f'): Sylvester sizes 5 and 7.
DISCRIMINANT_DEGREES = (3, 4)
# (deg of the planted common factor h, deg of each cofactor c and d).
GCD_SHAPES = ((1, 1), (2, 1))

COEFF_RANGE = 9

Poly = Dict[Tuple[int, int], int]
Root = Tuple[int, int]  # (c, d): the root c + d*a


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for (pa, px), u in p.items():
        for (qa, qx), v in q.items():
            key = (pa + qa, px + qx)
            out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def from_roots(roots) -> Poly:
    """prod (x - c - d*a), monic in x."""
    p: Poly = {(0, 0): 1}
    for c, d in roots:
        p = poly_mul(p, {(0, 1): 1, (0, 0): -c, (1, 0): -d})
    return p


def derivative_x(p: Poly) -> Poly:
    return {(ea, ex - 1): ex * v for (ea, ex), v in p.items() if ex}


@dataclass(frozen=True)
class Problem:
    resultants: Tuple[Tuple[Tuple[Root, ...], Tuple[int, ...]], ...]  # (roots of f, coefficients of g)
    discriminants: Tuple[Tuple[Root, ...], ...]  # roots of f
    gcds: Tuple[Tuple[Tuple[Root, ...], Tuple[Root, ...], Tuple[Root, ...]], ...]  # roots of h, c, d


def _distinct_roots(rng: random.Random, n: int) -> Tuple[Root, ...]:
    roots = []
    while len(roots) < n:
        root = (rng.randint(-COEFF_RANGE, COEFF_RANGE), rng.randint(1, COEFF_RANGE))
        if root not in roots:
            roots.append(root)
    return tuple(roots)


def make_problem(rng: random.Random) -> Problem:
    resultants = []
    for m in RESULTANT_DEGREES:
        roots = _distinct_roots(rng, RESULTANT_F_DEGREE)
        g = tuple(rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(m))
        resultants.append((roots, g + (rng.randint(1, COEFF_RANGE),)))
    discriminants = tuple(_distinct_roots(rng, n) for n in DISCRIMINANT_DEGREES)
    gcds = []
    for k, j in GCD_SHAPES:
        roots = _distinct_roots(rng, k + 2 * j)
        gcds.append((roots[:k], roots[k:k + j], roots[k + j:]))
    return Problem(tuple(resultants), discriminants, tuple(gcds))


def g_poly(coefficients: Tuple[int, ...]) -> Poly:
    return {(0, i): c for i, c in enumerate(coefficients) if c}


def inputs(problem: Problem) -> Dict[str, list]:
    """Every polynomial the program is handed, as dicts, by ladder rung."""
    gcd_inputs = []
    for h_roots, c_roots, d_roots in problem.gcds:
        h = from_roots(h_roots)
        p = poly_mul(h, from_roots(c_roots))
        gcd_inputs.append((p, poly_mul(h, from_roots(d_roots)), poly_mul(p, from_roots(h_roots[:1]))))
    return {
        "resultant": [(from_roots(roots), g_poly(g)) for roots, g in problem.resultants],
        "discriminant": [
            (f, derivative_x(f)) for f in (from_roots(roots) for roots in problem.discriminants)
        ],
        "gcd": gcd_inputs,  # (h*c, h*d, h*c*(x - r)) with r a root of h
    }


def prepare(poly, problem: Problem) -> Dict[str, list]:
    """The inputs as the program's polynomials (built before any timing)."""
    return {
        rung: [tuple(poly.MultiPoly(VARIABLES, p) for p in polys) for polys in cases]
        for rung, cases in inputs(problem).items()
    }


def solve(poly, given: Dict[str, list]) -> Dict[str, list]:
    """One operation: every call the program makes for one problem."""
    return {
        "resultant": [poly.resultant(f, g, "x") for f, g in given["resultant"]],
        "discriminant": [poly.resultant(f, df, "x") for f, df in given["discriminant"]],
        "gcd": [poly.poly_gcd(p, q) for p, q, _ in given["gcd"]],
        "squarefree": [
            (poly.is_squarefree(p), poly.is_squarefree(repeated)) for p, _, repeated in given["gcd"]
        ],
    }
