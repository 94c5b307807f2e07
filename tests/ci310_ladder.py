"""The elimination ladder and the gcd, resultant and squarefree routes of
``modpoints.poly`` on Python 3.10, the declared minimum.

- 50 seeded problems of the ``elim`` workload; ``bench/checkers.py`` checks
  each answer against values computed from the construction alone.
- The gcd of two degree-10 products in Z[a, x] must give back the planted
  factor h, up to sign, for h linear and of degree 3, by the heuristic gcd
  and by the subresultant oracle of ``tests/oracles.py``.
- 30 seeded gcds of products h*c and h*d in Q[a, x, y] must equal the
  oracle's and be divisible by h, so that the trial divisions of the
  heuristic gcd run with three fields in a key.
- The resultant, by evaluation at large integers, must equal the Bareiss
  determinant of ``tests/oracles.py`` on 30 seeded pairs in Q[a, x, y].
- ``is_squarefree`` must answer the same on 30 seeded products h*c and
  h^2*c in Q[a, x, y], and on 30 more h^2*c with h free of a, by its two
  routes: with the bit guard at 0, where the gcd of p with all its partial
  derivatives answers, and with the guard so large that the integer images
  of Res_v(p, dp/dv), one for each variable v, answer every product; and it
  must find every h^2*c not squarefree.

Exits nonzero with a message on the first disagreement.  Not a pytest
module; run it from the repository root:

    PYTHONPATH=src:bench:tests python3.10 -B tests/ci310_ladder.py
"""

import random
import sys
from fractions import Fraction
from checkers import check_elim
from ladder import VARIABLES, _distinct_roots, from_roots, make_problem, poly_mul, prepare, solve
from modpoints import poly
from oracles import bareiss_resultant, subresultant_gcd
rng = random.Random(1)
for _ in range(50):
    problem = make_problem(rng)
    problems = check_elim(problem, solve(poly, prepare(poly, problem)))
    if problems:
        sys.exit("elim ladder failed: " + "; ".join(problems))
print("elim ladder: 50 problems checked")
for k in (1, 3):
    roots = _distinct_roots(rng, 20 - k)
    h = from_roots(roots[:k])
    p = poly.MultiPoly(VARIABLES, poly_mul(h, from_roots(roots[k:10])))
    q = poly.MultiPoly(VARIABLES, poly_mul(h, from_roots(roots[10:])))
    planted = poly.MultiPoly(VARIABLES, h)
    for gcd in (poly.poly_gcd, subresultant_gcd):
        g = gcd(p, q)
        if g != planted and g != -planted:
            sys.exit(f"degree-10 {gcd.__name__} with a planted degree-{k} factor gave {g}, not +-({planted})")
print("degree-10 gcds: planted factors of degree 1 and 3 found by both routes")

def rational_poly():
    terms = {tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for _ in range(rng.randint(1, 6))}
    return poly.MultiPoly(("a", "x", "y"), terms)

for _ in range(30):
    h = rational_poly()
    while h.is_constant:
        h = rational_poly()
    p, q = h * rational_poly(), h * rational_poly()
    g, expected = poly.poly_gcd(p, q), subresultant_gcd(p, q)
    if g != expected or poly.try_divide(g, h) is None:
        sys.exit(f"gcd({p}, {q}) gave {g}; the subresultant oracle gives {expected}, and the planted factor is {h}")
print("gcds: 30 planted products in Q[a, x, y] agree with the subresultant oracle")

for _ in range(30):
    f, g = rational_poly(), rational_poly()
    res, det = poly.resultant(f, g, "x"), bareiss_resultant(f, g, "x")
    if res != det:
        sys.exit(f"Res_x({f}, {g}) gave {res}, but the Bareiss determinant is {det}")
print("resultants: 30 pairs in Q[a, x, y] equal their Bareiss determinants")

def non_constant(keep_a=True):
    while True:
        p = rational_poly() if keep_a else rational_poly().specialize("a", 1)
        if not p.is_constant:
            return p

products = []
for _ in range(30):
    h, c = non_constant(), non_constant()
    products += [h * c, h * h * c]
for _ in range(30):
    h = non_constant(keep_a=False)
    products.append(h * h * non_constant())
guard = poly.HEURISTIC_BITS
answers = {}
for bits in (0, 1 << 40):
    poly.HEURISTIC_BITS = bits
    answers[bits] = [poly.is_squarefree(p) for p in products]
poly.HEURISTIC_BITS = guard
for p, by_gcd, by_image in zip(products, answers[0], answers[1 << 40]):
    if by_gcd != by_image:
        sys.exit(f"is_squarefree({p}) gave {by_gcd} by the gcd route (bit guard 0) and {by_image} by the resultant image")
if any(answers[0][1:60:2]) or any(answers[0][60:]):
    sys.exit("is_squarefree found a product h^2*c in Q[a, x, y] squarefree")
print("squarefree: 30 products h*c and h^2*c in Q[a, x, y], and 30 h^2*c with h free of a, agree by the gcd route and by the resultant images")
