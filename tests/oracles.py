"""Reference implementations the tests check the program against.

Each oracle is a second route to a quantity that ``modpoints`` computes
another way, or a helper only the tests need:

- ``bareiss_resultant``: the determinant of the Sylvester matrix by
  fraction-free Bareiss elimination over Q[other variables], against
  ``modpoints.poly.resultant``, which evaluates the other variables at large
  integers, runs the subresultant remainder sequence on ints and lifts the
  one integer back, at every size;
- ``subresultant_gcd``: the content recursion over the first occurring
  variable, with the contents found by the same recursion, and the
  subresultant remainder sequence of ``modpoints.poly`` on the primitive
  parts' coefficients as ``MultiPoly`` values, against ``poly_gcd``, whose
  one route is the heuristic gcd by evaluation at large integers; it calls
  no ``poly_gcd``, so it is independent of the heuristic;
- ``reflections``, ``generate_group`` and ``stabilizer``: the 28
  transvections, their breadth-first closure, all 40320 elements, and
  Stab(h) filtered from it, against ``modpoints.fqspace``, which generates
  the group by seven path transvections alone: the 8! that their Coxeter
  relations prove (``group_order``), their orbits on the nonzero vectors,
  and the orders and orbits of Stab(h) that ``stab_orbit_summary`` reads
  off the orbits of pairs (h, x); ``is_linear`` checks the enumerated
  elements, and ``compose`` multiplies permutations without the
  ``bytes.translate`` of ``fqspace``;
- ``q_planes`` and ``plane_census``: the form and its census on the first
  1, 2 or 3 hyperbolic planes, against the table ``modpoints.fqspace.q``
  and ``fqspace.census``;
- ``invert_unit``: the inverse of a truncated series (a coefficient
  tuple in u = t^2, as in ``modpoints.betti``) with constant term +-1, term
  by term; 1/(1 - u) times 1/(1 - u^2) is a second route to the series
  ``modpoints.betti.semistable_series`` builds as a ``MultiPoly`` product
  of ``projective_space`` and ``geometric``;
- ``parse_poly``: reads the canonical printing of ``MultiPoly`` back, so
  tests can write polynomials as text and check that printing round-trips;
- ``leading``: the leading term read off the largest packed monomial key,
  against the graded lexicographic maximum of the exponent tuples.
"""

import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from modpoints.fqspace import IDENTITY, SIZE, _compose, nonisotropic_vectors, reflection
from modpoints.poly import MultiPoly, _subresultant_prs, _unpack, normalize, try_divide
from modpoints.record import Record


def degree_in(p: MultiPoly, name: str) -> int:
    """The degree of p in ``name``, read off its public terms; -1 for 0."""
    if p.is_zero:
        return -1
    if name not in p.variables:
        return 0
    k = p.variables.index(name)
    return max(exponent[k] for exponent in p.terms)


def _coefficients_in(p: MultiPoly, name: str) -> Dict[int, MultiPoly]:
    """p as a polynomial in ``name``, read off its public terms: the nonzero
    coefficient of each power of ``name``, free of it."""
    k = p.variables.index(name) if name in p.variables else None
    out: Dict[int, MultiPoly] = {}
    for exponent, c in p.terms.items():
        d = 0 if k is None else exponent[k]
        rest = exponent if k is None else exponent[:k] + (0,) + exponent[k + 1:]
        out[d] = out.get(d, MultiPoly.zero()) + MultiPoly(p.variables, {rest: c})
    return out


def sylvester_matrix(f: MultiPoly, g: MultiPoly, name: str) -> list:
    """Sylvester matrix of f and g with respect to ``name``."""
    n, m = degree_in(f, name), degree_in(g, name)
    if n <= 0 and m <= 0:
        raise ValueError("both polynomials are constant in the variable")
    cf = _coefficients_in(f, name)
    cg = _coefficients_in(g, name)
    size = n + m
    zero = MultiPoly.zero()
    rows = []
    for shift in range(m):
        row = [zero] * size
        for d, c in cf.items():
            row[shift + (n - d)] = c
        rows.append(row)
    for shift in range(n):
        row = [zero] * size
        for d, c in cg.items():
            row[shift + (m - d)] = c
        rows.append(row)
    return rows


def bareiss_resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Res(f, g) in ``name`` by fraction-free Bareiss elimination."""
    n, m = degree_in(f, name), degree_in(g, name)
    if n < 0 or m < 0:
        return MultiPoly.zero()
    if n == 0:
        return f ** m
    if m == 0:
        return g ** n
    matrix = sylvester_matrix(f, g, name)
    size = len(matrix)
    sign = 1
    previous = MultiPoly.constant(1)
    for k in range(size - 1):
        if matrix[k][k].is_zero:
            pivot = next((r for r in range(k + 1, size) if not matrix[r][k].is_zero), None)
            if pivot is None:
                return MultiPoly.zero()
            matrix[k], matrix[pivot] = matrix[pivot], matrix[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                numerator = matrix[k][k] * matrix[i][j] - matrix[i][k] * matrix[k][j]
                cell = try_divide(numerator, previous)
                assert cell is not None, "Bareiss division must be exact"
                matrix[i][j] = cell
            matrix[i][k] = MultiPoly.zero()
        previous = matrix[k][k]
    return sign * matrix[size - 1][size - 1]


def _content(p: MultiPoly, name: str) -> Tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of a nonzero p in ``name``: the gcd of its
    coefficients in ``name`` by ``subresultant_gcd``, and p divided by it."""
    content = MultiPoly.zero()
    for c in _coefficients_in(p, name).values():
        content = subresultant_gcd(content, c)
        if content.is_constant:  # the coefficients are nonzero, so it is 1
            break
    return content, p // content


def subresultant_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A gcd, primitive with positive leading coefficient, by the content
    recursion over the first occurring variable and the subresultant
    remainder sequence of ``modpoints.poly`` on the coefficients of the
    primitive parts as MultiPolys; it runs no gcd of ``modpoints.poly``."""
    if p.is_zero or q.is_zero:
        return normalize(p + q)
    occurring = sorted({*p.occurring_variables(), *q.occurring_variables()})
    if not occurring:
        return MultiPoly.constant(1)
    name = occurring[0]
    (cont_p, prim_p), (cont_q, prim_q) = _content(p, name), _content(q, name)
    content = subresultant_gcd(cont_p, cont_q)
    lists = []
    for prim in (prim_p, prim_q):
        coefficients = _coefficients_in(prim, name)
        lists.append([coefficients.get(d, MultiPoly.zero()) for d in range(max(coefficients) + 1)])
    f, g = sorted(lists, key=len, reverse=True)
    if len(g) == 1:  # a primitive part free of ``name`` is 1
        return normalize(content)
    for f, g, _ in _subresultant_prs(f, g):
        pass
    tail = g or f  # the last nonzero element of the sequence
    x = MultiPoly.variable(name)
    last = sum((c * x ** k for k, c in enumerate(tail)), MultiPoly.zero())
    return normalize(content * _content(last, name)[1])


def leading(p: MultiPoly) -> Tuple[Tuple[int, ...], Fraction]:
    """The leading term of p in graded lexicographic order: the term of the
    largest packed key, which ``modpoints.poly`` orders that way."""
    if p.is_zero:
        raise ValueError("zero polynomial has no leading term")
    key = max(p._terms)
    return _unpack(key, len(p.variables)), Fraction(p._terms[key])


# ----------------------------------------------------------------------
# the orthogonal group of the GF(2) space, by enumeration

class ClosureOverflowError(RuntimeError):
    """Breadth-first closure grew past the safety bound."""


class OrthogonalGroup(Record):
    elements: Tuple[bytes, ...]
    generators: Tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=1)
def reflections() -> Tuple[bytes, ...]:
    """The 28 transvections, in ascending order of their vectors."""
    return tuple(map(reflection, nonisotropic_vectors()))


@lru_cache(maxsize=1)
def generate_group(max_elements: int = 10 ** 6) -> OrthogonalGroup:
    """Breadth-first closure of the 28 reflections.

    Generator order is fixed (ascending vector index) so element numbering
    is reproducible run to run.  Built once per test session.
    """
    generators = reflections()
    seen = {IDENTITY}
    order: List[bytes] = [IDENTITY]
    frontier = [IDENTITY]
    while frontier:
        next_frontier = []
        for element in frontier:
            for gen in generators:
                candidate = _compose(element, gen)
                if candidate not in seen:
                    seen.add(candidate)
                    order.append(candidate)
                    next_frontier.append(candidate)
                    if len(order) > max_elements:
                        raise ClosureOverflowError(
                            f"closure exceeded {max_elements} elements"
                        )
        frontier = next_frontier
    return OrthogonalGroup(tuple(order), generators)


def stabilizer(h: int) -> Tuple[bytes, ...]:
    """Stab(h) by filtering the enumerated group."""
    return tuple(p for p in generate_group().elements if p[h] == h)


def compose(p: bytes, g: bytes) -> bytes:
    """p after g, the permutation v -> p[g[v]], one vector at a time."""
    return bytes(p[v] for v in g)


def is_linear(perm: bytes) -> bool:
    # splitting off the lowest set bit, by induction on the number of bits
    return perm[0] == 0 and all(
        perm[v] == perm[v & -v] ^ perm[v & (v - 1)] for v in range(1, SIZE)
    )


def q_planes(v: int, planes: int) -> int:
    """q on the first ``planes`` hyperbolic planes."""
    total = 0
    for i in range(planes):
        total ^= (v >> (2 * i)) & (v >> (2 * i + 1)) & 1
    return total


def plane_census(planes: int) -> Tuple[int, int, int]:
    """(zero, isotropic nonzero, non-isotropic) counts on ``planes`` planes."""
    size = 1 << (2 * planes)
    isotropic = sum(1 for v in range(1, size) if q_planes(v, planes) == 0)
    return 1, isotropic, size - 1 - isotropic


# ----------------------------------------------------------------------
# truncated series

def invert_unit(coefficients: Tuple[int, ...]) -> Tuple[int, ...]:
    """The inverse of a series with constant term +-1, modulo the same power of its variable."""
    c0 = coefficients[0]
    if c0 not in (1, -1):
        raise ValueError("only series with constant term +-1 are invertible here")
    inv = [c0] + [0] * (len(coefficients) - 1)
    for k in range(1, len(coefficients)):
        acc = 0
        for j in range(1, k + 1):
            acc += coefficients[j] * inv[k - j]
        inv[k] = -c0 * acc
    return tuple(inv)


# ----------------------------------------------------------------------
# parsing polynomials

_TOKEN = re.compile(
    r"\s*(?:(?P<sign>[+-])|(?P<coeff>\d+(?:/\d+)?)|(?P<var>[A-Za-z_]\w*)(?:\^(?P<exp>\d+))?|(?P<mul>\*))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at: {text[pos:]!r}")
        pos = m.end()
        if m.group("sign"):
            tokens.append(("sign", m.group("sign")))
        elif m.group("coeff"):
            tokens.append(("coeff", Fraction(m.group("coeff"))))
        elif m.group("var"):
            tokens.append(("var", m.group("var"), int(m.group("exp") or 1)))
        else:
            tokens.append(("mul",))
    return tokens


def parse_poly(text: str) -> MultiPoly:
    """Parse ``[sign] term (sign term)*`` with terms ``coeff ('*' var^e)*``."""
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty input")
    result = MultiPoly.zero()
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        if tokens[i][0] == "sign":
            sign = -1 if tokens[i][1] == "-" else 1
            i += 1
        elif not first:
            raise ValueError("terms must be separated by + or -")
        if i >= len(tokens):
            raise ValueError("dangling sign")
        coeff = Fraction(1)
        factors: Dict[str, int] = {}
        kind = tokens[i][0]
        if kind == "coeff":
            coeff = tokens[i][1]
            i += 1
        elif kind == "var":
            factors[tokens[i][1]] = tokens[i][2]
            i += 1
        else:
            raise ValueError("a term must start with a coefficient or a variable")
        while i < len(tokens) and tokens[i][0] == "mul":
            i += 1
            if i >= len(tokens) or tokens[i][0] != "var":
                raise ValueError("'*' must be followed by a variable")
            name, e = tokens[i][1], tokens[i][2]
            factors[name] = factors.get(name, 0) + e
            i += 1
        term = MultiPoly.constant(sign * coeff)
        for name, e in factors.items():
            term = term * MultiPoly.variable(name) ** e
        result = result + term
        first = False
    return result
