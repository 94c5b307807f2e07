"""Polynomial engine tests: ring axioms, oracles, and frozen identities."""

import random
from fractions import Fraction
from itertools import groupby, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modpoints.poly import (
    ExponentOverflowError,
    MultiPoly,
    discriminant_quartic,
    extract_exceptional,
    is_squarefree,
    parse_poly,
    poly_gcd,
    resultant,
    squarefree_part,
    sylvester_matrix,
    try_divide,
    variables,
)


# ----------------------------------------------------------------------
# independent oracles

def naive_mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Term-by-term re-expansion, combined by sorting instead of hashing."""
    vs = tuple(sorted(set(p.variables) | set(q.variables)))
    pt = MultiPoly.zero(vs) + p
    qt = MultiPoly.zero(vs) + q
    raw = []
    for ea, ca in pt.terms.items():
        for eb, cb in qt.terms.items():
            raw.append((tuple(x + y for x, y in zip(ea, eb)), ca * cb))
    raw.sort(key=lambda item: item[0])
    combined = {}
    for exponent, chunk in groupby(raw, key=lambda item: item[0]):
        total = sum(c for _, c in chunk)
        if total:
            combined[exponent] = total
    return MultiPoly(vs, combined)


def naive_derivative(p: MultiPoly, name: str) -> MultiPoly:
    vs = p.variables
    i = vs.index(name)
    terms = {}
    for exp, coeff in p.terms.items():
        if exp[i]:
            lowered = exp[:i] + (exp[i] - 1,) + exp[i + 1:]
            terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * exp[i]
    return MultiPoly(vs, terms)


def random_poly(rng, names=("x", "y", "z"), max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in names)
        terms[exp] = Fraction(rng.randint(-5, 5))
    return MultiPoly(tuple(sorted(names)), terms)


def slice_discriminants():
    a0, a1, b0, b1, g0, g1 = variables(
        "alpha0", "alpha1", "beta0", "beta1", "gamma0", "gamma1"
    )
    return discriminant_quartic(a0, b0, g0), discriminant_quartic(a1, b1, g1)


# ----------------------------------------------------------------------
# arithmetic

def test_binomial_square():
    x, y = variables("x", "y")
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2


def test_multiplication_by_zero_absorbs():
    x, y = variables("x", "y")
    p = 3 * x ** 2 - y + 7
    assert p * MultiPoly.zero() == MultiPoly.zero()


def test_discriminant_product_matches_naive_multiplier():
    f0, f1 = slice_discriminants()
    assert f0 * f1 == naive_mul(f0, f1)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(20240817)
    for _ in range(60):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_exponent_overflow_is_hard_error():
    x, = variables("x")
    with pytest.raises(ExponentOverflowError):
        MultiPoly(("x",), {(1 << 16,): Fraction(1)})
    with pytest.raises(ExponentOverflowError):
        big = MultiPoly(("x",), {(1 << 15,): Fraction(1)})
        _ = big * big


# ----------------------------------------------------------------------
# substitution

def test_identity_substitution():
    f0, _ = slice_discriminants()
    mapping = {v: MultiPoly.variable(v) for v in f0.occurring_variables()}
    assert f0.substitute(mapping) == f0


def test_substituting_zero_drops_a_variable():
    x, y = variables("x", "y")
    p = x * (y ** 2 + 3) + (y - 5)
    assert p.substitute({"x": 0, "y": y}) == y - 5


def test_substitution_is_a_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(30):
        p = random_poly(rng, names=("x", "y"))
        q = random_poly(rng, names=("x", "y"))
        x_image = random_poly(rng, names=("u", "v"), max_terms=2, max_exp=2)
        y_image = random_poly(rng, names=("u", "v"), max_terms=2, max_exp=2)
        sub = {"x": x_image, "y": y_image}
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


def test_substitution_requires_total_assignment():
    x, y = variables("x", "y")
    with pytest.raises(ValueError):
        (x + y).substitute({"x": y})


# ----------------------------------------------------------------------
# derivatives

def test_power_rule():
    x, = variables("x")
    assert (x ** 3).partial_derivative("x") == 3 * x ** 2


def test_derivative_of_constant_in_a_ring_with_x():
    const = MultiPoly.constant(5, variables=("x",))
    assert const.partial_derivative("x") == MultiPoly.zero()


def test_derivative_of_unknown_variable_errors():
    x, = variables("x")
    with pytest.raises(ValueError):
        x.partial_derivative("nope")


def test_quartic_discriminant_gamma_derivative():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    d = discriminant_quartic(a0, b0, g0)
    expected = 768 * g0 ** 2 - 256 * a0 ** 2 * g0 + 144 * a0 * b0 ** 2 + 16 * a0 ** 4
    assert d.partial_derivative("gamma0") == expected
    assert d.partial_derivative("gamma0") == naive_derivative(d, "gamma0")


# ----------------------------------------------------------------------
# the quartic discriminant against the resultant oracle

def test_discriminant_constant_case():
    assert discriminant_quartic(0, 0, -1) == MultiPoly.constant(-256)


def test_discriminant_displayed_form():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    d = discriminant_quartic(a0, b0, g0)
    expected = (
        256 * g0 ** 3
        - 128 * a0 ** 2 * g0 ** 2
        + 144 * a0 * b0 ** 2 * g0
        - 27 * b0 ** 4
        + 16 * a0 ** 4 * g0
        - 4 * a0 ** 3 * b0 ** 2
    )
    assert d == expected


def _monic_quartic(alpha, beta, gamma):
    x = MultiPoly.variable("x")
    return x ** 4 + alpha * x ** 2 + beta * x + gamma


def test_discriminant_matches_sylvester_resultant_symbolically():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    f = _monic_quartic(a0, b0, g0)
    assert resultant(f, f.partial_derivative("x"), "x") == discriminant_quartic(a0, b0, g0)


def test_discriminant_matches_resultant_on_random_integer_triples():
    rng = random.Random(12345)
    for _ in range(25):
        a, b, g = (rng.randint(-9, 9) for _ in range(3))
        f = _monic_quartic(MultiPoly.constant(a), MultiPoly.constant(b), MultiPoly.constant(g))
        res = resultant(f, f.partial_derivative("x"), "x")
        assert res == discriminant_quartic(a, b, g)


def test_sylvester_matrix_shape():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    f = _monic_quartic(a0, b0, g0)
    m = sylvester_matrix(f, f.partial_derivative("x"), "x")
    assert len(m) == 7 and all(len(row) == 7 for row in m)


def test_discriminant_vanishes_exactly_at_repeated_roots():
    # exhaustive over small integer coefficients
    for a, b, g in product(range(-3, 4), repeat=3):
        f = _monic_quartic(MultiPoly.constant(a), MultiPoly.constant(b), MultiPoly.constant(g))
        gcd = poly_gcd(f, f.partial_derivative("x"))
        has_repeated_root = not gcd.is_constant
        assert (discriminant_quartic(a, b, g) == 0) == has_repeated_root


# ----------------------------------------------------------------------
# extraction of coordinate powers

def test_extract_exceptional_basic():
    x, y = variables("x", "y")
    assert extract_exceptional(x ** 2 * y, "x") == (2, y)


def test_extract_exceptional_free_variable():
    x, y = variables("x", "y")
    p = y ** 2 + 1
    assert extract_exceptional(p, "x") == (0, p)


def test_extract_exceptional_round_trip():
    rng = random.Random(7)
    x, = variables("x")
    for _ in range(40):
        p = random_poly(rng)
        if p.is_zero:
            continue
        k, q = extract_exceptional(p, "x")
        assert x ** k * q == p
        assert extract_exceptional(q, "x")[0] == 0


def test_extract_exceptional_rejects_zero():
    with pytest.raises(ValueError):
        extract_exceptional(MultiPoly.zero(), "x")


# ----------------------------------------------------------------------
# gcd and squarefreeness

def test_gcd_with_zero_normalizes():
    x, = variables("x")
    assert poly_gcd(6 * x ** 2 - 6, MultiPoly.zero()) == x ** 2 - 1


def test_gcd_of_monomials():
    x, y = variables("x", "y")
    assert poly_gcd(x ** 2 * y, x * y ** 2) == x * y


def test_gcd_of_shared_linear_factors():
    x, y = variables("x", "y")
    p = (x + y) ** 2 * (x - y)
    q = (x + y) * (x - y) ** 2
    g = poly_gcd(p, q)
    assert g == (x + y) * (x - y)
    assert try_divide(p, g) is not None
    assert try_divide(q, g) is not None


def test_gcd_divides_both_arguments():
    rng = random.Random(4242)
    for _ in range(30):
        p = random_poly(rng, names=("x", "y"), max_terms=3, max_exp=2)
        q = random_poly(rng, names=("x", "y"), max_terms=3, max_exp=2)
        if p.is_zero and q.is_zero:
            continue
        g = poly_gcd(p, q)
        if not p.is_zero:
            assert try_divide(p, g) is not None
        if not q.is_zero:
            assert try_divide(q, g) is not None


# ----------------------------------------------------------------------
# properties over Z[a, x, y]: degree <= 3 in each variable, <= 5 terms

small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), max_size=5
).map(lambda terms: MultiPoly(("a", "x", "y"), terms))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_polys)
def test_property_parse_round_trip(p):
    assert parse_poly(str(p)) == p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_polys, small_polys, small_polys)
def test_property_ring_laws(p, q, r):
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_polys, small_polys)
def test_property_gcd_divides_both(p, q):
    assume(not (p.is_zero and q.is_zero))
    g = poly_gcd(p, q)
    assert try_divide(p, g) is not None
    assert try_divide(q, g) is not None


def test_squarefree_detection():
    u0, u1 = variables("u0", "u1")
    assert is_squarefree(u0 * u1)
    assert not is_squarefree((256 * u0 ** 3) * (256 * u1 ** 3))
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    assert is_squarefree(discriminant_quartic(a0, b0, g0))


def test_squarefree_rejects_constants():
    with pytest.raises(ValueError):
        is_squarefree(MultiPoly.constant(5))
    with pytest.raises(ValueError):
        is_squarefree(MultiPoly.zero())


def test_squarefree_part_strips_multiplicity():
    x, y = variables("x", "y")
    assert squarefree_part((x + y) ** 3 * (x - y)) == (x + y) * (x - y)


# ----------------------------------------------------------------------
# printing and parsing

def test_canonical_printing_is_frozen():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    d = discriminant_quartic(a0, b0, g0)
    assert str(d) == (
        "16*alpha0^4*gamma0 - 4*alpha0^3*beta0^2 - 128*alpha0^2*gamma0^2"
        " + 144*alpha0*beta0^2*gamma0 - 27*beta0^4 + 256*gamma0^3"
    )


def test_parse_round_trip():
    rng = random.Random(2718)
    for _ in range(40):
        p = random_poly(rng)
        assert parse_poly(str(p)) == p


def test_parse_fraction_coefficients():
    x, = variables("x")
    assert parse_poly("2/7*x - 1/3") == Fraction(2, 7) * x - Fraction(1, 3)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_poly("2 +* x")
