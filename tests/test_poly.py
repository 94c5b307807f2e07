"""Polynomial engine tests: ring axioms, oracles, and frozen identities."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import groupby, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modpoints.poly import (
    EXPONENT_LIMIT,
    _content_and_primitive,
    _exact_quotient,
    _repeated_part,
    ExponentOverflowError,
    MultiPoly,
    discriminant_quartic,
    extract_exceptional,
    is_squarefree,
    normalize,
    poly_gcd,
    resultant,
    squarefree_part,
    try_divide,
    variables,
)

from oracles import bareiss_resultant, parse_poly, sylvester_matrix


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
    with pytest.raises(ExponentOverflowError):
        _ = (x ** (1 << 14)) ** 3  # the squaring path: x^32768, then x^49152
    y, = variables("y")
    at_limit = (x ** (EXPONENT_LIMIT - 3) * y) * (x ** 3 + y ** (EXPONENT_LIMIT - 1))
    assert at_limit.degree_in("x") == at_limit.degree_in("y") == EXPONENT_LIMIT
    assert (x ** EXPONENT_LIMIT).degree_in("x") == EXPONENT_LIMIT


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(1.5,): 1})  # not x^1.5
    with pytest.raises(ValueError):
        MultiPoly(("x",), {("2",): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x",), {(-1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("x", "y"), {(1,): 1})
    with pytest.raises(ValueError):
        MultiPoly(("y", "x"), {(1, 0): 1})


def test_a_product_may_reach_the_limit_in_every_variable():
    x, y, z = variables("x", "y", "z")
    limit = EXPONENT_LIMIT
    p = x ** (limit - 1) * y * z ** (limit - 5)
    q = x * y ** (limit - 1) * z ** 5
    assert (p * q).leading() == ((limit, limit, limit), 1)
    assert ((p + 1) * (q + 1)).terms == {
        (limit, limit, limit): 1, p.leading()[0]: 1, q.leading()[0]: 1, (0, 0, 0): 1
    }
    for past in (p * x, p + y ** 2, p + z ** (limit - 4)):
        with pytest.raises(ExponentOverflowError):
            _ = past * q


def test_try_divide_near_the_limit():
    # each q has a non-leading term with a larger exponent than its leading term
    limit = EXPONENT_LIMIT
    x, y = variables("x", "y")
    assert try_divide(x ** limit * y ** limit, x ** limit + x * y ** limit) is None
    q = x ** (limit - 1) + y ** limit
    assert try_divide(q * x, q) == x
    v, w, x, y, z = variables("v", "w", "x", "y", "z")
    top = v ** limit * w ** limit * x ** limit * y ** limit * z ** limit
    assert try_divide(top, v ** limit + v * w ** limit * x ** limit * y ** limit * z ** limit) is None
    q = v ** (limit - 1) * x + w ** limit * y * z
    assert try_divide(q * (v + z), q) == v + z
    assert try_divide(q * (v + z) + 1, q) is None


def test_try_divide_stops_before_a_remainder_exponent_reaches_the_guard_bit():
    # With s = v*w*x*y and L = EXPONENT_LIMIT, the first step of dividing
    # s^L z^L by s^(L/2) + s^(L/4) z^L leaves -s^(3L/4) z^(2L): its z field
    # holds 2^16 and so sets its own guard bit, the key test then reads the
    # wrong quotient exponent, and the leading term is never cancelled.  The
    # room bound (deg_z of the quotient at most deg_z p - deg_z q = 0) stops
    # the division before that step; a subprocess turns a hang into a failure.
    code = (
        "from modpoints.poly import EXPONENT_LIMIT as L, try_divide, variables\n"
        "v, w, x, y, z = variables('v', 'w', 'x', 'y', 'z')\n"
        "s = v * w * x * y\n"
        "print(try_divide(s ** L * z ** L, s ** (L // 2) + s ** (L // 4) * z ** L))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "None"


def test_padding_with_unused_variables_changes_nothing():
    x, y = variables("x", "y")
    p = 3 * x ** 2 * y - y + 7
    padded = p + MultiPoly.zero(("w", "x", "y", "z"))
    assert padded.variables == ("w", "x", "y", "z")
    assert padded == p and p == padded
    assert hash(padded) == hash(p)
    assert str(padded) == str(p)
    assert padded.leading() == ((0, 2, 1, 0), 3)


def test_a_constant_hashes_as_the_scalar_it_equals():
    x, y = variables("x", "y")
    for value in (0, 3, -7, Fraction(2, 3), Fraction(6, 2)):
        for p in (MultiPoly.constant(value), MultiPoly.constant(value, ("x", "y")),
                  x * y - y * x + value):
            assert p == value
            assert hash(p) == hash(value)
            assert len({p, value}) == 1


@st.composite
def _polys_in_one_to_four_variables(draw):
    names = ("w", "x", "y", "z")[:draw(st.integers(1, 4))]
    exponent = st.one_of(st.integers(0, 3), st.integers(EXPONENT_LIMIT - 2, EXPONENT_LIMIT))
    terms = draw(st.dictionaries(
        st.tuples(*[exponent] * len(names)), st.integers(-9, 9).filter(bool), min_size=1, max_size=6
    ))
    return MultiPoly(names, terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polys_in_one_to_four_variables())
def test_property_leading_is_the_largest_total_degree_then_exponent(p):
    terms = p.terms
    top = max(terms, key=lambda exponent: (sum(exponent), exponent))
    assert p.leading() == (top, terms[top])


def test_exact_quotient_raises_under_optimize():
    # python -O strips assert statements; a failed exact division must still raise
    code = (
        "from modpoints.poly import _exact_quotient, variables\n"
        "x, y = variables('x', 'y')\n"
        "try:\n    print(_exact_quotient(x, y))\n"
        "except ArithmeticError:\n    print('raised')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-O", "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "raised"
    x, y = variables("x", "y")
    with pytest.raises(ArithmeticError):
        _exact_quotient(x, y)


def test_try_divide_of_integer_polynomials_can_be_a_fraction():
    x, = variables("x")
    quotient = try_divide(x + 1, 2 * x + 2)
    assert quotient == MultiPoly.constant(Fraction(1, 2))
    assert type(quotient.constant_value) is Fraction
    assert normalize(quotient) == 1


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
    df = f.partial_derivative("x")
    res = resultant(f, df, "x")
    assert res == bareiss_resultant(f, df, "x") == discriminant_quartic(a0, b0, g0)


def test_discriminant_matches_resultant_on_random_integer_triples():
    rng = random.Random(12345)
    for _ in range(25):
        a, b, g = (rng.randint(-9, 9) for _ in range(3))
        f = _monic_quartic(MultiPoly.constant(a), MultiPoly.constant(b), MultiPoly.constant(g))
        df = f.partial_derivative("x")
        res = resultant(f, df, "x")
        assert res == bareiss_resultant(f, df, "x") == discriminant_quartic(a, b, g)


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_polys)
def test_property_content_is_the_gcd_of_every_coefficient(p):
    for name in p.occurring_variables():
        content, primitive = _content_and_primitive(p, name)
        assert content * primitive == p
        i = p.variables.index(name)
        coefficients = {}
        for exp, c in p.terms.items():
            coefficients.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1:]] = c
        folded = MultiPoly.zero()
        for terms in coefficients.values():  # every coefficient, with no early exit
            folded = poly_gcd(folded, MultiPoly(p.variables, terms))
        assert content == folded


# ----------------------------------------------------------------------
# properties over Q[a, x, y]: coefficients are stored as int where integral
# and as Fraction otherwise, so both halves of that storage are drawn

small_rational_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    max_size=5,
).map(lambda terms: MultiPoly(("a", "x", "y"), terms))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_rational_polys, small_rational_polys)
def test_property_rational_product_and_exact_quotient(p, q):
    assert p * q == naive_mul(p, q)
    if not q.is_zero:
        assert try_divide(p * q, q) == p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-9, 9), max_size=5))
def test_property_int_and_fraction_coefficients_agree(terms):
    from_ints = MultiPoly(("a", "x", "y"), terms)
    from_fractions = MultiPoly(("a", "x", "y"), {e: Fraction(c) for e, c in terms.items()})
    scaled_back = from_fractions * Fraction(1, 3) * 3
    for p in (from_fractions, scaled_back):
        assert p == from_ints
        assert hash(p) == hash(from_ints)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_rational_polys, small_polys)
def test_property_accessors_give_fractions(p, q):
    point = {"a": 2, "x": Fraction(1, 2), "y": -1}
    for r in (p, q, p * q, p + q, p.partial_derivative("x")):
        assert all(type(c) is Fraction for c in r.terms.values())
        if not r.is_zero:
            assert type(r.leading()[1]) is Fraction
        assert type(r.evaluate(point)) is Fraction  # through constant_value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    small_rational_polys,
    st.sampled_from(("a", "x", "y", "z")),  # z never occurs
    st.one_of(
        st.sampled_from((0, 1, Fraction(-2, 3))),
        st.integers(-3, 3),
        st.fractions(-3, 3, max_denominator=5),
    ),
)
@example(MultiPoly(("a", "x", "y"), {(0, 2, 1): 3, (1, 0, 0): Fraction(1, 2)}), "x", 0)
@example(MultiPoly(("a", "x", "y"), {(0, 2, 1): 3, (0, 0, 1): -3}), "x", 1)
@example(MultiPoly(("a", "x", "y"), {(2, 1, 0): Fraction(3, 4)}), "a", Fraction(2, 3))
@example(MultiPoly(("a", "x", "y"), {(0, 1, 1): 5}), "a", 7)
@example(MultiPoly(("a", "x", "y"), {(0, 1, 1): 5}), "z", 0)
def test_property_specialize_is_substitution_of_one_variable(p, name, value):
    images = {v: MultiPoly.variable(v) for v in p.occurring_variables()}
    images[name] = MultiPoly.constant(value)
    restricted = p.specialize(name, value)
    assert restricted == p.substitute(images)
    assert name not in restricted.variables
    assert all(type(c) is Fraction for c in restricted.terms.values())


# ----------------------------------------------------------------------
# the subresultant resultant against the Bareiss oracle, over Z[a, x]

def _from_coefficients(coefficients):
    """The sum of (c + d*a) * x^i over the pairs (c, d), lowest degree first."""
    terms = {}
    for i, (c, d) in enumerate(coefficients):
        terms[(0, i)] = c
        terms[(1, i)] = d
    return MultiPoly(("a", "x"), terms)


def _x_polys(max_degree, min_degree=0, numbers=st.integers(-4, 4)):
    # about a third of the coefficients are gaps, so that degrees drop by more
    # than one along the remainder sequence (non-normal, delta > 1), and a
    # third are constants, which the sequence keeps as ints or Fractions
    entry = st.one_of(
        st.just((0, 0)),
        st.tuples(numbers, st.just(0)),
        st.tuples(numbers, numbers),
    )
    coefficients = st.lists(entry, min_size=min_degree + 1, max_size=max_degree + 1)
    if min_degree:
        coefficients = coefficients.filter(lambda cs: cs[-1] != (0, 0))
    return coefficients.map(_from_coefficients)


@st.composite
def _resultant_pairs(draw):
    """(f, g, planted) of degree <= 7 in x; planted pairs share a factor in x."""
    if not draw(st.booleans()):
        return draw(_x_polys(7)), draw(_x_polys(7)), False
    h = draw(_x_polys(2, min_degree=1))
    rest = 7 - h.degree_in("x")
    return h * draw(_x_polys(rest)), h * draw(_x_polys(rest)), True


# Knuth's example (TAOCP vol. 2, 4.6.1): degrees 8, 6, 4, 2, 1, 0
_KNUTH_F = parse_poly("x^8 + x^6 - 3*x^4 - 3*x^3 + 8*x^2 + 2*x - 5")
_KNUTH_G = parse_poly("3*x^6 + 5*x^4 - 4*x^2 - 9*x + 21")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_resultant_pairs())
@example((_KNUTH_F, _KNUTH_G, False))
def test_property_resultant_matches_bareiss(pair):
    f, g, planted = pair
    res = resultant(f, g, "x")
    assert res == bareiss_resultant(f, g, "x")
    n, m = f.degree_in("x"), g.degree_in("x")
    assert resultant(g, f, "x") == (-1) ** (n * m % 2) * res
    if planted:
        assert res.is_zero


_FRACTIONS = st.fractions(-4, 4, max_denominator=5)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_x_polys(5, numbers=_FRACTIONS), _x_polys(5, numbers=_FRACTIONS))
def test_property_rational_resultant_matches_bareiss(f, g):
    res = resultant(f, g, "x")
    assert type(res) is MultiPoly
    assert res == bareiss_resultant(f, g, "x")


def test_sequences_on_scalar_entries_return_polynomials():
    # every coefficient in x is constant, so the remainder sequence runs on
    # ints and Fractions alone; the public results are still MultiPolys
    x, = variables("x")
    cases = [
        (resultant(x ** 2 - 2, x - 1, "x"), -1),
        (resultant(x - 1, x ** 2 - 1, "x"), 0),
        (resultant(MultiPoly.constant(3), x ** 2 + 1, "x"), 9),
        (resultant(x ** 2 - 2, 2 * x - 1, "x"), -7),  # 2^2 * ((1/2)^2 - 2)
        (resultant(Fraction(1, 2) * x ** 2 - 2, x - Fraction(1, 3), "x"), Fraction(-35, 18)),
        (poly_gcd(x ** 2 - 1, x ** 2 + 2 * x + 1), x + 1),
        (poly_gcd(x ** 2 - 2, x - 1), 1),
    ]
    for result, expected in cases:
        assert type(result) is MultiPoly
        assert result == expected


# ----------------------------------------------------------------------
# the gcd is the greatest divisor, squarefreeness both ways, and the
# resultant from planted roots, over Z[a, x]

def test_content_in_the_first_variable_is_a_gcd_of_polynomials_in_x():
    a, x = variables("a", "x")
    p, q = (x + 1) * (a * x + 2), (x + 1) * (a * x - 3)
    # in a, p = (x^2 + x) a + (2x + 2): no coefficient is constant
    assert _content_and_primitive(p, "a") == (x + 1, a * x + 2)
    # in a, a*x + 2 has the constant coefficient 2, so its content is 1 at once
    assert _content_and_primitive(a * x + 2, "a") == (1, a * x + 2)
    assert poly_gcd(p, q) == x + 1


_A, _X = variables("a", "x")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_x_polys(2, min_degree=1), _x_polys(3), _x_polys(3))
def test_property_gcd_is_the_greatest_common_divisor(h, c, d):
    assume(not (c.is_zero and d.is_zero))
    p, q = h * c, h * d
    g = poly_gcd(p, q)
    assert try_divide(g, normalize(h)) is not None
    assert poly_gcd(try_divide(p, g), try_divide(q, g)).is_constant


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_x_polys(2, min_degree=1), _x_polys(3))
def test_property_squarefree_both_ways(h, c):
    assume(not c.is_zero)
    p = h ** 2 * c
    assert not is_squarefree(p)
    part = squarefree_part(p)
    assert is_squarefree(part)
    assert try_divide(p, part) is not None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=4),
    _x_polys(5),
)
def test_property_resultant_is_the_product_over_planted_roots(roots, g):
    # Res_x(prod (x - r_i), g) = prod g(r_i) for the roots r_i = c + d*a
    f = MultiPoly.constant(1)
    expected = MultiPoly.constant(1)
    for c, d in roots:
        root = c + d * _A
        f = f * (_X - root)
        expected = expected * g.substitute({"a": _A, "x": root})
    assert resultant(f, g, "x") == expected


@st.composite
def _products_in_one_to_three_variables(draw):
    """A product of one to three small factors, each to the power 1 or 2."""
    names = draw(st.sampled_from((("x",), ("a", "x"), ("a", "x", "y"))))
    factor = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(names)), st.integers(-3, 3), min_size=1, max_size=3
    ).map(lambda terms: MultiPoly(names, terms))
    p = MultiPoly.constant(1)
    for f, k in draw(st.lists(st.tuples(factor, st.integers(1, 2)), min_size=1, max_size=3)):
        p = p * f ** k
    return p


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_products_in_one_to_three_variables())
def test_property_squarefree_two_routes(p):
    # the content split and the last subresultant against the gcd of p with
    # all its partial derivatives
    assume(not p.is_constant)
    assert is_squarefree(p) == _repeated_part(p).is_constant


@pytest.mark.parametrize("p, squarefree", [
    ((_X + 1) ** 2 * (_A + _X), False),  # the repeated factor is free of a, the first variable
    ((_X + 1) * (_X + 2) * (_A * _X + 1), True),
    (_A * _X + 1, True),  # degree 1 in a
])
def test_squarefree_pinned_cases_by_both_routes(p, squarefree):
    assert is_squarefree(p) is squarefree
    assert _repeated_part(p).is_constant is squarefree


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
