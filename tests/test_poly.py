"""Polynomial engine tests: ring axioms, oracles, and frozen identities."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import groupby, product
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modpoints import blowup
from modpoints import poly as poly_module
from modpoints.blowup import antidiag_fixed_constraint, antidiag_resultants
from modpoints.poly import (
    EXPONENT_LIMIT,
    HEURISTIC_BITS,
    _degrees,
    _divide_terms,
    _image,
    _integral,
    _interpolate,
    _levels,
    _repeated_part,
    _shape,
    _unit,
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

from oracles import (
    _coefficients_in,
    bareiss_resultant,
    degree_in,
    leading,
    parse_poly,
    subresultant_gcd,
    sylvester_matrix,
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
    with pytest.raises(ExponentOverflowError):
        _ = (x ** (1 << 14)) ** 3  # the squaring path: x^32768, then x^49152
    y, = variables("y")
    at_limit = (x ** (EXPONENT_LIMIT - 3) * y) * (x ** 3 + y ** (EXPONENT_LIMIT - 1))
    assert degree_in(at_limit, "x") == degree_in(at_limit, "y") == EXPONENT_LIMIT
    assert degree_in(x ** EXPONENT_LIMIT, "x") == EXPONENT_LIMIT
    # the resultant bounds the exponents of its lift by D_a = m deg_a f + n deg_a g
    # before it builds an image: here Res(a^k x + 1, x^2 + 1) = a^2k + 1, and D_a = 2k
    a, = variables("a")
    f, g = a ** (EXPONENT_LIMIT // 2) * x + 1, x ** 2 + 1
    assert resultant(f, g, "x") == resultant(g, f, "x") == a ** EXPONENT_LIMIT + 1
    f = a ** (EXPONENT_LIMIT // 2 + 1) * x + 1
    with mock.patch.object(poly_module, "_image", side_effect=AssertionError("an image was built")):
        for pair in ((f, g), (g, f)):
            with pytest.raises(ExponentOverflowError):
                resultant(*pair, "x")
    # the degrees in the eliminated variable are not bounded: 2 m n = 40000 is
    # past the limit, but D_a = 100 * 1
    assert 2 * 200 * 100 > EXPONENT_LIMIT
    assert resultant(x ** 200 - a, x ** 100 + 1, "x") == (a - 1) ** 100


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
    assert leading(p * q) == ((limit, limit, limit), 1)
    assert ((p + 1) * (q + 1)).terms == {
        (limit, limit, limit): 1, leading(p)[0]: 1, leading(q)[0]: 1, (0, 0, 0): 1
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
    assert leading(padded) == ((0, 2, 1, 0), 3)


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
    assert leading(p) == (top, terms[top])


# ----------------------------------------------------------------------
# scans over whole term maps against tuple oracles

_exponents_up_to_the_limit = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_LIMIT))


@st.composite
def _exponent_lists(draw):
    n = draw(st.integers(1, 6))
    return n, draw(st.lists(st.tuples(*[_exponents_up_to_the_limit] * n), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exponent_lists())
@example((6, [(EXPONENT_LIMIT,) * 6, (0,) * 6]))
def test_property_degrees_are_the_largest_unpacked_exponents(case):
    n, exponents = case
    keys = [poly_module._pack(e) for e in exponents]
    columns = zip(*(poly_module._unpack(key, n) for key in keys))
    assert _degrees(keys, n) == [max(column) for column in columns]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_exponent_lists(), st.data())
def test_property_extracted_power_is_the_least_exponent(case, data):
    n, exponents = case
    names = ("t", "u", "v", "w", "x", "y")[:n]
    i = data.draw(st.integers(0, n - 1))
    p = MultiPoly(names, {e: k + 1 for k, e in enumerate(exponents)})
    k, q = extract_exceptional(p, names[i])
    assert k == min(e[i] for e in exponents)
    assert min(e[i] for e in q.terms) == 0


def _locals_at_return(function, *args):
    """The local variables of ``function`` as its call with ``args`` returns."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is function.__code__:
            seen.update(frame.f_locals)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("n", range(9))
def test_the_guard_word_has_the_top_bit_of_every_field(n):
    key = poly_module._pack((1,) * n)
    rem, qt = {key + key: 6}, {key: 3}
    assert _divide_terms(rem, qt, n) == {key: 2}
    guards = _locals_at_return(_divide_terms, rem, qt, n)["guards"]
    assert guards == sum(1 << poly_module.FIELD * k + poly_module.FIELD - 1 for k in range(n))


class _Rational(Fraction):
    """A Fraction subclass: the constructor stores a non-integral instance as it is."""


_nonzero_ints = st.integers(-50, 50).filter(bool)
_nonzero_fractions = st.fractions(-4, 4, max_denominator=12).filter(bool)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    st.dictionaries(st.integers(0, 99), _nonzero_ints, max_size=6),
    st.dictionaries(st.integers(0, 99), _nonzero_fractions, max_size=6),
    st.dictionaries(st.integers(0, 99), st.one_of(_nonzero_ints, _nonzero_fractions), max_size=6),
    st.dictionaries(st.integers(0, 99), st.one_of(_nonzero_ints, _nonzero_fractions.map(_Rational)), max_size=6),
))
def test_property_integral_is_the_lcm_of_the_denominators(terms):
    c = math.lcm(*(v.denominator for v in terms.values()))
    expected = terms if c == 1 else {key: (v * c).numerator for key, v in terms.items()}
    assert _integral(terms) == (c, expected)
    if all(type(v) is int for v in terms.values()):
        assert _integral(terms)[1] is terms  # a map of plain ints is returned as it is


def test_a_fraction_subclass_coefficient_answers_as_a_fraction():
    # only its type tells an int map from one holding such a coefficient
    answers = []
    for rational in (Fraction, _Rational):
        f = MultiPoly(("a", "x"), {(0, 2): 1, (1, 1): rational(1, 2), (0, 0): -3})
        g = MultiPoly(("a", "x"), {(0, 1): 2, (1, 0): rational(-3, 4)})
        assert type(f._terms[poly_module._pack((1, 1))]) is rational
        answers.append((resultant(f, g, "x"), is_squarefree(f), is_squarefree(f * f),
                        poly_gcd(f * g, g * g), normalize(f)))
    assert answers[0] == answers[1]


def test_exact_quotient_raises_under_optimize():
    # python -O strips assert statements; a failed exact division must still raise
    code = (
        "from modpoints.poly import variables\n"
        "x, y = variables('x', 'y')\n"
        "try:\n    print(x // y)\n"
        "except ArithmeticError:\n    print('raised')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-O", "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "raised"
    x, y = variables("x", "y")
    with pytest.raises(ArithmeticError):
        x // y


def test_floordiv_is_exact_division():
    x, y = variables("x", "y")
    assert (x * y + x) // x == y + 1
    assert (x ** 2 - 1) // (x - 1) == x + 1
    assert (x * y) // (Fraction(1, 2) * y) == 2 * x
    for p, q in ((x, y), (x + 1, x - 1), (MultiPoly.constant(1), x)):
        with pytest.raises(ArithmeticError):
            p // q
    # a scalar or constant divisor divides, never floors
    for two in (2, MultiPoly.constant(2)):
        half = (x + 1) // two
        assert half == Fraction(1, 2) * x + Fraction(1, 2)
        assert all(type(c) is Fraction for c in half._terms.values())
        whole = (2 * x + 4) // two
        assert whole == x + 2 and all(type(c) is int for c in whole._terms.values())
    for zero in (0, MultiPoly.zero()):
        with pytest.raises(ZeroDivisionError):
            x // zero
    assert MultiPoly.zero() // x == 0


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


@st.composite
def _gcd_pairs(draw):
    """(p, q) in one to three variables with int and Fraction coefficients;
    in half the pairs both sides are multiples of one planted factor, in the
    others they are drawn apart, so mostly coprime."""
    names = draw(st.sampled_from((("x",), ("a", "x"), ("a", "x", "y"))))
    number = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=6))

    def polys(max_exponent, max_terms):
        exponents = st.tuples(*[st.integers(0, max_exponent)] * len(names))
        return st.dictionaries(exponents, number, max_size=max_terms).map(
            lambda terms: MultiPoly(names, terms))

    p, q = draw(polys(3, 5)), draw(polys(3, 5))
    if draw(st.booleans()):
        h = draw(polys(2, 3).filter(bool))
        p, q = h * p, h * q
    return p, q


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_gcd_pairs())
# at xi = 4, below the bound 6, the primitive sides x^2 - 2x and x - 2 are 8 and
# 2, and the lift of their gcd 2 is the constant 2, which divides both: x - 2 is missed
@example((parse_poly("-2*x^2 + 4*x"), parse_poly("3*x - 6")))
def test_property_gcd_divides_both(pair):
    # the heuristic gcd and the subresultant oracle give one normalized gcd,
    # and it divides both sides
    p, q = pair
    assume(not (p.is_zero and q.is_zero))
    g = poly_gcd(p, q)
    assert g == subresultant_gcd(p, q)
    assert try_divide(p, g) is not None
    assert try_divide(q, g) is not None


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


@st.composite
def _division_triples(draw):
    """(p, q, r) in Q[a, x, y]: q is not constant, and r is nonzero of lower
    total degree than q."""
    p = draw(small_rational_polys)
    q = draw(small_rational_polys.filter(lambda q: not q.is_constant))
    below = max(map(sum, q.terms))

    def exponent():
        total = draw(st.integers(0, below - 1))
        a = draw(st.integers(0, total))
        x = draw(st.integers(0, total - a))
        return a, x, total - a - x

    number = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
    r = {exponent(): draw(number) for _ in range(draw(st.integers(1, 4)))}
    return p, q, MultiPoly(("a", "x", "y"), r)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_division_triples())
def test_property_try_divide_is_exact_or_none(triple):
    # q divides p*q; if it divided p*q + r, it would divide r, whose total
    # degree is below its own, so that division must stop and give None
    p, q, r = triple
    assert try_divide(p * q, q) == p
    assert try_divide(p * q + r, q) is None


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
            assert type(leading(r)[1]) is Fraction
        assert type(r.evaluate(point)) is Fraction  # through constant_value


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    small_rational_polys,
    st.sampled_from(("a", "x", "y", "z")),  # z never occurs
    st.one_of(
        st.sampled_from((0, 1, Fraction(-2, 3))),
        st.integers(-3, 3),
        st.fractions(-3, 3, max_denominator=5),
        st.integers(-3, 3).map(Fraction),  # integral Fractions, stored as ints
        st.fractions(-40, 40, max_denominator=97),
    ),
)
@example(MultiPoly(("a", "x", "y"), {(0, 2, 1): 3, (1, 0, 0): Fraction(1, 2)}), "x", 0)
@example(MultiPoly(("a", "x", "y"), {(0, 2, 1): Fraction(1, 4), (0, 0, 1): -1}), "x", Fraction(2))
@example(MultiPoly(("a", "x", "y"), {(0, 3, 0): 8, (1, 0, 0): Fraction(1, 3)}), "x", Fraction(-1, 2))
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
    rest = 7 - degree_in(h, "x")
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
    n, m = degree_in(f, "x"), degree_in(g, "x")
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


_INT_ENTRIES = st.integers(-4, 4)
# c + d*a, a third of them zero and a third constant, as in _x_polys
_A_ENTRIES = st.one_of(
    st.just((0, 0)),
    st.tuples(_INT_ENTRIES, st.just(0)),
    st.tuples(_INT_ENTRIES, _INT_ENTRIES),
).map(lambda cd: MultiPoly(("a",), {(0,): cd[0], (1,): cd[1]}))


@pytest.mark.parametrize("entries", [_INT_ENTRIES, _A_ENTRIES], ids=["int", "MultiPoly"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_first_remainder_of_the_sequence_is_the_pseudo_remainder(entries, data):
    # the first B that _subresultant_prs yields is divided by g h^delta = 1, so
    # it is prem(f, g): of lower degree than g, and ell(g)^(n-m+1) f - B is a
    # multiple of g; entries include zeros, and ell(g) is mostly not 1
    top = entries.filter(bool)
    g = data.draw(st.lists(entries, min_size=1, max_size=4)) + [data.draw(top)]
    f = data.draw(st.lists(entries, min_size=len(g) - 1, max_size=len(g) + 2)) + [data.draw(top)]
    _, remainder, _ = next(poly_module._subresultant_prs(f, g))
    assert len(remainder) < len(g)
    x, = variables("x")

    def in_x(coefficients):
        return sum((c * x ** k for k, c in enumerate(coefficients)), MultiPoly.zero())

    power = g[-1] ** (len(f) - len(g) + 1)
    assert try_divide(power * in_x(f) - in_x(remainder), in_x(g)) is not None


@st.composite
def _pairs_in_two_or_three_variables(draw):
    names = draw(st.sampled_from((("a", "x"), ("a", "x", "y"))))
    number = st.one_of(st.integers(-3, 3),
                       st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(names)), number,
                            min_size=1, max_size=6)
    return MultiPoly(names, draw(terms)), MultiPoly(names, draw(terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs_in_two_or_three_variables())
def test_property_images_are_the_coefficients_at_the_reported_levels(pair):
    # a second route to each image: the coefficients in x read off the public
    # terms, with every level's variable set to its power of two by specialize
    f, g = (normalize(p) for p in pair)
    assume(f and g)
    vs = f.variables
    n, j = len(vs), vs.index("x")
    shapes = [_shape(p._terms, n, j) for p in (f, g)]
    levels = _levels(*shapes, n, j)
    for p, (_, norms) in zip((f, g), shapes):
        image = _image(p._terms, n, j, len(norms), levels)
        coefficients = _coefficients_in(p, "x")
        assert len(image) == max(coefficients) + 1
        for d, value in enumerate(image):
            coefficient = coefficients.get(d, MultiPoly.zero())
            for _, bits, i, _ in levels:
                coefficient = coefficient.specialize(vs[i], 1 << bits)
            assert coefficient.constant_value == value


_A, _X, _Y = variables("a", "x", "y")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_pairs_in_two_or_three_variables())
def test_property_resultant_by_evaluation_matches_bareiss(pair):
    # by evaluation at large integers, and by the Bareiss determinant of the
    # Sylvester matrix over Q[a, y]
    f, g = pair
    assert resultant(f, g, "x") == bareiss_resultant(f, g, "x")


@pytest.mark.parametrize("f, g, expected", [
    # Res_x(x^k - a, x^k + a) = (2a)^k meets the Hadamard bound 2^k, so xi must
    # be at least twice the bound for the symmetric lift to read 2^k back
    (_X ** 2 - _A, _X ** 2 + _A, 4 * _A ** 2),
    (_X ** 3 - _A, _X ** 3 + _A, 8 * _A ** 3),
    # the leading coefficient in x vanishes at a = 2 and a = 3
    ((_A - 2) * (_A - 3) * _X ** 2 + _A * _X + 1, (_A - 2) * _X + 3, None),
    ((_A - 2) * (_A - 3) * _X ** 2 + Fraction(1, 2), _A * _X ** 3 - Fraction(2, 3) * _X, None),
])
def test_resultant_pinned_cases_by_both_routes(f, g, expected):
    # by evaluation, and by the Bareiss determinant of the Sylvester matrix
    expected = bareiss_resultant(f, g, "x") if expected is None else expected
    assert resultant(f, g, "x") == bareiss_resultant(f, g, "x") == expected


@st.composite
def _expansions(draw):
    """(xi, g): xi a power of two or not, and a nonzero term map g over the
    variables (a, v) whose coefficients lie in (-xi/2, xi/2]."""
    xi = draw(st.one_of(st.integers(1, 80).map(lambda k: 1 << k), st.integers(3, 10 ** 30)))
    digit = st.integers(-((xi - 1) // 2), xi // 2).filter(bool)
    return xi, draw(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 4)), digit, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_expansions())
@example((8, {(0, 0): 4, (0, 1): -3, (0, 2): 4, (1, 3): -1}))
@example((7, {(2, 0): -3, (2, 4): 3}))
def test_property_interpolate_inverts_evaluation(expansion):
    # h = g at v = xi, each key summed over the powers of v; the symmetric
    # expansion of h is g again, digit for digit, negative and multi-digit alike
    xi, g = expansion
    h = {}
    for (ea, ev), c in g.items():
        key = poly_module._pack((ea, 0))
        h[key] = h.get(key, 0) + c * xi ** ev
    assert _interpolate(h, xi, _unit(1, 2)) == {poly_module._pack(e): c for e, c in g.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_rational_polys)
@example(MultiPoly(("a", "x", "y"), {(0, 1, 0): Fraction(-2, 3), (0, 0, 0): Fraction(4, 9)}))
@example(MultiPoly(("a", "x", "y"), {(1, 0, 0): -6, (0, 0, 2): 4}))
def test_property_normalize_gives_the_primitive_integer_multiple(p):
    assume(not p.is_zero)
    n = normalize(p)
    assert all(type(c) is int for c in n._terms.values())
    assert math.gcd(*n._terms.values()) == 1
    assert leading(n)[1] > 0
    exponent, c = leading(p)
    assert n == p * (n.terms[exponent] / c)  # a rational multiple of p
    assert normalize(n) is n  # already normalized: the same object


# a power of two is read by shifts and masks, any other xi by divmod
@pytest.mark.parametrize("xi", [7, 8, 2 ** 64, 2 ** 111, 3 ** 70])
def test_interpolate_reads_digits_in_the_symmetric_range(xi):
    # every digit lies in (-xi/2, xi/2]: xi // 2 stays, xi // 2 + 1 and, for
    # an even xi, -xi/2 turn into the digit on the other side and a carry
    unit, half = _unit(0, 2), xi // 2
    assert _interpolate({0: half}, xi, unit) == {0: half}
    assert _interpolate({0: half + 1}, xi, unit) == {0: half + 1 - xi, unit: 1}
    assert _interpolate({0: -1}, xi, unit) == {0: -1}
    assert _interpolate({0: 0}, xi, unit) == {}
    assert _interpolate({0: -half}, xi, unit) == ({0: -half} if xi % 2 else {0: half, unit: -1})
    # the same digits at every place, each key lifted on its own
    y = _unit(1, 2)
    for digits in product((half, half + 1, -1, 0), repeat=3):
        value = sum(d * xi ** k for k, d in enumerate(digits))
        lifted = _interpolate({0: value, y: -value}, xi, unit)
        for key, sign in ((0, 1), (y, -1)):
            expansion = {k: lifted.get(key + k * unit, 0) for k in range(4)}
            assert sum(d * xi ** k for k, d in expansion.items()) == sign * value
            assert all(-xi < 2 * d <= xi for d in expansion.values()), expansion
        assert set(lifted) <= {key + k * unit for key in (0, y) for k in range(4)}


# ----------------------------------------------------------------------
# the gcd is the greatest divisor, squarefreeness both ways, and the
# resultant from planted roots, over Z[a, x]

def test_content_in_the_first_variable_is_a_gcd_of_polynomials_in_x():
    a, x = variables("a", "x")
    p, q = (x + 1) * (a * x + 2), (x + 1) * (a * x - 3)
    assert poly_gcd(p, q) == x + 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_x_polys(2, min_degree=1), _x_polys(3), _x_polys(3))
def test_property_gcd_is_the_greatest_common_divisor(h, c, d):
    assume(not (c.is_zero and d.is_zero))
    p, q = h * c, h * d
    g = poly_gcd(p, q)
    assert try_divide(g, normalize(h)) is not None
    assert poly_gcd(try_divide(p, g), try_divide(q, g)).is_constant


def _linear_factors(seed, count):
    """``count`` distinct factors x - c - d*a with |c|, d <= 9, d != 0, as
    the elim ladder of the benchmark draws them."""
    rng, roots = random.Random(seed), []
    while len(roots) < count:
        root = (rng.randint(-9, 9), rng.randint(1, 9))
        if root not in roots:
            roots.append(root)
    return [_X - c - d * _A for c, d in roots]


@pytest.mark.parametrize("planted_degree", [1, 3])
def test_gcd_of_degree_10_products_in_two_variables(planted_degree):
    factors = _linear_factors(planted_degree, 20 - planted_degree)
    h = MultiPoly.constant(1)
    for f in factors[:planted_degree]:
        h = h * f
    p, q = h, h
    for f in factors[planted_degree:10]:
        p = p * f
    for f in factors[10:]:
        q = q * f
    assert poly_gcd(p, q) == normalize(h)


def test_the_subresultant_route_gives_the_same_answers(monkeypatch):
    a, x, y = variables("a", "x", "y")
    p = (x + y) ** 2 * (a * x - 3) * (x - a)
    q = (x + y) * (x - a) ** 2 * (2 * y + 1)

    def answers():
        return poly_gcd(p, q), squarefree_part(p * q), antidiag_fixed_constraint(antidiag_resultants())

    expected = answers()
    assert expected[0] == normalize((x + y) * (x - a))
    # every gcd, inside poly and in blowup, by the subresultant oracle
    oracle = mock.Mock(side_effect=subresultant_gcd)
    monkeypatch.setattr(poly_module, "poly_gcd", oracle)
    monkeypatch.setattr(blowup, "poly_gcd", oracle)
    assert answers() == expected
    assert oracle.called


def _no_evaluation(buckets, xi):
    raise AssertionError(f"evaluated at a {xi.bit_length()}-bit point")


def test_the_heuristic_answers_past_the_old_cap(monkeypatch):
    # both sides have max-norm 3, so xi would be 8 (4 bits), and 8^5001 is past
    # HEURISTIC_BITS; with a alone, the integer sequence answers before any
    # point is tried
    p = (_A - 1) * (_A ** 5000 + 3)
    q = (_A - 1) * (_A + 3)
    assert 4 * 5001 > HEURISTIC_BITS
    monkeypatch.setattr(poly_module, "_evaluate", _no_evaluation)
    assert poly_gcd(p, q) == _A - 1


def test_the_heuristic_answers_past_the_old_cap_in_two_variables():
    # a is evaluated first, at xi = 8 (both max-norms are 3), and 8^5000 is past
    # HEURISTIC_BITS, which only the integer images of the squarefree test
    # read: the lift of the images' gcd x - 1 is the gcd
    p = (_X - 1) * (_A ** 5000 + 3)
    q = (_X - 1) * (_A + 3)
    assert 4 * 5000 > HEURISTIC_BITS
    assert poly_gcd(p, q) == _X - 1


@pytest.mark.parametrize("p, q", [
    ((_X - 1) * (_X + 2) ** 2, (_X + 2) * (3 * _X - 1)),
    (4 * _X ** 2 - 4, 6 * _X - 6),  # integer contents 4 and 6
    (Fraction(1, 2) * _X ** 3 - _X, Fraction(2, 3) * _X ** 2 - Fraction(4, 3)),
    (-(_X ** 2) + 1, -(_X ** 3) - 1),  # negative leading coefficients
    (_X ** 4 + 1, _X ** 2 + 1),  # coprime
    (MultiPoly.zero(("a", "y")) + (_X ** 2 - 4) * (_X + 5), (_X - 2) * (_X + 7)),
    ((_A ** 3 - 8) * (_A + 1), (_A - 2) ** 2),  # the first variable of the ring
])
def test_a_univariate_gcd_is_read_off_the_integer_sequence(p, q, monkeypatch):
    # one variable: the last nonzero remainder answers, with no point
    # evaluated and no candidate lifted
    expected = subresultant_gcd(p, q)
    monkeypatch.setattr(poly_module, "_evaluate", _no_evaluation)
    monkeypatch.setattr(poly_module, "_interpolate", mock.Mock(side_effect=AssertionError("a lift")))
    assert poly_gcd(p, q) == poly_gcd(q, p) == expected


_SQUAREFREE_CASES = [
    ((_X + 1) ** 2 * (_A + _X), False),
    ((_X + 1) * (_X + 2) * (_A * _X + 1), True),
    ((_A * _X - 3) ** 2 * (_X + 2), False),
    (parse_poly("1/2*a^2*x + 3*x^2*y - 2/3*y^3 + a"), True),
    (parse_poly("a^2*x^2 - 2*a*x*y^2 + y^4"), False),  # (a*x - y^2)^2
]


def test_squarefree_builds_no_derivative_polynomial(monkeypatch):
    # under the bit guard the image of dP/dv is read off the image of P
    cases = _SQUAREFREE_CASES
    assert [_repeated_part(p).is_constant for p, _ in cases] == [squarefree for _, squarefree in cases]
    monkeypatch.setattr(MultiPoly, "partial_derivative",
                        mock.Mock(side_effect=AssertionError("a derivative was built")))
    for p, squarefree in cases:
        assert is_squarefree(p) is squarefree


def test_squarefree_past_the_bit_guard_takes_the_gcd_route(monkeypatch):
    # past the guard the gcd of p with its partial derivatives answers: no
    # image at a point is built; a p in one variable has no point to pass
    # the guard, and the gcd reads its one-variable level, both by _image at
    # no levels
    image = poly_module._image

    def no_point(terms, n, j, length, levels):
        assert not levels, f"an image at the levels {levels}"
        return image(terms, n, j, length, levels)

    monkeypatch.setattr(poly_module, "HEURISTIC_BITS", 0)
    monkeypatch.setattr(poly_module, "_image", no_point)
    repeated = mock.Mock(side_effect=_repeated_part)
    monkeypatch.setattr(poly_module, "_repeated_part", repeated)
    for p, squarefree in _SQUAREFREE_CASES:
        assert is_squarefree(p) is squarefree
    assert repeated.called


@pytest.mark.parametrize("p, images, squarefree", [
    (parse_poly("a*x + y^2 + 1") * (_X - _Y), 3, True),
    ((_A + 1) ** 2 * (_X + _Y), 1, False),  # Res_a is 0
    ((_Y + 1) ** 2 * (_A * _X + 1), 3, False),  # only Res_y is 0
])
def test_squarefree_images_once_per_variable_below_the_guard(p, images, squarefree, monkeypatch):
    # one image per occurring variable up to the first zero resultant, and
    # no gcd
    image = mock.Mock(side_effect=_image)
    monkeypatch.setattr(poly_module, "_image", image)
    monkeypatch.setattr(poly_module, "_repeated_part", mock.Mock(side_effect=AssertionError("the gcd route")))
    assert is_squarefree(p) is squarefree
    assert image.call_count == images


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
    # the integer images of Res_v(p, dp/dv) for every variable v against the
    # gcd of p with all its partial derivatives: once at the bit guard, once
    # with a guard so large that the images answer every product
    assume(not p.is_constant)
    assert is_squarefree(p) == _repeated_part(p).is_constant
    with (mock.patch.object(poly_module, "HEURISTIC_BITS", 1 << 40),
          mock.patch.object(poly_module, "_repeated_part", side_effect=AssertionError("the gcd route"))):
        assert is_squarefree(p) == _repeated_part(p).is_constant


@pytest.mark.parametrize("p, squarefree", [
    ((_X + 1) ** 2 * (_A + _X), False),  # the repeated factor is free of a, the first variable
    ((_X + 1) * (_X + 2) * (_A * _X + 1), True),
    (_A * _X + 1, True),  # degree 1 in a
    ((_A + 1) ** 2 * (_X + _Y), False),
    ((_Y + 1) ** 2 * (_A * _X + 1), False),  # the repeated factor is free of a and x: only Res_y finds it
    ((_A + 1) * (_A + 2) * (_X + _Y), True),  # its content in a is x + y, not a constant
    # Res_a is past the bit guard, so is_squarefree takes the gcd route as well
    (_X ** 2 + _A ** 200, True),
    ((_X ** 2 + _A ** 200) ** 2, False),
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
    assert squarefree_part(-3 * (x + y) * (x - y)) == (x + y) * (x - y)


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
