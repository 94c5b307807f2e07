"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely: a sorted tuple of variable names and a
map from packed monomials to nonzero coefficients (an int when integral, a
Fraction otherwise).  A monomial is one int: the total degree in the top
field, then one ``FIELD``-bit field per variable, first variable highest,
so integer order is graded lexicographic order and a monomial product is
one addition.  Exponent tuples appear only at the public boundary (the
constructor and ``terms``), and the accessors (``terms``,
``constant_value``, ``evaluate``) give Fractions.  Values are
immutable, every operation is exact, and printing is byte-stable (graded
lexicographic order over alphabetically sorted variables), so identities
can be asserted with ``==`` and golden strings stay fixed.

Besides ring arithmetic the module provides the elimination-theoretic
tools needed elsewhere: substitution, restriction to a coordinate
hyperplane (``specialize``), formal derivatives, extraction of a
coordinate power (for strict transforms under a blow-up), squarefreeness
tests, the closed-form discriminant of a depressed quartic, and one
subresultant pseudo-remainder sequence.  The sequence is written once with
Python's operators (``*``, ``-``, ``**``, exact ``//``) on lists of the
coefficients in the eliminated variable: the package runs it on the ints
of the integer images of the resultant, the squarefreeness test and the
gcd's last variable.

Both the gcd and the resultant evaluate at large integers.  The gcd is the
heuristic gcd of Char, Geddes and Gonnet, its one route: the images down to
one variable, whose gcd the sequence gives, lifted back by a symmetric
xi-adic expansion and accepted only when ``_divide_terms`` divides both
sides, with a larger point after each rejected candidate.  The
resultant, also by one route at every size, sets the other variables to
powers of two past a Hadamard-type bound (Collins, with a Kronecker
substitution), so that the image of a term is its coefficient shifted
left, runs the sequence on ints and lifts the one integer back by the same
expansion, with shifts for digits.  ``is_squarefree`` images p once per
occurring variable v, reads the image of dp/dv off it and needs only
whether Res_v(p, dp/dv) is 0; past a fixed bit length it takes the gcd of
p with its derivatives instead.  An exact division
bounds its quotient's exponents by one OR of the dividend's keys less the
divisor's degrees.
A field is read by masking whole keys, and a map of plain ints has lcm 1,
so both scans run over a whole term map in C.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import reduce
from operator import add, mul, or_

Exponent = tuple[int, ...]
Scalar = int | Fraction
Terms = dict[int, Scalar]  # packed monomial -> nonzero coefficient

# Exponents are fixed-width; all computations here live in tiny degrees,
# so anything past this bound is a bug, never a value to wrap around.
EXPONENT_LIMIT = 1 << 15

# Bits per variable in a packed monomial: the sum of two exponents within
# the limit fits, and the top bit of each field stays free as a guard bit
# for the fieldwise comparisons of ``try_divide``.
FIELD = 17
MASK = (1 << FIELD) - 1

# The squarefree test takes its integer images only while each power xi^deg
# stays within this many bits (about 5000 decimal digits); past it the test
# takes the gcd route.  The resultant and the heuristic gcd have no such cap.
HEURISTIC_BITS = 1 << 14


class ExponentOverflowError(OverflowError):
    """A term exponent exceeded the fixed-width bound."""


def _scalar(value: Scalar) -> Scalar:
    """``value`` as stored: an int, or a Fraction only when it is not integral."""
    if isinstance(value, (int, Fraction)):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _divide(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: a // b when b divides a, else Fraction(a, b), never a float."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _pack(exponent: Exponent) -> int:
    """The key of a monomial: its total degree, then each exponent in turn."""
    key = sum(exponent)
    for e in exponent:
        key = key << FIELD | e
    return key


def _unpack(key: int, n: int) -> Exponent:
    return tuple(key >> FIELD * k & MASK for k in range(n - 1, -1, -1))


def _unit(i: int, n: int) -> int:
    """The key of the i-th of n variables; adding it raises that exponent by one."""
    return 1 << FIELD * n | 1 << FIELD * (n - 1 - i)


def _degrees(keys, n: int) -> list[int]:
    """The largest exponent of each of the n variables over nonempty ``keys``:
    a field is read by masking whole keys, as the largest masked key."""
    return [max(map((MASK << s).__and__, keys)) >> s for s in range(FIELD * (n - 1), -1, -FIELD)]


class MultiPoly:
    """An exact polynomial in named variables with rational coefficients, stored
    as int where integral and as Fraction otherwise; the accessors give Fractions."""

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(variables)
        if list(vs) != sorted(set(vs)):
            raise ValueError("variables must be sorted and distinct")
        cleaned: dict[int, Scalar] = {}
        for exponent, coefficient in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(vs):
                raise ValueError("exponent arity does not match variable list")
            for e in exponent:
                if not isinstance(e, int):
                    raise ValueError(f"exponent {e!r} is not an int")
                if e < 0:
                    raise ValueError("negative exponent")
                if e > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {e} exceeds {EXPONENT_LIMIT}")
            c = _scalar(coefficient)
            if c:
                cleaned[_pack(exponent)] = c
        object.__setattr__(self, "_vars", vs)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return _trusted(tuple(sorted(set(variables))), {})

    @classmethod
    def constant(cls, value: Scalar, variables: Sequence[str] = ()) -> "MultiPoly":
        return _trusted(tuple(sorted(set(variables))), {0: _scalar(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return _trusted((name,), {_unit(0, 1): 1})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def variables(self) -> tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        n = len(self._vars)
        return {_unpack(key, n): Fraction(c) for key, c in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not any(self._terms)

    @property
    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return Fraction(self._terms[0])

    def occurring_variables(self) -> tuple[str, ...]:
        seen = reduce(or_, self._terms, 0)
        n = len(self._vars)
        return tuple(v for i, v in enumerate(self._vars) if seen >> FIELD * (n - 1 - i) & MASK)

    # ------------------------------------------------------------------
    # universe management

    def _embedded(self, variables: tuple[str, ...]) -> dict[int, Scalar]:
        """The terms over ``variables``, not a copy; a name left out must not occur."""
        if variables == self._vars or not any(self._terms):
            return self._terms  # a constant has the key 0 over every variable list
        n, m = len(self._vars), len(variables)
        moves = [(FIELD * (n - 1 - i), FIELD * (m - 1 - variables.index(v)))
                 for i, v in enumerate(self._vars) if v in variables]
        out = {}
        for key, c in self._terms.items():
            moved = key >> FIELD * n << FIELD * m  # the total degree
            for old, new in moves:
                moved |= (key >> old & MASK) << new
            out[moved] = c
        return out

    @staticmethod
    def _merge(p: "MultiPoly", q: "MultiPoly"):
        """The common variables and both term maps over them, uncopied."""
        if p._vars == q._vars:
            return p._vars, p._terms, q._terms
        variables = tuple(sorted(set(p._vars) | set(q._vars)))
        return variables, p._embedded(variables), q._embedded(variables)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other) -> "MultiPoly":
        variables, a, b = self._merge(self, _as_poly(other))
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) + c
        return _trusted(variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _trusted(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        variables, a, b = self._merge(self, _as_poly(other))
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) - c
        return _trusted(variables, out)

    def __rsub__(self, other) -> "MultiPoly":
        return _as_poly(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            scale = _scalar(other)
            return _trusted(self._vars, {e: c * scale for e, c in self._terms.items()})
        variables, a, b = self._merge(self, other)
        return _trusted(variables, _mul_terms(a, b, len(variables)) if a and b else {})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        if n < 2:
            return self if n else MultiPoly.constant(1, self._vars)
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half

    def __floordiv__(self, other) -> "MultiPoly":
        """The exact quotient self/other.  A scalar or constant divisor
        divides every coefficient, so the quotient may hold Fractions;
        otherwise a divisor that does not divide self raises ArithmeticError."""
        if isinstance(other, MultiPoly) and any(other._terms):
            quotient = try_divide(self, other)
            if quotient is None:
                raise ArithmeticError("the division must be exact")
            return quotient
        scale = other._terms.get(0, 0) if isinstance(other, MultiPoly) else _scalar(other)
        if not scale:
            raise ZeroDivisionError("division by the zero polynomial")
        return _trusted(self._vars, {key: _divide(c, scale) for key, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = self._merge(self, other)
        return a == b

    def __hash__(self):
        if self.is_constant:  # as its scalar, which it equals
            return hash(self._terms.get(0, 0))
        occ = self.occurring_variables()
        return hash((occ, frozenset(self._embedded(occ).items())))

    def __bool__(self) -> bool:
        return not self.is_zero

    # ------------------------------------------------------------------
    # calculus and substitution

    def substitute(self, mapping: Mapping[str, MultiPoly | Scalar]) -> "MultiPoly":
        """Compose with the given (total on occurring variables) assignment:
        the sum over the terms of each coefficient times each image raised
        to the term's exponent of its variable."""
        occurring = self.occurring_variables()
        missing = [v for v in occurring if v not in mapping]
        if missing:
            raise ValueError(f"substitution missing variables: {missing}")
        images = {name: _as_poly(value) for name, value in mapping.items()}
        out = MultiPoly.zero()
        for key, coeff in self._terms.items():
            term = coeff
            for name, e in zip(self._vars, _unpack(key, len(self._vars))):
                if e:
                    term = term * images[name] ** e
            out = out + term
        return out

    def specialize(self, name: str, value: Scalar) -> "MultiPoly":
        """Set the variable ``name`` to the scalar ``value`` by ``_evaluate``,
        as the heuristic gcd evaluates; the result is free of it."""
        value = _scalar(value)
        if name not in self._vars:
            return self
        rest = tuple(v for v in self._vars if v != name)
        evaluated = _evaluate(_buckets(self._terms, len(self._vars), self._vars.index(name)), value)
        return _trusted(rest, _trusted(self._vars, evaluated)._embedded(rest))

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        return self.substitute(assignment).constant_value

    def partial_derivative(self, name: str) -> "MultiPoly":
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        n, i = len(self._vars), self._vars.index(name)
        shift, unit = FIELD * (n - 1 - i), _unit(i, n)
        out: dict[int, Scalar] = {}
        for key, coeff in self._terms.items():
            e = key >> shift & MASK
            if e:
                out[key - unit] = coeff * e
        return _trusted(self._vars, out)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        occ = self.occurring_variables()
        terms = self._embedded(occ)
        pieces = []
        for key in sorted(terms, reverse=True):
            coeff = terms[key]
            factors = []
            for v, e in zip(occ, _unpack(key, len(occ))):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            mag = abs(coeff)
            if factors and mag == 1:
                body = "*".join(factors)
            elif factors:
                body = f"{mag}*" + "*".join(factors)
            else:
                body = str(mag)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"MultiPoly({self})"


def _trusted(variables: tuple[str, ...], terms: Mapping[int, Scalar]) -> MultiPoly:
    """An arithmetic result, unchecked: ``variables`` sorted, keys packed over
    them with exponents in range.  Zeros are dropped and an integral Fraction
    is stored as its int."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "_vars", variables)
    object.__setattr__(p, "_terms", {e: c if c.denominator != 1 else c.numerator
                                     for e, c in terms.items() if c})
    return p


def _as_poly(value: MultiPoly | Scalar) -> MultiPoly:
    """``value`` as a MultiPoly; a scalar becomes a constant."""
    return value if isinstance(value, MultiPoly) else MultiPoly.constant(value)


def variables(*names: str) -> tuple[MultiPoly, ...]:
    return tuple(MultiPoly.variable(n) for n in names)


# ----------------------------------------------------------------------
# divisibility, gcd, squarefreeness

def _mul_terms(a: Terms, b: Terms, n: int) -> Terms:
    """The product of two nonempty term maps over n variables; a coefficient
    that cancels is left as a zero."""
    # the top degrees add up; a total degree bounds every exponent
    if (max(a) >> FIELD * n) + (max(b) >> FIELD * n) > EXPONENT_LIMIT:
        if max(map(add, _degrees(a, n), _degrees(b, n))) > EXPONENT_LIMIT:
            raise ExponentOverflowError(f"a product exponent exceeds {EXPONENT_LIMIT}")
    out: Terms = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = ea + eb
            out[key] = get(key, 0) + ca * cb
    return out


def _divide_terms(rem: Terms, qt: Terms, n: int) -> Terms | None:
    """The quotient rem/qt of two nonempty term maps over n variables when
    it is exact, else None; ``rem`` is not changed.

    Keys are compared field by field: with the guard bit of every field set,
    a subtraction keeps each guard bit exactly when its field did not go
    below zero.  Each field of the OR of the keys of ``rem`` is at least
    deg_v rem and below the guard bit; less deg_v qt it bounds the room of
    v, as no term of an exact quotient has an exponent above
    deg_v rem - deg_v qt.  The division stops at a quotient term past its
    room, so every remainder exponent stays within the OR.  Less only the
    exponents of the leading term of qt, a remainder exponent could reach
    the guard bit, and the division would never end.
    """
    guards = ((1 << FIELD * n) - 1) // MASK << FIELD - 1  # the top bit of each field
    bound = (reduce(or_, rem) | guards) - _pack(_degrees(qt, n))
    if bound & guards != guards:
        return None  # some deg_v qt exceeds deg_v rem
    rem = dict(rem)
    lq = max(qt)
    cq = qt[lq]
    quotient: Terms = {}
    while rem:
        lr = max(rem)
        diff = (lr | guards) - lq
        if diff & guards != guards:
            return None  # lq does not divide lr
        diff -= guards
        if (bound - diff) & guards != guards:
            return None  # an exponent of diff exceeds its room
        c = _divide(rem[lr], cq)
        quotient[diff] = c
        for eq, cq2 in qt.items():
            key = diff + eq
            nxt = rem.get(key, 0) - c * cq2
            if nxt:
                rem[key] = nxt
            else:
                del rem[key]
    return quotient


def try_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """Return p/q when q divides p exactly, else None."""
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return MultiPoly.zero()
    vs, rem, qt = MultiPoly._merge(p, q)
    quotient = _divide_terms(rem, qt, len(vs))
    return None if quotient is None else _trusted(vs, quotient)


def normalize(p: MultiPoly) -> MultiPoly:
    """Scale to primitive integer coefficients with positive leading one: the
    lcm of the denominators clears them (``_integral``), the integer content
    divides out (``_primitive``), and a negative leading coefficient flips
    the sign.  ``p`` itself when it is 0 or already normalized."""
    if not p._terms:
        return p
    terms = _primitive(_integral(p._terms)[1])[1]
    if terms[max(terms)] < 0:
        terms = {key: -c for key, c in terms.items()}
    return p if terms is p._terms else _trusted(p._vars, terms)


def _buckets(terms: Terms, n: int, i: int) -> dict[int, Terms]:
    """The terms over n variables grouped by the exponent d of the i-th,
    each with that exponent removed: the coefficients in it, by degree."""
    shift, unit = FIELD * (n - 1 - i), _unit(i, n)
    out: dict[int, Terms] = {}
    for key, coeff in terms.items():
        d = key >> shift & MASK
        out.setdefault(d, {})[key - d * unit] = coeff
    return out


# ----------------------------------------------------------------------
# the subresultant remainder sequence, on lists of coefficients

def _subresultant_prs(f: list, g: list):
    """The subresultant remainder sequence of the lists of coefficients f and g.

    ``f`` and ``g`` are [c_0, ..., c_n] and [c_0, ..., c_m] with n >= m > 0,
    i.e. len(f) >= len(g) >= 2 (every caller puts the longer list first),
    each entry free of the main variable: ints for the integer images, and
    MultiPolys in the tests' second gcd route, combined with the same
    operators.  Each pseudo-division is the classical one (Brown and
    Traub, JACM 18, 1971; Knuth, TAOCP 2, 4.6.1): R starts as A, and the
    step at each degree d = deg A, ..., deg B = m pops the top entry lc of
    R, multiplies the rest by ell(B) unless that is 1, and subtracts
    lc x^(d-m) B from it unless lc is 0, which leaves
    prem(A, B) = ell(B)^(deg A - m + 1) A mod B.  Each pseudo-division
    yields (A, B, h): A is the previous B, B = prem(A, B) / (g h^delta)
    entry by entry, and the classical g/h divisor bookkeeping keeps every
    division exact, so ``//`` divides exactly on ints and on MultiPolys
    alike; when g h^delta is 1 (always at the first one) no division runs.
    g and h start as the int 1.  B drops its trailing zeros, so deg B is
    len(B) - 1 and the zero polynomial is [].  The sequence ends after a B
    that is zero or free of the main variable.
    """
    gg = hh = 1
    while True:
        m, delta, lead = len(g) - 1, len(f) - len(g), g[-1]
        reduced = list(f)
        for k in range(len(f) - 1 - m, -1, -1):
            lc = reduced.pop()
            if lead != 1:
                reduced = [c * lead for c in reduced]
            if lc:
                for j in range(m):
                    if g[j]:
                        reduced[k + j] -= lc * g[j]
        while reduced and not reduced[-1]:
            reduced.pop()
        divisor = gg * hh ** delta
        f, g = g, reduced if divisor == 1 else [c // divisor for c in reduced]
        gg = f[-1]
        if delta > 0:
            hh = gg ** delta // hh ** (delta - 1)
        yield f, g, hh
        if len(g) <= 1:
            return


def _sequence_resultant(f: list, g: list):
    """Res(f, g) of two nonempty lists of coefficients from the subresultant
    remainder sequence; a side of degree 0 gives its constant's power.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.7,
    without the content step: after the pseudo-divisions the resultant is
    ell(B)^deg A / h^(deg A - 1), up to the sign (-1)^(deg A * deg B)
    gathered at every step and at the initial swap.
    """
    n, m = len(f) - 1, len(g) - 1
    sign = 1
    if n < m:
        f, g, n, m = g, f, m, n
        sign = -1 if n & m & 1 else 1
    if m == 0:
        return g[0] ** n
    for f, g, h in _subresultant_prs(f, g):
        if n & m & 1:
            sign = -sign
        if not g:
            return 0
        n, m = m, len(g) - 1
    value = g[0] ** n // h ** (n - 1)
    return value if sign > 0 else -value


def _integral(terms: Terms) -> tuple[int, Terms]:
    """(c, c * terms) with c the lcm of the denominators of ``terms``; a map
    of plain ints has lcm 1 and is returned as it is."""
    if set(map(type, terms.values())) <= {int}:
        return 1, terms
    c = math.lcm(*(v.denominator for v in terms.values()))
    return c, terms if c == 1 else {key: (v * c).numerator for key, v in terms.items()}


def _shape(terms: Terms, n: int, j: int) -> tuple[list[int], list[int]]:
    """(degrees, norms) of a nonempty int term map over n variables: each
    variable's largest exponent, and the 1-norm of each coefficient in the j-th."""
    degrees, sj = _degrees(terms, n), FIELD * (n - 1 - j)
    norms = [0] * (degrees[j] + 1)
    for key, c in terms.items():
        norms[key >> sj & MASK] += abs(c)
    return degrees, norms


def _levels(f, g, n: int, j: int):
    """The (field shift, bit count, variable index, degree bound D_i) of
    each level of the point of ``resultant`` for two sides of the shapes f
    and g (``_shape``; the degree in the j-th of n variables is read from
    the norms alone)."""
    (ef, nf), (eg, ng) = f, g
    df, dg = len(nf) - 1, len(ng) - 1
    bound = math.isqrt(sum(map(mul, nf, nf)) ** dg * sum(map(mul, ng, ng)) ** df)
    bits = (2 * bound + 3).bit_length()  # 2^bits >= 2B + 2
    levels = []
    for i in range(n):
        if i != j and (ef[i] or eg[i]):
            degree = dg * ef[i] + df * eg[i]
            levels.append((FIELD * (n - 1 - i), bits, i, degree))
            bits *= degree + 1
    return levels


def _image(terms: Terms, n: int, j: int, length: int, levels) -> list[int]:
    """The ``length`` int coefficients in the j-th of n variables of an int
    term map at the powers of two of ``levels``: each coefficient is added,
    shifted left by sum e_i k_i, to its degree's entry."""
    sj = FIELD * (n - 1 - j)
    image = [0] * length
    for key, c in terms.items():
        shift = 0
        for si, w, _, _ in levels:
            shift += (key >> si & MASK) * w
        image[key >> sj & MASK] += c << shift
    return image


def _evaluate(buckets: dict[int, Terms], xi: Scalar) -> Terms:
    """The sum of bucket_d * xi^d over the coefficients by degree from
    ``_buckets``, without zero coefficients: a variable set to the scalar
    ``xi``, as the heuristic gcd and ``MultiPoly.specialize`` evaluate."""
    out: Terms = {}
    for d, bucket in buckets.items():
        power = xi ** d
        for key, c in bucket.items():
            out[key] = out.get(key, 0) + c * power
    return {key: c for key, c in out.items() if c}


def _interpolate(h: Terms, xi: int, unit: int) -> Terms:
    """The symmetric xi-adic expansion of h: the term map sum_e g_e v^e, with
    v the variable whose key is ``unit`` and every coefficient of g_e in
    (-xi/2, xi/2], that takes the value h at v = xi.

    Each integer of h is expanded on its own, one digit per step, and its
    e-th digit goes to its key plus e units.  The resultant and the gcd
    both lift through it.  Every level of the resultant is xi = 2^k, and
    then each digit is read with a shift and a mask, ``c >> k`` and
    ``c & (xi - 1)``, in time linear in the size of c; any other xi takes
    one divmod per digit.  The gcd keeps its own points, mostly not powers
    of two: with each rounded up to a power of two, it lifted 3.8 times as
    many candidates over random gcds in Q[a, x, y] and gave up on some that
    its own points answer."""
    out: Terms = {}
    half, k = xi // 2, xi.bit_length() - 1
    mask = xi - 1 if xi == 1 << k else 0
    for key, c in h.items():
        while c:
            c, digit = (c >> k, c & mask) if mask else divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[key] = digit
            key += unit
    return out


def _primitive(terms: Terms) -> tuple[int, Terms]:
    """(integer content, primitive part) of a nonzero term map with int
    coefficients; the content is positive."""
    content = math.gcd(*terms.values())
    return content, terms if content == 1 else {key: c // content for key, c in terms.items()}


def _heuristic_gcd(a: Terms, b: Terms, n: int) -> Terms:
    """gcd(a, b) of two nonzero term maps over n variables with int
    coefficients by the heuristic gcd that ``poly_gcd`` describes.  An image
    that evaluates to zero counts as a failed candidate.  Where one variable
    occurs, the answer is exact."""
    ca, a = _primitive(a)
    cb, b = _primitive(b)
    gamma = math.gcd(ca, cb)
    if not any(a) or not any(b):  # a side is constant: the gcd is an integer
        return {0: gamma}
    seen = reduce(or_, a, 0) | reduce(or_, b, 0)
    i = next(i for i in range(n) if seen >> FIELD * (n - 1 - i) & MASK)
    if not seen & (1 << FIELD * (n - 1 - i)) - 1:  # the i-th variable alone occurs
        # its degree is the total degree of the largest key
        lists = [_image(t, n, i, (max(t) >> FIELD * n) + 1, ()) for t in (a, b)]
        for f, g, _ in _subresultant_prs(*sorted(lists, key=len, reverse=True)):
            pass
        tail = g or f  # the last nonzero element of the sequence
        content = math.gcd(*tail) if tail[-1] > 0 else -math.gcd(*tail)
        return {k * _unit(i, n): c // content * gamma for k, c in enumerate(tail) if c}
    ba, bb, unit = _buckets(a, n, i), _buckets(b, n, i), _unit(i, n)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    while True:
        ea, eb = _evaluate(ba, xi), _evaluate(bb, xi)
        if ea and eb:
            g = _primitive(_interpolate(_heuristic_gcd(ea, eb, n), xi, unit))[1]
            if _divide_terms(a, g, n) is not None and _divide_terms(b, g, n) is not None:
                return {key: c * gamma for key, c in g.items()}
        xi = xi * 73794 // 27011


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A gcd, primitive with positive leading coefficient.

    The heuristic gcd GCDHEU of Char, Geddes and Gonnet (J. Symbolic
    Computation 7, 1989; Geddes, Czapor and Labahn, *Algorithms for Computer
    Algebra*, 7.7), on packed term maps.  Both sides are scaled to primitive
    integer polynomials A and B.  The first occurring variable v is set to an
    integer xi >= 2 min(|A|, |B|) + 2, |.| the largest absolute coefficient,
    and the images are handled the same way, variable by variable, until one
    variable is left.  There the gcd is the primitive part, with positive
    leading coefficient, of the last nonzero remainder of the integer
    subresultant sequence, times the gcd of the contents: exact, with
    nothing evaluated, lifted or divided.  The symmetric xi-adic expansion,
    every coefficient in (-xi/2, xi/2], lifts each gcd of images back to a
    polynomial in v, and the candidate is that polynomial's integer
    primitive part.

    A candidate is accepted only when it divides A and B exactly; given the
    bound on xi, it is then the gcd.  A rejected candidate grows xi by
    73794/27011, and the loop ends because every level below is exact: with
    G = gcd(A, B), for all but finitely many xi the gcd of the images of
    A/G and B/G is an integer E bounded independently of xi, so the gcd of
    the images is E G(xi), and once xi > 2|E G| its lift is +-E G, whose
    primitive part G divides both sides.  A zero side gives the other,
    normalized.
    """
    if p.is_zero or q.is_zero:
        return normalize(p + q)
    vs, a, b = MultiPoly._merge(normalize(p), normalize(q))
    return normalize(_trusted(vs, a if a == b else _heuristic_gcd(a, b, len(vs))))


def _repeated_part(p: MultiPoly) -> MultiPoly:
    """gcd of p with all its partial derivatives (the repeated factors)."""
    g = p
    for name in p.occurring_variables():
        if g.is_constant:
            break
        g = poly_gcd(g, p.partial_derivative(name))
    return g


def is_squarefree(p: MultiPoly) -> bool:
    """True iff no irreducible factor repeats (characteristic zero).

    p is squarefree iff Res_v(p, dp/dv) is not 0 for every variable v that
    occurs in p (Geddes, Czapor and Labahn, *Algorithms for Computer
    Algebra*, 8.2).  If f^2 divides p with f irreducible, f contains some v,
    so f divides p and dp/dv and Res_v is 0.  If p is squarefree and an
    irreducible f with deg_v f > 0 divides p = f h and dp/dv = f_v h + f h_v,
    then f divides f_v h, and as f does not divide h it divides f_v, which is
    impossible: f_v != 0 and deg_v f_v < deg_v f.  p, scaled to integer
    coefficients once, is imaged at the point of ``resultant`` once per
    variable: F = [F_0, ..., F_d].  Setting the other variables commutes with
    d/dv, so the image of dp/dv is [k F_k for k >= 1], and its bound comes
    from p's, as |k p_k|_1 = k |p_k|_1 and deg_i p bounds deg_i dp/dv.  The
    leading coefficient of dp/dv in v is d lc_v(p), never 0, so, as in
    ``resultant``, no degree drops at the point and the integer Res(F, F')
    is 0 exactly when Res_v(p, dp/dv) is; it needs no lift, and the first 0
    answers False.  The bit guard only chooses the route: once a power
    xi^(D_i + 1) of any level needs more than ``HEURISTIC_BITS`` bits, p is
    squarefree iff its gcd with all its partial derivatives is constant
    (``_repeated_part``), which reads no image.
    """
    if p.is_zero:
        raise ValueError("squarefreeness is undefined for 0")
    if p.is_constant:
        raise ValueError("squarefreeness is undefined for constants")
    vs, terms = p._vars, _integral(p._terms)[1]
    n = len(vs)
    for name in p.occurring_variables():
        j = vs.index(name)
        degrees, norms = _shape(terms, n, j)
        levels = _levels((degrees, norms), (degrees, [k * x for k, x in enumerate(norms)][1:]), n, j)
        if any((bits + 1) * (degree + 1) > HEURISTIC_BITS for _, bits, _, degree in levels):
            return _repeated_part(p).is_constant
        image = _image(terms, n, j, len(norms), levels)
        if not _sequence_resultant(image, [k * image[k] for k in range(1, len(image))]):
            return False
    return True


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The radical of p, normalized."""
    if p.is_zero:
        raise ValueError("radical of 0 is undefined")
    return normalize(p // _repeated_part(p))


def extract_exceptional(p: MultiPoly, name: str) -> tuple[int, MultiPoly]:
    """Write p = name^k * q with name not dividing q."""
    if p.is_zero:
        raise ValueError("cannot extract a coordinate power from 0")
    if name not in p._vars:
        return 0, p
    n, i = len(p._vars), p._vars.index(name)
    shift = FIELD * (n - 1 - i)
    k = min(map((MASK << shift).__and__, p._terms)) >> shift
    if k == 0:
        return 0, p
    lowered = k * _unit(i, n)
    return k, _trusted(p._vars, {key - lowered: c for key, c in p._terms.items()})


# ----------------------------------------------------------------------
# the quartic discriminant and resultants

def discriminant_quartic(alpha, beta, gamma) -> MultiPoly:
    """Discriminant of x^4 + alpha*x^2 + beta*x + gamma."""
    a, b, g = map(_as_poly, (alpha, beta, gamma))
    return (
        256 * g ** 3
        - 128 * a ** 2 * g ** 2
        + 144 * a * b ** 2 * g
        - 27 * b ** 4
        + 16 * a ** 4 * g
        - 4 * a ** 3 * b ** 2
    )


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Res(f, g) in ``name`` by evaluation at one large integer.

    Collins' method (*The calculation of multivariate polynomial
    resultants*, JACM 18, 1971) with a Kronecker substitution.  Both sides
    are scaled to integer coefficients: Res(c f, d g) = c^m d^n Res(f, g),
    n = deg f, m = deg g.  With S = sum_k |f_k|_1^2 over the coefficients
    f_k of name^k, each Sylvester row has norm at most sqrt(S) on the unit
    torus, so by Hadamard's inequality every coefficient of Res is at most
    sqrt(S_f^m S_g^n) < B = isqrt(S_f^m S_g^n) + 1 (Goldstein and Graham,
    *A Hadamard-type bound on the coefficients of a determinant of
    polynomials*, SIAM Review 16, 1974).  The other variables are set to
    xi = 2^k, the least power of two >= 2B + 2, and then xi^(D_1 + 1), ...,
    with D_i = m deg_i f + n deg_i g >= deg_i Res, so each monomial of Res
    keeps its own power of xi, with a coefficient below xi/2.  So does each
    leading coefficient in ``name``, with coefficients below B, so by
    Cauchy's bound xi is no root of it and no degree drops.  Each level is
    a power of two 2^k_i, so the image of a term c * prod v_i^e_i is
    c << sum e_i k_i, built from one bucketing of each side by its degree in
    ``name`` (Harvey, *Faster polynomial multiplication via multipoint
    Kronecker substitution*, JSC 44, 2009, packs at powers of two the same
    way).  The sequence runs on the two lists of ints, and ``_interpolate``
    lifts the one integer back, largest power first, by shifts since every
    level is a power of two.  The lift gives each variable exponents up to
    D_i, so a D_i past ``EXPONENT_LIMIT`` raises ``ExponentOverflowError``
    before anything is imaged; the degrees in ``name`` have no such bound.
    A side of degree 0 in ``name`` gives its constant's power.
    """
    if f.is_zero or g.is_zero:
        return MultiPoly.zero()
    vs = tuple(sorted({name, *f._vars, *g._vars}))
    n, j = len(vs), vs.index(name)
    (cf, fi), (cg, gi) = _integral(f._embedded(vs)), _integral(g._embedded(vs))
    (_, nf), (_, ng) = shapes = _shape(fi, n, j), _shape(gi, n, j)
    levels = _levels(*shapes, n, j)
    if any(degree > EXPONENT_LIMIT for *_, degree in levels):
        raise ExponentOverflowError(f"a resultant exponent exceeds {EXPONENT_LIMIT}")
    fl, gl = _image(fi, n, j, len(nf), levels), _image(gi, n, j, len(ng), levels)
    terms = {0: _sequence_resultant(fl, gl)}  # Res(c f, d g) at the levels' point
    for _, bits, i, _ in reversed(levels):
        terms = _interpolate(terms, 1 << bits, _unit(i, n))
    scale = cf ** (len(gl) - 1) * cg ** (len(fl) - 1)
    return _trusted(vs, terms if scale == 1 else {key: _divide(c, scale) for key, c in terms.items()})
