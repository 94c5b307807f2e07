"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely: a sorted tuple of variable names and a
map from packed monomials to nonzero coefficients (an int when integral, a
Fraction otherwise).  A monomial is one int: the total degree in the top
field, then one ``FIELD``-bit field per variable, first variable highest,
so integer order is graded lexicographic order and a monomial product is
one addition.  Exponent tuples appear only at the public boundary (the
constructor, ``terms`` and ``leading``), and the accessors (``terms``,
``leading``, ``constant_value``, ``evaluate``) give Fractions.  Values are
immutable, every operation is exact, and printing is byte-stable (graded
lexicographic order over alphabetically sorted variables), so identities
can be asserted with ``==`` and golden strings stay fixed.

Besides ring arithmetic the module provides the elimination-theoretic
tools needed elsewhere: substitution, restriction to a coordinate
hyperplane (``specialize``), formal derivatives, extraction of a
coordinate power (for strict transforms under a blow-up), squarefreeness
tests, the closed-form discriminant of a depressed quartic, and one
subresultant pseudo-remainder sequence that gives the gcd, the resultant
and the squarefreeness test.  The sequence runs on coefficient lists in the
eliminated variable whose constant entries stay plain ints and Fractions,
so over Q[x] it builds no MultiPoly at all; every public function still
returns a MultiPoly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from operator import add, or_
from typing import Dict, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]
# an entry of a coefficient list: a constant is kept as its scalar
Coefficient = Union["MultiPoly", Scalar]

# Exponents are fixed-width; all computations here live in tiny degrees,
# so anything past this bound is a bug, never a value to wrap around.
EXPONENT_LIMIT = 1 << 15

# Bits per variable in a packed monomial: the sum of two exponents within
# the limit fits, and the top bit of each field stays free as a guard bit
# for the fieldwise comparisons of ``try_divide``.
FIELD = 17
MASK = (1 << FIELD) - 1


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


def _degrees(keys, n: int) -> List[int]:
    """The largest exponent of each of the n variables over nonempty ``keys``."""
    return [max(key >> FIELD * k & MASK for key in keys) for k in range(n - 1, -1, -1)]


class MultiPoly:
    """An exact polynomial in named variables with rational coefficients, stored
    as int where integral and as Fraction otherwise; the accessors give Fractions."""

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(variables)
        if list(vs) != sorted(set(vs)):
            raise ValueError("variables must be sorted and distinct")
        cleaned: Dict[int, Scalar] = {}
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
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> Dict[Exponent, Fraction]:
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

    def occurring_variables(self) -> Tuple[str, ...]:
        seen = reduce(or_, self._terms, 0)
        n = len(self._vars)
        return tuple(v for i, v in enumerate(self._vars) if seen >> FIELD * (n - 1 - i) & MASK)

    def degree_in(self, name: str) -> int:
        if self.is_zero:
            return -1
        if name not in self._vars:
            return 0
        return _degrees(self._terms, len(self._vars))[self._vars.index(name)]

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Leading term in graded lexicographic order."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        key = max(self._terms)
        return _unpack(key, len(self._vars)), Fraction(self._terms[key])

    # ------------------------------------------------------------------
    # universe management

    def _embedded(self, variables: Tuple[str, ...]) -> Dict[int, Scalar]:
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

    def _coerced(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return _trusted(self._vars, {0: _scalar(other)})

    def __add__(self, other) -> "MultiPoly":
        variables, a, b = self._merge(self, self._coerced(other))
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) + c
        return _trusted(variables, out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return _trusted(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        variables, a, b = self._merge(self, self._coerced(other))
        out = dict(a)
        for key, c in b.items():
            out[key] = out.get(key, 0) - c
        return _trusted(variables, out)

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerced(other) - self

    def __mul__(self, other) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            scale = _scalar(other)
            return _trusted(self._vars, {e: c * scale for e, c in self._terms.items()})
        variables, a, b = self._merge(self, other)
        if not a or not b:
            return _trusted(variables, {})
        n = len(variables)
        # the top degrees add up; a total degree bounds every exponent
        if (max(a) >> FIELD * n) + (max(b) >> FIELD * n) > EXPONENT_LIMIT:
            if max(map(add, _degrees(a, n), _degrees(b, n))) > EXPONENT_LIMIT:
                raise ExponentOverflowError(f"a product exponent exceeds {EXPONENT_LIMIT}")
        out: Dict[int, Scalar] = {}
        get = out.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                key = ea + eb
                out[key] = get(key, 0) + ca * cb
        return _trusted(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        if n < 2:
            return self if n else MultiPoly.constant(1, self._vars)
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half

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

    def substitute(self, mapping: Mapping[str, Union["MultiPoly", Scalar]]) -> "MultiPoly":
        """Compose with the given (total on occurring variables) assignment."""
        missing = [v for v in self.occurring_variables() if v not in mapping]
        if missing:
            raise ValueError(f"substitution missing variables: {missing}")
        images = {name: _as_poly(value) for name, value in mapping.items()}
        n = len(self._vars)
        terms = [(_unpack(key, n), coeff) for key, coeff in self._terms.items()]
        needed = {(v, e) for exp, _ in terms for v, e in zip(self._vars, exp) if e}
        powers = {(v, e): images[v] ** e for v, e in needed}
        result = MultiPoly.zero()
        for exp, coeff in terms:
            term = MultiPoly.constant(coeff)
            for v, e in zip(self._vars, exp):
                if e:
                    term = term * powers[v, e]
            result = result + term
        return result

    def specialize(self, name: str, value: Scalar) -> "MultiPoly":
        """Set the variable ``name`` to the scalar ``value``; the result is free of it."""
        value = _scalar(value)
        if name not in self._vars:
            return self
        rest = tuple(v for v in self._vars if v != name)
        out: Dict[int, Scalar] = {}
        for d, c in _univariate_coefficients(self, name).items():
            for key, coeff in c._embedded(rest).items():
                out[key] = out.get(key, 0) + coeff * value ** d
        return _trusted(rest, out)

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        return self.substitute(assignment).constant_value

    def partial_derivative(self, name: str) -> "MultiPoly":
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        n, i = len(self._vars), self._vars.index(name)
        shift, unit = FIELD * (n - 1 - i), _unit(i, n)
        out: Dict[int, Scalar] = {}
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


def _trusted(variables: Tuple[str, ...], terms: Mapping[int, Scalar]) -> MultiPoly:
    """An arithmetic result, unchecked: ``variables`` sorted, keys packed over
    them with exponents in range.  Zeros are dropped and an integral Fraction
    is stored as its int."""
    p = object.__new__(MultiPoly)
    object.__setattr__(p, "_vars", variables)
    object.__setattr__(p, "_terms", {e: c if c.denominator != 1 else c.numerator
                                     for e, c in terms.items() if c})
    return p


def _as_poly(value: Coefficient) -> MultiPoly:
    """``value`` as a MultiPoly; a scalar becomes a constant."""
    return value if isinstance(value, MultiPoly) else MultiPoly.constant(value)


def variables(*names: str) -> Tuple[MultiPoly, ...]:
    return tuple(MultiPoly.variable(n) for n in names)


# ----------------------------------------------------------------------
# divisibility, gcd, squarefreeness

def try_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """Return p/q when q divides p exactly, else None.

    Keys are compared field by field: with the guard bit of every field set,
    a subtraction keeps each guard bit exactly when its field did not go
    below zero.  No term of an exact quotient has an exponent above
    deg_v p - deg_v q, so the division stops at one, and every remainder
    exponent stays within deg_v p.
    """
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return MultiPoly.zero()
    vs, rem, qt = MultiPoly._merge(p, q)
    n = len(vs)
    room = [dp - dq for dp, dq in zip(_degrees(rem, n), _degrees(qt, n))]
    if min(room, default=0) < 0:
        return None
    guards = sum(1 << FIELD * k + FIELD - 1 for k in range(n))
    bound = _pack(room) | guards
    rem = dict(rem)
    lq = max(qt)
    cq = qt[lq]
    quotient: Dict[int, Scalar] = {}
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
    return _trusted(vs, quotient)


def normalize(p: MultiPoly) -> MultiPoly:
    """Scale to primitive integer coefficients with positive leading one."""
    if p.is_zero:
        return p
    denom_lcm = math.lcm(*(c.denominator for c in p._terms.values()))
    num_gcd = math.gcd(*(c.numerator * (denom_lcm // c.denominator) for c in p._terms.values()))
    scale = _divide(denom_lcm, num_gcd)
    _, lead = p.leading()
    if lead < 0:
        scale = -scale
    return p if scale == 1 else p * scale


def _is_one(p: Coefficient) -> bool:
    return p._terms == {0: 1} if isinstance(p, MultiPoly) else p == 1


def _exact_quotient(p: Coefficient, q: Coefficient) -> Coefficient:
    """p/q where q is known to divide p; no division at all when q is 1.  Either
    may be a scalar; a scalar q divides term by term, and two scalars give one."""
    if _is_one(q):
        return p
    if not isinstance(q, MultiPoly):
        if not isinstance(p, MultiPoly):
            return _divide(p, q)
        return _trusted(p._vars, {key: _divide(c, q) for key, c in p._terms.items()})
    quotient = try_divide(_as_poly(p), q)
    if quotient is None:
        raise ArithmeticError("the division must be exact")
    return quotient


def _univariate_coefficients(p: MultiPoly, name: str) -> Dict[int, MultiPoly]:
    """View p as a polynomial in ``name``; values are free of ``name``."""
    if name not in p._vars:
        return {0: p} if not p.is_zero else {}
    n, i = len(p._vars), p._vars.index(name)
    shift, unit = FIELD * (n - 1 - i), _unit(i, n)
    buckets: Dict[int, Dict[int, Scalar]] = {}
    for key, coeff in p._terms.items():
        d = key >> shift & MASK
        buckets.setdefault(d, {})[key - d * unit] = coeff
    return {d: _trusted(p._vars, terms) for d, terms in buckets.items()}


def _coefficient_list(p: MultiPoly, name: str) -> List[Coefficient]:
    """[c_0, ..., c_n] with p = sum c_k name^k and c_n != 0; [] for p = 0.  A
    constant c_k is its int or Fraction and a missing one is 0, so a sequence
    in a univariate p runs on scalars alone."""
    coefficients = _univariate_coefficients(p, name)
    out: List[Coefficient] = [0] * (max(coefficients, default=-1) + 1)
    for k, c in coefficients.items():
        out[k] = c if any(c._terms) else c._terms[0]
    return out


def _from_coefficient_list(coefficients: Sequence[Coefficient], name: str) -> MultiPoly:
    """sum c_k name^k; the inverse of ``_coefficient_list``."""
    coefficients = [_as_poly(c) for c in coefficients]
    vs = tuple(sorted({name}.union(*(c._vars for c in coefficients))))
    unit = _unit(vs.index(name), len(vs))
    terms: Dict[int, Scalar] = {}
    for k, c in enumerate(coefficients):
        for key, coeff in c._embedded(vs).items():
            terms[key + k * unit] = coeff
    return _trusted(vs, terms)


def _content_and_primitive(p: MultiPoly, name: str) -> Tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of p as a polynomial in ``name``.

    The content is the gcd of the coefficients in ``name``.  It is 1, with no
    gcd and no division run, as soon as one coefficient is a nonzero constant;
    otherwise the gcd is folded over the coefficients with the fewest terms
    first, and stops once it reaches 1.
    """
    coefficients = _univariate_coefficients(p, name).values()
    if any(c.is_constant for c in coefficients):
        return MultiPoly.constant(1), p
    content = MultiPoly.zero()
    for coeff in sorted(coefficients, key=lambda c: len(c._terms)):
        content = poly_gcd(content, coeff)
        if content.is_constant:
            break  # the coefficients are nonzero, so content is 1 and stays 1
    return content, _exact_quotient(p, content)


def _pseudo_remainder(f: List[Coefficient], g: List[Coefficient]) -> List[Coefficient]:
    """prem(f, g) = ell(g)^(n-m+1) f mod g on coefficient lists, n >= m > 0.

    ``f`` and ``g`` are [c_0, ..., c_n] and [c_0, ..., c_m], each entry free of
    the main variable and a constant entry a scalar (see ``_coefficient_list``),
    so two constant entries combine in scalar arithmetic.  The step at degree
    d rewrites only the m entries d-m .. d-1 that x^(d-m) g reaches; an entry
    it skips owes one factor
    ell(g), and ``paid[k]`` records how many steps entry k has been scaled
    through, so the debt is paid in one product when the entry is next read.
    Zero entries, zero leading entries and ell(g) = 1 cost no product.  The
    result has m entries, trailing zeros included.
    """
    n, m = len(f) - 1, len(g) - 1
    if n < m:
        raise ValueError("pseudo-remainder needs deg f >= deg g")
    lead = g[m]
    monic = _is_one(lead)
    powers = [1, lead]
    r = list(f)
    paid = [0] * len(r)

    def settled(k: int, steps: int) -> Coefficient:
        """Entry k of the remainder after ``steps`` steps."""
        owed = steps - paid[k]
        if monic or not owed or not r[k]:
            return r[k]
        while len(powers) <= owed:
            powers.append(powers[-1] * lead)
        return powers[owed] * r[k]

    for step, d in enumerate(range(n, m - 1, -1)):
        lc = settled(d, step)
        if not lc:
            continue
        for j in range(m):
            k = d - m + j
            entry = settled(k, step + 1)
            r[k] = entry - lc * g[j] if g[j] else entry
            paid[k] = step + 1
    return [settled(k, n - m + 1) for k in range(m)]


def _subresultant_prs(f: List[Coefficient], g: List[Coefficient]):
    """The subresultant remainder sequence of the coefficient lists f and g.

    Needs deg f >= deg g > 0, i.e. len(f) >= len(g) >= 2.  Each
    pseudo-division yields (A, B, h): A is the previous B, B = prem(A, B) /
    (g h^delta) entry by entry, and the classical g/h divisor bookkeeping
    keeps every division exact; when g h^delta is 1 (always at the first
    step) no division runs.  g and h start as the int 1 and, like every
    entry, stay scalars for as long as the leading coefficients are constant.
    B drops its trailing zeros, so deg B is len(B) - 1 and the zero
    polynomial is [].  The sequence ends after a B that is zero or free of
    the main variable.
    """
    gg = hh = 1
    while True:
        delta = len(f) - len(g)
        reduced = _pseudo_remainder(f, g)
        while reduced and not reduced[-1]:
            reduced.pop()
        divisor = gg * hh ** delta
        f, g = g, [_exact_quotient(c, divisor) for c in reduced]
        gg = f[-1]
        if delta > 0:
            hh = _exact_quotient(gg ** delta, hh ** (delta - 1))
        yield f, g, hh
        if len(g) <= 1:
            return


def _subresultant_tail(f: MultiPoly, g: MultiPoly, name: str) -> List[Coefficient]:
    """Last nonzero element of the subresultant remainder sequence, as the
    coefficient list in ``name``.

    Inputs have positive degree in ``name``.
    """
    f, g = _coefficient_list(f, name), _coefficient_list(g, name)
    if len(f) < len(g):
        f, g = g, f
    for f, g, _ in _subresultant_prs(f, g):
        pass
    return g if g else f


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """A gcd, primitive with positive leading coefficient.

    Recursive content/primitive-part reduction over the first occurring
    variable with a subresultant pseudo-remainder sequence on the
    primitive parts.
    """
    if p.is_zero and q.is_zero:
        return MultiPoly.zero()
    if p.is_zero:
        return normalize(q)
    if q.is_zero:
        return normalize(p)
    occurring = sorted(set(p.occurring_variables()) | set(q.occurring_variables()))
    if not occurring:
        return MultiPoly.constant(1)
    name = occurring[0]
    cont_p, prim_p = _content_and_primitive(p, name)
    cont_q, prim_q = _content_and_primitive(q, name)
    content = poly_gcd(cont_p, cont_q)
    if prim_p.degree_in(name) == 0 or prim_q.degree_in(name) == 0:
        prim_gcd = MultiPoly.constant(1)
    else:
        tail = _subresultant_tail(prim_p, prim_q, name)
        if len(tail) == 1:
            prim_gcd = MultiPoly.constant(1)
        else:
            prim_gcd = _content_and_primitive(_from_coefficient_list(tail, name), name)[1]
    return normalize(content * prim_gcd)


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

    With v the first occurring variable, p = content * primitive in v, and
    no factor of the content (free of v) divides the primitive part.  So p is
    squarefree iff the content is, checked recursively, and the primitive
    part shares no factor with its derivative in v, that is, the last nonzero
    subresultant of the two has degree 0 in v (Geddes, Czapor and Labahn,
    *Algorithms for Computer Algebra*, 8.2).  A primitive part of degree 1 in
    v is irreducible, so it is squarefree at once.
    """
    if p.is_zero:
        raise ValueError("squarefreeness is undefined for 0")
    if p.is_constant:
        raise ValueError("squarefreeness is undefined for constants")
    name = p.occurring_variables()[0]
    content, primitive = _content_and_primitive(p, name)
    if not (content.is_constant or is_squarefree(content)):
        return False
    if primitive.degree_in(name) == 1:
        return True
    return len(_subresultant_tail(primitive, primitive.partial_derivative(name), name)) == 1


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The radical of p, normalized."""
    if p.is_zero:
        raise ValueError("radical of 0 is undefined")
    rep = _repeated_part(p)
    if rep.is_constant:
        return normalize(p)
    return normalize(_exact_quotient(p, rep))


def extract_exceptional(p: MultiPoly, name: str) -> Tuple[int, MultiPoly]:
    """Write p = name^k * q with name not dividing q."""
    if p.is_zero:
        raise ValueError("cannot extract a coordinate power from 0")
    if name not in p._vars:
        return 0, p
    n, i = len(p._vars), p._vars.index(name)
    shift = FIELD * (n - 1 - i)
    k = min(key >> shift & MASK for key in p._terms)
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
    """Res(f, g) in ``name`` from the subresultant remainder sequence.

    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.7,
    without the content step: after the pseudo-divisions the resultant is
    ell(B)^deg A / h^(deg A - 1), up to the sign (-1)^(deg A * deg B)
    gathered at every step and at the initial swap.
    """
    f, g = _coefficient_list(f, name), _coefficient_list(g, name)
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return MultiPoly.zero()
    if n == 0:
        return _as_poly(f[0] ** m)
    if m == 0:
        return _as_poly(g[0] ** n)
    sign = 1
    if n < m:
        f, g, n, m = g, f, m, n
        sign = -1 if n & m & 1 else 1
    for f, g, h in _subresultant_prs(f, g):
        if n & m & 1:
            sign = -sign
        if not g:
            return MultiPoly.zero()
        n, m = m, len(g) - 1
    value = _exact_quotient(g[0] ** n, h ** (n - 1))
    return _as_poly(value if sign > 0 else -value)
