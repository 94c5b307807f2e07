"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely: a sorted tuple of variable names together
with a map from exponent vectors to nonzero Fraction coefficients.  Values
are immutable, every operation is exact, and printing is byte-stable
(graded lexicographic term order over alphabetically sorted variables), so
identities can be asserted with ``==`` and golden strings stay fixed.

Besides ring arithmetic the module provides the elimination-theoretic
tools needed elsewhere: substitution, formal derivatives, extraction of a
coordinate power (for strict transforms under a blow-up), a subresultant
gcd, squarefreeness tests, the closed-form discriminant of a depressed
quartic, and Sylvester resultants evaluated by fraction-free Bareiss
elimination.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]

# Exponents are fixed-width; all computations here live in tiny degrees,
# so anything past this bound is a bug, never a value to wrap around.
EXPONENT_LIMIT = 1 << 15


class ExponentOverflowError(OverflowError):
    """A term exponent exceeded the fixed-width bound."""


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _grlex_key(exponent: Exponent) -> Tuple[int, Exponent]:
    return (sum(exponent), exponent)


class MultiPoly:
    """An exact polynomial in named variables with Fraction coefficients."""

    __slots__ = ("_vars", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        vs = tuple(variables)
        if list(vs) != sorted(set(vs)):
            raise ValueError("variables must be sorted and distinct")
        cleaned: Dict[Exponent, Fraction] = {}
        for exponent, coefficient in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(vs):
                raise ValueError("exponent arity does not match variable list")
            for e in exponent:
                if e < 0:
                    raise ValueError("negative exponent")
                if e > EXPONENT_LIMIT:
                    raise ExponentOverflowError(f"exponent {e} exceeds {EXPONENT_LIMIT}")
            c = _as_fraction(coefficient)
            if c != 0:
                cleaned[exponent] = c
        object.__setattr__(self, "_vars", vs)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("MultiPoly is immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls(sorted(set(variables)), {})

    @classmethod
    def constant(cls, value: Scalar, variables: Sequence[str] = ()) -> "MultiPoly":
        vs = sorted(set(variables))
        return cls(vs, {(0,) * len(vs): _as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): Fraction(1)})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def variables(self) -> Tuple[str, ...]:
        return self._vars

    @property
    def terms(self) -> Dict[Exponent, Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self._terms)

    @property
    def constant_value(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return next(iter(self._terms.values()))

    @property
    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(exp) for exp in self._terms)

    def occurring_variables(self) -> Tuple[str, ...]:
        used = [False] * len(self._vars)
        for exp in self._terms:
            for i, e in enumerate(exp):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self._vars, used) if u)

    def degree_in(self, name: str) -> int:
        if self.is_zero:
            return -1
        if name not in self._vars:
            return 0
        i = self._vars.index(name)
        return max(exp[i] for exp in self._terms)

    def leading(self) -> Tuple[Exponent, Fraction]:
        """Leading term in graded lexicographic order."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self._terms, key=_grlex_key)
        return exp, self._terms[exp]

    # ------------------------------------------------------------------
    # universe management

    def _embedded(self, variables: Tuple[str, ...]) -> Dict[Exponent, Fraction]:
        if variables == self._vars:
            return dict(self._terms)
        positions = [variables.index(v) for v in self._vars]
        out: Dict[Exponent, Fraction] = {}
        width = len(variables)
        for exp, coeff in self._terms.items():
            new = [0] * width
            for pos, e in zip(positions, exp):
                new[pos] = e
            out[tuple(new)] = coeff
        return out

    @staticmethod
    def _merge(p: "MultiPoly", q: "MultiPoly"):
        variables = tuple(sorted(set(p._vars) | set(q._vars)))
        return variables, p._embedded(variables), q._embedded(variables)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerced(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            return other
        return MultiPoly.constant(other, self._vars)

    def __add__(self, other) -> "MultiPoly":
        other = self._coerced(other)
        variables, a, b = self._merge(self, other)
        for exp, coeff in b.items():
            a[exp] = a.get(exp, Fraction(0)) + coeff
        return MultiPoly(variables, a)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self._vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-self._coerced(other))

    def __rsub__(self, other) -> "MultiPoly":
        return self._coerced(other) - self

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerced(other)
        variables, a, b = self._merge(self, other)
        out: Dict[Exponent, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(x + y for x, y in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return MultiPoly(variables, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        result = MultiPoly.constant(1, self._vars)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        _, a, b = self._merge(self, other)
        return a == b

    def __hash__(self):
        occ = self.occurring_variables()
        pruned = _restrict_vars(self, occ)
        return hash((occ, tuple(sorted(pruned._terms.items()))))

    def __bool__(self) -> bool:
        return not self.is_zero

    # ------------------------------------------------------------------
    # calculus and substitution

    def substitute(self, mapping: Mapping[str, Union["MultiPoly", Scalar]]) -> "MultiPoly":
        """Compose with the given (total on occurring variables) assignment."""
        missing = [v for v in self.occurring_variables() if v not in mapping]
        if missing:
            raise ValueError(f"substitution missing variables: {missing}")
        images: Dict[str, MultiPoly] = {}
        for name, value in mapping.items():
            images[name] = value if isinstance(value, MultiPoly) else MultiPoly.constant(value)
        result = MultiPoly.zero()
        for exp, coeff in self._terms.items():
            term = MultiPoly.constant(coeff)
            for v, e in zip(self._vars, exp):
                if e:
                    term = term * images[v] ** e
            result = result + term
        return result

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        return self.substitute(assignment).constant_value

    def partial_derivative(self, name: str) -> "MultiPoly":
        if name not in self._vars:
            raise ValueError(f"unknown variable {name!r}")
        i = self._vars.index(name)
        out: Dict[Exponent, Fraction] = {}
        for exp, coeff in self._terms.items():
            if exp[i] == 0:
                continue
            new = list(exp)
            new[i] -= 1
            out[tuple(new)] = coeff * exp[i]
        return MultiPoly(self._vars, out)

    # ------------------------------------------------------------------
    # printing

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        occ = self.occurring_variables()
        pruned = _restrict_vars(self, occ)
        pieces = []
        for exp in sorted(pruned._terms, key=_grlex_key, reverse=True):
            coeff = pruned._terms[exp]
            factors = []
            for v, e in zip(occ, exp):
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


def _restrict_vars(p: MultiPoly, variables: Tuple[str, ...]) -> MultiPoly:
    """Project onto a variable subset; the dropped variables must not occur."""
    keep = [p._vars.index(v) for v in variables]
    terms = {tuple(exp[i] for i in keep): c for exp, c in p._terms.items()}
    return MultiPoly(variables, terms)


def variables(*names: str) -> Tuple[MultiPoly, ...]:
    return tuple(MultiPoly.variable(n) for n in names)


# ----------------------------------------------------------------------
# parsing

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


# ----------------------------------------------------------------------
# divisibility, gcd, squarefreeness

def try_divide(p: MultiPoly, q: MultiPoly) -> MultiPoly | None:
    """Return p/q when q divides p exactly, else None."""
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return MultiPoly.zero()
    vs, rem, qt = MultiPoly._merge(p, q)
    lq = max(qt, key=_grlex_key)
    cq = qt[lq]
    quotient: Dict[Exponent, Fraction] = {}
    while rem:
        lr = max(rem, key=_grlex_key)
        diff = tuple(a - b for a, b in zip(lr, lq))
        if any(d < 0 for d in diff):
            return None
        c = rem[lr] / cq
        quotient[diff] = quotient.get(diff, Fraction(0)) + c
        for eq, cq2 in qt.items():
            exp = tuple(a + b for a, b in zip(diff, eq))
            nxt = rem.get(exp, Fraction(0)) - c * cq2
            if nxt:
                rem[exp] = nxt
            else:
                rem.pop(exp, None)
    return MultiPoly(vs, quotient)


def normalize(p: MultiPoly) -> MultiPoly:
    """Scale to primitive integer coefficients with positive leading one."""
    if p.is_zero:
        return p
    denom_lcm = 1
    for c in p._terms.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    num_gcd = 0
    for c in p._terms.values():
        num_gcd = math.gcd(num_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    scale = Fraction(denom_lcm, num_gcd)
    _, lead = p.leading()
    if lead < 0:
        scale = -scale
    return p * scale


def _univariate_coefficients(p: MultiPoly, name: str) -> Dict[int, MultiPoly]:
    """View p as a polynomial in ``name``; values are free of ``name``."""
    if name not in p._vars:
        return {0: p} if not p.is_zero else {}
    i = p._vars.index(name)
    buckets: Dict[int, Dict[Exponent, Fraction]] = {}
    for exp, coeff in p._terms.items():
        d = exp[i]
        stripped = exp[:i] + (0,) + exp[i + 1:]
        buckets.setdefault(d, {})[stripped] = coeff
    return {d: MultiPoly(p._vars, terms) for d, terms in buckets.items()}


def _leading_coefficient_in(p: MultiPoly, name: str) -> MultiPoly:
    coeffs = _univariate_coefficients(p, name)
    return coeffs[max(coeffs)]


def _content_and_primitive(p: MultiPoly, name: str) -> Tuple[MultiPoly, MultiPoly]:
    content = MultiPoly.zero()
    for coeff in _univariate_coefficients(p, name).values():
        content = poly_gcd(content, coeff)
    primitive = try_divide(p, content)
    assert primitive is not None
    return content, primitive


def _pseudo_remainder(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    n, m = f.degree_in(name), g.degree_in(name)
    if n < m:
        raise ValueError("pseudo-remainder needs deg f >= deg g")
    lead_g = _leading_coefficient_in(g, name)
    v = MultiPoly.variable(name)
    r = f
    steps = n - m + 1
    while not r.is_zero and r.degree_in(name) >= m:
        d = r.degree_in(name)
        r = lead_g * r - _leading_coefficient_in(r, name) * v ** (d - m) * g
        steps -= 1
    for _ in range(steps):
        r = lead_g * r
    return r


def _subresultant_tail(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Last nonzero element of the subresultant remainder sequence.

    Inputs are primitive in ``name`` with positive degree; the classical
    g/h divisor bookkeeping keeps every division exact.
    """
    if f.degree_in(name) < g.degree_in(name):
        f, g = g, f
    gg = MultiPoly.constant(1)
    hh = MultiPoly.constant(1)
    while True:
        delta = f.degree_in(name) - g.degree_in(name)
        r = _pseudo_remainder(f, g, name)
        if r.is_zero:
            return g
        if r.degree_in(name) == 0:
            return r
        divisor = gg * hh ** delta
        reduced = try_divide(r, divisor)
        assert reduced is not None, "subresultant division must be exact"
        f, g = g, reduced
        gg = _leading_coefficient_in(f, name)
        if delta > 0:
            head = try_divide(gg ** delta, hh ** (delta - 1)) if delta > 1 else gg
            assert head is not None
            hh = head


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
        if tail.degree_in(name) == 0:
            prim_gcd = MultiPoly.constant(1)
        else:
            prim_gcd = _content_and_primitive(tail, name)[1]
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
    """True iff no irreducible factor repeats (characteristic zero)."""
    if p.is_zero:
        raise ValueError("squarefreeness is undefined for 0")
    if p.is_constant:
        raise ValueError("squarefreeness is undefined for constants")
    return _repeated_part(p).is_constant


def squarefree_part(p: MultiPoly) -> MultiPoly:
    """The radical of p, normalized."""
    if p.is_zero:
        raise ValueError("radical of 0 is undefined")
    rep = _repeated_part(p)
    if rep.is_constant:
        return normalize(p)
    reduced = try_divide(p, rep)
    assert reduced is not None
    return normalize(reduced)


def extract_exceptional(p: MultiPoly, name: str) -> Tuple[int, MultiPoly]:
    """Write p = name^k * q with name not dividing q."""
    if p.is_zero:
        raise ValueError("cannot extract a coordinate power from 0")
    if name not in p._vars:
        return 0, p
    i = p._vars.index(name)
    k = min(exp[i] for exp in p._terms)
    if k == 0:
        return 0, p
    terms = {}
    for exp, coeff in p._terms.items():
        new = list(exp)
        new[i] -= k
        terms[tuple(new)] = coeff
    return k, MultiPoly(p._vars, terms)


# ----------------------------------------------------------------------
# the quartic discriminant and resultants

def discriminant_quartic(alpha, beta, gamma) -> MultiPoly:
    """Discriminant of x^4 + alpha*x^2 + beta*x + gamma."""
    a = alpha if isinstance(alpha, MultiPoly) else MultiPoly.constant(alpha)
    b = beta if isinstance(beta, MultiPoly) else MultiPoly.constant(beta)
    g = gamma if isinstance(gamma, MultiPoly) else MultiPoly.constant(gamma)
    return (
        256 * g ** 3
        - 128 * a ** 2 * g ** 2
        + 144 * a * b ** 2 * g
        - 27 * b ** 4
        + 16 * a ** 4 * g
        - 4 * a ** 3 * b ** 2
    )


def sylvester_matrix(f: MultiPoly, g: MultiPoly, name: str) -> list:
    """Sylvester matrix of f and g with respect to ``name``."""
    n, m = f.degree_in(name), g.degree_in(name)
    if n <= 0 and m <= 0:
        raise ValueError("both polynomials are constant in the variable")
    cf = _univariate_coefficients(f, name)
    cg = _univariate_coefficients(g, name)
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


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Res(f, g) in ``name`` by fraction-free Bareiss elimination."""
    n, m = f.degree_in(name), g.degree_in(name)
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
