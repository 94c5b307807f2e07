"""Truncated power series and the Betti-number bookkeeping built on them.

The equivariant Poincare series of the semistable locus of binary octics
is computed through the torus stratification, the blow-up at the closed
orbit adds a main correction term, and the extra correction is shown to
start in degree 6; assembling these and extending by duality yields the
Betti table of the blown-up quotient.  Independently, a decomposition
rule combines intersection cohomology of a cusped compactification with
boundary-fiber tables.  The two routes must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Sequence, Tuple

from .stability import luna_slice_basis, torus_monomial_weights

SLICE_CODIMENSION = 6
COMPLEX_DIMENSION = 5
STRATIFICATION_BOUND_BASE = 7


class InsufficientCodimensionError(ValueError):
    """Truncation order exceeds what the stratification bound certifies."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series known modulo t^order."""

    coefficients: Tuple[int, ...]
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("truncation order must be positive")
        if len(self.coefficients) != self.order:
            raise ValueError("coefficient list must have length = order")

    @classmethod
    def from_coefficients(cls, coefficients: Sequence[int], order: int) -> "TruncatedSeries":
        coeffs = list(coefficients)[:order]
        coeffs += [0] * (order - len(coeffs))
        return cls(tuple(int(c) for c in coeffs), order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.from_coefficients([1], order)

    @classmethod
    def monomial(cls, degree: int, order: int, coefficient: int = 1) -> "TruncatedSeries":
        coeffs = [0] * order
        if 0 <= degree < order:
            coeffs[degree] = coefficient
        return cls(tuple(coeffs), order)

    @classmethod
    def geometric(cls, m: int, order: int) -> "TruncatedSeries":
        """1/(1 - t^m)."""
        if m < 1:
            raise ValueError("period must be positive")
        return cls.from_coefficients(
            [1 if k % m == 0 else 0 for k in range(order)], order
        )

    @classmethod
    def projective_space(cls, n: int, order: int) -> "TruncatedSeries":
        """Poincare series 1 + t^2 + ... + t^(2n)."""
        return cls.from_coefficients(
            [1 if k % 2 == 0 and k <= 2 * n else 0 for k in range(order)], order
        )

    def coefficient(self, degree: int) -> int:
        if degree >= self.order:
            raise ValueError(f"degree {degree} not determined modulo t^{self.order}")
        return self.coefficients[degree]

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coefficients[:order], order)

    def _aligned(self, other: "TruncatedSeries") -> Tuple["TruncatedSeries", "TruncatedSeries"]:
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self._aligned(other)
        return TruncatedSeries(
            tuple(x + y for x, y in zip(a.coefficients, b.coefficients)), a.order
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self._aligned(other)
        return TruncatedSeries(
            tuple(x - y for x, y in zip(a.coefficients, b.coefficients)), a.order
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        a, b = self._aligned(other)
        out = [0] * a.order
        for i, x in enumerate(a.coefficients):
            if x == 0:
                continue
            for j in range(a.order - i):
                y = b.coefficients[j]
                if y:
                    out[i + j] += x * y
        return TruncatedSeries(tuple(out), a.order)

    def scale(self, factor: int) -> "TruncatedSeries":
        return TruncatedSeries(tuple(factor * c for c in self.coefficients), self.order)

    def invert_unit(self) -> "TruncatedSeries":
        c0 = self.coefficients[0]
        if c0 not in (1, -1):
            raise ValueError("only series with constant term +-1 are invertible here")
        inv = [c0] + [0] * (self.order - 1)
        for k in range(1, self.order):
            acc = 0
            for j in range(1, k + 1):
                acc += self.coefficients[j] * inv[k - j]
            inv[k] = -c0 * acc
        return TruncatedSeries(tuple(inv), self.order)

    def __str__(self) -> str:
        pieces = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                pieces.append(str(c))
            elif k == 1:
                pieces.append(f"{c}*t" if c != 1 else "t")
            else:
                pieces.append(f"{c}*t^{k}" if c != 1 else f"t^{k}")
        body = " + ".join(pieces) if pieces else "0"
        return f"{body} (mod t^{self.order})"


# ----------------------------------------------------------------------
# stratification bookkeeping

@dataclass(frozen=True)
class IndexEntry:
    beta: int
    label: int
    r: int
    codim_bound: int


def kirwan_index_set(
    weights: Sequence[int], bound_base: int = STRATIFICATION_BOUND_BASE
) -> Tuple[IndexEntry, ...]:
    """Nonzero stratification indices for a one-parameter torus action.

    Candidates are the points closest to 0 of convex hulls of one-sided
    weight subsets; for each, r counts the weights alpha with
    alpha*beta >= |beta|^2 and the stratum codimension is bounded below by
    bound_base - r.
    """
    candidates = set()
    ws = tuple(weights)
    for size in range(1, len(ws) + 1):
        for combo in combinations(ws, size):
            lo, hi = min(combo), max(combo)
            if lo > 0:
                candidates.add(lo)
            elif hi < 0:
                candidates.add(-hi)
    entries = []
    for beta in sorted(candidates):
        r = sum(1 for alpha in ws if alpha * beta >= beta * beta)
        entries.append(IndexEntry(beta=beta, label=beta // 2, r=r, codim_bound=bound_base - r))
    return tuple(entries)


def semistable_series(n: int = 8, order: int = 6) -> TruncatedSeries:
    """Equivariant Poincare series of the semistable locus modulo t^order.

    Valid while every nonzero stratum has real codimension at least the
    truncation order; then the series is P_t(P^n) * P_t(B SL2).
    """
    entries = kirwan_index_set(torus_monomial_weights(n))
    min_codim = min(e.codim_bound for e in entries)
    if order > 2 * min_codim:
        raise InsufficientCodimensionError(
            f"truncation t^{order} needs stratum codimension {order}/2, "
            f"but the bound only gives {min_codim}"
        )
    return TruncatedSeries.projective_space(n, order) * TruncatedSeries.geometric(4, order)


def main_correction(
    normalizer_series: TruncatedSeries, codimension: int, order: int
) -> TruncatedSeries:
    """Blow-up main correction: invariants series times sum of t^(2i), 0<i<c."""
    if codimension < 2:
        raise ValueError("blow-up correction needs codimension at least 2")
    tail = TruncatedSeries.zero(order)
    for i in range(1, codimension):
        tail = tail + TruncatedSeries.monomial(2 * i, order)
    return normalizer_series.truncate(min(order, normalizer_series.order)) * tail


def normalizer_invariants_series(order: int) -> TruncatedSeries:
    """Invariants of the normalizer at the closed orbit: a free algebra on c^4."""
    return TruncatedSeries.geometric(4, order)


def slice_normal_weights() -> Tuple[int, ...]:
    """Weights on the normal slice: all degree-8 weights minus the orbit tangent."""
    full = list(torus_monomial_weights(8))
    slice_data = luna_slice_basis(8)
    for w in slice_data.tangent_weights:
        full.remove(w)
    assert sorted(full) == sorted(slice_data.weights)
    return tuple(sorted(full))


def extra_correction_min_degree(weights: Sequence[int] | None = None) -> int:
    """Smallest degree where the extra correction can start: min of 2 n(beta').

    For each candidate beta' of the normal representation, n(beta') counts
    the weights below it; the minimum doubles to the first possibly
    nonzero degree.
    """
    ws = tuple(weights) if weights is not None else slice_normal_weights()
    if not ws or any(w == 0 for w in ws):
        raise ValueError("normal weights must be nonzero")
    candidates = {e.beta for e in kirwan_index_set(ws)}
    return min(2 * sum(1 for w in ws if w < beta) for beta in sorted(candidates))


# ----------------------------------------------------------------------
# Betti tables

@dataclass(frozen=True)
class BettiTable:
    """Even-degree Betti numbers b_0, b_2, ..., b_(2n); odd ones vanish."""

    even: Tuple[int, ...]

    @property
    def complex_dimension(self) -> int:
        return len(self.even) - 1

    def is_palindromic(self) -> bool:
        return self.even == tuple(reversed(self.even))

    def by_degree(self) -> Dict[int, int]:
        return {2 * i: v for i, v in enumerate(self.even)}


def extend_by_duality(partial: Sequence[int], complex_dim: int) -> BettiTable:
    """Complete low even degrees to a full palindromic table."""
    needed = (complex_dim + 2) // 2
    if len(partial) < needed:
        raise ValueError("not enough low-degree values to apply duality")
    out = []
    for j in range(complex_dim + 1):
        out.append(partial[j] if j < len(partial) else partial[complex_dim - j])
    table = BettiTable(tuple(out))
    assert table.is_palindromic()
    return table


def kirwan_betti(order: int = 6) -> BettiTable:
    """Betti table of the blown-up quotient via the stratification route."""
    series = semistable_series(8, order) + main_correction(
        normalizer_invariants_series(order), SLICE_CODIMENSION, order
    )
    if extra_correction_min_degree() < order:
        raise AssertionError("extra correction interferes below the truncation")
    partial = [series.coefficient(2 * i) for i in range(order // 2)]
    for k in range(order):
        if k % 2 == 1 and series.coefficient(k) != 0:
            raise AssertionError("odd-degree contribution in an even theory")
    return extend_by_duality(partial, COMPLEX_DIMENSION)


def invariant_sym_square(dims: Sequence[int]) -> Tuple[int, ...]:
    """Swap-invariant dimensions of the tensor square of an even-graded space.

    All degrees are even, so the swap carries no signs and the invariants
    are the graded symmetric square.
    """
    a = tuple(int(x) for x in dims)
    size = 2 * len(a) - 1
    out = [0] * size
    for m in range(size):
        for i in range(len(a)):
            j = m - i
            if i < j < len(a):
                out[m] += a[i] * a[j]
        if m % 2 == 0:
            mid = a[m // 2]
            out[m] += mid * (mid + 1) // 2
    return tuple(out)


def kunneth_square(dims: Sequence[int]) -> Tuple[int, ...]:
    """Even Betti numbers of a product of a space with itself."""
    a = tuple(int(x) for x in dims)
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] += x * y
    return tuple(out)


def decomposition_assembly(
    ih: Sequence[int], fiber: Sequence[int], cusps: int, complex_dim: int
) -> BettiTable:
    """Add cusp-fiber corrections below the middle degree, symmetrized.

    The correction in even degree k, for 2 <= k <= n-1, is
    cusps * h^(k-2)(fiber); degrees above n mirror those below.  The rule
    is pinned by its two instances (35 cusps with product-of-planes fibers
    and one cusp with the invariant fiber) and needs odd n.
    """
    ih = tuple(int(x) for x in ih)
    fiber = tuple(int(x) for x in fiber)
    if len(ih) != complex_dim + 1:
        raise ValueError("intersection-cohomology table has the wrong length")
    if len(fiber) != complex_dim:
        raise ValueError("fiber table has the wrong length")
    if complex_dim % 2 == 0:
        raise ValueError("middle-degree convention is only pinned for odd dimension")
    corrections = [0] * (complex_dim + 1)
    for k in range(2, complex_dim, 2):
        corrections[k // 2] = cusps * fiber[(k - 2) // 2]
    for k in range(complex_dim + 1, 2 * complex_dim + 1, 2):
        corrections[k // 2] = corrections[(2 * complex_dim - k) // 2]
    return BettiTable(tuple(x + c for x, c in zip(ih, corrections)))


# Intersection-cohomology tables of the two cusped compactifications,
# consumed as fixtures.
IH_BB_ORDERED = (1, 8, 29, 29, 8, 1)
IH_BB_UNORDERED = (1, 1, 2, 2, 1, 1)

PLANE_BETTI = (1, 1, 1)  # one projective plane, even degrees 0..4
ORDERED_CUSPS = 35
UNORDERED_CUSPS = 1


def boundary_fiber_ordered() -> Tuple[int, ...]:
    """Even Betti numbers of the product of two planes: (1, 2, 3, 2, 1)."""
    return kunneth_square(PLANE_BETTI)


def boundary_invariants() -> Tuple[int, ...]:
    """Swap-invariant boundary cohomology: (1, 1, 2, 1, 1)."""
    return invariant_sym_square(PLANE_BETTI)


def tor_betti_ordered() -> BettiTable:
    return decomposition_assembly(
        IH_BB_ORDERED, boundary_fiber_ordered(), ORDERED_CUSPS, COMPLEX_DIMENSION
    )


def tor_betti_unordered() -> BettiTable:
    return decomposition_assembly(
        IH_BB_UNORDERED, boundary_invariants(), UNORDERED_CUSPS, COMPLEX_DIMENSION
    )
