"""Betti-number bookkeeping over power series in t known modulo t^order.

A truncated series is the tuple of its first ``order`` coefficients;
every product is a ``MultiPoly`` product in t, read back below the
truncation order.  The equivariant Poincare series of the semistable
locus of binary octics is computed through the torus stratification, the
blow-up at the closed orbit adds a main correction term, and the extra
correction is shown to start in degree 6; assembling these and extending
by duality yields the Betti table of the blown-up quotient.
Independently, a decomposition rule combines intersection cohomology of a
cusped compactification with boundary-fiber tables, one per cusp; the
cusp counts are arguments, which ``checks.Quantities`` reads off the fq
space.  The two routes must agree.
"""

from __future__ import annotations

from collections.abc import Sequence

from .poly import MultiPoly
from .record import Record
from .stability import luna_slice_basis, torus_monomial_weights

SLICE_CODIMENSION = len(luna_slice_basis().monomials)
COMPLEX_DIMENSION = 5
STRATIFICATION_BOUND_BASE = 7
# Modulo t^6 the series fixes b_0, b_2 and b_4, which duality completes.
TRUNCATION_ORDER = 6
T = "t"


class InsufficientCodimensionError(ValueError):
    """Truncation order exceeds what the stratification bound certifies."""


def series(coefficients: Sequence[int]) -> MultiPoly:
    """The polynomial sum of c_k t^k."""
    return MultiPoly((T,), {(k,): c for k, c in enumerate(coefficients)})


def truncate(p: MultiPoly, order: int) -> tuple[int, ...]:
    """The coefficients of t^0, ..., t^(order-1) in p."""
    terms = p.terms
    return tuple(int(terms.get((k,), 0)) for k in range(order))


def series_text(coefficients: Sequence[int]) -> str:
    """A truncated series as ``2 + 3*t + t^3 (mod t^4)``, in rising degree."""
    pieces = [
        str(c) if k == 0 else ("" if c == 1 else f"{c}*") + ("t" if k == 1 else f"t^{k}")
        for k, c in enumerate(coefficients)
        if c
    ]
    return f"{' + '.join(pieces) or '0'} (mod t^{len(coefficients)})"


def geometric(m: int, order: int) -> tuple[int, ...]:
    """1/(1 - t^m) modulo t^order."""
    if m < 1:
        raise ValueError("period must be positive")
    return tuple(int(k % m == 0) for k in range(order))


def projective_space(n: int) -> MultiPoly:
    """Poincare polynomial 1 + t^2 + ... + t^(2n)."""
    return series([1 - k % 2 for k in range(2 * n + 1)])


# ----------------------------------------------------------------------
# stratification bookkeeping

class IndexEntry(Record):
    beta: int
    label: int
    r: int
    codim_bound: int


def kirwan_index_set(weights: Sequence[int]) -> tuple[IndexEntry, ...]:
    """Nonzero stratification indices for a one-parameter torus action.

    Candidates are the points closest to 0 of convex hulls of one-sided
    weight subsets; on a line that is the subset's least |w|, so they are
    the nonzero |w|.  For each, r counts the weights alpha with
    alpha*beta >= |beta|^2 and the stratum codimension is bounded below by
    STRATIFICATION_BOUND_BASE - r.
    """
    ws = tuple(weights)
    entries = []
    for beta in sorted({abs(w) for w in ws if w}):
        r = sum(1 for alpha in ws if alpha * beta >= beta * beta)
        bound = STRATIFICATION_BOUND_BASE - r
        entries.append(IndexEntry(beta=beta, label=beta // 2, r=r, codim_bound=bound))
    return tuple(entries)


def semistable_series(n: int = 8, order: int = 6) -> tuple[int, ...]:
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
    return truncate(projective_space(n) * series(geometric(4, order)), order)


def main_correction(
    normalizer_series: Sequence[int], codimension: int, order: int
) -> tuple[int, ...]:
    """Blow-up main correction: invariants series times sum of t^(2i), 0<i<c.

    The product is known only as far as the normalizer series is.
    """
    if codimension < 2:
        raise ValueError("blow-up correction needs codimension at least 2")
    tail = projective_space(codimension - 1) - 1  # t^2 + t^4 + ... + t^(2c-2)
    return truncate(series(normalizer_series) * tail, min(order, len(normalizer_series)))


def normalizer_invariants_series(order: int) -> tuple[int, ...]:
    """Invariants of the normalizer at the closed orbit: a free algebra on c^4."""
    return geometric(4, order)


def slice_normal_weights() -> tuple[int, ...]:
    """Weights on the normal slice: all degree-8 weights minus the orbit tangent."""
    full = list(torus_monomial_weights(8))
    slice_data = luna_slice_basis()
    for w in slice_data.tangent_weights:
        full.remove(w)
    if sorted(full) != sorted(slice_data.weights):
        raise AssertionError("slice and orbit tangent do not exhaust the degree-8 weights")
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

class BettiTable(Record):
    """Even-degree Betti numbers b_0, b_2, ..., b_(2n); odd ones vanish."""

    even: tuple[int, ...]

    def is_palindromic(self) -> bool:
        return self.even == tuple(reversed(self.even))

    def by_degree(self) -> dict[int, int]:
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
    if not table.is_palindromic():
        raise AssertionError(f"duality gives the non-palindromic table {table.even}")
    return table


def kirwan_betti() -> BettiTable:
    """Betti table of the blown-up quotient via the stratification route."""
    order = TRUNCATION_ORDER
    main = main_correction(normalizer_invariants_series(order), SLICE_CODIMENSION, order)
    total = tuple(a + b for a, b in zip(semistable_series(8, order), main))
    if extra_correction_min_degree() < order:
        raise AssertionError("extra correction interferes below the truncation")
    if any(total[1::2]):
        raise AssertionError("odd-degree contribution in an even theory")
    return extend_by_duality(total[0::2], COMPLEX_DIMENSION)


def invariant_sym_square(dims: Sequence[int]) -> tuple[int, ...]:
    """Swap-invariant dimensions of the tensor square of an even-graded space.

    All degrees are even, so the swap carries no signs and the invariants
    are the graded symmetric square (P(u)^2 + P(u^2)) / 2, where P is the
    Poincare polynomial of the space.
    """
    p = series(dims)
    doubled = p * p + p.substitute({T: MultiPoly.variable(T) ** 2})
    return tuple(c // 2 for c in truncate(doubled, 2 * len(dims) - 1))


def kunneth_square(dims: Sequence[int]) -> tuple[int, ...]:
    """Even Betti numbers of a product of a space with itself: P(u)^2."""
    p = series(dims)
    return truncate(p * p, 2 * len(dims) - 1)


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


def boundary_fiber_ordered() -> tuple[int, ...]:
    """Even Betti numbers of the product of two planes: (1, 2, 3, 2, 1)."""
    return kunneth_square(PLANE_BETTI)


def boundary_invariants() -> tuple[int, ...]:
    """Swap-invariant boundary cohomology: (1, 1, 2, 1, 1)."""
    return invariant_sym_square(PLANE_BETTI)


def tor_betti_ordered(cusps: int) -> BettiTable:
    """The ordered table: one cusp per isotropic vector of the fq space (Kondo)."""
    return decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), cusps, COMPLEX_DIMENSION)


def tor_betti_unordered(cusps: int) -> BettiTable:
    """The unordered table: one cusp per orbit of G on the isotropic vectors."""
    return decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), cusps, COMPLEX_DIMENSION)
