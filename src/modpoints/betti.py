"""Betti-number bookkeeping over power series in u = t^2.

Every space here has cohomology in even degrees only, so every series is
the tuple of its coefficients in u = t^2, and every product is a
``MultiPoly`` product in u.  A series is known modulo u^h, where
h = (COMPLEX_DIMENSION + 1)/2 counts the even degrees below the middle:
b_0, b_2 and b_4, which Poincare duality completes (``extend_by_duality``).
The equivariant Poincare series of the semistable locus of binary octics
is computed through the torus stratification, the blow-up at the closed
orbit adds a main correction term, and the extra correction is shown to
start in degree 6; their sum, completed by duality, is the Betti table of
the blown-up quotient.  Independently, a decomposition rule adds to the
intersection cohomology of a cusped compactification one boundary-fiber
table per cusp below the middle, completed by the same duality step; the
cusp counts are arguments, which ``checks.Quantities`` reads off the fq
space.  The two routes must agree.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .poly import MultiPoly
from .record import Record
from .stability import luna_slice_basis, torus_monomial_weights

SLICE_CODIMENSION = len(luna_slice_basis().monomials)
COMPLEX_DIMENSION = 5
STRATIFICATION_BOUND_BASE = 7
U = "u"


class InsufficientCodimensionError(ValueError):
    """Truncation order exceeds what the stratification bound certifies."""


def half() -> int:
    """h, the number of even degrees below the middle of the odd COMPLEX_DIMENSION.

    Read when called, so that every series follows the dimension.
    """
    return (COMPLEX_DIMENSION + 1) // 2


def series(coefficients: Sequence[int]) -> MultiPoly:
    """The polynomial sum of c_k u^k."""
    return MultiPoly((U,), {(k,): c for k, c in enumerate(coefficients)})


def truncate(p: MultiPoly, order: int) -> tuple[int, ...]:
    """The coefficients of u^0, ..., u^(order-1) in p."""
    terms = p.terms
    return tuple(int(terms.get((k,), 0)) for k in range(order))


def series_text(coefficients: Sequence[int]) -> str:
    """A series in u = t^2 as ``1 + t^2 + 2*t^4 (mod t^6)``, in rising degree."""
    pieces = [
        str(c) if k == 0 else ("" if c == 1 else f"{c}*") + f"t^{2 * k}"
        for k, c in enumerate(coefficients)
        if c
    ]
    return f"{' + '.join(pieces) or '0'} (mod t^{2 * len(coefficients)})"


def geometric(m: int) -> tuple[int, ...]:
    """1/(1 - u^m) modulo u^h."""
    if m < 1:
        raise ValueError("period must be positive")
    return tuple(int(k % m == 0) for k in range(half()))


def projective_space(n: int) -> MultiPoly:
    """Poincare polynomial 1 + u + ... + u^n of P^n."""
    return series((1,) * (n + 1))


# ----------------------------------------------------------------------
# stratification bookkeeping

class IndexEntry(Record):
    beta: int
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
        entries.append(IndexEntry(beta=beta, codim_bound=STRATIFICATION_BOUND_BASE - r))
    return tuple(entries)


def semistable_series() -> tuple[int, ...]:
    """Equivariant Poincare series of the semistable octics modulo u^h.

    Valid while every nonzero stratum has complex codimension at least h;
    then the series is P(P^8) P(B SL2) = (1 + u + ... + u^8)/(1 - u^2).
    """
    entries = kirwan_index_set(torus_monomial_weights(8))
    min_codim = min(e.codim_bound for e in entries)
    h = half()
    if h > min_codim:
        raise InsufficientCodimensionError(
            f"truncation t^{2 * h} needs stratum codimension {h}, "
            f"but the bound only gives {min_codim}"
        )
    return truncate(projective_space(8) * series(geometric(2)), h)


def normalizer_invariants_series() -> tuple[int, ...]:
    """Invariants of the normalizer at the closed orbit: a free algebra on c^4, of degree u^2."""
    return geometric(2)


def main_correction() -> tuple[int, ...]:
    """Blow-up main correction: the invariants series times u + ... + u^(c-1),
    c the slice codimension, modulo u^h."""
    tail = projective_space(SLICE_CODIMENSION - 1) - 1
    return truncate(series(normalizer_invariants_series()) * tail, half())


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
    """Smallest degree in t where the extra correction can start: min of 2 n(beta').

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

    def by_degree(self) -> dict[int, int]:
        return {2 * i: v for i, v in enumerate(self.even)}


def extend_by_duality(low: Iterable[int]) -> BettiTable:
    """The table whose h even degrees below the middle are ``low``: duality mirrors them."""
    low = tuple(low)
    if len(low) != half():
        raise ValueError(f"duality completes {half()} even degrees below the middle, not {len(low)}")
    return BettiTable(low + low[::-1])


def kirwan_betti() -> BettiTable:
    """Betti table of the blown-up quotient via the stratification route."""
    if extra_correction_min_degree() < 2 * half():
        raise AssertionError("extra correction interferes below the truncation")
    return extend_by_duality(a + b for a, b in zip(semistable_series(), main_correction()))


def invariant_sym_square(dims: Sequence[int]) -> tuple[int, ...]:
    """Swap-invariant dimensions of the tensor square of an even-graded space.

    All degrees are even, so the swap carries no signs and the invariants
    are the graded symmetric square (P(u)^2 + P(u^2)) / 2, where P is the
    Poincare polynomial of the space.
    """
    p = series(dims)
    doubled = p * p + p.substitute({U: MultiPoly.variable(U) ** 2})
    return tuple(c // 2 for c in truncate(doubled, 2 * len(dims) - 1))


def kunneth_square(dims: Sequence[int]) -> tuple[int, ...]:
    """Even Betti numbers of a product of a space with itself: P(u)^2."""
    p = series(dims)
    return truncate(p * p, 2 * len(dims) - 1)


def decomposition_assembly(ih: Sequence[int], fiber: Sequence[int], cusps: int) -> BettiTable:
    """Intersection cohomology plus cusps * u * fiber modulo u^h, completed by duality.

    Each cusp adds b_(k-2) of its fiber in each even degree k below the
    middle.  The rule is pinned by its two instances (35 cusps with
    product-of-planes fibers and one cusp with the invariant fiber).
    """
    shifted = (0, *fiber)  # u times the fiber
    return extend_by_duality(i + cusps * f for i, f in zip(ih, shifted))


# The intersection cohomology of the two cusped compactifications below the
# middle, consumed as fixtures: b_0, b_2 and b_4, which duality completes.
IH_BB_ORDERED = (1, 8, 29)
IH_BB_UNORDERED = (1, 1, 2)

PLANE_BETTI = (1, 1, 1)  # one projective plane, even degrees 0..4


def boundary_fiber_ordered() -> tuple[int, ...]:
    """Even Betti numbers of the product of two planes: (1, 2, 3, 2, 1)."""
    return kunneth_square(PLANE_BETTI)


def boundary_invariants() -> tuple[int, ...]:
    """Swap-invariant boundary cohomology: (1, 1, 2, 1, 1)."""
    return invariant_sym_square(PLANE_BETTI)


def tor_betti_ordered(cusps: int) -> BettiTable:
    """The ordered table: one cusp per isotropic vector of the fq space (Kondo)."""
    return decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), cusps)


def tor_betti_unordered(cusps: int) -> BettiTable:
    """The unordered table: one cusp per orbit of G on the isotropic vectors."""
    return decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), cusps)
