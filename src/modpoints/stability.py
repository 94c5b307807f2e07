"""Point configurations on the projective line and their GIT stability.

A configuration of N points is a multiset of multiplicities (a degree-N
binary form up to scale); the Hilbert-Mumford criterion for the standard
SL2 action with the symmetric linearization depends only on the largest
multiplicity, so no point coordinates are stored.  The module also carries
the weight bookkeeping at the doubly-fourfold configuration: torus weights
on degree-N monomials, the six-dimensional normal slice at x0^4*x1^4 and
its weights, and the component group of that point's stabilizer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

from .record import Record

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"

# The stabilizer of x0^4*x1^4 is a one-dimensional torus extended by the
# swap of the two points, so its component group has order 2.
COMPONENT_GROUP_ORDER = 2


class PointConfig(Record):
    """A multiset of point multiplicities summing to the total degree."""

    n: int
    parts: Tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("multiplicities must be positive")
        if sum(self.parts) != self.n:
            raise ValueError("multiplicities must sum to the degree")
        object.__setattr__(self, "parts", tuple(sorted(self.parts, reverse=True)))

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "PointConfig":
        parts = tuple(parts)
        return cls(sum(parts), parts)


class StabilityVerdict(Record):
    status: str
    polystable: bool

    def __post_init__(self):
        if self.status not in (STABLE, STRICTLY_SEMISTABLE, UNSTABLE):
            raise ValueError(f"unknown status {self.status!r}")
        if self.polystable and self.status == UNSTABLE:
            raise ValueError("unstable points are never polystable")
        if self.status == STABLE and not self.polystable:
            raise ValueError("stable points are polystable")


def classify(config: PointConfig) -> StabilityVerdict:
    """Hilbert-Mumford verdict: compare the largest multiplicity with N/2.

    Stable below N/2, strictly semistable at N/2, unstable above; the only
    semistable closed orbit that is not stable is the (N/2, N/2) pair.
    """
    twice_max = 2 * max(config.parts)
    if twice_max < config.n:
        return StabilityVerdict(STABLE, True)
    if twice_max > config.n:
        return StabilityVerdict(UNSTABLE, False)
    half = config.n // 2
    return StabilityVerdict(STRICTLY_SEMISTABLE, config.parts == (half, half))


def partitions(n: int, cap: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """All partitions of n, parts weakly decreasing."""
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def torus_monomial_weights(n: int) -> Tuple[int, ...]:
    """diag(l, 1/l) weights on degree-n monomials, sorted ascending."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    return tuple(sorted(2 * i - n for i in range(n + 1)))


class LunaSlice(Record):
    """Normal slice to the orbit of x0^4*x1^4 inside degree-8 forms."""

    monomials: Tuple[str, ...]
    weights: Tuple[int, ...]
    tangent_weights: Tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.monomials)


def luna_slice_basis() -> LunaSlice:
    """The six slice monomials with weights (8,-8,6,-6,4,-4).

    The orbit tangent directions carry weights {0, 2, -2}; together with
    the slice they exhaust the weight multiset of all degree-8 monomials,
    the single weight-0 entry being the point itself.
    """
    monomials = ("x0^8", "x1^8", "x0^7*x1", "x0*x1^7", "x0^6*x1^2", "x0^2*x1^6")
    weights = (8, -8, 6, -6, 4, -4)
    tangent = (0, 2, -2)
    return LunaSlice(monomials, weights, tangent)

