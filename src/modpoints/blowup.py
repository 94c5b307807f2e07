"""Blow-up of the six-dimensional normal slice at the origin.

The slice coordinates (alpha0, alpha1, beta0, beta1, gamma0, gamma1) carry
torus weights (8, -8, 6, -6, 4, -4).  Three affine charts P, Q, R of the
blow-up (those with S0, T0, U0 nonzero; the remaining charts are their
images under the factor swap) are built from systematic weight
bookkeeping: the chart coordinate X_i/X_unit has weight w_i - w_unit.

The discriminant locus is the product of two depressed-quartic
discriminants.  Pulling it back to a chart, stripping the exceptional
power (exactly 6) and restricting the strict transform to the exceptional
hyperplane yields a polynomial whose squarefreeness decides generic
transversality; the failures along u0 and u1 are what the reports record.
Torus stabilizers of exceptional points are gcds of chart weights over the
support of the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from .poly import (
    MultiPoly,
    discriminant_quartic,
    extract_exceptional,
    is_squarefree,
    poly_gcd,
    resultant,
    squarefree_part,
)
from .stability import luna_slice_basis, stabilizer_c44

SLICE_VARIABLES = ("alpha0", "alpha1", "beta0", "beta1", "gamma0", "gamma1")
PROJECTIVE_WEIGHTS = luna_slice_basis(8).weights
SLICE_WEIGHTS: Dict[str, int] = dict(zip(SLICE_VARIABLES, PROJECTIVE_WEIGHTS))
PROJECTIVE_COORDINATES = ("S0", "S1", "T0", "T1", "U0", "U1")

_CHART_COORDINATE = {
    "alpha0": "s0",
    "alpha1": "s1",
    "beta0": "t0",
    "beta1": "t1",
    "gamma0": "u0",
    "gamma1": "u1",
}
_CHART_UNIT = {"P": "alpha0", "Q": "beta0", "R": "gamma0"}
_RESIDUAL = {"P": "s1", "Q": "t1", "R": "u1"}

COMPONENT_GROUP_ORDER = stabilizer_c44().component_group_order


class PositiveDimensionalStabilizerError(ValueError):
    """The support imposes no finite-order constraint on the torus."""


@dataclass(frozen=True)
class Chart:
    """One affine chart of the blow-up of the slice at the origin."""

    name: str
    exceptional: str
    substitution: Mapping[str, MultiPoly]
    coordinates: Tuple[str, ...]
    weights: Mapping[str, int]
    residual: str
    zero_side: FrozenSet[str]
    one_side: FrozenSet[str]


def chart(name: str) -> Chart:
    if name not in _CHART_UNIT:
        raise ValueError(f"unknown chart {name!r}; expected one of P, Q, R")
    unit = _CHART_UNIT[name]
    exceptional = MultiPoly.variable(unit)
    substitution: Dict[str, MultiPoly] = {}
    weights: Dict[str, int] = {}
    coords: List[str] = []
    for slice_var in SLICE_VARIABLES:
        if slice_var == unit:
            substitution[slice_var] = exceptional
            continue
        coord = _CHART_COORDINATE[slice_var]
        coords.append(coord)
        substitution[slice_var] = exceptional * MultiPoly.variable(coord)
        weights[coord] = SLICE_WEIGHTS[slice_var] - SLICE_WEIGHTS[unit]
    zero_side = frozenset(c for c in coords if c.endswith("0"))
    one_side = frozenset(c for c in coords if c.endswith("1"))
    return Chart(
        name=name,
        exceptional=unit,
        substitution=substitution,
        coordinates=tuple(coords),
        weights=weights,
        residual=_RESIDUAL[name],
        zero_side=zero_side,
        one_side=one_side,
    )


def discriminant_factors() -> Tuple[MultiPoly, MultiPoly]:
    """The two quartic discriminants cutting out the local discriminant."""
    a0, a1, b0, b1, g0, g1 = (MultiPoly.variable(v) for v in SLICE_VARIABLES)
    return discriminant_quartic(a0, b0, g0), discriminant_quartic(a1, b1, g1)


def discriminant_product() -> MultiPoly:
    f0, f1 = discriminant_factors()
    return f0 * f1


def _monomial_offenders(p: MultiPoly) -> List[str]:
    return [v for v in p.occurring_variables() if extract_exceptional(p, v)[0] >= 2]


def _offending_factors(p: MultiPoly) -> List[str]:
    """Repeated factors of p, as strings; pure coordinates come out by name."""
    if p.is_constant or is_squarefree(p):
        return []
    offenders = _monomial_offenders(p)
    residual = p
    for name in offenders:
        residual = extract_exceptional(residual, name)[1]
    if not residual.is_constant and not is_squarefree(residual):
        offenders.append(str(squarefree_part(residual)))
    return offenders


@dataclass(frozen=True)
class FactorReport:
    multiplicity: int
    strict_transform: MultiPoly
    restriction: MultiPoly
    is_constant: bool
    offending: Tuple[str, ...]
    residual_form: MultiPoly


@dataclass(frozen=True)
class TransversalityReport:
    chart: str
    multiplicity: int
    restriction: MultiPoly
    squarefree: bool
    offending: Tuple[str, ...]
    factors: Tuple[FactorReport, ...]


def _factor_report(ch: Chart, factor: MultiPoly) -> FactorReport:
    pulled = factor.substitute(ch.substitution)
    multiplicity, strict = extract_exceptional(pulled, ch.exceptional)
    hyperplane = {v: MultiPoly.variable(v) for v in strict.occurring_variables()}
    hyperplane[ch.exceptional] = MultiPoly.zero()
    restriction = strict.substitute(hyperplane)
    # The residual normalization (residual coordinate = 1) is only a valid
    # chart off that coordinate's zero locus, so verdicts are read off the
    # unnormalized restriction and the normalized form is kept for display.
    residual_map = {v: MultiPoly.variable(v) for v in strict.occurring_variables()}
    residual_map[ch.residual] = MultiPoly.constant(1)
    residual_form = strict.substitute(residual_map)
    constant = restriction.is_constant
    offending = () if constant else tuple(_offending_factors(restriction))
    return FactorReport(
        multiplicity=multiplicity,
        strict_transform=strict,
        restriction=restriction,
        is_constant=constant,
        offending=offending,
        residual_form=residual_form,
    )


def discriminant_pullback(ch: Chart) -> TransversalityReport:
    """Pull the discriminant into a chart and test the exceptional crossing."""
    reports = tuple(_factor_report(ch, f) for f in discriminant_factors())
    multiplicity = sum(r.multiplicity for r in reports)
    restriction = reports[0].restriction * reports[1].restriction
    if restriction.is_constant:
        squarefree = True
        offending: Tuple[str, ...] = ()
    else:
        offending = tuple(_offending_factors(restriction))
        squarefree = not offending
    return TransversalityReport(
        chart=ch.name,
        multiplicity=multiplicity,
        restriction=restriction,
        squarefree=squarefree,
        offending=offending,
        factors=reports,
    )


def unstable_supports(
    weights: Sequence[int], names: Sequence[str] | None = None
) -> List[FrozenSet[str]]:
    """Maximal unstable support patterns for a one-parameter torus action.

    A projective point is unstable exactly when the convex hull of the
    weights over its support misses 0, i.e. the support is entirely on one
    strict side; the maximal such supports are the full positive and full
    negative coordinate sets.
    """
    if not weights:
        raise ValueError("weights must be nonempty")
    if names is None:
        names = PROJECTIVE_COORDINATES if len(weights) == 6 else tuple(
            f"X{i}" for i in range(len(weights))
        )
    if len(names) != len(weights):
        raise ValueError("weights and names must have matching arity")
    positive = frozenset(n for n, w in zip(names, weights) if w > 0)
    negative = frozenset(n for n, w in zip(names, weights) if w < 0)
    return [side for side in (positive, negative) if side]


def stabilizer_order(ch: Chart, support: Iterable[str]) -> int:
    """Order of the torus subgroup fixing a chart point with this support.

    A fixed point needs lambda^w = 1 for every weight over the support, so
    the order is the gcd of those weights; weight-0 coordinates impose no
    constraint and an all-zero constraint set means a positive-dimensional
    stabilizer.
    """
    support = tuple(support)
    if not support:
        raise ValueError("support must be nonempty")
    unknown = [c for c in support if c not in ch.coordinates]
    if unknown:
        raise ValueError(f"not chart coordinates: {unknown}")
    constraints = [abs(ch.weights[c]) for c in support if ch.weights[c] != 0]
    if not constraints:
        raise PositiveDimensionalStabilizerError(
            "support touches only weight-0 coordinates"
        )
    return math.gcd(*constraints)


def _admissible_supports(ch: Chart) -> List[Tuple[str, ...]]:
    """Support patterns on the exceptional divisor surviving semistability.

    The unstable locus in the projectivized slice is the pair of one-sided
    coordinate subspaces; inside a chart this is enforced on the affine
    coordinates, so the support has to meet both the index-0 and the
    index-1 coordinate groups of the chart.
    """
    coords = ch.coordinates
    out = []
    for size in range(1, len(coords) + 1):
        for combo in combinations(coords, size):
            s = set(combo)
            if s & ch.zero_side and s & ch.one_side:
                out.append(combo)
    return out


@dataclass(frozen=True)
class StabilizerScan:
    orders: Tuple[int, ...]
    torus_orders: Tuple[int, ...]
    effective_orders: Tuple[int, ...]
    max_order: int
    lcm_torus: int
    e: int
    per_chart: Mapping[str, Tuple[Tuple[Tuple[str, ...], int], ...]]


def scan_stabilizers() -> StabilizerScan:
    """Stabilizer census over all admissible supports in charts P, Q, R.

    Every subgroup order g collected in the matrix torus contains the
    ineffective central element of order 2, so the faithful image on the
    moduli problem has order g/2; the census records both descriptions.
    The bound e on denominators multiplies the lcm by the component-group
    order 2 and must stay free of the prime 5.
    """
    per_chart: Dict[str, Tuple[Tuple[Tuple[str, ...], int], ...]] = {}
    torus_orders = set()
    for name in ("P", "Q", "R"):
        ch = chart(name)
        rows = []
        for support in _admissible_supports(ch):
            order = stabilizer_order(ch, support)
            rows.append((support, order))
            torus_orders.add(order)
        per_chart[name] = tuple(rows)
    if not torus_orders:
        raise AssertionError("no semistable supports found")
    if any(order % 2 for order in torus_orders):
        raise AssertionError("every torus stabilizer contains the central involution")
    effective = {order // 2 for order in torus_orders}
    census = tuple(sorted(torus_orders | effective))
    lcm_torus = math.lcm(*torus_orders)
    e = COMPONENT_GROUP_ORDER * lcm_torus
    if e % 5 == 0:
        raise AssertionError("stabilizer bound unexpectedly divisible by 5")
    return StabilizerScan(
        orders=census,
        torus_orders=tuple(sorted(torus_orders)),
        effective_orders=tuple(sorted(effective)),
        max_order=max(census),
        lcm_torus=lcm_torus,
        e=e,
        per_chart=per_chart,
    )


def antidiag_fixed_constraint() -> MultiPoly:
    """Locus of residual-slice points fixed by an antidiagonal element.

    On the residual slice of chart P the antidiagonal action sends
    (t0, t1) to (-l^2 t1, -l^14 t0) with l^16 = 1.  Eliminating l from the
    fixed-point equations by resultants against l^16 - 1 and taking the
    radical of the common factor leaves t0^8 - t1^8, so a point with
    t0^8 != t1^8 is not fixed.
    """
    lam, t0, t1 = (MultiPoly.variable(v) for v in ("lam", "t0", "t1"))
    eq_t0 = lam ** 2 * t0 + t1  # image of t0 equals t0, cleared of -l^2
    eq_t1 = lam ** 14 * t0 + t1
    slice_closure = lam ** 16 - 1
    r0 = resultant(eq_t0, slice_closure, "lam")
    r1 = resultant(eq_t1, slice_closure, "lam")
    common = poly_gcd(r0, r1)
    return squarefree_part(common)


def _restricts_transversally(hyperplane_var: str, divisor: MultiPoly) -> bool:
    """Generic transversality of V(divisor) against the coordinate hyperplane.

    The divisor meets (v = 0) generically transversally exactly when its
    restriction to the hyperplane is nonzero and squarefree.
    """
    mapping = {v: MultiPoly.variable(v) for v in divisor.occurring_variables()}
    mapping[hyperplane_var] = MultiPoly.zero()
    restricted = divisor.substitute(mapping)
    if restricted.is_zero:
        return False
    if restricted.is_constant:
        return True  # empty intersection
    return is_squarefree(restricted)


@dataclass(frozen=True)
class QuotientTransversality:
    transversal: bool
    quotient_coordinate_invariant: bool
    upstairs_double: bool
    independent_pair: bool


def quotient_chart_transversality() -> QuotientTransversality:
    """Crossing of boundary (t=0) and discriminant (w1=0) after the quotient.

    The order-2 stabilizer of a generic crossing point acts by z1 -> -z1;
    w1 = z1^2 is the invariant coordinate downstairs.  Upstairs (t=0) and
    (z1^2=0) carry a double structure, downstairs (t=0) and (w1=0) are
    independent coordinates and meet transversally.
    """
    z1 = MultiPoly.variable("z1")
    z2 = MultiPoly.variable("z2")
    w1 = MultiPoly.variable("w1")
    downstairs = z1 ** 2  # w1 expressed upstairs
    invariant = downstairs.substitute({"z1": -z1}) == downstairs
    not_invariant_linear = z1.substitute({"z1": -z1}) != z1
    quotient_ok = _restricts_transversally("t", w1)
    upstairs_double = not _restricts_transversally("t", downstairs)
    independent = _restricts_transversally("t", z2)
    return QuotientTransversality(
        transversal=quotient_ok and invariant and not_invariant_linear,
        quotient_coordinate_invariant=invariant,
        upstairs_double=upstairs_double,
        independent_pair=independent,
    )
