"""Exact divisor-class ledger across the tower of compactifications.

Spaces carry fixed symbol bases, maps carry transcribed pullback and
pushforward matrices, and every asserted identity reduces to exact linear
algebra over Fraction coefficients.  No geometry happens here by design:
the geometric inputs (pullback formulas, canonical classes, the weight-14
modular form relation, boundary normal bundles, covering degrees) are a
static registry, and this module only checks their arithmetic
consequences: canonical-bundle identities, top self-intersection numbers,
the obstruction to a common crepant resolution, and discrepancies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple, Union

Scalar = Union[int, Fraction]

GIT_ORD = "GIT_ord"
K_ORD = "K_ord"
M08BAR = "M08bar"
BB_ORD = "BB_ord"
TOR_ORD = "TOR_ord"
GIT = "GIT"
K = "K"
BB = "BB"
TOR = "TOR"


def _fr(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class SpaceInfo:
    symbols: Tuple[str, ...]
    # relations rewrite a derived symbol into the remaining ones
    relations: Mapping[str, Mapping[str, Fraction]]
    canonical: Mapping[str, Fraction] | None


SPACES: Dict[str, SpaceInfo] = {
    GIT_ORD: SpaceInfo(("D2_0",), {}, {"D2_0": Fraction(-2, 7)}),
    K_ORD: SpaceInfo(
        ("D2_1", "D4_1"), {}, {"D2_1": Fraction(-2, 7), "D4_1": Fraction(2, 7)}
    ),
    M08BAR: SpaceInfo(
        ("D2_2", "D3_2", "D4_2"),
        {},
        {"D2_2": Fraction(-2, 7), "D3_2": Fraction(1, 7), "D4_2": Fraction(2, 7)},
    ),
    # The weight-14 modular form vanishing to order 1/2 on the discriminant
    # gives 14 L = (1/2) H, i.e. H = 28 L.
    BB_ORD: SpaceInfo(
        ("L_ord", "H_ord"),
        {"H_ord": {"L_ord": Fraction(28)}},
        {"L_ord": Fraction(-8)},
    ),
    TOR_ORD: SpaceInfo(
        ("L_ord", "Htilde_ord", "T_ord"),
        {"Htilde_ord": {"L_ord": Fraction(28), "T_ord": Fraction(-6)}},
        {"L_ord": Fraction(-8), "T_ord": Fraction(2)},
    ),
    GIT: SpaceInfo(("K_GIT", "D"), {}, None),
    K: SpaceInfo(
        ("fK_GIT", "Dtilde", "Delta"), {}, {"fK_GIT": Fraction(1), "Delta": Fraction(5)}
    ),
    BB: SpaceInfo(("K_BB", "H"), {}, None),
    TOR: SpaceInfo(
        ("pK_BB", "Htilde", "T"), {}, {"pK_BB": Fraction(1), "T": Fraction(7)}
    ),
}


@dataclass(frozen=True)
class DivisorClass:
    space: str
    coefficients: Tuple[Tuple[str, Fraction], ...]

    @classmethod
    def make(cls, space: str, coeffs: Mapping[str, Scalar]) -> "DivisorClass":
        info = SPACES.get(space)
        if info is None:
            raise ValueError(f"unknown space {space!r}")
        unknown = [s for s in coeffs if s not in info.symbols]
        if unknown:
            raise ValueError(f"symbols {unknown} not in the basis of {space}")
        cleaned = tuple(
            (s, _fr(c)) for s, c in sorted(coeffs.items()) if _fr(c) != 0
        )
        return cls(space, cleaned)

    def as_dict(self) -> Dict[str, Fraction]:
        return dict(self.coefficients)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.space != other.space:
            raise ValueError("cannot add classes on different spaces")
        merged = self.as_dict()
        for s, c in other.coefficients:
            merged[s] = merged.get(s, Fraction(0)) + c
        return DivisorClass.make(self.space, merged)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + other.scale(-1)

    def scale(self, factor: Scalar) -> "DivisorClass":
        f = _fr(factor)
        return DivisorClass.make(self.space, {s: c * f for s, c in self.coefficients})

    def reduced(self) -> "DivisorClass":
        """Eliminate derived symbols through the registered relations."""
        relations = SPACES[self.space].relations
        out: Dict[str, Fraction] = {}
        for s, c in self.coefficients:
            if s in relations:
                for target, weight in relations[s].items():
                    out[target] = out.get(target, Fraction(0)) + c * weight
            else:
                out[s] = out.get(s, Fraction(0)) + c
        return DivisorClass.make(self.space, out)

    def same_class(self, other: "DivisorClass") -> bool:
        return self.space == other.space and self.reduced() == other.reduced()

    def __str__(self) -> str:
        if not self.coefficients:
            return f"0 on {self.space}"
        body = " + ".join(f"({c})*{s}" for s, c in self.coefficients)
        return f"{body} on {self.space}"


def divisor(space: str, **coeffs: Scalar) -> DivisorClass:
    return DivisorClass.make(space, coeffs)


@dataclass(frozen=True)
class LinearMapEntry:
    source: str
    target: str
    kind: str  # pullback | pushforward | identification
    matrix: Mapping[str, Mapping[str, Fraction]]


MAPS: Dict[str, LinearMapEntry] = {
    "phi1_pullback": LinearMapEntry(
        GIT_ORD, K_ORD, "pullback", {"D2_0": {"D2_1": Fraction(1), "D4_1": Fraction(6)}}
    ),
    "phi1_pushforward": LinearMapEntry(
        K_ORD, GIT_ORD, "pushforward", {"D2_1": {"D2_0": Fraction(1)}, "D4_1": {}}
    ),
    "phi2_pullback": LinearMapEntry(
        K_ORD,
        M08BAR,
        "pullback",
        {
            "D2_1": {"D2_2": Fraction(1), "D3_2": Fraction(3)},
            "D4_1": {"D4_2": Fraction(1)},
        },
    ),
    "phi2_pushforward": LinearMapEntry(
        M08BAR,
        K_ORD,
        "pushforward",
        {"D2_2": {"D2_1": Fraction(1)}, "D3_2": {}, "D4_2": {"D4_1": Fraction(1)}},
    ),
    "pi_ord_pullback": LinearMapEntry(
        BB_ORD,
        TOR_ORD,
        "pullback",
        {
            "L_ord": {"L_ord": Fraction(1)},
            "H_ord": {"Htilde_ord": Fraction(1), "T_ord": Fraction(6)},
        },
    ),
    # The period-map identification carries the discriminant class to the
    # special divisor H on the cusped side.
    "phi_ord_identification": LinearMapEntry(
        GIT_ORD, BB_ORD, "identification", {"D2_0": {"H_ord": Fraction(1)}}
    ),
    # Boundary matching of the two blow-ups of the same base point.
    "tau_identification": LinearMapEntry(
        K_ORD,
        TOR_ORD,
        "identification",
        {"D2_1": {"Htilde_ord": Fraction(1)}, "D4_1": {"T_ord": Fraction(1)}},
    ),
    "f_pullback": LinearMapEntry(
        GIT,
        K,
        "pullback",
        {
            "K_GIT": {"fK_GIT": Fraction(1)},
            "D": {"Dtilde": Fraction(1), "Delta": Fraction(6)},
        },
    ),
    "pi_pullback": LinearMapEntry(
        BB, TOR, "pullback", {"K_BB": {"pK_BB": Fraction(1)}}
    ),
}


def apply_map(name: str, cls: DivisorClass) -> DivisorClass:
    entry = MAPS.get(name)
    if entry is None:
        raise ValueError(f"unknown map {name!r}")
    if cls.space != entry.source:
        raise ValueError(f"{name} expects classes on {entry.source}, got {cls.space}")
    out: Dict[str, Fraction] = {}
    for symbol, coeff in cls.coefficients:
        if symbol not in entry.matrix:
            raise ValueError(f"{name} has no registered image for {symbol}")
        for target, weight in entry.matrix[symbol].items():
            out[target] = out.get(target, Fraction(0)) + coeff * weight
    return DivisorClass.make(entry.target, out)


def canonical(space: str) -> DivisorClass:
    info = SPACES.get(space)
    if info is None:
        raise ValueError(f"unknown space {space!r}")
    if info.canonical is None:
        raise ValueError(f"no canonical class registered on {space}")
    return DivisorClass.make(space, info.canonical)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    holds: bool
    lhs: str
    rhs: str


def verify_blowup_identities() -> List[IdentityCheck]:
    """Recheck every registered canonical-bundle identity exactly."""
    checks: List[IdentityCheck] = []

    def record(name: str, lhs: DivisorClass, rhs: DivisorClass):
        checks.append(
            IdentityCheck(name, lhs.same_class(rhs), str(lhs.reduced()), str(rhs.reduced()))
        )

    # canonical of the first blow-up = pullback + 2 * exceptional
    lhs = canonical(K_ORD)
    rhs = apply_map("phi1_pullback", canonical(GIT_ORD)) + divisor(K_ORD, D4_1=2)
    record("first_blowup_canonical", lhs, rhs)

    # canonical of the second blow-up = pullback + exceptional
    lhs = canonical(M08BAR)
    rhs = apply_map("phi2_pullback", canonical(K_ORD)) + divisor(M08BAR, D3_2=1)
    record("second_blowup_canonical", lhs, rhs)

    # -(2/7) of the discriminant equals -8 times the weight-1 bundle
    lhs = canonical(BB_ORD)
    rhs = apply_map("phi_ord_identification", divisor(GIT_ORD, D2_0=1)).scale(Fraction(-2, 7))
    record("weight14_canonical", lhs, rhs)

    # proportionality route: 6L - (1/2)Htilde - T = -8L + 2T
    proportionality = divisor(
        TOR_ORD, L_ord=6, Htilde_ord=Fraction(-1, 2), T_ord=-1
    )
    record("proportionality_route", proportionality, canonical(TOR_ORD))

    # blow-up route through the boundary identification
    record(
        "blowup_route",
        apply_map("tau_identification", canonical(K_ORD)),
        canonical(TOR_ORD),
    )

    # pair version on the unordered side: K = f*(K + (3/4)D) + (1/2)Delta - (3/4)Dtilde
    pair_rhs = (
        apply_map("f_pullback", divisor(GIT, K_GIT=1, D=Fraction(3, 4)))
        + divisor(K, Delta=Fraction(1, 2), Dtilde=Fraction(-3, 4))
    )
    record("log_pair_canonical", canonical(K), pair_rhs)

    # projection formula instance
    record(
        "projection_formula",
        apply_map("phi1_pushforward", apply_map("phi1_pullback", divisor(GIT_ORD, D2_0=1))),
        divisor(GIT_ORD, D2_0=1),
    )
    return checks


def exceptional_pullback_coefficient() -> Fraction:
    """Coefficient of the exceptional class in the discriminant pullback."""
    image = apply_map("phi1_pullback", divisor(GIT_ORD, D2_0=1))
    return image.as_dict().get("D4_1", Fraction(0))


# ----------------------------------------------------------------------
# boundary normal bundle and intersection numbers

@dataclass(frozen=True)
class NormalBundleResult:
    bidegree: Tuple[Fraction, Fraction]
    adjunction_bidegree: Tuple[int, int]
    multiplier: int


def normal_bundle_boundary() -> NormalBundleResult:
    """Solve 3 N = K of the boundary component, a product of two planes.

    Adjunction gives bidegree (-3, -3); restricting -8L + 2T + T_i yields
    3 T_i on the component (the bundle L dies on the fiber and different
    boundary components are disjoint), so N has bidegree (-1, -1).
    """
    adjunction = (-3, -3)
    multiplier = 2 + 1  # the T-coefficient of the canonical class plus one
    bidegree = (Fraction(adjunction[0], multiplier), Fraction(adjunction[1], multiplier))
    return NormalBundleResult(bidegree, adjunction, multiplier)


def _plane_pair_top_intersection(a: Fraction, b: Fraction) -> Fraction:
    """(a h1 + b h2)^4 evaluated in Q[h1,h2]/(h1^3, h2^3)."""
    ring: Dict[Tuple[int, int], Fraction] = {(0, 0): Fraction(1)}
    base = {(1, 0): a, (0, 1): b}
    for _ in range(4):
        out: Dict[Tuple[int, int], Fraction] = {}
        for (i, j), c in ring.items():
            for (di, dj), d in base.items():
                ni, nj = i + di, j + dj
                if ni > 2 or nj > 2:
                    continue
                out[(ni, nj)] = out.get((ni, nj), Fraction(0)) + c * d
        ring = out
    return ring.get((2, 2), Fraction(0))


@dataclass(frozen=True)
class IntersectionNumbers:
    component_power: Fraction  # T_i^5 on one ordered boundary component
    ordered_power: Fraction  # T_ord^5
    unordered_power: Fraction  # T^5


def top_self_intersections(
    cusps: int = 35, cover_order: int = math.factorial(8)
) -> IntersectionNumbers:
    """T_i^5 = N^4 on the component, summed over cusps, divided by the cover."""
    n = normal_bundle_boundary().bidegree
    component = _plane_pair_top_intersection(n[0], n[1])
    ordered = cusps * component
    unordered = Fraction(ordered, cover_order)
    return IntersectionNumbers(component, ordered, unordered)


# ----------------------------------------------------------------------
# the obstruction and discrepancies

@dataclass(frozen=True)
class ObstructionCertificate:
    toroidal_power: Fraction  # (7T)^5
    required_exceptional_power: Fraction  # what Delta^5 would have to be
    denominator_five_valuation: int
    e_candidates: Tuple[int, ...]
    feasible: bool


def k_equivalence_obstruction(e_candidates: Iterable[int]) -> ObstructionCertificate:
    """No 5-free denominator bound e admits (5 Delta)^5 = (7 T)^5.

    The toroidal side gives (7T)^5 = 16807/192; equality would force
    Delta^5 = 16807/600000 whose reduced denominator carries 5^5, while
    Delta^5 lies in (1/e)Z with e free of the prime 5.
    """
    candidates = tuple(sorted(set(int(e) for e in e_candidates)))
    if any(e < 1 for e in candidates):
        raise ValueError("denominator bounds must be positive")
    toroidal = Fraction(7) ** 5 * top_self_intersections().unordered_power
    required = toroidal / Fraction(5) ** 5
    denominator = required.denominator
    valuation = 0
    while denominator % 5 == 0:
        denominator //= 5
        valuation += 1
    feasible = any(
        e % 5 != 0 and (required * e).denominator == 1 for e in candidates
    )
    return ObstructionCertificate(
        toroidal_power=toroidal,
        required_exceptional_power=required,
        denominator_five_valuation=valuation,
        e_candidates=candidates,
        feasible=feasible,
    )


def discrepancy(k: Scalar, m: Scalar, c: Scalar) -> Fraction:
    """Discrepancy a with K_up = f*(K + c D) + a E given K_up = f*K + k E
    and f*D = Dtilde + m E."""
    return _fr(k) - _fr(m) * _fr(c)
