"""Exact divisor-class ledger across the tower of compactifications.

A divisor class is a ``MultiPoly`` linear form in its space's basis
symbols.  The registry is plain data: each space's basis, the canonical
classes, the relations that rewrite a derived symbol (H = 28 L), and each
pullback, pushforward or identification as the image of every source
symbol.  Applying a map and reducing by the relations are
``MultiPoly.substitute``, and two classes agree when their reductions are
equal.  No geometry happens here by design: the geometric inputs
(pullback formulas, canonical classes, the weight-14 modular form
relation, boundary normal bundles) are transcribed, the cusp count and
covering degree are arguments (``checks.Quantities`` reads them off the
fq space) and the dimension is read from ``betti``, and this module only
checks their arithmetic consequences:
canonical-bundle identities, top self-intersection numbers (one
coefficient of a ``MultiPoly`` power), the obstruction to a common
crepant resolution, and discrepancies.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .betti import COMPLEX_DIMENSION
from .poly import MultiPoly, Scalar, variables
from .record import Record

GIT_ORD = "GIT_ord"
K_ORD = "K_ord"
M08BAR = "M08bar"
BB_ORD = "BB_ord"
TOR_ORD = "TOR_ord"
GIT = "GIT"
K = "K"
BB = "BB"
TOR = "TOR"

SPACES: dict[str, tuple[str, ...]] = {
    GIT_ORD: ("D2_0",),
    K_ORD: ("D2_1", "D4_1"),
    M08BAR: ("D2_2", "D3_2", "D4_2"),
    BB_ORD: ("L_ord", "H_ord"),
    TOR_ORD: ("L_ord", "Htilde_ord", "T_ord"),
    GIT: ("K_GIT", "D"),
    K: ("fK_GIT", "Dtilde", "Delta"),
    BB: ("K_BB", "H"),
    TOR: ("pK_BB", "Htilde", "T"),
}

# the basis symbols that the registry below writes forms in
(D2_0, D2_1, D4_1, D2_2, D3_2, D4_2, L_ord, H_ord, Htilde_ord, T_ord,
 K_GIT, D, fK_GIT, Dtilde, Delta, pK_BB, T) = variables(
    "D2_0", "D2_1", "D4_1", "D2_2", "D3_2", "D4_2", "L_ord", "H_ord", "Htilde_ord", "T_ord",
    "K_GIT", "D", "fK_GIT", "Dtilde", "Delta", "pK_BB", "T")

CANONICAL: dict[str, MultiPoly] = {
    GIT_ORD: Fraction(-2, 7) * D2_0,
    K_ORD: Fraction(-2, 7) * D2_1 + Fraction(2, 7) * D4_1,
    M08BAR: Fraction(-2, 7) * D2_2 + Fraction(1, 7) * D3_2 + Fraction(2, 7) * D4_2,
    BB_ORD: -8 * L_ord,
    TOR_ORD: -8 * L_ord + 2 * T_ord,
    K: fK_GIT + 5 * Delta,
    TOR: pK_BB + 7 * T,
}

# Each derived symbol in terms of the rest of its space's basis.  The
# weight-14 modular form vanishing to order 1/2 on the discriminant gives
# 14 L = (1/2) H, i.e. H = 28 L.
RELATIONS: dict[str, MultiPoly] = {
    "H_ord": 28 * L_ord,
    "Htilde_ord": 28 * L_ord - 6 * T_ord,
}

# name -> (source space, target space, image of each source symbol).  Each
# triple-point boundary divisor D3_2 contains the C(3, 2) diagonals of its triple.
MAPS: dict[str, tuple[str, str, dict[str, MultiPoly]]] = {
    "phi1_pullback": (GIT_ORD, K_ORD, {"D2_0": D2_1 + 6 * D4_1}),
    "phi1_pushforward": (K_ORD, GIT_ORD, {"D2_1": D2_0, "D4_1": MultiPoly.zero()}),
    "phi2_pullback": (K_ORD, M08BAR, {"D2_1": D2_2 + math.comb(3, 2) * D3_2, "D4_1": D4_2}),
    "phi2_pushforward": (M08BAR, K_ORD, {"D2_2": D2_1, "D3_2": MultiPoly.zero(), "D4_2": D4_1}),
    "pi_ord_pullback": (BB_ORD, TOR_ORD, {"L_ord": L_ord, "H_ord": Htilde_ord + 6 * T_ord}),
    # The period-map identification carries the discriminant class to the
    # special divisor H on the cusped side.
    "phi_ord_identification": (GIT_ORD, BB_ORD, {"D2_0": H_ord}),
    # Boundary matching of the two blow-ups of the same base point.
    "tau_identification": (K_ORD, TOR_ORD, {"D2_1": Htilde_ord, "D4_1": T_ord}),
    "f_pullback": (GIT, K, {"K_GIT": fK_GIT, "D": Dtilde + 6 * Delta}),
    "pi_pullback": (BB, TOR, {"K_BB": pK_BB}),
}


def _basis(space: str) -> tuple[str, ...]:
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    return SPACES[space]


def coefficients(form: MultiPoly) -> dict[str, Fraction]:
    """The nonzero coefficient of each symbol of a linear form, by symbol."""
    return dict(sorted((form.variables[e.index(1)], c) for e, c in form.terms.items()))


def class_text(form: MultiPoly, space: str) -> str:
    """A class as ``(c)*s + ... on SPACE``, or ``0 on SPACE``."""
    basis = _basis(space)
    foreign = [s for s in form.occurring_variables() if s not in basis]
    if foreign:
        raise ValueError(f"symbols {foreign} not in the basis of {space}")
    body = " + ".join(f"({c})*{s}" for s, c in coefficients(form).items())
    return f"{body or 0} on {space}"


def apply_map(name: str, form: MultiPoly) -> MultiPoly:
    if name not in MAPS:
        raise ValueError(f"unknown map {name!r}")
    images = MAPS[name][2]
    for symbol in form.occurring_variables():
        if symbol not in images:
            raise ValueError(f"{name} has no registered image for {symbol}")
    return form.substitute(images)


def reduced(form: MultiPoly) -> MultiPoly:
    """Eliminate derived symbols through the registered relations."""
    return form.substitute({s: RELATIONS.get(s, MultiPoly.variable(s))
                            for s in form.occurring_variables()})


def canonical(space: str) -> MultiPoly:
    _basis(space)
    if space not in CANONICAL:
        raise ValueError(f"no canonical class registered on {space}")
    return CANONICAL[space]


class IdentityCheck(Record):
    name: str
    holds: bool
    lhs: str
    rhs: str


def verify_blowup_identities() -> list[IdentityCheck]:
    """Recheck every registered canonical-bundle identity exactly."""
    checks: list[IdentityCheck] = []

    def record(name: str, space: str, lhs: MultiPoly, rhs: MultiPoly):
        lhs, rhs = reduced(lhs), reduced(rhs)
        checks.append(IdentityCheck(name, lhs == rhs, class_text(lhs, space), class_text(rhs, space)))

    # canonical of the first blow-up = pullback + 2 * exceptional
    rhs = apply_map("phi1_pullback", canonical(GIT_ORD)) + 2 * D4_1
    record("first_blowup_canonical", K_ORD, canonical(K_ORD), rhs)

    # canonical of the second blow-up = pullback + exceptional
    rhs = apply_map("phi2_pullback", canonical(K_ORD)) + D3_2
    record("second_blowup_canonical", M08BAR, canonical(M08BAR), rhs)

    # -(2/7) of the discriminant equals -8 times the weight-1 bundle
    rhs = Fraction(-2, 7) * apply_map("phi_ord_identification", D2_0)
    record("weight14_canonical", BB_ORD, canonical(BB_ORD), rhs)

    # proportionality route, K = (n + 1)L - (1/2)H on a ball quotient of
    # dimension n (Mumford 1977): 6L - (1/2)Htilde - T = -8L + 2T
    proportionality = (COMPLEX_DIMENSION + 1) * L_ord - Fraction(1, 2) * Htilde_ord - T_ord
    record("proportionality_route", TOR_ORD, proportionality, canonical(TOR_ORD))

    # blow-up route through the boundary identification
    lhs = apply_map("tau_identification", canonical(K_ORD))
    record("blowup_route", TOR_ORD, lhs, canonical(TOR_ORD))

    # pair version on the unordered side: K = f*(K + (3/4)D) + (1/2)Delta - (3/4)Dtilde
    rhs = apply_map("f_pullback", K_GIT + Fraction(3, 4) * D)
    rhs = rhs + Fraction(1, 2) * Delta - Fraction(3, 4) * Dtilde
    record("log_pair_canonical", K, canonical(K), rhs)

    # projection formula instance
    lhs = apply_map("phi1_pushforward", apply_map("phi1_pullback", D2_0))
    record("projection_formula", GIT_ORD, lhs, D2_0)
    return checks


def exceptional_pullback_coefficient() -> Fraction:
    """Coefficient of the exceptional class in the discriminant pullback."""
    return coefficients(apply_map("phi1_pullback", D2_0)).get("D4_1", Fraction(0))


# ----------------------------------------------------------------------
# boundary normal bundle and intersection numbers

class NormalBundleResult(Record):
    bidegree: tuple[Fraction, Fraction]
    adjunction_bidegree: tuple[int, int]
    multiplier: int


def normal_bundle_boundary() -> NormalBundleResult:
    """Solve 3 N = K of the boundary component, a product of two planes.

    Adjunction gives bidegree (-3, -3); restricting -8L + 2T + T_i, with
    the 2 read from the registry's canonical class, yields 3 T_i on the
    component (the bundle L dies on the fiber and different boundary
    components are disjoint), so N has bidegree (-1, -1).
    """
    adjunction = (-3, -3)
    multiplier = int(coefficients(CANONICAL[TOR_ORD])["T_ord"]) + 1
    bidegree = (Fraction(adjunction[0], multiplier), Fraction(adjunction[1], multiplier))
    return NormalBundleResult(bidegree, adjunction, multiplier)


def _plane_pair_top_intersection(a: Fraction, b: Fraction) -> Fraction:
    """(a h1 + b h2)^4 in Q[h1,h2]/(h1^3, h2^3), the Chow ring of two planes.

    The truncation never touches the point class h1^2 h2^2, so its
    coefficient is read from the untruncated power.
    """
    h1, h2 = variables("h1", "h2")
    return ((a * h1 + b * h2) ** 4).terms.get((2, 2), Fraction(0))


class IntersectionNumbers(Record):
    component: Fraction  # T_i^5 on one ordered boundary component
    ordered: Fraction  # T_ord^5
    unordered: Fraction  # T^5


def top_self_intersections(cusps: int, cover_degree: int) -> IntersectionNumbers:
    """T_i^5 = N^4 on the component, summed over the cusps, divided by the cover.

    The 35 cusps are the (4,4) splittings of the 8 points, one per isotropic
    vector of the fq space (Kondo), and the cover degree is the order 8! of
    its group, which relabels the points.
    """
    n = normal_bundle_boundary().bidegree
    component = _plane_pair_top_intersection(n[0], n[1])
    ordered = cusps * component
    unordered = Fraction(ordered, cover_degree)
    return IntersectionNumbers(component, ordered, unordered)


# ----------------------------------------------------------------------
# the obstruction and discrepancies

class ObstructionCertificate(Record):
    toroidal_power: Fraction  # (7T)^5
    required_exceptional_power: Fraction  # what Delta^5 would have to be
    denominator_five_valuation: int
    e_candidates: tuple[int, ...]
    feasible: bool


def k_equivalence_obstruction(t5: Fraction, e_candidates: Iterable[int]) -> ObstructionCertificate:
    """No 5-free denominator bound e admits (5 Delta)^5 = (7 T)^5.

    The coefficients 7 of T and 5 of Delta are those of the canonical
    classes of TOR and K in ``CANONICAL``.  The toroidal side gives
    (7T)^5 = 16807/192 from T^5 = ``t5`` = 1/192
    (``top_self_intersections``); equality would force
    Delta^5 = 16807/600000 whose reduced denominator carries 5^5, while
    Delta^5 lies in (1/e)Z with e free of the prime 5.  The candidates
    must be positive ints, at least one of them.
    """
    candidates = tuple(e_candidates)
    if not candidates:
        raise ValueError("no denominator bounds given")
    for e in candidates:
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"denominator bound {e!r} is not an int")
        if e < 1:
            raise ValueError("denominator bounds must be positive")
    candidates = tuple(sorted(set(candidates)))
    toroidal = coefficients(CANONICAL[TOR])["T"] ** 5 * t5
    required = toroidal / coefficients(CANONICAL[K])["Delta"] ** 5
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
    return Fraction(k - m * c)
