"""Batch verification suites with machine-readable results.

Each check recomputes one concrete quantity and compares it with the
asserted value; results carry the claim being verified (``anchor``), a
pass/fail status and an exact payload.  Rationals are serialized as "p/q"
strings, never floats, and suite assembly is deterministic so reports are
byte-stable run to run.  The quantities that both a suite and a CLI
subcommand report are computed by the named functions below, and
``encode`` turns every result into JSON-ready values.  ``fqspace``,
``betti`` and ``picard`` are imported by the functions that use them:
compiling the three is ~12 ms of a cold start, which ``run slice`` skips.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import blowup, stability
from .poly import MultiPoly, variables
from .record import Record

SCHEMA_VERSION = "1"


class CheckResult(Record):
    id: str
    anchor: str
    status: str  # pass | fail | error (the suite raised)
    payload: object


def encode(value):
    """JSON-ready form of a result.

    Rationals and polynomials become strings, records become objects with
    their fields in declaration order, tuples and sets become lists (sets
    sorted), and tuple keys are joined with commas.
    """
    if isinstance(value, (Fraction, MultiPoly)):
        return str(value)
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Record):
        return {name: encode(v) for name, v in zip(value.__record_fields__, value._values())}
    if isinstance(value, dict):
        return {
            ",".join(map(str, k)) if isinstance(k, tuple) else k: encode(v)
            for k, v in value.items()
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [encode(v) for v in items]
    return str(value)


def _check(check_id: str, anchor: str, ok: bool, payload) -> CheckResult:
    return CheckResult(check_id, anchor, "pass" if ok else "fail", encode(payload))


# ----------------------------------------------------------------------
# quantities reported both by a suite and by a CLI subcommand

def verdict_table(n: int) -> Dict[Tuple[int, ...], stability.StabilityVerdict]:
    """The stability verdict of every partition of n, keyed by its parts."""
    return {
        parts: stability.classify(stability.PointConfig.from_parts(parts))
        for parts in stability.partitions(n)
    }


def group_summary(stab: Dict[str, int]) -> Dict:
    """Order of the reflection group, its orbit sizes on nonzero vectors,
    and the order of Stab(h) read from ``stab = stab_orbit_summary(h)``.

    The order comes from the stabilizer chain based at the first isotropic
    vector, the chain ``stab_orbit_summary`` reads for that vector; the
    orbits are those of the 28 reflections on the nonzero vectors, each
    named by the value of q on it.
    """
    from . import fqspace

    orbits = fqspace.orbits_under(fqspace.reflections(), range(1, fqspace.SIZE))
    return {
        "order": fqspace.stabilizer_chain(fqspace.isotropic_vectors()[0]).order,
        "orbit_sizes": {("isotropic", "nonisotropic")[fqspace.q(min(o))]: len(o) for o in orbits},
        "stab_order": stab["stabilizer_order"],
    }


def scan_summary(scan: blowup.StabilizerScan) -> Dict:
    """The stabilizer census of ``scan`` without its per-chart rows."""
    return {
        "orders": scan.orders,
        "torus_orders": scan.torus_orders,
        "effective_orders": scan.effective_orders,
        "max_order": scan.max_order,
        "e": scan.e,
    }


def obstruction():
    """The K-equivalence obstruction, a ``picard.ObstructionCertificate``,
    over the divisors of the scan's bound e."""
    from . import picard

    e = blowup.scan_stabilizers().e
    return picard.k_equivalence_obstruction(d for d in range(1, e + 1) if e % d == 0)


# ----------------------------------------------------------------------
# suites

def suite_stability() -> List[CheckResult]:
    out: List[CheckResult] = []

    table = verdict_table(8)
    ok = True
    for parts, verdict in table.items():
        biggest = max(parts)
        expected_status = (
            stability.STABLE
            if biggest < 4
            else stability.STRICTLY_SEMISTABLE
            if biggest == 4
            else stability.UNSTABLE
        )
        expected_poly = biggest < 4 or parts == (4, 4)
        ok &= verdict.status == expected_status and verdict.polystable == expected_poly
    out.append(_check("stability.table", "stable iff no 4 coincide; semistable iff no 5", ok, table))

    polystable_not_stable = [
        parts for parts, v in table.items() if v.polystable and v.status != stability.STABLE
    ]
    out.append(
        _check(
            "stability.polystable_types",
            "unique properly polystable type (4,4)",
            polystable_not_stable == [(4, 4)],
            polystable_not_stable,
        )
    )

    odd_ok = all(
        verdict.status != stability.STRICTLY_SEMISTABLE
        for n in (5, 7, 9, 11)
        for verdict in verdict_table(n).values()
    )
    out.append(
        _check(
            "stability.odd_degree",
            "stable and semistable coincide for odd N",
            odd_ok,
            {"checked_degrees": [5, 7, 9, 11]},
        )
    )

    weights = stability.torus_monomial_weights(8)
    out.append(
        _check(
            "stability.torus_weights",
            "degree-8 torus weights -8..8 step 2",
            weights == (-8, -6, -4, -2, 0, 2, 4, 6, 8),
            weights,
        )
    )

    luna = stability.luna_slice_basis()
    partition_ok = sorted(luna.weights + luna.tangent_weights) == sorted(weights)
    out.append(
        _check(
            "stability.luna_slice",
            "six slice monomials with weights (8,-8,6,-6,4,-4); tangent {0,2,-2}",
            luna.dimension == 6
            and luna.weights == (8, -8, 6, -6, 4, -4)
            and sorted(luna.tangent_weights) == [-2, 0, 2]
            and partition_ok,
            luna,
        )
    )
    return out


def suite_fq() -> List[CheckResult]:
    from . import fqspace

    out: List[CheckResult] = []
    counts = fqspace.census()
    out.append(_check("fq.census", "census (1, 35, 28)", counts == (1, 35, 28), counts))

    perp_ok = all(fqspace.perp_census(h) == (19, 12) for h in fqspace.isotropic_vectors())
    out.append(
        _check(
            "fq.perp",
            "19 isotropic and 12 non-isotropic vectors in each isotropic perp",
            perp_ok,
            fqspace.perp_census(fqspace.isotropic_vectors()[0]),
        )
    )

    summary = fqspace.stab_orbit_summary(fqspace.isotropic_vectors()[0])
    group = group_summary(summary)
    order = group["order"]
    out.append(_check("fq.group_order", "reflection closure has order 40320", order == 40320, order))

    orbits = group["orbit_sizes"]
    out.append(
        _check(
            "fq.orbits",
            "orbit sizes 35 and 28 partition the nonzero vectors",
            (orbits["isotropic"], orbits["nonisotropic"]) == (35, 28),
            orbits,
        )
    )

    stab_order = group["stab_order"]
    out.append(
        _check(
            "fq.stabilizer",
            "stabilizer of an isotropic vector has order 40320/35 = 1152",
            stab_order == 1152,
            stab_order,
        )
    )

    out.append(
        _check(
            "fq.stab_transitivity",
            "Stab(h) is transitive on the 12 non-isotropic perp vectors",
            summary["nonisotropic_orbits"] == 1,
            summary,
        )
    )
    return out


def suite_slice() -> List[CheckResult]:
    out: List[CheckResult] = []

    expected_weights = {
        "P": {"s1": -16, "t0": -2, "t1": -14, "u0": -4, "u1": -12},
        "Q": {"s0": 2, "s1": -14, "t1": -12, "u0": -2, "u1": -10},
        "R": {"s0": 4, "s1": -12, "t0": 2, "t1": -10, "u1": -8},
    }
    weights_payload = {}
    weights_ok = True
    for name in blowup.CHART_NAMES:
        ch = blowup.chart(name)
        weights_payload[name] = dict(ch.weights)
        weights_ok &= dict(ch.weights) == expected_weights[name]
        for coord, w in ch.weights.items():
            slice_var = next(
                sv for sv, cc in blowup._CHART_COORDINATE.items() if cc == coord
            )
            weights_ok &= (
                w
                == blowup.SLICE_WEIGHTS[slice_var]
                - blowup.SLICE_WEIGHTS[ch.exceptional]
            )
    out.append(
        _check(
            "slice.chart_weights",
            "chart weights are slice-weight differences",
            weights_ok,
            weights_payload,
        )
    )

    reports = {name: blowup.discriminant_pullback(blowup.chart(name)) for name in blowup.CHART_NAMES}
    out.append(
        _check(
            "slice.multiplicity",
            "exceptional multiplicity 6 in every chart",
            all(r.exceptional_multiplicity == 6 for r in reports.values()),
            {name: r.exceptional_multiplicity for name, r in reports.items()},
        )
    )

    trans_ok = (
        set(reports["P"].offending) == {"u0", "u1"}
        and not reports["P"].squarefree
        and set(reports["Q"].offending) == {"u0", "u1"}
        and not reports["Q"].squarefree
        and reports["R"].factors[0].constant
        and set(reports["R"].offending) == {"u1"}
        and not reports["R"].squarefree
    )
    out.append(
        _check(
            "slice.transversality",
            "strict transform crosses the exceptional divisor non-transversally along u0, u1",
            trans_ok,
            {
                name: {
                    "restriction": r.restriction,
                    "squarefree": r.squarefree,
                    "offending": r.offending,
                    "factor_constant": [f.constant for f in r.factors],
                }
                for name, r in reports.items()
            },
        )
    )

    loci = blowup.unstable_supports(blowup.PROJECTIVE_WEIGHTS)
    out.append(
        _check(
            "slice.unstable_locus",
            "unstable locus is the two one-sided codimension-3 subspaces",
            sorted(map(sorted, loci)) == [["S0", "T0", "U0"], ["S1", "T1", "U1"]],
            loci,
        )
    )

    scan = blowup.scan_stabilizers()
    out.append(
        _check(
            "slice.stabilizer_scan",
            "stabilizer orders {1,2,4}; bound e = 8 is free of 5",
            scan.orders == (1, 2, 4) and scan.e == 8 and scan.e % 5 != 0,
            scan_summary(scan),
        )
    )

    constraint = blowup.antidiag_fixed_constraint()
    t0, t1 = variables("t0", "t1")
    out.append(
        _check(
            "slice.antidiag",
            "antidiagonal fixed locus is t0^8 = t1^8",
            constraint == t0 ** 8 - t1 ** 8
            and constraint.evaluate({"t0": 1, "t1": 2}) != 0
            and constraint.evaluate({"t0": 0, "t1": 0}) == 0,
            constraint,
        )
    )

    quotient = blowup.quotient_chart_transversality()
    out.append(
        _check(
            "slice.quotient_transversality",
            "boundary and discriminant meet transversally in quotient coordinates",
            quotient.transversal and quotient.upstairs_double and quotient.independent_pair,
            {
                "transversal": quotient.transversal,
                "upstairs_double": quotient.upstairs_double,
                "independent_pair": quotient.independent_pair,
            },
        )
    )
    return out


def suite_betti() -> List[CheckResult]:
    from . import betti

    out: List[CheckResult] = []

    order = betti.TRUNCATION_ORDER
    ss = betti.semistable_series(8, order)
    out.append(
        _check(
            "betti.semistable",
            "semistable series 1 + t^2 + 2 t^4 modulo t^6",
            ss == (1, 0, 1, 0, 2, 0),
            betti.series_text(ss),
        )
    )

    main = betti.main_correction(
        betti.normalizer_invariants_series(order), betti.SLICE_CODIMENSION, order
    )
    out.append(
        _check(
            "betti.main_correction",
            "main correction t^2 + t^4 modulo t^6",
            main == (0, 0, 1, 0, 1, 0),
            betti.series_text(main),
        )
    )

    degree = betti.extra_correction_min_degree()
    out.append(
        _check(
            "betti.extra_correction",
            "extra correction starts in degree 6",
            degree == 6,
            degree,
        )
    )

    kirwan = betti.kirwan_betti()
    out.append(
        _check(
            "betti.M_K",
            "Betti table (1,2,3,3,2,1) of the blown-up quotient",
            kirwan.even == (1, 2, 3, 3, 2, 1),
            kirwan.even,
        )
    )

    boundary = betti.boundary_invariants()
    out.append(
        _check(
            "betti.boundary",
            "boundary invariants (1,1,2,1,1)",
            boundary == (1, 1, 2, 1, 1),
            boundary,
        )
    )

    ordered = betti.tor_betti_ordered()
    out.append(
        _check(
            "betti.tor_ordered",
            "(1,8,29,29,8,1) with 35 fibers (1,2,3,2,1) gives (1,43,99,99,43,1)",
            ordered.even == (1, 43, 99, 99, 43, 1),
            ordered.even,
        )
    )

    unordered = betti.tor_betti_unordered()
    out.append(
        _check(
            "betti.tor_unordered",
            "(1,1,2,2,1,1) with one fiber (1,1,2,1,1) gives (1,2,3,3,2,1)",
            unordered.even == (1, 2, 3, 3, 2, 1),
            unordered.even,
        )
    )

    out.append(
        _check(
            "betti.routes_agree",
            "stratification route equals decomposition route",
            kirwan.even == unordered.even,
            {"kirwan": kirwan.even, "decomposition": unordered.even},
        )
    )
    return out


def suite_picard() -> List[CheckResult]:
    from . import picard

    out: List[CheckResult] = []

    identities = picard.verify_blowup_identities()
    out.append(
        _check(
            "picard.identities",
            "all registered canonical-bundle identities hold",
            all(c.holds for c in identities),
            {c.name: c.holds for c in identities},
        )
    )

    normal = picard.normal_bundle_boundary()
    out.append(
        _check(
            "picard.normal_bundle",
            "boundary normal bundle has bidegree (-1,-1)",
            normal.bidegree == (Fraction(-1), Fraction(-1)),
            normal.bidegree,
        )
    )

    numbers = picard.top_self_intersections()
    out.append(
        _check(
            "picard.intersections",
            "T_i^5 = 6, T_ord^5 = 210, T^5 = 1/192",
            (numbers.component, numbers.ordered, numbers.unordered)
            == (Fraction(6), Fraction(210), Fraction(1, 192)),
            numbers,
        )
    )

    cert = obstruction()
    out.append(
        _check(
            "picard.obstruction",
            "(5 Delta)^5 = (7 T)^5 is infeasible with a 5-free denominator bound",
            not cert.feasible and cert.denominator_five_valuation == 5,
            cert,
        )
    )

    discs = (
        picard.discrepancy(5, 6, Fraction(3, 4)),
        picard.discrepancy(5, 6, 0),
        picard.discrepancy(2, 6, Fraction(1, 2)),
    )
    out.append(
        _check(
            "picard.discrepancies",
            "discrepancies 1/2 (log pair), 5 (absolute), -1 (ordered pair)",
            discs == (Fraction(1, 2), Fraction(5), Fraction(-1)),
            discs,
        )
    )

    chart_multiplicity = blowup.discriminant_pullback(blowup.chart("P")).exceptional_multiplicity
    coefficient = picard.exceptional_pullback_coefficient()
    out.append(
        _check(
            "picard.exceptional_coefficient",
            "chart multiplicity equals the ledger pullback coefficient 6",
            chart_multiplicity == 6 and coefficient == 6,
            {"chart": chart_multiplicity, "ledger": coefficient},
        )
    )
    return out


SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    "stability": suite_stability,
    "fq": suite_fq,
    "slice": suite_slice,
    "betti": suite_betti,
    "picard": suite_picard,
}
SUITE_NAMES = tuple(SUITES)


def _run_suite(name: str) -> List[CheckResult]:
    """The suite's results, or one ``<name>.error`` result if it raised.

    The traceback goes to stderr, so that the report stays deterministic
    and the remaining suites still run.
    """
    try:
        return SUITES[name]()
    except Exception as exc:
        # imported here: with textwrap it is ~5 ms of a ~135 ms cold `run slice`
        import traceback

        traceback.print_exc()
        return [
            CheckResult(
                f"{name}.error",
                "the suite runs to completion",
                "error",
                {"type": type(exc).__name__, "message": str(exc)},
            )
        ]


def run_report(names: Sequence[str]) -> Dict:
    """Execute the named suites and assemble the deterministic report."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    return {
        "version": SCHEMA_VERSION,
        "suites": [{"name": name, "checks": encode(_run_suite(name))} for name in names],
    }


def _statuses(report: Dict) -> set:
    return {check["status"] for suite in report["suites"] for check in suite["checks"]}


def report_passed(report: Dict) -> bool:
    return _statuses(report) <= {"pass"}


def report_errored(report: Dict) -> bool:
    """Did a suite raise instead of finishing its checks?"""
    return "error" in _statuses(report)


def render_text(report: Dict) -> str:
    lines = []
    total = passed = 0
    for suite in report["suites"]:
        lines.append(f"suite {suite['name']}")
        for check in suite["checks"]:
            total += 1
            status = check["status"]
            if status == "pass":
                passed += 1
            lines.append(f"  [{status.upper():4s}] {check['id']}: {check['anchor']}")
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)
