"""Batch verification suites with machine-readable results.

Each suite in ``SUITES`` is a tuple of rows.  A row, a ``Check``, holds a
claim's id, its anchor (the claim in words), a computation of the actual
value and the value the claim asserts; its ``CheckResult`` reports the two
as ``payload`` and ``expected`` and passes exactly when they encode alike.
A computation that tests a second route returns its value alone when the
routes agree, and beside the second route's disagreeing entries when not.
``encode`` gives JSON with rationals and polynomials as strings, never
floats, and reports are byte-stable run to run.

A quantity read by more than one check, or by a check and a subcommand, is
a method of ``Quantities``, computed once per instance: ``run_report``
builds one per run, and a subcommand one that computes only what it
prints.  ``fqspace``, ``betti`` and ``picard`` are imported on first use:
compiling the three is ~12 ms of a cold start, which ``run slice`` skips.
"""

from __future__ import annotations

import functools
import importlib
import json
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import blowup, stability
from .poly import MultiPoly
from .record import Record

SCHEMA_VERSION = "2"


class Check(Record):
    """One row of a suite."""

    id: str
    anchor: str
    compute: Callable[[Quantities], object]
    expected: object


class CheckResult(Record):
    id: str
    anchor: str
    status: str  # pass | fail | error (the suite raised)
    payload: object
    expected: object  # None for an error


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


def _module(name: str):
    """The package module ``name``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


# ----------------------------------------------------------------------
# quantities read by more than one check, or by a check and a subcommand

def _once(method):
    """Memoize ``method`` per instance and arguments."""

    @functools.wraps(method)
    def memoized(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            self._memo[key] = method(self, *args)
        return self._memo[key]

    return memoized


class Quantities:
    """The shared quantities of one run, each computed on first use.

    There is no process-wide cache: a new instance recomputes everything,
    so it sees the modules as they are when it runs.
    """

    def __init__(self):
        self._memo: Dict[tuple, object] = {}

    @_once
    def verdict_table(self, n: int) -> Dict[Tuple[int, ...], stability.StabilityVerdict]:
        """The stability verdict of every partition of n, keyed by its parts."""
        return {
            parts: stability.classify(stability.PointConfig.from_parts(parts))
            for parts in stability.partitions(n)
        }

    @_once
    def pullback(self, name: str) -> blowup.TransversalityReport:
        """The discriminant pulled back into chart ``name``."""
        return blowup.discriminant_pullback(blowup.chart(name))

    @_once
    def scan(self) -> blowup.StabilizerScan:
        return blowup.scan_stabilizers()

    def scan_summary(self) -> Dict:
        """The stabilizer census of ``scan`` without its per-chart rows."""
        return _fields(self.scan(), "orders", "torus_orders", "effective_orders", "max_order", "e")

    @_once
    def stab_summary(self) -> Dict[str, int]:
        """Orbits and order of Stab(h) for the first isotropic vector h."""
        fqspace = _module("fqspace")
        return fqspace.stab_orbit_summary(fqspace.isotropic_vectors()[0])

    @_once
    def group_summary(self) -> Dict:
        """Order of the reflection group, its orbit sizes on nonzero vectors,
        and the order of Stab(h) read from ``stab_summary``.

        The order comes from the stabilizer chain based at the first isotropic
        vector, the chain ``stab_summary`` reads; the orbits are those of the
        28 reflections on the nonzero vectors, each named by the value of q
        on it.
        """
        fqspace = _module("fqspace")
        orbits = fqspace.orbits_under(fqspace.reflections(), range(1, fqspace.SIZE))
        return {
            "order": fqspace.stabilizer_chain(fqspace.isotropic_vectors()[0]).order,
            "orbit_sizes": {("isotropic", "nonisotropic")[fqspace.q(min(o))]: len(o) for o in orbits},
            "stab_order": self.stab_summary()["stabilizer_order"],
        }

    @_once
    def obstruction(self):
        """The K-equivalence obstruction, a ``picard.ObstructionCertificate``,
        over the divisors of the scan's bound e."""
        e = self.scan().e
        return _module("picard").k_equivalence_obstruction(d for d in range(1, e + 1) if e % d == 0)

    @_once
    def kirwan(self):
        return _module("betti").kirwan_betti()

    @_once
    def tor_unordered(self):
        return _module("betti").tor_betti_unordered()


# ----------------------------------------------------------------------
# computations of more than one line, and stated values built by a rule

def _fields(record: Record, *names: str) -> Dict:
    return {name: getattr(record, name) for name in names}


def _unless_contradicted(value, second_route: Dict):
    """``value``, or ``value`` beside the entries where a second route disagrees."""
    return {"value": value, "second_route": second_route} if second_route else value


def _stated_verdict(parts: Tuple[int, ...]) -> stability.StabilityVerdict:
    """Eight points are stable when no 4 coincide, strictly semistable when
    exactly 4 do and unstable when 5 do; polystable when stable or (4, 4)."""
    biggest = max(parts)
    if biggest < 4:
        return stability.StabilityVerdict(stability.STABLE, True)
    status = stability.STRICTLY_SEMISTABLE if biggest == 4 else stability.UNSTABLE
    return stability.StabilityVerdict(status, parts == (4, 4))


def _odd_degrees(q: Quantities):
    degrees = (5, 7, 9, 11)
    strictly_semistable = {
        parts: verdict
        for n in degrees
        for parts, verdict in q.verdict_table(n).items()
        if verdict.status == stability.STRICTLY_SEMISTABLE
    }
    return _unless_contradicted({"checked_degrees": degrees}, strictly_semistable)


def _perp(q: Quantities):
    """The perp census of the first isotropic vector, against every other one."""
    fqspace = _module("fqspace")
    first = fqspace.perp_census(fqspace.isotropic_vectors()[0])
    others = {
        f"0x{h:02x}": census
        for h in fqspace.isotropic_vectors()
        if (census := fqspace.perp_census(h)) != first
    }
    return _unless_contradicted(first, others)


def _chart_weights(q: Quantities):
    """Each chart's weights, against the differences of the Luna slice weights
    (the source that ``blowup.SLICE_WEIGHTS`` transcribes)."""
    slice_weights = dict(zip(blowup.SLICE_VARIABLES, stability.luna_slice_basis().weights))
    weights, differences = {}, {}
    for name in blowup.CHART_NAMES:
        ch = blowup.chart(name)
        weights[name] = dict(ch.weights)
        unit = slice_weights[ch.exceptional]
        by_slice = {
            coord: slice_weights[var] - unit
            for var, coord in blowup._CHART_COORDINATE.items()
            if coord in ch.weights
        }
        if by_slice != weights[name]:
            differences[name] = by_slice
    return _unless_contradicted(weights, differences)


def _crossings(q: Quantities) -> Dict:
    return {
        name: {
            **_fields(r, "restriction", "squarefree", "offending"),
            "factor_constant": [f.constant for f in r.factors],
        }
        for name, r in ((name, q.pullback(name)) for name in blowup.CHART_NAMES)
    }


def _antidiagonal_locus(q: Quantities):
    """The fixed locus, against the point (1, 2) off it and the origin on it."""
    constraint = blowup.antidiag_fixed_constraint()
    off, origin = constraint.evaluate({"t0": 1, "t1": 2}), constraint.evaluate({"t0": 0, "t1": 0})
    return _unless_contradicted(constraint, {} if off != 0 and origin == 0 else {"1,2": off, "0,0": origin})


def _semistable_series(q: Quantities) -> str:
    betti = _module("betti")
    return betti.series_text(betti.semistable_series(8, betti.TRUNCATION_ORDER))


def _main_correction(q: Quantities) -> str:
    betti = _module("betti")
    order = betti.TRUNCATION_ORDER
    invariants = betti.normalizer_invariants_series(order)
    return betti.series_text(betti.main_correction(invariants, betti.SLICE_CODIMENSION, order))


_CROSSING_ALONG_U0_U1 = {
    "restriction": "65536*u0^3*u1^3",
    "squarefree": False,
    "offending": ("u0", "u1"),
    "factor_constant": (False, False),
}
_DISCREPANCY_INPUTS = ((5, 6, Fraction(3, 4)), (5, 6, 0), (2, 6, Fraction(1, 2)))

# ----------------------------------------------------------------------
# suites: each row is Check(id, anchor, computation, expected value)

SUITES: Dict[str, Tuple[Check, ...]] = {
    "stability": (
        Check("stability.table", "stable iff no 4 coincide; semistable iff no 5",
              lambda q: q.verdict_table(8),
              {parts: _stated_verdict(parts) for parts in stability.partitions(8)}),
        Check("stability.polystable_types", "unique properly polystable type (4,4)",
              lambda q: [parts for parts, v in q.verdict_table(8).items()
                         if v.polystable and v.status != stability.STABLE],
              [(4, 4)]),
        Check("stability.odd_degree", "stable and semistable coincide for odd N",
              _odd_degrees, {"checked_degrees": (5, 7, 9, 11)}),
        Check("stability.torus_weights", "degree-8 torus weights -8..8 step 2",
              lambda q: stability.torus_monomial_weights(8), (-8, -6, -4, -2, 0, 2, 4, 6, 8)),
        Check("stability.luna_slice", "six slice monomials with weights (8,-8,6,-6,4,-4); tangent {0,2,-2}",
              lambda q: stability.luna_slice_basis(),
              {"monomials": ("x0^8", "x1^8", "x0^7*x1", "x0*x1^7", "x0^6*x1^2", "x0^2*x1^6"),
               "weights": (8, -8, 6, -6, 4, -4),
               "tangent_weights": (0, 2, -2)}),
    ),
    "fq": (
        Check("fq.census", "census (1, 35, 28)",
              lambda q: _module("fqspace").census(), (1, 35, 28)),
        Check("fq.perp", "19 isotropic and 12 non-isotropic vectors in each isotropic perp",
              _perp, (19, 12)),
        Check("fq.group_order", "reflection closure has order 40320",
              lambda q: q.group_summary()["order"], 40320),
        Check("fq.orbits", "orbit sizes 35 and 28 partition the nonzero vectors",
              lambda q: q.group_summary()["orbit_sizes"], {"isotropic": 35, "nonisotropic": 28}),
        Check("fq.stabilizer", "stabilizer of an isotropic vector has order 40320/35 = 1152",
              lambda q: q.group_summary()["stab_order"], 1152),
        Check("fq.stab_transitivity", "Stab(h) is transitive on the 12 non-isotropic perp vectors",
              lambda q: q.stab_summary(),
              {"isotropic_orbits": 2, "nonisotropic_orbits": 1, "stabilizer_order": 1152}),
    ),
    "slice": (
        Check("slice.chart_weights", "chart weights are slice-weight differences",
              _chart_weights,
              {"P": {"s1": -16, "t0": -2, "t1": -14, "u0": -4, "u1": -12},
               "Q": {"s0": 2, "s1": -14, "t1": -12, "u0": -2, "u1": -10},
               "R": {"s0": 4, "s1": -12, "t0": 2, "t1": -10, "u1": -8}}),
        Check("slice.multiplicity", "exceptional multiplicity 6 in every chart",
              lambda q: {name: q.pullback(name).exceptional_multiplicity for name in blowup.CHART_NAMES},
              {"P": 6, "Q": 6, "R": 6}),
        Check("slice.transversality",
              "strict transform crosses the exceptional divisor non-transversally along u0, u1",
              _crossings,
              {"P": _CROSSING_ALONG_U0_U1,
               "Q": _CROSSING_ALONG_U0_U1,
               "R": {"restriction": "65536*u1^3", "squarefree": False, "offending": ("u1",),
                     "factor_constant": (True, False)}}),
        Check("slice.unstable_locus", "unstable locus is the two one-sided codimension-3 subspaces",
              lambda q: blowup.unstable_supports(blowup.PROJECTIVE_WEIGHTS),
              (("S0", "T0", "U0"), ("S1", "T1", "U1"))),
        Check("slice.stabilizer_scan", "stabilizer orders {1,2,4}; bound e = 8 is free of 5",
              lambda q: q.scan_summary(),
              {"orders": (1, 2, 4), "torus_orders": (2, 4), "effective_orders": (1, 2), "max_order": 4,
               "e": 8}),
        Check("slice.antidiag", "antidiagonal fixed locus is t0^8 = t1^8",
              _antidiagonal_locus, "t0^8 - t1^8"),
        Check("slice.quotient_transversality",
              "boundary and discriminant meet transversally in quotient coordinates",
              lambda q: _fields(blowup.quotient_chart_transversality(),
                                "transversal", "upstairs_double", "independent_pair"),
              {"transversal": True, "upstairs_double": True, "independent_pair": True}),
    ),
    "betti": (
        Check("betti.semistable", "semistable series 1 + t^2 + 2 t^4 modulo t^6",
              _semistable_series, "1 + t^2 + 2*t^4 (mod t^6)"),
        Check("betti.main_correction", "main correction t^2 + t^4 modulo t^6",
              _main_correction, "t^2 + t^4 (mod t^6)"),
        Check("betti.extra_correction", "extra correction starts in degree 6",
              lambda q: _module("betti").extra_correction_min_degree(), 6),
        Check("betti.M_K", "Betti table (1,2,3,3,2,1) of the blown-up quotient",
              lambda q: q.kirwan().even, (1, 2, 3, 3, 2, 1)),
        Check("betti.boundary", "boundary invariants (1,1,2,1,1)",
              lambda q: _module("betti").boundary_invariants(), (1, 1, 2, 1, 1)),
        Check("betti.tor_ordered", "(1,8,29,29,8,1) with 35 fibers (1,2,3,2,1) gives (1,43,99,99,43,1)",
              lambda q: _module("betti").tor_betti_ordered().even, (1, 43, 99, 99, 43, 1)),
        Check("betti.tor_unordered", "(1,1,2,2,1,1) with one fiber (1,1,2,1,1) gives (1,2,3,3,2,1)",
              lambda q: q.tor_unordered().even, (1, 2, 3, 3, 2, 1)),
        Check("betti.routes_agree", "stratification route equals decomposition route",
              lambda q: {"kirwan": q.kirwan().even, "decomposition": q.tor_unordered().even},
              {"kirwan": (1, 2, 3, 3, 2, 1), "decomposition": (1, 2, 3, 3, 2, 1)}),
    ),
    "picard": (
        Check("picard.identities", "all registered canonical-bundle identities hold",
              lambda q: {c.name: c.holds for c in _module("picard").verify_blowup_identities()},
              dict.fromkeys(("first_blowup_canonical", "second_blowup_canonical", "weight14_canonical",
                             "proportionality_route", "blowup_route", "log_pair_canonical",
                             "projection_formula"), True)),
        Check("picard.normal_bundle", "boundary normal bundle has bidegree (-1,-1)",
              lambda q: _module("picard").normal_bundle_boundary().bidegree, (Fraction(-1), Fraction(-1))),
        Check("picard.intersections", "T_i^5 = 6, T_ord^5 = 210, T^5 = 1/192",
              lambda q: _module("picard").top_self_intersections(),
              {"component": Fraction(6), "ordered": Fraction(210), "unordered": Fraction(1, 192)}),
        Check("picard.obstruction", "(5 Delta)^5 = (7 T)^5 is infeasible with a 5-free denominator bound",
              lambda q: q.obstruction(),
              {"toroidal_power": Fraction(16807, 192), "required_exceptional_power": Fraction(16807, 600000),
               "denominator_five_valuation": 5, "e_candidates": (1, 2, 4, 8), "feasible": False}),
        Check("picard.discrepancies", "discrepancies 1/2 (log pair), 5 (absolute), -1 (ordered pair)",
              lambda q: tuple(_module("picard").discrepancy(*args) for args in _DISCREPANCY_INPUTS),
              (Fraction(1, 2), Fraction(5), Fraction(-1))),
        Check("picard.exceptional_coefficient", "chart multiplicity equals the ledger pullback coefficient 6",
              lambda q: {"chart": q.pullback("P").exceptional_multiplicity,
                         "ledger": _module("picard").exceptional_pullback_coefficient()},
              {"chart": 6, "ledger": Fraction(6)}),
    ),
}
SUITE_NAMES = tuple(SUITES)


def _run_suite(name: str, quantities: Quantities) -> List[CheckResult]:
    """The suite's results, or one ``<name>.error`` result if it raised.

    The traceback goes to stderr, so that the report stays deterministic
    and the remaining suites still run.
    """
    try:
        results = []
        for check in SUITES[name]:
            payload, expected = encode(check.compute(quantities)), encode(check.expected)
            status = "pass" if payload == expected else "fail"
            results.append(CheckResult(check.id, check.anchor, status, payload, expected))
        return results
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
                None,
            )
        ]


def run_report(names: Sequence[str]) -> Dict:
    """Execute the named suites and assemble the deterministic report."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    quantities = Quantities()
    return {
        "version": SCHEMA_VERSION,
        "suites": [{"name": name, "checks": encode(_run_suite(name, quantities))} for name in names],
    }


def _statuses(report: Dict) -> set:
    return {check["status"] for suite in report["suites"] for check in suite["checks"]}


def report_passed(report: Dict) -> bool:
    return _statuses(report) <= {"pass"}


def report_errored(report: Dict) -> bool:
    """Did a suite raise instead of finishing its checks?"""
    return "error" in _statuses(report)


def render_text(report: Dict) -> str:
    """One line per check, and under each failing one its expected and actual value."""
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
            if status == "fail":
                expected, got = json.dumps(check["expected"]), json.dumps(check["payload"])
                lines.append(f"         expected {expected}, got {got}")
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)
