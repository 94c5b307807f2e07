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
a method of ``Quantities``, computed or raised once per instance:
``run_report`` builds one per run, and a subcommand one that computes only
what it prints.  It is the package's only memo, and it wires the layers:
G's generators, order and orbits are quantities, and ``betti`` and
``picard`` take the cusp counts, the order and T^5 as arguments.  The
discriminant factors and each chart are quantities too, which ``blowup``
takes as arguments; the antidiagonal resultants have one reader, which
passes them on.
``fqspace``, ``betti`` and ``picard`` are imported on first use: without a
bytecode cache, compiling the three takes ~6 ms (the median ``compile()`` of
each source, on Python 3.11), which ``run slice`` skips.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections.abc import Callable, Sequence
from fractions import Fraction

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
    status: str  # pass | fail | error (the check raised)
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
    """Memoize ``method`` per instance and arguments, an error it raised as
    well as a value: every later call raises the same exception again with
    the traceback of the first, so no frames pile up on it."""

    @functools.wraps(method)
    def memoized(self, *args):
        key = (method.__name__, *args)
        if key not in self._memo:
            try:
                self._memo[key] = method(self, *args), None
            except Exception as error:
                self._memo[key] = error, error.__traceback__
        value, traceback = self._memo[key]
        if traceback is not None:
            raise value.with_traceback(traceback)
        return value

    return memoized


class Quantities:
    """The shared quantities of one run, each computed on first use.

    A new instance recomputes everything, so it sees the modules as they
    are when it runs.  A quantity that raised raises again on every read,
    so a failed path search runs once however many rows read the group,
    and each of them reports its error.
    """

    def __init__(self):
        self._memo: dict[tuple, object] = {}

    @_once
    def verdict_table(self, n: int) -> dict[tuple[int, ...], stability.StabilityVerdict]:
        """The stability verdict of every partition of n, keyed by its parts."""
        return {
            parts: stability.classify(stability.PointConfig.from_parts(parts))
            for parts in stability.partitions(n)
        }

    @_once
    def factors(self) -> tuple[MultiPoly, MultiPoly]:
        return blowup.discriminant_factors()

    @_once
    def chart(self, name: str) -> blowup.Chart:
        return blowup.chart(name)

    @_once
    def pullback(self, name: str) -> blowup.TransversalityReport:
        """The discriminant pulled back into chart ``name``."""
        return blowup.discriminant_pullback(self.chart(name), self.factors())

    @_once
    def tangent_cone(self) -> tuple[int, MultiPoly]:
        """The multiplicity and lowest form of the discriminant at the origin."""
        return blowup.tangent_cone(self.factors())

    @_once
    def scan(self) -> blowup.StabilizerScan:
        return blowup.scan_stabilizers([self.chart(name) for name in blowup.CHART_NAMES])

    def scan_summary(self) -> dict:
        """The stabilizer census of ``scan`` without its per-chart rows."""
        return _fields(self.scan(), "orders", "torus_orders", "effective_orders", "max_order", "e")

    @_once
    def generators(self) -> tuple[bytes, ...]:
        """The seven Coxeter generators of G, from one checked path search."""
        return _module("fqspace").coxeter_generators()

    @_once
    def order(self) -> int:
        """|G| = 8!, the cover degree, from the Coxeter presentation."""
        return _module("fqspace").group_order(self.generators())

    @_once
    def orbits(self) -> list[frozenset]:
        """G's orbits on the nonzero vectors: the one walk that the orbit
        sizes, the unordered cusps and the orbit of h are read from."""
        fqspace = _module("fqspace")
        return fqspace.orbits_under(self.generators(), range(1, fqspace.SIZE))

    @_once
    def stab_summary(self) -> dict[str, int]:
        """Orbits and order of Stab(h) for the first isotropic vector h: the
        G-orbits of pairs (h, x) read off at h, and 8! over the orbit of h."""
        fqspace = _module("fqspace")
        h = fqspace.isotropic_vectors()[0]
        orbit = next(o for o in self.orbits() if h in o)
        return fqspace.stab_orbit_summary(self.generators(), h, self.order(), orbit)

    @_once
    def group_summary(self) -> dict:
        """Order of the reflection group, its orbit sizes on nonzero vectors,
        each named by the value of q on it, and the order of Stab(h) read
        from ``stab_summary``."""
        q = _module("fqspace").q
        return {
            "order": self.order(),
            "orbit_sizes": {("isotropic", "nonisotropic")[q(min(o))]: len(o) for o in self.orbits()},
            "stab_order": self.stab_summary()["stabilizer_order"],
        }

    @_once
    def intersections(self):
        """T_i^5, T_ord^5 and T^5 (``picard.IntersectionNumbers``): one cusp
        per isotropic vector, and the cover degree |G|."""
        cusps = len(_module("fqspace").isotropic_vectors())
        return _module("picard").top_self_intersections(cusps, self.order())

    @_once
    def obstruction(self):
        """The K-equivalence obstruction, a ``picard.ObstructionCertificate``,
        from T^5 over the divisors of the scan's bound e."""
        e = self.scan().e
        divisors = (d for d in range(1, e + 1) if e % d == 0)
        return _module("picard").k_equivalence_obstruction(self.intersections().unordered, divisors)

    @_once
    def kirwan(self):
        return _module("betti").kirwan_betti()

    def tor_ordered(self):
        """The decomposition table with one cusp per isotropic vector."""
        return _module("betti").tor_betti_ordered(len(_module("fqspace").isotropic_vectors()))

    @_once
    def tor_unordered(self):
        """The decomposition table with one cusp per G-orbit of isotropic vectors."""
        q = _module("fqspace").q
        return _module("betti").tor_betti_unordered(sum(q(min(o)) == 0 for o in self.orbits()))


# ----------------------------------------------------------------------
# computations of more than one line, and stated values built by a rule

def _fields(record: Record, *names: str) -> dict:
    return {name: getattr(record, name) for name in names}


def _unless_contradicted(value, second_route: dict):
    """``value``, or ``value`` beside the entries where a second route disagrees."""
    return {"value": value, "second_route": second_route} if second_route else value


def _stated_verdict(parts: tuple[int, ...]) -> stability.StabilityVerdict:
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


def _multiplicities(q: Quantities):
    """Each chart's exceptional multiplicity, against the degree of the
    lowest form of the discriminant (``blowup.tangent_cone``)."""
    degree = q.tangent_cone()[0]
    found = {name: q.pullback(name).exceptional_multiplicity for name in blowup.CHART_NAMES}
    return _unless_contradicted(found, {name: degree for name, m in found.items() if m != degree})


def _crossings(q: Quantities):
    """Each chart's crossing, against its restriction read off the tangent
    cone: the lowest form of the discriminant on the chart's coordinates."""
    form = q.tangent_cone()[1]
    crossings, cones = {}, {}
    for name in blowup.CHART_NAMES:
        r = q.pullback(name)
        crossings[name] = {
            **_fields(r, "restriction", "squarefree", "offending"),
            "factor_constant": [f.constant for f in r.factors],
        }
        if (cone := blowup.cone_in_chart(name, form)) != r.restriction:
            cones[name] = cone
    return _unless_contradicted(crossings, cones)


def _antidiagonal_locus(q: Quantities):
    """The fixed locus, against the point (1, 2) off it and the origin on it,
    and each resultant against (t1^8 - t0^8)^2 by composition: as l runs over
    the 16th roots of unity, l^2 and l^14 = l^-2 each run twice over the 8th
    roots mu, so each is Res_mu(mu t0 + t1, mu^8 - 1)^2, and that resultant
    is t0^8 ((-t1/t0)^8 - 1), read off the root mu = -t1/t0."""
    resultants = blowup.antidiag_resultants()
    constraint = blowup.antidiag_fixed_constraint(resultants)
    off, origin = constraint.evaluate({"t0": 1, "t1": 2}), constraint.evaluate({"t0": 0, "t1": 0})
    second = {} if off != 0 and origin == 0 else {"1,2": off, "0,0": origin}
    t0, t1 = MultiPoly.variable("t0"), MultiPoly.variable("t1")
    composed = ((-t1) ** 8 - t0 ** 8) ** 2
    for power, r in zip(("lam^2", "lam^14"), resultants):
        if r != composed:
            second[power] = r
    return _unless_contradicted(constraint, second)


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

SUITES: dict[str, tuple[Check, ...]] = {
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
              lambda q: {name: q.chart(name).weights for name in blowup.CHART_NAMES},
              {"P": {"s1": -16, "t0": -2, "t1": -14, "u0": -4, "u1": -12},
               "Q": {"s0": 2, "s1": -14, "t1": -12, "u0": -2, "u1": -10},
               "R": {"s0": 4, "s1": -12, "t0": 2, "t1": -10, "u1": -8}}),
        Check("slice.multiplicity", "exceptional multiplicity 6 in every chart",
              _multiplicities, {"P": 6, "Q": 6, "R": 6}),
        Check("slice.transversality",
              "strict transform crosses the exceptional divisor non-transversally along u0, u1",
              _crossings,
              {"P": _CROSSING_ALONG_U0_U1,
               "Q": _CROSSING_ALONG_U0_U1,
               "R": {"restriction": "65536*u1^3", "squarefree": False, "offending": ("u1",),
                     "factor_constant": (True, False)}}),
        Check("slice.unstable_locus", "unstable locus is the two one-sided codimension-3 subspaces",
              lambda q: blowup.unstable_supports(),
              (("S0", "T0", "U0"), ("S1", "T1", "U1"))),
        Check("slice.stabilizer_scan", "stabilizer orders {1,2,4}; bound e = 8 is free of 5",
              lambda q: q.scan_summary(),
              {"orders": (1, 2, 4), "torus_orders": (2, 4), "effective_orders": (1, 2), "max_order": 4,
               "e": 8}),
        Check("slice.antidiag", "antidiagonal fixed locus is t0^8 = t1^8",
              _antidiagonal_locus, "t0^8 - t1^8"),
        Check("slice.quotient_transversality",
              "boundary and discriminant meet transversally in quotient coordinates",
              lambda q: blowup.quotient_chart_transversality(),
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
              lambda q: q.tor_ordered().even, (1, 43, 99, 99, 43, 1)),
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
              lambda q: q.intersections(),
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


def _run_suite(name: str, quantities: Quantities) -> list[CheckResult]:
    """The suite's results; a check that raised is reported as an error.

    Its traceback goes to stderr, so that the report stays deterministic
    and the remaining checks still run.
    """
    results = []
    for check in SUITES[name]:
        try:
            payload, expected = encode(check.compute(quantities)), encode(check.expected)
        except Exception as exc:
            # imported here: ~3 ms with textwrap (median of 21 fresh Python 3.11 processes)
            import traceback

            traceback.print_exc()
            error = {"type": type(exc).__name__, "message": str(exc)}
            results.append(CheckResult(check.id, check.anchor, "error", error, None))
            continue
        status = "pass" if payload == expected else "fail"
        results.append(CheckResult(check.id, check.anchor, status, payload, expected))
    return results


def run_report(names: Sequence[str]) -> dict:
    """Execute the named suites and assemble the deterministic report."""
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    quantities = Quantities()
    return {
        "version": SCHEMA_VERSION,
        "suites": [{"name": name, "checks": encode(_run_suite(name, quantities))} for name in names],
    }


def _statuses(report: dict) -> set:
    return {check["status"] for suite in report["suites"] for check in suite["checks"]}


def report_passed(report: dict) -> bool:
    return _statuses(report) <= {"pass"}


def report_errored(report: dict) -> bool:
    """Did a check raise instead of giving its value?"""
    return "error" in _statuses(report)


def render_text(report: dict) -> str:
    """One line per check; under each failing one its expected and actual
    value, and under each that raised the type and message of what it raised."""
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
            elif status == "error":
                lines.append(f"         raised {check['payload']['type']}: {check['payload']['message']}")
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)
