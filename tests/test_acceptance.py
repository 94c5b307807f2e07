"""Acceptance suite: every headline quantity, exact, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; each test recomputes its quantities from scratch and compares
with exact equality (tolerances are zero throughout).
"""

import math
import random
import time
from fractions import Fraction

from modpoints import betti, checks, fqspace, picard, stability
from modpoints.poly import MultiPoly, discriminant_quartic, resultant, variables

from oracles import bareiss_resultant, generate_group, stabilizer


def _report(line):
    print(f"ACCEPTANCE {line}")


def test_c01_stability_table():
    start = time.perf_counter()
    verdicts = {}
    for parts in stability.partitions(8):
        verdicts[parts] = stability.classify(stability.PointConfig.from_parts(parts))
    for parts, v in verdicts.items():
        assert (v.status == stability.STABLE) == (max(parts) < 4)
        assert (v.status == stability.UNSTABLE) == (max(parts) > 4)
        assert (v.status == stability.STRICTLY_SEMISTABLE) == (max(parts) == 4)
    properly_polystable = [
        parts for parts, v in verdicts.items() if v.polystable and v.status != stability.STABLE
    ]
    assert properly_polystable == [(4, 4)]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"C1 stability-table over {len(verdicts)} partitions: PASS ({elapsed:.3f}s)")


def test_c02_luna_slice():
    slice_data = stability.luna_slice_basis()
    assert len(slice_data.monomials) == 6
    assert slice_data.weights == (8, -8, 6, -6, 4, -4)
    assert sorted(slice_data.tangent_weights) == [-2, 0, 2]
    assert sorted(slice_data.weights + slice_data.tangent_weights) == sorted(
        stability.torus_monomial_weights(8)
    )
    _report("C2 luna-slice basis and weights: PASS")


def test_c03_chart_transversality():
    start = time.perf_counter()
    quantities = checks.Quantities()
    reports = {name: quantities.pullback(name) for name in "PQR"}
    assert all(r.exceptional_multiplicity == 6 for r in reports.values())
    assert set(reports["P"].offending) == {"u0", "u1"} and not reports["P"].squarefree
    assert set(reports["Q"].offending) == {"u0", "u1"} and not reports["Q"].squarefree
    assert reports["R"].factors[0].constant
    assert reports["R"].factors[0].restriction == MultiPoly.constant(256)
    assert set(reports["R"].offending) == {"u1"} and not reports["R"].squarefree
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"C3 chart transversality P/Q/R: PASS ({elapsed:.3f}s)")


def test_c04_discriminant_oracle():
    a0, b0, g0 = variables("alpha0", "beta0", "gamma0")
    x = MultiPoly.variable("x")
    symbolic = x ** 4 + a0 * x ** 2 + b0 * x + g0
    d_symbolic = symbolic.partial_derivative("x")
    assert (
        resultant(symbolic, d_symbolic, "x")
        == bareiss_resultant(symbolic, d_symbolic, "x")
        == discriminant_quartic(a0, b0, g0)
    )
    rng = random.Random(1029)
    trials = 0
    for _ in range(20):
        a, b, g = (rng.randint(-9, 9) for _ in range(3))
        f = x ** 4 + a * x ** 2 + b * x + MultiPoly.constant(g)
        df = f.partial_derivative("x")
        assert resultant(f, df, "x") == bareiss_resultant(f, df, "x") == discriminant_quartic(a, b, g)
        trials += 1
    assert trials == 20
    _report(
        "C4 discriminant: subresultant = Bareiss-Sylvester oracle = closed form "
        "(symbolic + 20 triples): PASS"
    )


def test_c05_stabilizer_scan():
    start = time.perf_counter()
    scan = checks.Quantities().scan()
    assert scan.orders == (1, 2, 4)
    assert scan.e == 2 * math.lcm(*scan.torus_orders) == 8
    assert scan.e % 5 != 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"C5 stabilizer scan orders {scan.orders}, e = {scan.e}: PASS ({elapsed:.3f}s)")


def test_c06_quadratic_space():
    start = time.perf_counter()
    assert fqspace.census() == (1, 35, 28)
    for h in fqspace.isotropic_vectors():
        assert fqspace.perp_census(h) == (19, 12)
    group = generate_group()
    assert group.order == 40320
    h = fqspace.isotropic_vectors()[0]
    assert len(stabilizer(h)) == 1152
    generators = fqspace.coxeter_generators()
    orbit = fqspace.orbits_under(generators, [h])[0]
    assert fqspace.stab_orbit_summary(generators, h, group.order, orbit)["nonisotropic_orbits"] == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(f"C6 quadratic-space census and group: PASS ({elapsed:.2f}s)")


def test_c07_kirwan_series():
    assert betti.semistable_series() == (1, 1, 2)
    assert betti.main_correction() == (0, 1, 1)
    assert betti.extra_correction_min_degree() == 6
    assert betti.kirwan_betti().even == (1, 2, 3, 3, 2, 1)
    _report("C7 equivariant series and Betti table (1,2,3,3,2,1): PASS")


def test_c08_decomposition_assembly():
    ordered = betti.decomposition_assembly(betti.IH_BB_ORDERED, betti.boundary_fiber_ordered(), 35)
    assert ordered.even == (1, 43, 99, 99, 43, 1)
    unordered = betti.decomposition_assembly(betti.IH_BB_UNORDERED, betti.boundary_invariants(), 1)
    assert unordered.even == (1, 2, 3, 3, 2, 1)
    assert betti.boundary_invariants() == (1, 1, 2, 1, 1)
    _report("C8 decomposition assembly (ordered + unordered) and boundary invariants: PASS")


def test_c09_picard_ledger():
    identities = picard.verify_blowup_identities()
    assert all(c.holds for c in identities)
    assert picard.normal_bundle_boundary().bidegree == (Fraction(-1), Fraction(-1))
    numbers = picard.top_self_intersections(
        len(fqspace.isotropic_vectors()), fqspace.group_order(fqspace.coxeter_generators())
    )
    assert numbers.component == 6
    assert numbers.ordered == 210
    assert numbers.unordered == Fraction(1, 192)
    cert = picard.k_equivalence_obstruction(numbers.unordered, (1, 2, 4, 8))
    assert not cert.feasible
    assert cert.required_exceptional_power == Fraction(16807, 600000)
    assert picard.discrepancy(5, 6, Fraction(3, 4)) == Fraction(1, 2)
    assert picard.discrepancy(5, 6, 0) == 5
    assert picard.discrepancy(2, 6, Fraction(1, 2)) == -1
    _report("C9 divisor ledger, intersections, obstruction, discrepancies: PASS")


def test_c10_cross_module_consistency():
    quantities = checks.Quantities()
    multiplicities = {name: quantities.pullback(name).exceptional_multiplicity for name in "PQR"}
    assert set(multiplicities.values()) == {6}
    assert picard.exceptional_pullback_coefficient() == 6
    assert betti.kirwan_betti().even == quantities.tor_unordered().even
    _report("C10 cross-module consistency (multiplicity 6; Betti routes agree): PASS")
