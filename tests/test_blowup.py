"""Charts of the slice blow-up: strict transforms, stabilizers, constraints."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints import blowup
from modpoints.blowup import (
    PositiveDimensionalStabilizerError,
    SLICE_WEIGHTS,
    antidiag_fixed_constraint,
    antidiag_resultants,
    chart,
    cone_in_chart,
    discriminant_factors,
    discriminant_pullback,
    quotient_chart_transversality,
    scan_stabilizers,
    stabilizer_order,
    tangent_cone,
    unstable_supports,
)
from modpoints.poly import MultiPoly, is_squarefree, variables

from oracles import parse_poly, semistable_supports


def test_chart_names():
    with pytest.raises(ValueError):
        chart("X")


def test_chart_weights_follow_the_slice_action():
    # chart coordinate X_i / X_unit scales by the weight difference
    for name in "PQR":
        ch = chart(name)
        unit_weight = SLICE_WEIGHTS[ch.exceptional]
        for slice_var, coord in blowup._CHART_COORDINATE.items():
            if coord in ch.weights:
                assert ch.weights[coord] == SLICE_WEIGHTS[slice_var] - unit_weight


def test_chart_p_weights():
    assert dict(chart("P").weights) == {
        "s1": -16,
        "t0": -2,
        "t1": -14,
        "u0": -4,
        "u1": -12,
    }


def test_chart_q_weights():
    assert dict(chart("Q").weights) == {
        "s0": 2,
        "s1": -14,
        "t1": -12,
        "u0": -2,
        "u1": -10,
    }


def test_chart_r_weights():
    # systematic bookkeeping: s1 = S1/U0 has weight -8 - 4 = -12
    assert dict(chart("R").weights) == {
        "s0": 4,
        "s1": -12,
        "t0": 2,
        "t1": -10,
        "u1": -8,
    }


def test_chart_residuals():
    assert chart("P").residual == "s1"
    assert chart("Q").residual == "t1"
    assert chart("R").residual == "u1"


def test_chart_p_pullback_matches_displayed_factorization():
    a0, s1, t0, t1, u0, u1 = variables("alpha0", "s1", "t0", "t1", "u0", "u1")
    first = (
        256 * u0 ** 3
        - 128 * a0 * u0 ** 2
        + 144 * a0 * t0 ** 2 * u0
        - 27 * a0 * t0 ** 4
        + 16 * a0 ** 2 * u0
        - 4 * a0 ** 2 * t0 ** 2
    )
    second = (
        256 * u1 ** 3
        - 128 * a0 * s1 ** 2 * u1 ** 2
        + 144 * a0 * s1 * t1 ** 2 * u1
        - 27 * a0 * t1 ** 4
        + 16 * a0 ** 2 * s1 ** 4 * u1
        - 4 * a0 ** 2 * s1 ** 3 * t1 ** 2
    )
    ch = chart("P")
    f0, f1 = factors = discriminant_factors()
    pulled = (f0 * f1).substitute(ch.substitution)
    assert pulled == a0 ** 6 * first * second
    report = discriminant_pullback(ch, factors)
    assert report.factors[0].strict_transform == first
    assert report.factors[1].strict_transform == second


def test_exceptional_multiplicity_is_six_in_every_chart():
    for name in "PQR":
        report = discriminant_pullback(chart(name), discriminant_factors())
        assert report.exceptional_multiplicity == 6
        assert [f.multiplicity for f in report.factors] == [3, 3]


def test_the_tangent_cone_gives_each_charts_multiplicity_and_restriction():
    # each factor's lowest form is 256*gamma^3
    degree, form = tangent_cone(discriminant_factors())
    assert (degree, form) == (6, parse_poly("65536*gamma0^3*gamma1^3"))
    for name in "PQR":
        report = discriminant_pullback(chart(name), discriminant_factors())
        assert report.exceptional_multiplicity == degree
        assert cone_in_chart(name, form) == report.restriction
    assert cone_in_chart("R", parse_poly("alpha0*beta1 + gamma0^2")) == parse_poly("s0*t1 + 1")


def test_transversality_chart_p():
    report = discriminant_pullback(chart("P"), discriminant_factors())
    assert not report.squarefree
    assert set(report.offending) == {"u0", "u1"}
    assert report.restriction == parse_poly("65536*u0^3*u1^3")


def test_transversality_chart_q():
    report = discriminant_pullback(chart("Q"), discriminant_factors())
    assert not report.squarefree
    assert set(report.offending) == {"u0", "u1"}


def test_transversality_chart_r():
    report = discriminant_pullback(chart("R"), discriminant_factors())
    assert report.factors[0].constant
    assert report.factors[0].restriction == MultiPoly.constant(256)
    assert not report.factors[1].constant
    assert set(report.offending) == {"u1"}


def test_report_invariant_squarefree_iff_no_offenders():
    for name in "PQR":
        report = discriminant_pullback(chart(name), discriminant_factors())
        assert report.squarefree == (not report.offending)


U0, U1 = variables("u0", "u1")


@pytest.mark.parametrize(
    "p, offenders",
    [
        (U0 ** 2 * (U1 + 1) ** 2, ["u0", "u1 + 1"]),
        (U0 * (U1 + 1) ** 2, ["u0*u1 + u0"]),
        (U1 ** 2 * (U0 + U1) ** 3, ["u1", "u0 + u1"]),
        (U0 * U1, []),
        (parse_poly("65536*u0^3*u1^3"), ["u0", "u1"]),
    ],
)
def test_offending_factors(p, offenders):
    # the first three leave a non-constant residual once the coordinate powers are stripped
    assert blowup._offending_factors(p) == offenders


plane_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9), max_size=4
).map(lambda terms: MultiPoly(("u0", "u1"), terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plane_polys.filter(lambda p: not p.is_constant))
def test_property_no_offenders_iff_squarefree(p):
    assert (blowup._offending_factors(p) == []) == is_squarefree(p)


def test_factors_are_swap_symmetric_in_charts_p_and_q():
    swap = {"t0": "t1", "u0": "u1"}
    for name in "PQ":
        report = discriminant_pullback(chart(name), discriminant_factors())
        first = report.factors[0].strict_transform
        second_residual = report.factors[1].residual_form
        renames = {}
        for v in first.occurring_variables():
            target = swap.get(v, v)
            if name == "Q" and v == "s0":
                target = "s1"
            renames[v] = MultiPoly.variable(target)
        assert first.substitute(renames) == second_residual


def test_unstable_supports():
    loci = unstable_supports()
    assert sorted(map(sorted, loci)) == [["S0", "T0", "U0"], ["S1", "T1", "U1"]]


def test_stabilizer_order_chart_p():
    ch = chart("P")
    for other in ("s1", "t1", "u0", "u1"):
        assert stabilizer_order(ch, ("t0", other)) == 2
    assert stabilizer_order(ch, ("u0", "s1")) == 4
    assert stabilizer_order(ch, ("u0", "u1")) == 4
    assert stabilizer_order(ch, ("u0", "t1")) == 2


def test_stabilizer_order_chart_r():
    ch = chart("R")
    assert stabilizer_order(ch, ("s0", "t1")) == 2
    assert stabilizer_order(ch, ("s0", "s1")) == 4
    assert stabilizer_order(ch, ("s0", "u1")) == 4


def test_stabilizer_order_monotone_under_enlarging_support():
    for name in "PQR":
        ch = chart(name)
        for size in range(1, len(ch.coordinates)):
            for support in combinations(ch.coordinates, size):
                base = stabilizer_order(ch, support)
                for extra in ch.coordinates:
                    if extra in support:
                        continue
                    assert stabilizer_order(ch, support + (extra,)) <= base


def test_stabilizer_order_errors():
    ch = chart("P")
    with pytest.raises(ValueError):
        stabilizer_order(ch, ())
    with pytest.raises(ValueError):
        stabilizer_order(ch, ("nope",))


def test_positive_dimensional_stabilizer_signalled():
    ch = chart("P")
    zeroed = blowup.Chart(
        name=ch.name,
        exceptional=ch.exceptional,
        substitution=ch.substitution,
        coordinates=ch.coordinates,
        weights={c: 0 for c in ch.coordinates},
        residual=ch.residual,
        zero_side=ch.zero_side,
        one_side=ch.one_side,
    )
    with pytest.raises(PositiveDimensionalStabilizerError):
        stabilizer_order(zeroed, ("t0",))


def test_scan_stabilizers():
    scan = scan_stabilizers(map(chart, blowup.CHART_NAMES))
    assert scan.orders == (1, 2, 4)
    assert scan.torus_orders == (2, 4)
    assert scan.effective_orders == (1, 2)
    assert scan.max_order == 4
    assert scan.e == 8
    assert scan.e % 5 != 0
    assert all(8 % order == 0 for order in scan.orders)
    for rows in scan.per_chart.values():
        assert rows  # semistable supports exist in every chart


def test_scan_respects_the_semistability_filter():
    scan = scan_stabilizers(map(chart, blowup.CHART_NAMES))
    for name, rows in scan.per_chart.items():
        ch = chart(name)
        for support, order in rows:
            s = set(support)
            assert s & ch.zero_side and s & ch.one_side
            assert order == stabilizer_order(ch, support)


def test_the_scan_leaves_out_the_semistable_supports_inside_the_index_1_side():
    # measured against the semistable locus, not the paper: the unit coordinate
    # is of index 0, so a support inside the index-1 side is semistable, but
    # _admissible_supports requires both sides among the affine coordinates
    left_out_orders = {"P": {2, 4, 12, 14, 16}, "Q": {2, 10, 12, 14}, "R": {2, 4, 8, 10, 12}}
    for name in blowup.CHART_NAMES:
        ch = chart(name)
        semistable, admitted = semistable_supports(ch), blowup._admissible_supports(ch)
        assert (len(semistable), len(admitted)) == (28, 21)
        assert set(admitted) <= set(semistable)
        left_out = set(semistable) - set(admitted)
        one_side = sorted(ch.one_side)
        assert left_out == {s for k in (1, 2, 3) for s in combinations(one_side, k)}
        assert one_side == ["s1", "t1", "u1"]
        assert {stabilizer_order(ch, s) for s in left_out} == left_out_orders[name]


def test_antidiag_fixed_constraint():
    t0, t1 = variables("t0", "t1")
    constraint = antidiag_fixed_constraint(antidiag_resultants())
    assert constraint == t0 ** 8 - t1 ** 8
    assert constraint.evaluate({"t0": 1, "t1": 2}) != 0
    assert constraint.evaluate({"t0": 0, "t1": 0}) == 0


def test_quotient_chart_transversality(monkeypatch):
    report = quotient_chart_transversality()
    assert report.transversal
    assert report.upstairs_double
    assert report.independent_pair
    # transversal requires w1 = z1^2 to be invariant under z1 -> -z1: shifting
    # every substituted image by 1 breaks that invariance, and nothing else
    substitute = MultiPoly.substitute
    monkeypatch.setattr(MultiPoly, "substitute", lambda p, values: substitute(p, values) + 1)
    broken = quotient_chart_transversality()
    assert not broken.transversal
    assert (broken.upstairs_double, broken.independent_pair) == (True, True)
