"""Charts of the slice blow-up: strict transforms, stabilizers, constraints."""

from itertools import combinations

import pytest

from modpoints import blowup
from modpoints.blowup import (
    PROJECTIVE_WEIGHTS,
    PositiveDimensionalStabilizerError,
    SLICE_WEIGHTS,
    antidiag_fixed_constraint,
    chart,
    discriminant_factors,
    discriminant_pullback,
    quotient_chart_transversality,
    scan_stabilizers,
    stabilizer_order,
    unstable_supports,
)
from modpoints.poly import MultiPoly, parse_poly, variables


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
    f0, f1 = discriminant_factors()
    pulled = (f0 * f1).substitute(ch.substitution)
    assert pulled == a0 ** 6 * first * second
    report = discriminant_pullback(ch)
    assert report.factors[0].strict_transform == first
    assert report.factors[1].strict_transform == second


def test_exceptional_multiplicity_is_six_in_every_chart():
    for name in "PQR":
        report = discriminant_pullback(chart(name))
        assert report.multiplicity == 6
        assert [f.multiplicity for f in report.factors] == [3, 3]


def test_transversality_chart_p():
    report = discriminant_pullback(chart("P"))
    assert not report.squarefree
    assert set(report.offending) == {"u0", "u1"}
    assert report.restriction == parse_poly("65536*u0^3*u1^3")


def test_transversality_chart_q():
    report = discriminant_pullback(chart("Q"))
    assert not report.squarefree
    assert set(report.offending) == {"u0", "u1"}


def test_transversality_chart_r():
    report = discriminant_pullback(chart("R"))
    assert report.factors[0].is_constant
    assert report.factors[0].restriction == MultiPoly.constant(256)
    assert not report.factors[1].is_constant
    assert set(report.offending) == {"u1"}


def test_report_invariant_squarefree_iff_no_offenders():
    for name in "PQR":
        report = discriminant_pullback(chart(name))
        assert report.squarefree == (not report.offending)


def test_factors_are_swap_symmetric_in_charts_p_and_q():
    swap = {"t0": "t1", "u0": "u1"}
    for name in "PQ":
        report = discriminant_pullback(chart(name))
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
    loci = unstable_supports(PROJECTIVE_WEIGHTS)
    assert sorted(map(sorted, loci)) == [["S0", "T0", "U0"], ["S1", "T1", "U1"]]


def test_unstable_supports_two_weights():
    loci = unstable_supports((1, -1), names=("A", "B"))
    assert sorted(map(sorted, loci)) == [["A"], ["B"]]


def test_unstable_supports_one_sided():
    loci = unstable_supports((2, 4, 6), names=("A", "B", "C"))
    assert loci == [frozenset({"A", "B", "C"})]


def test_unstable_supports_arity_errors():
    with pytest.raises(ValueError):
        unstable_supports(())
    with pytest.raises(ValueError):
        unstable_supports((1, -1), names=("A",))


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
    scan = scan_stabilizers()
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
    scan = scan_stabilizers()
    for name, rows in scan.per_chart.items():
        ch = chart(name)
        for support, order in rows:
            s = set(support)
            assert s & ch.zero_side and s & ch.one_side
            assert order == stabilizer_order(ch, support)


def test_antidiag_fixed_constraint():
    t0, t1 = variables("t0", "t1")
    constraint = antidiag_fixed_constraint()
    assert constraint == t0 ** 8 - t1 ** 8
    assert constraint.evaluate({"t0": 1, "t1": 2}) != 0
    assert constraint.evaluate({"t0": 0, "t1": 0}) == 0


def test_quotient_chart_transversality():
    report = quotient_chart_transversality()
    assert report.transversal
    assert report.quotient_coordinate_invariant
    assert report.upstairs_double
    assert report.independent_pair
