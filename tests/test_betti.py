"""Truncated series arithmetic and the two Betti-table routes."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints.betti import (
    IH_BB_ORDERED,
    IH_BB_UNORDERED,
    BettiTable,
    InsufficientCodimensionError,
    TruncatedSeries,
    boundary_fiber_ordered,
    boundary_invariants,
    decomposition_assembly,
    extend_by_duality,
    extra_correction_min_degree,
    invariant_sym_square,
    kirwan_betti,
    kirwan_index_set,
    kunneth_square,
    main_correction,
    normalizer_invariants_series,
    semistable_series,
    slice_normal_weights,
    tor_betti_ordered,
    tor_betti_unordered,
)
from modpoints.stability import torus_monomial_weights


# ----------------------------------------------------------------------
# series arithmetic

def test_geometric_inverts_one_minus_power():
    for order in range(1, 8):
        one_minus = TruncatedSeries.from_coefficients([1, 0, -1], order)
        assert one_minus * TruncatedSeries.geometric(2, order) == TruncatedSeries.one(order)


def test_invert_unit():
    s = TruncatedSeries.from_coefficients([1, 0, -1], 6)
    assert s.invert_unit() == TruncatedSeries.geometric(2, 6)
    with pytest.raises(ValueError):
        TruncatedSeries.from_coefficients([2], 4).invert_unit()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=11))
def test_property_invert_unit_inverts(constant, rest):
    s = TruncatedSeries.from_coefficients([constant, *rest], len(rest) + 1)
    assert s * s.invert_unit() == TruncatedSeries.one(s.order)


def test_projective_space_series():
    assert TruncatedSeries.projective_space(8, 6).coefficients == (1, 0, 1, 0, 1, 0)
    assert TruncatedSeries.projective_space(2, 8).coefficients == (1, 0, 1, 0, 1, 0, 0, 0)


def test_truncation_discipline():
    s = TruncatedSeries.projective_space(8, 6)
    with pytest.raises(ValueError):
        s.coefficient(6)
    with pytest.raises(ValueError):
        s.truncate(8)


# ----------------------------------------------------------------------
# stratification indices

def test_kirwan_index_set_for_octics():
    entries = kirwan_index_set(torus_monomial_weights(8))
    assert [e.beta for e in entries] == [2, 4, 6, 8]
    assert [e.label for e in entries] == [1, 2, 3, 4]
    assert [e.r for e in entries] == [4, 3, 2, 1]
    assert [e.codim_bound for e in entries] == [3, 4, 5, 6]
    assert min(e.codim_bound for e in entries) == 3


def test_semistable_series():
    assert semistable_series(8, 6).coefficients == (1, 0, 1, 0, 2, 0)
    assert semistable_series(8, 2) == TruncatedSeries.one(2)


def test_semistable_series_identity_at_every_valid_order():
    inv2 = TruncatedSeries.from_coefficients([1, 0, -1], 6).invert_unit()
    inv4 = TruncatedSeries.from_coefficients([1, 0, 0, 0, -1], 6).invert_unit()
    for order in range(1, 7):
        assert semistable_series(8, order) == (inv2 * inv4).truncate(order)


def test_semistable_series_insufficient_codimension():
    with pytest.raises(InsufficientCodimensionError):
        semistable_series(8, 8)


# ----------------------------------------------------------------------
# correction terms

def test_main_correction():
    assert main_correction(normalizer_invariants_series(6), 6, 6).coefficients == (
        0, 0, 1, 0, 1, 0,
    )
    assert main_correction(TruncatedSeries.one(6), 2, 6).coefficients == (0, 0, 1, 0, 0, 0)
    longer = main_correction(normalizer_invariants_series(10), 6, 10)
    assert longer.coefficients == (0, 0, 1, 0, 1, 0, 2, 0, 2, 0)


def test_slice_normal_weights():
    assert slice_normal_weights() == (-8, -6, -4, 4, 6, 8)


def test_extra_correction_min_degree():
    assert extra_correction_min_degree() == 6
    assert extra_correction_min_degree((-2, 2)) == 2


def test_extra_correction_candidate_counts():
    ws = slice_normal_weights()
    below = {beta: sum(1 for w in ws if w < beta) for beta in (4, 6, 8)}
    assert below == {4: 3, 6: 4, 8: 5}


def test_extra_correction_rejects_zero_weights():
    with pytest.raises(ValueError):
        extra_correction_min_degree((0, 2, -2))


# ----------------------------------------------------------------------
# Betti tables

def test_kirwan_betti_table():
    table = kirwan_betti()
    assert table.even == (1, 2, 3, 3, 2, 1)
    assert table.is_palindromic()


def test_extend_by_duality_needs_enough_values():
    with pytest.raises(ValueError):
        extend_by_duality((1, 2), 5)


def brute_force_sym_square(dims):
    """Count orbit representatives of basis pairs under the swap."""
    basis = []
    for degree_index, dim in enumerate(dims):
        for k in range(dim):
            basis.append((degree_index, k))
    out = [0] * (2 * len(dims) - 1)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            if i <= j:  # unordered pairs index the invariants
                out[x[0] + y[0]] += 1
    return tuple(out)


def test_invariant_sym_square_cases():
    assert invariant_sym_square((1, 1, 1)) == (1, 1, 2, 1, 1)
    assert invariant_sym_square((1,)) == (1,)
    assert invariant_sym_square((1, 2)) == (1, 2, 3)


def test_invariant_sym_square_against_brute_force():
    for dims in product(range(4), repeat=3):
        assert invariant_sym_square(dims) == brute_force_sym_square(dims)


def test_invariant_sym_square_total_dimension():
    # the swap has graded trace s on the tensor square, so the invariants
    # total (s^2 + s) / 2
    for dims in ((1, 1, 1), (1, 2), (2, 0, 3), (4,)):
        s = sum(dims)
        assert sum(invariant_sym_square(dims)) == (s * s + s) // 2


def test_boundary_tables():
    assert boundary_fiber_ordered() == (1, 2, 3, 2, 1)
    assert boundary_invariants() == (1, 1, 2, 1, 1)
    assert kunneth_square((1, 1, 1)) == (1, 2, 3, 2, 1)


def test_decomposition_assembly_ordered():
    table = decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), 35, 5)
    assert table.even == (1, 43, 99, 99, 43, 1)


def test_decomposition_assembly_unordered():
    table = decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 1, 5)
    assert table.even == (1, 2, 3, 3, 2, 1)


def test_decomposition_assembly_no_cusps():
    table = decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 0, 5)
    assert table.even == IH_BB_UNORDERED


def test_decomposition_assembly_validates_lengths():
    with pytest.raises(ValueError):
        decomposition_assembly((1, 2, 3), boundary_invariants(), 1, 5)
    with pytest.raises(ValueError):
        decomposition_assembly(IH_BB_UNORDERED, (1, 2), 1, 5)


def test_both_routes_agree():
    assert kirwan_betti().even == tor_betti_unordered().even


def test_tables_are_palindromic():
    for table in (kirwan_betti(), tor_betti_ordered(), tor_betti_unordered()):
        assert table.is_palindromic()


def test_helper_table_roundtrip():
    table = BettiTable((1, 2, 3, 3, 2, 1))
    assert table.by_degree() == {0: 1, 2: 2, 4: 3, 6: 3, 8: 2, 10: 1}
    assert table.complex_dimension == 5
