"""Truncated series (coefficient tuples in u = t^2 multiplied as ``MultiPoly``
in u), their printing, and the two Betti-table routes, both completed by
``extend_by_duality``."""

import os
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints import betti, checks, fqspace
from modpoints.betti import (
    IH_BB_ORDERED,
    IH_BB_UNORDERED,
    BettiTable,
    InsufficientCodimensionError,
    boundary_fiber_ordered,
    boundary_invariants,
    decomposition_assembly,
    extend_by_duality,
    extra_correction_min_degree,
    geometric,
    half,
    invariant_sym_square,
    kirwan_betti,
    kirwan_index_set,
    kunneth_square,
    main_correction,
    normalizer_invariants_series,
    projective_space,
    semistable_series,
    series,
    series_text,
    slice_normal_weights,
    truncate,
)
from modpoints.poly import MultiPoly
from modpoints.stability import LunaSlice, torus_monomial_weights

from oracles import invert_unit


def one(order):
    return (1,) + (0,) * (order - 1)


# ----------------------------------------------------------------------
# series arithmetic

def dimension(monkeypatch, n):
    """Patch COMPLEX_DIMENSION, which every series reads through ``half``."""
    monkeypatch.setattr(betti, "COMPLEX_DIMENSION", n)
    return half()


def test_half_counts_the_even_degrees_below_the_middle(monkeypatch):
    assert half() == 3
    assert [dimension(monkeypatch, n) for n in (1, 3, 7)] == [1, 2, 4]


def test_geometric_inverts_one_minus_power(monkeypatch):
    for n in (1, 3, 5, 7, 9):
        h = dimension(monkeypatch, n)
        for m in range(1, 4):
            p = series((1,) + (0,) * (m - 1) + (-1,)) * series(geometric(m))
            assert truncate(p, h) == one(h)


def test_invert_unit():
    assert invert_unit((1, -1, 0)) == geometric(1)
    assert invert_unit((1, 0, -1)) == geometric(2)
    with pytest.raises(ValueError):
        invert_unit((2, 0, 0, 0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from((1, -1)), st.lists(st.integers(-9, 9), max_size=11))
def test_property_invert_unit_inverts(constant, rest):
    s = (constant, *rest)
    assert truncate(series(s) * series(invert_unit(s)), len(s)) == one(len(s))


def test_projective_space_series():
    assert truncate(projective_space(8), 3) == (1, 1, 1)
    assert truncate(projective_space(2), 4) == (1, 1, 1, 0)


def test_truncation_discipline():
    s = semistable_series()
    with pytest.raises(IndexError):
        s[3]  # u^3 = t^6 is not determined modulo t^6
    assert len(main_correction()) == len(normalizer_invariants_series()) == half()


@pytest.mark.parametrize(
    "coefficients, text",
    [
        ((0, 0, 0), "0 (mod t^6)"),
        ((1,), "1 (mod t^2)"),
        ((0, 1, 0, 0), "t^2 (mod t^8)"),
        ((2, 3, 0, 1), "2 + 3*t^2 + t^6 (mod t^8)"),
        ((0, 0, 0, 7), "7*t^6 (mod t^8)"),
        ((1, 1, 2), "1 + t^2 + 2*t^4 (mod t^6)"),
        ((0, 1, 1), "t^2 + t^4 (mod t^6)"),
    ],
)
def test_series_text(coefficients, text):
    assert series_text(coefficients) == text


# ----------------------------------------------------------------------
# stratification indices

def test_kirwan_index_set_for_octics():
    entries = kirwan_index_set(torus_monomial_weights(8))
    assert [e.beta for e in entries] == [2, 4, 6, 8]
    # 7 - r, where r = 4, 3, 2, 1 weights alpha have alpha * beta >= beta^2
    assert [e.codim_bound for e in entries] == [3, 4, 5, 6]
    assert min(e.codim_bound for e in entries) == 3


def hull_candidates(weights):
    """The points closest to 0 of the hulls of all one-sided weight subsets,
    each subset enumerated."""
    candidates = set()
    for size in range(1, len(weights) + 1):
        for combo in combinations(weights, size):
            if min(combo) > 0:
                candidates.add(min(combo))
            elif max(combo) < 0:
                candidates.add(-max(combo))
    return candidates


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(-4, 4), max_size=7))
def test_property_index_set_candidates_are_the_hull_points(weights):
    # zeros and repeats included; the hull of a one-sided set of reals is an
    # interval, so its point closest to 0 is the set's least |w|
    entries = kirwan_index_set(weights)
    assert [e.beta for e in entries] == sorted(hull_candidates(weights))


def test_semistable_series(monkeypatch):
    assert semistable_series() == (1, 1, 2)
    dimension(monkeypatch, 1)
    assert semistable_series() == one(1)


def test_semistable_series_identity_at_every_valid_order(monkeypatch):
    # 1/(1 - u) for P^8 below u^9, times 1/(1 - u^2) for B SL2
    for n in (1, 3, 5):
        h = dimension(monkeypatch, n)
        inv1 = invert_unit((1, -1, 0)[:h])
        inv2 = invert_unit((1, 0, -1)[:h])
        assert semistable_series() == truncate(series(inv1) * series(inv2), h)


def test_semistable_series_insufficient_codimension(monkeypatch):
    # modulo t^8 needs codimension 4, and the bound gives 3
    dimension(monkeypatch, 7)
    with pytest.raises(InsufficientCodimensionError):
        semistable_series()


# ----------------------------------------------------------------------
# correction terms

def test_main_correction(monkeypatch):
    assert main_correction() == (0, 1, 1)
    dimension(monkeypatch, 9)
    assert main_correction() == (0, 1, 1, 2, 2)
    monkeypatch.setattr(betti, "SLICE_CODIMENSION", 2)
    assert main_correction() == (0, 1, 0, 1, 0)


def test_slice_normal_weights():
    assert slice_normal_weights() == (-8, -6, -4, 4, 6, 8)


def test_slice_normal_weights_must_exhaust_the_weights(monkeypatch):
    wrong = LunaSlice(("x0^8",) * 6, (8, -8, 6, -6, 4, 4), (0, 2, -2))
    monkeypatch.setattr(betti, "luna_slice_basis", lambda: wrong)
    with pytest.raises(AssertionError):
        slice_normal_weights()


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
    assert kirwan_betti().even == (1, 2, 3, 3, 2, 1)


def test_extend_by_duality_needs_enough_values():
    assert extend_by_duality((1, 2, 3)).even == (1, 2, 3, 3, 2, 1)
    for low in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            extend_by_duality(low)


def test_duality_check_holds_under_optimize():
    # python -O strips assert statements; the length check must not be one
    code = (
        "from modpoints.betti import extend_by_duality\n"
        "try:\n    print(extend_by_duality((1, 2, 3, 4)))\n"
        "except ValueError:\n    print('raised')"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-O", "-S", "-c", code]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "raised"


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


def test_ih_fixtures_start_as_the_semistable_series():
    # each fixture is the semistable series of its GIT problem below the
    # middle: P^8 modulo SL2 (semistable_series), and (P^1)^8 modulo SL2,
    # (1 + u)^8 / (1 - u^2)
    assert IH_BB_UNORDERED == semistable_series()
    u = MultiPoly.variable("u")
    ordered = (1 + u) ** 8 * series(invert_unit((1, 0, -1)))
    assert IH_BB_ORDERED == truncate(ordered, half()) == (1, 8, 29)


def test_decomposition_assembly_ordered():
    table = decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), 35)
    assert table.even == (1, 43, 99, 99, 43, 1)


def test_decomposition_assembly_unordered():
    table = decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 1)
    assert table.even == (1, 2, 3, 3, 2, 1)


def test_decomposition_assembly_no_cusps():
    table = decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 0)
    assert table == extend_by_duality(IH_BB_UNORDERED)


def test_decomposition_assembly_validates_lengths():
    # the table needs h intersection-cohomology values and the fiber's h - 1 lowest
    for ih in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            decomposition_assembly(ih, boundary_invariants(), 1)
    with pytest.raises(ValueError):
        decomposition_assembly(IH_BB_UNORDERED, (1,), 1)


def test_cusp_counts_are_read_from_the_fq_space(monkeypatch):
    # through checks.Quantities: one cusp per isotropic vector, and one per orbit
    # of G on them; the 35 isotropic vectors make one orbit under G, and 35 under
    # the identity alone
    quantities = checks.Quantities()
    assert quantities.tor_ordered() == decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), 35)
    assert quantities.tor_unordered() == decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 1)
    fewer = fqspace.isotropic_vectors()[1:]
    monkeypatch.setattr(fqspace, "isotropic_vectors", lambda: fewer)
    monkeypatch.setattr(fqspace, "coxeter_generators", lambda: (fqspace.IDENTITY,))
    quantities = checks.Quantities()
    assert quantities.tor_ordered() == decomposition_assembly(IH_BB_ORDERED, boundary_fiber_ordered(), 34)
    assert quantities.tor_unordered() == decomposition_assembly(IH_BB_UNORDERED, boundary_invariants(), 35)


def test_both_routes_agree():
    assert kirwan_betti().even == checks.Quantities().tor_unordered().even


def test_tables_are_palindromic():
    quantities = checks.Quantities()
    for table in (kirwan_betti(), quantities.tor_ordered(), quantities.tor_unordered()):
        assert table.even == table.even[::-1]


def test_helper_table_roundtrip():
    table = BettiTable((1, 2, 3, 3, 2, 1))
    assert table.by_degree() == {0: 1, 2: 2, 4: 3, 6: 3, 8: 2, 10: 1}
