"""Stability classification and the weight bookkeeping at the closed orbit."""

import random

import pytest

from modpoints.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    PointConfig,
    classify,
    luna_slice_basis,
    partitions,
    torus_monomial_weights,
)


def verdict(parts):
    return classify(PointConfig.from_parts(parts))


def test_distinct_points_are_stable():
    v = verdict((1,) * 8)
    assert v.status == STABLE and v.polystable


def test_four_four_is_properly_polystable():
    v = verdict((4, 4))
    assert v.status == STRICTLY_SEMISTABLE and v.polystable


def test_five_three_is_unstable():
    v = verdict((5, 3))
    assert v.status == UNSTABLE and not v.polystable


def test_four_three_one_is_semistable_not_polystable():
    v = verdict((4, 3, 1))
    assert v.status == STRICTLY_SEMISTABLE and not v.polystable


def test_odd_degree_example():
    assert verdict((3, 2, 2)).status == STABLE


def test_classification_ignores_part_order():
    rng = random.Random(5)
    for parts in partitions(8):
        shuffled = list(parts)
        rng.shuffle(shuffled)
        assert verdict(shuffled) == verdict(parts)


def test_no_strictly_semistable_in_odd_degree():
    for n in range(5, 12, 2):
        for parts in partitions(n):
            assert verdict(parts).status != STRICTLY_SEMISTABLE


def test_properly_polystable_census():
    for n in range(5, 12):
        found = [
            parts
            for parts in partitions(n)
            if (v := verdict(parts)).polystable and v.status != STABLE
        ]
        if n % 2 == 0:
            assert found == [(n // 2, n // 2)]
        else:
            assert found == []


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        PointConfig(8, (4, 3))
    with pytest.raises(ValueError):
        PointConfig(8, (9, -1))


def test_torus_weights():
    assert torus_monomial_weights(8) == (-8, -6, -4, -2, 0, 2, 4, 6, 8)
    assert torus_monomial_weights(1) == (-1, 1)
    assert torus_monomial_weights(4) == (-4, -2, 0, 2, 4)


def test_luna_slice_basis():
    slice_data = luna_slice_basis()
    assert len(slice_data.monomials) == 6
    assert slice_data.monomials == (
        "x0^8",
        "x1^8",
        "x0^7*x1",
        "x0*x1^7",
        "x0^6*x1^2",
        "x0^2*x1^6",
    )
    assert slice_data.weights == (8, -8, 6, -6, 4, -4)
    assert sorted(slice_data.tangent_weights) == [-2, 0, 2]


def test_slice_and_tangent_weights_partition_the_monomial_weights():
    slice_data = luna_slice_basis()
    combined = sorted(slice_data.weights + slice_data.tangent_weights)
    assert combined == sorted(torus_monomial_weights(8))

