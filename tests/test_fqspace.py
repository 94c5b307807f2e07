"""Censuses, reflections and the orthogonal group of the GF(2) space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints import fqspace
from modpoints.fqspace import (
    SIZE,
    Isometry,
    b,
    census,
    generate_group,
    isotropic_vectors,
    nonisotropic_vectors,
    orbit,
    orbits_under,
    perp_census,
    q,
    reflection,
    stab_orbit_summary,
    stab_transitive_on_perp,
    stabilizer,
    stabilizer_chain,
)


def test_census():
    assert census() == (1, 35, 28)


def test_single_plane_census():
    assert census(1) == (1, 2, 1)


def test_two_plane_census_by_enumeration():
    # frozen from exhaustive enumeration of the 16 vectors of u + u
    assert census(2) == (1, 9, 6)


def test_census_counts_cover_the_space():
    zero, iso, non = census()
    assert zero + iso + non == SIZE
    assert len(isotropic_vectors()) == iso
    assert len(nonisotropic_vectors()) == non


def test_bilinear_form_properties():
    for u in range(SIZE):
        assert b(u, u) == 0
        for v in range(SIZE):
            assert b(u, v) == b(v, u)
            assert b(u, v) in (0, 1)


def test_bilinear_form_nondegenerate():
    for u in range(1, SIZE):
        assert any(b(u, v) for v in range(SIZE))


def test_perp_census():
    assert perp_census(0b000001) == (19, 12)


def test_perp_census_totals():
    iso, non = perp_census(isotropic_vectors()[0])
    assert iso + non == 31  # nonzero vectors of a hyperplane


def test_perp_census_constant_over_all_isotropic_vectors():
    assert {perp_census(h) for h in isotropic_vectors()} == {(19, 12)}


def test_perp_census_rejects_bad_input():
    with pytest.raises(ValueError):
        perp_census(0)
    with pytest.raises(ValueError):
        perp_census(nonisotropic_vectors()[0])


def test_reflection_fixes_its_vector():
    for v in nonisotropic_vectors():
        assert reflection(v)(v) == v


def test_reflection_is_an_involution():
    identity = Isometry(fqspace.IDENTITY)
    for v in nonisotropic_vectors():
        r = reflection(v)
        assert r.compose(r) == identity


def test_reflections_preserve_census_classes():
    iso = set(isotropic_vectors())
    non = set(nonisotropic_vectors())
    for v in nonisotropic_vectors():
        r = reflection(v)
        assert {r(x) for x in iso} == iso
        assert {r(x) for x in non} == non


def test_reflection_rejects_isotropic_vectors():
    with pytest.raises(ValueError):
        reflection(isotropic_vectors()[0])
    with pytest.raises(ValueError):
        reflection(0)


def test_group_order_is_40320():
    assert generate_group().order == 40320


def test_group_elements_are_linear_isometries():
    group = generate_group()
    for perm in group.elements:
        iso = Isometry(perm)
        assert iso.is_linear()
        assert all(q(perm[v]) == q(v) for v in range(SIZE))


def test_orbit_sizes_partition_the_nonzero_vectors():
    group = generate_group()
    iso_orbit = orbit(isotropic_vectors()[0], group.generators)
    non_orbit = orbit(nonisotropic_vectors()[0], group.generators)
    assert len(iso_orbit) == 35
    assert len(non_orbit) == 28
    assert iso_orbit | non_orbit == set(range(1, SIZE))


def test_group_transitive_on_isotropic_vectors():
    group = generate_group()
    assert orbit(isotropic_vectors()[0], group.generators) == set(isotropic_vectors())


def test_orbit_stabilizer_relation():
    group = generate_group()
    for v, expected_orbit in ((isotropic_vectors()[0], 35), (nonisotropic_vectors()[0], 28)):
        stab = stabilizer(v)
        assert len(stab) * expected_orbit == group.order


def test_stabilizer_order_1152():
    assert len(stabilizer(isotropic_vectors()[0])) == 1152


def test_stabilizer_transitive_on_nonisotropic_perp():
    assert stab_transitive_on_perp(isotropic_vectors()[0])


def test_stabilizer_orbit_summary():
    summary = stab_orbit_summary(isotropic_vectors()[0])
    assert summary["nonisotropic_orbits"] == 1
    # the 19 isotropic perp vectors split as {h} plus one orbit of 18
    assert summary["isotropic_orbits"] == 2
    assert summary["stabilizer_order"] == 1152


def test_closure_safety_bound():
    with pytest.raises(fqspace.ClosureOverflowError):
        generate_group(max_elements=100)


def test_element_numbering_is_deterministic():
    group = generate_group()
    assert group.elements[0] == fqspace.IDENTITY
    # breadth-first order: the first generator follows the identity
    assert group.elements[1] == reflection(nonisotropic_vectors()[0]).perm
    assert group.generators == tuple(
        reflection(v).perm for v in nonisotropic_vectors()
    )


# ----------------------------------------------------------------------
# the stabilizer chain against the enumerated group


def test_chain_order_equals_enumerated_order():
    chain = stabilizer_chain(isotropic_vectors()[0])
    assert chain.orbit_sizes == (35, 18, 8, 4, 2)
    assert chain.order == generate_group().order == 40320


@pytest.mark.parametrize("h", isotropic_vectors())
def test_chain_stabilizer_agrees_with_enumeration(h):
    chain = stabilizer_chain(h)
    assert chain.base[0] == h
    stab = stabilizer(h)
    iso_perp = [v for v in isotropic_vectors() if b(v, h) == 0]
    noniso_perp = [v for v in nonisotropic_vectors() if b(v, h) == 0]
    summary = stab_orbit_summary(h)
    assert summary["stabilizer_order"] == len(stab)
    assert summary["isotropic_orbits"] == len(orbits_under(stab, iso_perp))
    assert summary["nonisotropic_orbits"] == len(orbits_under(stab, noniso_perp))
    for points in (iso_perp, noniso_perp):
        assert set(orbits_under(chain.generators[1], points)) == set(orbits_under(stab, points))


def test_every_enumerated_element_sifts_to_the_identity():
    chain = stabilizer_chain(isotropic_vectors()[0])
    assert all(chain.contains(perm) for perm in generate_group().elements)


def test_chain_rejects_a_permutation_outside_the_group():
    chain = stabilizer_chain(isotropic_vectors()[0])
    for perm in generate_group().elements[:50]:
        swapped = bytearray(perm)
        swapped[5], swapped[9] = swapped[9], swapped[5]
        assert not chain.contains(bytes(swapped))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 27), max_size=40), st.sampled_from(isotropic_vectors()))
def test_property_reflection_words_sift_to_the_identity(word, h):
    perm = fqspace.IDENTITY
    for i in word:
        perm = Isometry(fqspace.reflections()[i]).compose(Isometry(perm)).perm
    assert stabilizer_chain(h).contains(perm)


def test_is_linear_rejects_every_transposition():
    # a linear map fixes a subspace, and 62 points are not one
    assert Isometry(fqspace.IDENTITY).is_linear()
    for v in range(SIZE):
        for w in range(v + 1, SIZE):
            swapped = bytearray(fqspace.IDENTITY)
            swapped[v], swapped[w] = w, v
            assert not Isometry(bytes(swapped)).is_linear(), (v, w)
