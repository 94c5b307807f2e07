"""Censuses, reflections and the orthogonal group of the GF(2) space."""

import pytest

from modpoints import fqspace
from modpoints.fqspace import (
    SIZE,
    b,
    census,
    coxeter_generators,
    group_order,
    isotropic_vectors,
    nonisotropic_vectors,
    orbits_under,
    perp_census,
    q,
    reflection,
    stab_orbit_summary,
)

from oracles import (
    ClosureOverflowError,
    compose,
    generate_group,
    is_linear,
    plane_census,
    q_planes,
    reflections,
    stabilizer,
)


def test_census():
    assert census() == (1, 35, 28)


def test_q_table_matches_the_hyperbolic_planes():
    assert [q(v) for v in range(SIZE)] == [q_planes(v, 3) for v in range(SIZE)]


def test_single_plane_census():
    assert plane_census(1) == (1, 2, 1)


def test_two_plane_census_by_enumeration():
    # frozen from exhaustive enumeration of the 16 vectors of u + u
    assert plane_census(2) == (1, 9, 6)
    assert plane_census(3) == census()


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
        assert reflection(v)[v] == v


def test_reflection_is_an_involution():
    for v in nonisotropic_vectors():
        r = reflection(v)
        assert compose(r, r) == fqspace.IDENTITY


def test_reflections_preserve_census_classes():
    iso = set(isotropic_vectors())
    non = set(nonisotropic_vectors())
    for v in nonisotropic_vectors():
        r = reflection(v)
        assert {r[x] for x in iso} == iso
        assert {r[x] for x in non} == non


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
        assert is_linear(perm)
        assert all(q(perm[v]) == q(v) for v in range(SIZE))


def test_orbit_sizes_partition_the_nonzero_vectors():
    orbits = orbits_under(coxeter_generators(), range(1, SIZE))
    assert orbits == orbits_under(reflections(), range(1, SIZE))
    assert orbits == [frozenset(isotropic_vectors()), frozenset(nonisotropic_vectors())]
    assert list(map(len, orbits)) == [35, 28]


def test_group_transitive_on_isotropic_vectors():
    assert orbits_under(reflections(), isotropic_vectors()[:1]) == [set(isotropic_vectors())]
    assert orbits_under(coxeter_generators(), isotropic_vectors()[:1]) == [set(isotropic_vectors())]


def test_orbit_stabilizer_relation():
    group = generate_group()
    for v, expected_orbit in ((isotropic_vectors()[0], 35), (nonisotropic_vectors()[0], 28)):
        stab = stabilizer(v)
        assert len(stab) * expected_orbit == group.order


def test_stabilizer_order_1152():
    assert len(stabilizer(isotropic_vectors()[0])) == 1152


def _stab_summary(h):
    """``stab_orbit_summary`` with the data it takes built here."""
    generators = coxeter_generators()
    return stab_orbit_summary(generators, h, group_order(generators), orbits_under(generators, [h])[0])


def test_stabilizer_orbit_summary():
    summary = _stab_summary(isotropic_vectors()[0])
    assert summary["nonisotropic_orbits"] == 1
    # the 19 isotropic perp vectors split as {h} plus one orbit of 18
    assert summary["isotropic_orbits"] == 2
    assert summary["stabilizer_order"] == 1152


def test_closure_safety_bound():
    with pytest.raises(ClosureOverflowError):
        generate_group(max_elements=100)


def test_element_numbering_is_deterministic():
    group = generate_group()
    assert group.elements[0] == fqspace.IDENTITY
    # breadth-first order: the first generator follows the identity
    assert group.elements[1] == reflection(nonisotropic_vectors()[0])
    assert group.generators == tuple(
        reflection(v) for v in nonisotropic_vectors()
    )


# ----------------------------------------------------------------------
# the A7 chain of path transvections and the orbits of pairs against the
# enumerated group


def test_chain_order_equals_enumerated_order():
    assert group_order(coxeter_generators()) == generate_group().order == 40320


def test_path_search_finds_the_first_a7_path():
    path = fqspace._a7_path()
    assert path == (3, 13, 19, 39, 11, 7, 27)
    assert all(q(v) == 1 for v in path)
    for i, u in enumerate(path):
        for j, v in enumerate(path):
            assert b(u, v) == (abs(i - j) == 1), (i, j)


def test_the_path_transvections_generate_the_enumerated_group():
    generators = coxeter_generators()
    seen = {fqspace.IDENTITY}
    frontier = [fqspace.IDENTITY]
    while frontier:
        nxt = []
        for p in frontier:
            for s in generators:
                g = fqspace._compose(s, p)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    assert seen == set(generate_group().elements)


@pytest.mark.parametrize("h", isotropic_vectors())
def test_chain_stabilizer_agrees_with_enumeration(h):
    stab = stabilizer(h)
    iso_perp = [v for v in isotropic_vectors() if b(v, h) == 0]
    noniso_perp = [v for v in nonisotropic_vectors() if b(v, h) == 0]
    for points in (iso_perp, noniso_perp):
        assert set(fqspace._stab_orbits(coxeter_generators(), h, points)) == set(orbits_under(stab, points))
    summary = _stab_summary(h)
    assert summary["stabilizer_order"] == len(stab)
    assert summary["isotropic_orbits"] == len(orbits_under(stab, iso_perp))
    assert summary["nonisotropic_orbits"] == len(orbits_under(stab, noniso_perp))


def test_a_broken_path_fails_the_coxeter_relations(monkeypatch):
    path = fqspace._a7_path()
    broken = (path[1], path[0]) + path[2:]
    monkeypatch.setattr(fqspace, "_a7_path", lambda: broken)
    with pytest.raises(AssertionError, match=r"\(s1 s3\)\^2 = 1 fails"):  # t_13 and t_19 do not commute
        coxeter_generators()


def test_seven_equal_vectors_pass_the_relations_but_not_the_order(monkeypatch):
    v = nonisotropic_vectors()[0]
    monkeypatch.setattr(fqspace, "_a7_path", lambda: (v,) * 7)
    with pytest.raises(AssertionError, match="not transitive"):
        coxeter_generators()  # every relation holds, so the relations alone prove nothing
    with pytest.raises(AssertionError, match="s1 s2 = 1"):
        group_order((reflection(v),) * 7)


def test_is_linear_rejects_every_transposition():
    # a linear map fixes a subspace, and 62 points are not one
    assert is_linear(fqspace.IDENTITY)
    for v in range(SIZE):
        for w in range(v + 1, SIZE):
            swapped = bytearray(fqspace.IDENTITY)
            swapped[v], swapped[w] = w, v
            assert not is_linear(bytes(swapped)), (v, w)
