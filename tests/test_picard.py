"""The divisor-class ledger: maps, canonical identities, intersections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints import checks, picard
from modpoints.picard import (
    D2_0,
    D2_1,
    D2_2,
    D3_2,
    D4_1,
    D4_2,
    L_ord,
    T_ord,
    apply_map,
    canonical,
    class_text,
    discrepancy,
    exceptional_pullback_coefficient,
    k_equivalence_obstruction,
    normal_bundle_boundary,
    reduced,
    top_self_intersections,
    verify_blowup_identities,
)
from modpoints.poly import MultiPoly

T5 = Fraction(1, 192)  # the toroidal T^5 that the obstruction reads


def form(coeffs):
    """The linear form sum c * s over a {symbol: coefficient} map."""
    return sum((c * MultiPoly.variable(s) for s, c in coeffs.items()), MultiPoly.zero())


def test_pullback_of_the_discriminant():
    assert apply_map("phi1_pullback", D2_0) == D2_1 + 6 * D4_1


def test_second_pullbacks():
    assert apply_map("phi2_pullback", D4_1) == D4_2
    assert apply_map("phi2_pullback", D2_1) == D2_2 + 3 * D3_2


def test_pushforwards_kill_exceptional_classes():
    assert apply_map("phi2_pushforward", D3_2).is_zero
    assert apply_map("phi1_pushforward", D4_1).is_zero


def test_apply_map_space_mismatch():
    # a class on K_ord has no image under a map out of GIT_ord
    with pytest.raises(ValueError, match="phi1_pullback has no registered image for D2_1"):
        apply_map("phi1_pullback", D2_1)


def test_apply_map_without_registered_entry_errors():
    with pytest.raises(ValueError, match="pi_pullback has no registered image for H"):
        apply_map("pi_pullback", MultiPoly.variable("H"))
    with pytest.raises(ValueError, match="unknown map 'nowhere'"):
        apply_map("nowhere", D2_0)


def test_canonical_classes():
    assert canonical(picard.GIT_ORD) == Fraction(-2, 7) * D2_0
    assert canonical(picard.K_ORD) == Fraction(-2, 7) * D2_1 + Fraction(2, 7) * D4_1
    assert canonical(picard.BB_ORD) == -8 * L_ord
    assert canonical(picard.TOR_ORD) == -8 * L_ord + 2 * T_ord


def test_canonical_unregistered_space():
    with pytest.raises(ValueError, match="no canonical class registered on GIT"):
        canonical(picard.GIT)
    with pytest.raises(ValueError, match="unknown space 'nowhere'"):
        canonical("nowhere")


def test_relation_reduction():
    assert reduced(MultiPoly.variable("H_ord")) == 28 * L_ord
    assert reduced(MultiPoly.variable("Htilde_ord")) == 28 * L_ord - 6 * T_ord
    # a symbol without a relation is left as it is
    assert reduced(L_ord + T_ord) == L_ord + T_ord


def test_all_registered_identities_hold():
    checks = verify_blowup_identities()
    assert len(checks) == 7
    for check in checks:
        assert check.holds, f"{check.name}: {check.lhs} != {check.rhs}"


def test_projection_formula_instance():
    pulled = apply_map("phi1_pullback", D2_0)
    assert apply_map("phi1_pushforward", pulled) == D2_0


def test_exceptional_pullback_coefficient_matches_chart_multiplicity():
    assert exceptional_pullback_coefficient() == 6
    report = checks.Quantities().pullback("P")
    assert report.exceptional_multiplicity == exceptional_pullback_coefficient()


def test_normal_bundle():
    result = normal_bundle_boundary()
    assert result.bidegree == (Fraction(-1), Fraction(-1))
    assert result.adjunction_bidegree == (-3, -3)
    assert result.multiplier == 3


def test_normal_bundle_multiplier_reads_the_canonical_class(monkeypatch):
    monkeypatch.setitem(picard.CANONICAL, picard.TOR_ORD, -8 * L_ord + 5 * T_ord)
    result = normal_bundle_boundary()
    assert result.multiplier == 6 and isinstance(result.multiplier, int)
    assert result.bidegree == (Fraction(-1, 2), Fraction(-1, 2))


def test_top_self_intersections():
    numbers = top_self_intersections(35, 40320)
    assert numbers.component == 6
    assert numbers.ordered == 210
    assert numbers.unordered == Fraction(1, 192)


def test_obstruction_certificate():
    cert = k_equivalence_obstruction(T5, (1, 2, 4, 8))
    assert cert.toroidal_power == Fraction(16807, 192)
    assert cert.required_exceptional_power == Fraction(16807, 600000)
    assert cert.denominator_five_valuation == 5
    assert not cert.feasible


def test_obstruction_stable_under_more_five_free_candidates():
    candidates = [e for e in range(1, 400) if e % 5 != 0]
    assert not k_equivalence_obstruction(T5, candidates).feasible


def test_obstruction_rejects_nonpositive_candidates():
    with pytest.raises(ValueError):
        k_equivalence_obstruction(T5, (0, 2))


def test_obstruction_rejects_an_empty_candidate_set():
    # no candidate at all would certify infeasibility vacuously
    with pytest.raises(ValueError, match="no denominator bounds"):
        k_equivalence_obstruction(T5, ())
    with pytest.raises(ValueError, match="no denominator bounds"):
        k_equivalence_obstruction(T5, (e for e in ()))


@pytest.mark.parametrize("candidates", [(2.5, 4), (True,), (2, False), ("4",), (Fraction(4),)])
def test_obstruction_rejects_candidates_that_are_not_ints(candidates):
    with pytest.raises(ValueError, match="is not an int"):
        k_equivalence_obstruction(T5, candidates)


def test_obstruction_keeps_its_candidates_sorted_and_distinct():
    assert k_equivalence_obstruction(T5, (8, 1, 4, 2, 4)).e_candidates == (1, 2, 4, 8)


def test_discrepancies():
    assert discrepancy(5, 6, Fraction(3, 4)) == Fraction(1, 2)
    assert discrepancy(5, 6, 0) == 5
    assert discrepancy(2, 6, Fraction(1, 2)) == -1


def test_divisor_class_validation():
    # a class is printed against its space, which rejects a foreign symbol
    with pytest.raises(ValueError, match=r"symbols \['H_ord'\] not in the basis of TOR_ord"):
        class_text(-8 * L_ord + MultiPoly.variable("H_ord"), picard.TOR_ORD)
    with pytest.raises(ValueError, match="unknown space 'nowhere'"):
        class_text(MultiPoly.zero(), "nowhere")


def test_class_text():
    assert class_text(canonical(picard.K_ORD), picard.K_ORD) == "(-2/7)*D2_1 + (2/7)*D4_1 on K_ord"
    assert class_text(canonical(picard.K), picard.K) == "(5)*Delta + (1)*fK_GIT on K"
    assert class_text(apply_map("phi1_pushforward", D4_1), picard.GIT_ORD) == "0 on GIT_ord"


def in_basis(form, space):
    return set(form.occurring_variables()) <= set(picard.SPACES[space])


def test_registry_forms_lie_in_their_bases():
    for name, (source, target, images) in picard.MAPS.items():
        assert set(images) <= set(picard.SPACES[source]), name
        assert all(in_basis(image, target) for image in images.values()), name
    for space, canonical_form in picard.CANONICAL.items():
        assert in_basis(canonical_form, space), space
    # a relation rewrites a derived symbol within the one space that holds
    # it, and into no derived symbol, so one substitution reduces a class
    for symbol, image in picard.RELATIONS.items():
        spaces = [space for space, basis in picard.SPACES.items() if symbol in basis]
        assert len(spaces) == 1 and in_basis(image, spaces[0]), symbol
        assert not set(image.occurring_variables()) & set(picard.RELATIONS), symbol


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@pytest.mark.parametrize("name", sorted(picard.MAPS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_maps_are_linear(name, data):
    # draw only symbols with a registered image: pi_pullback rightly rejects H
    images = picard.MAPS[name][2]
    classes = st.dictionaries(st.sampled_from(sorted(images)), rationals).map(form)
    a, b, k = data.draw(classes), data.draw(classes), data.draw(rationals)
    assert apply_map(name, a + k * b) == apply_map(name, a) + k * apply_map(name, b)


def test_e_candidates_flow_from_the_stabilizer_scan():
    scan = checks.Quantities().scan()
    candidates = [e for e in range(1, scan.e + 1) if scan.e % e == 0]
    assert candidates == [1, 2, 4, 8]
    assert not k_equivalence_obstruction(T5, candidates).feasible
