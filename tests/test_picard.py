"""The divisor-class ledger: maps, canonical identities, intersections."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modpoints import blowup, picard
from modpoints.picard import (
    DivisorClass,
    apply_map,
    canonical,
    discrepancy,
    divisor,
    exceptional_pullback_coefficient,
    k_equivalence_obstruction,
    normal_bundle_boundary,
    top_self_intersections,
    verify_blowup_identities,
)


def test_pullback_of_the_discriminant():
    image = apply_map("phi1_pullback", divisor(picard.GIT_ORD, D2_0=1))
    assert image.as_dict() == {"D2_1": Fraction(1), "D4_1": Fraction(6)}


def test_second_pullbacks():
    image = apply_map("phi2_pullback", divisor(picard.K_ORD, D4_1=1))
    assert image.as_dict() == {"D4_2": Fraction(1)}
    image = apply_map("phi2_pullback", divisor(picard.K_ORD, D2_1=1))
    assert image.as_dict() == {"D2_2": Fraction(1), "D3_2": Fraction(3)}


def test_pushforwards_kill_exceptional_classes():
    assert apply_map("phi2_pushforward", divisor(picard.M08BAR, D3_2=1)).as_dict() == {}
    assert apply_map("phi1_pushforward", divisor(picard.K_ORD, D4_1=1)).as_dict() == {}


def test_apply_map_space_mismatch():
    with pytest.raises(ValueError):
        apply_map("phi1_pullback", divisor(picard.K_ORD, D2_1=1))


def test_apply_map_without_registered_entry_errors():
    with pytest.raises(ValueError):
        apply_map("pi_pullback", divisor(picard.BB, H=1))


def test_canonical_classes():
    assert canonical(picard.GIT_ORD).as_dict() == {"D2_0": Fraction(-2, 7)}
    assert canonical(picard.K_ORD).as_dict() == {
        "D2_1": Fraction(-2, 7),
        "D4_1": Fraction(2, 7),
    }
    assert canonical(picard.BB_ORD).as_dict() == {"L_ord": Fraction(-8)}
    assert canonical(picard.TOR_ORD).as_dict() == {
        "L_ord": Fraction(-8),
        "T_ord": Fraction(2),
    }


def test_canonical_unregistered_space():
    with pytest.raises(ValueError):
        canonical(picard.GIT)
    with pytest.raises(ValueError):
        canonical("nowhere")


def test_relation_reduction():
    h = divisor(picard.BB_ORD, H_ord=1)
    assert h.reduced().as_dict() == {"L_ord": Fraction(28)}
    htilde = divisor(picard.TOR_ORD, Htilde_ord=1)
    assert htilde.reduced().as_dict() == {"L_ord": Fraction(28), "T_ord": Fraction(-6)}


def test_all_registered_identities_hold():
    checks = verify_blowup_identities()
    assert len(checks) == 7
    for check in checks:
        assert check.holds, f"{check.name}: {check.lhs} != {check.rhs}"


def test_projection_formula_instance():
    pulled = apply_map("phi1_pullback", divisor(picard.GIT_ORD, D2_0=1))
    pushed = apply_map("phi1_pushforward", pulled)
    assert pushed.as_dict() == {"D2_0": Fraction(1)}


def test_exceptional_pullback_coefficient_matches_chart_multiplicity():
    assert exceptional_pullback_coefficient() == 6
    report = blowup.discriminant_pullback(blowup.chart("P"))
    assert report.exceptional_multiplicity == exceptional_pullback_coefficient()


def test_normal_bundle():
    result = normal_bundle_boundary()
    assert result.bidegree == (Fraction(-1), Fraction(-1))
    assert result.adjunction_bidegree == (-3, -3)
    assert result.multiplier == 3


def test_normal_bundle_multiplier_reads_the_canonical_class(monkeypatch):
    info = picard.SPACES[picard.TOR_ORD]
    canonical = {**info.canonical, "T_ord": Fraction(5)}
    patched = picard.SpaceInfo(info.symbols, info.relations, canonical)
    monkeypatch.setitem(picard.SPACES, picard.TOR_ORD, patched)
    result = normal_bundle_boundary()
    assert result.multiplier == 6 and isinstance(result.multiplier, int)
    assert result.bidegree == (Fraction(-1, 2), Fraction(-1, 2))


def test_top_self_intersections():
    numbers = top_self_intersections()
    assert numbers.component == 6
    assert numbers.ordered == 210
    assert numbers.unordered == Fraction(1, 192)


def test_obstruction_certificate():
    cert = k_equivalence_obstruction((1, 2, 4, 8))
    assert cert.toroidal_power == Fraction(16807, 192)
    assert cert.required_exceptional_power == Fraction(16807, 600000)
    assert cert.denominator_five_valuation == 5
    assert not cert.feasible


def test_obstruction_stable_under_more_five_free_candidates():
    candidates = [e for e in range(1, 400) if e % 5 != 0]
    assert not k_equivalence_obstruction(candidates).feasible


def test_obstruction_rejects_nonpositive_candidates():
    with pytest.raises(ValueError):
        k_equivalence_obstruction((0, 2))


def test_discrepancies():
    assert discrepancy(5, 6, Fraction(3, 4)) == Fraction(1, 2)
    assert discrepancy(5, 6, 0) == 5
    assert discrepancy(2, 6, Fraction(1, 2)) == -1


def test_divisor_class_validation():
    with pytest.raises(ValueError):
        divisor(picard.K_ORD, nope=1)
    with pytest.raises(ValueError):
        DivisorClass.make("nowhere", {})
    with pytest.raises(ValueError):
        divisor(picard.K_ORD, D2_1=1) + divisor(picard.GIT_ORD, D2_0=1)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@pytest.mark.parametrize("name", sorted(picard.MAPS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_property_maps_are_linear(name, data):
    # draw only symbols with a registered image: pi_pullback rightly rejects H
    entry = picard.MAPS[name]
    classes = st.dictionaries(st.sampled_from(sorted(entry.matrix)), rationals).map(
        lambda coeffs: DivisorClass.make(entry.source, coeffs)
    )
    a, b, k = data.draw(classes), data.draw(classes), data.draw(rationals)
    assert apply_map(name, a + b.scale(k)) == apply_map(name, a) + apply_map(name, b).scale(k)


def test_e_candidates_flow_from_the_stabilizer_scan():
    scan = blowup.scan_stabilizers()
    candidates = [e for e in range(1, scan.e + 1) if scan.e % e == 0]
    assert candidates == [1, 2, 4, 8]
    assert not k_equivalence_obstruction(candidates).feasible
