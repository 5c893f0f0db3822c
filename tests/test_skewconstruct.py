import pytest

from finsys import catalog
from finsys.finring import is_simple, subgroup_closure, unitality_predicates
from finsys.invsgrp import (
    cyclic_group,
    cyclic_groupoid,
    disjoint_union,
    matrix_groupoid,
)
from finsys.paction import (
    global_group_action,
    groupoid_ring_action,
    induced_action,
    validate_partial_action,
    validate_groupoid_partial_action,
)
from finsys.skewconstruct import (
    HypothesisNotMet,
    build_L_pi,
    build_skew_ring,
    relation_ideal,
    grading_structure_checks,
    skew_groupoid_ring,
    skew_groupoid_verdict,
    skew_simplicity_verdict,
)
from finsys.syscheck import structural_predicates

F2 = catalog.prime_field(2)
F4 = catalog.galois_field(2, 2)
C1 = cyclic_group(1)
C2 = cyclic_group(2)


def trivial_action():
    whole = subgroup_closure(F2, F2.basis())
    return validate_partial_action(F2, C1, {"g0": whole}, {"g0": None})


def frobenius_gpa():
    whole = subgroup_closure(F4, F4.basis())
    frob = catalog.frobenius_map(F4, 2)
    return validate_groupoid_partial_action(
        F4, cyclic_groupoid(2),
        {"g0": whole, "g1": whole}, {"g0": None, "g1": frob})


def null_domain_action():
    """C_2 acting on F_2[x]/(x^3) with domain the non-s-unital ideal (x)."""
    from finsys.finring import ring_from_spec
    P3 = ring_from_spec([2, 2, 2], {
        (0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
        (1, 0): (0, 1, 0), (1, 1): (0, 0, 1),
        (2, 0): (0, 0, 1)}, name="P3")
    J = subgroup_closure(P3, [(0, 1, 0), (0, 0, 1)])
    whole = subgroup_closure(P3, P3.basis())
    # x -> x + x^2 is a nontrivial involutive ring automorphism of (x)
    phi = {(0, 0, 0): (0, 0, 0), (0, 1, 0): (0, 1, 1),
           (0, 0, 1): (0, 0, 1), (0, 1, 1): (0, 1, 0)}
    return validate_partial_action(P3, C2, {"g0": whole, "g1": J},
                                   {"g0": None, "g1": phi})


# ---------------------------------------------------------------------------
# block ring


def test_trivial_block_ring_is_the_field():
    lpi = build_L_pi(trivial_action())
    assert lpi.ring.order == 2
    assert lpi.ring.is_associative
    one = lpi.embed("g0", (1,))
    assert lpi.ring.mul(one, one) == one


def test_pair_groupoid_block_ring():
    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    pi = induced_action(gpa)
    lpi = build_L_pi(pi)
    # four blocks of order 2 plus the zero block
    assert lpi.ring.order == 16
    assert lpi.ring.is_associative
    e12 = lpi.embed((1, 2), lpi.blocks[(1, 2)].basis[0])
    e21 = lpi.embed((2, 1), lpi.blocks[(2, 1)].basis[0])
    prod = lpi.ring.mul(e12, e21)
    assert lpi.component(prod, (1, 1)) != pi.ring.zero
    assert lpi.ring.mul(e12, e12) == lpi.ring.zero
    assert structural_predicates(lpi.grading)["graded"]


def test_s_unital_action_gives_associative_block_ring():
    for pi in (trivial_action(), induced_action(frobenius_gpa())):
        lpi = build_L_pi(pi)
        assert lpi.ring.is_associative


def test_block_ring_flag_is_computed_for_non_s_unital_fixture():
    pi = null_domain_action()
    lpi = build_L_pi(pi)
    # honest evaluation; for this fixture associativity happens to hold
    assert lpi.ring.order == 32
    assert isinstance(lpi.ring.is_associative, bool)


# ---------------------------------------------------------------------------
# relation ideal and quotient


def test_trivial_relation_ideal():
    lpi = build_L_pi(trivial_action())
    assert len(relation_ideal(lpi)) == 1
    skew = build_skew_ring(trivial_action())
    assert skew.ring.order == 2


def test_group_with_zero_relations():
    """For the induced action of a groupoid-ring datum the only order pairs
    sit below the adjoined zero whose domain is 0, so the ideal vanishes."""
    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    pi = induced_action(gpa)
    lpi = build_L_pi(pi)
    assert len(relation_ideal(lpi)) == 1


def test_pair_groupoid_skew_ring_is_simple_16():
    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    skew, ident = skew_groupoid_ring(gpa)
    assert skew.ring.order == 16
    assert not skew.ring.is_commutative
    assert is_simple(skew.ring)
    assert unitality_predicates(skew.ring)["unital"]
    assert ident.ok()


def test_group_ring_skew_is_group_algebra():
    gpa = groupoid_ring_action(F2, cyclic_groupoid(2))
    skew, ident = skew_groupoid_ring(gpa)
    assert skew.ring.order == 4
    assert skew.ring.is_commutative
    assert not is_simple(skew.ring)
    assert ident.ok()


def test_tmap_and_imap_roundtrip():
    gpa = frobenius_gpa()
    skew, _ = skew_groupoid_ring(gpa)
    assert skew.t_ok and skew.has_base_image()
    A = skew.lpi.action.ring
    for a in A.elements():
        assert skew.tmap(skew.imap(a)) == a
    base = skew.base_subring()
    assert base.elements == skew.grading.r0.elements
    for q in skew.grading.r0:
        assert skew.imap(skew.tmap(q)) == q


def test_imap_needs_s_unital_gates():
    skew = build_skew_ring(null_domain_action())
    assert not skew.has_base_image()
    with pytest.raises(HypothesisNotMet):
        skew.imap(skew.lpi.action.ring.zero)


# ---------------------------------------------------------------------------
# structure battery


def test_structure_checks_pass_on_all_fixtures():
    from finsys.steinberg import ga_partial_action
    fixtures = [
        trivial_action(),
        induced_action(frobenius_gpa()),
        induced_action(groupoid_ring_action(F2, matrix_groupoid([1, 2]))),
        induced_action(groupoid_ring_action(
            F2, disjoint_union(matrix_groupoid([1]), matrix_groupoid([1])))),
        null_domain_action(),
        # bisection action with genuine order pairs below nonzero domains
        ga_partial_action(F2, disjoint_union(matrix_groupoid([1]),
                                             matrix_groupoid([1])))[0],
        ga_partial_action(F2, matrix_groupoid([1, 2]))[0],
    ]
    for pi in fixtures:
        verdict = grading_structure_checks(pi)
        bad = [r.line() for r in verdict.results if r.status == "FAIL"]
        assert not bad, (pi, bad)


def test_coherence_is_a_quotient_fact():
    # with nontrivial order pairs the formal-sum blocks are disjoint, so the
    # block grading is not literally coherent; the skew grading always is
    from finsys.steinberg import ga_partial_action
    pi, _ = ga_partial_action(F2, disjoint_union(matrix_groupoid([1]),
                                                 matrix_groupoid([1])))
    verdict = grading_structure_checks(pi)
    assert verdict.by_name("skew_grading_coherent").status == "PASS"
    observed = verdict.by_name("block_grading_coherence_observed")
    assert observed.witness == {"coherent": False}


def test_structure_checks_non_s_unital_sides_agree():
    verdict = grading_structure_checks(null_domain_action())
    for side in ("left", "right"):
        assert verdict.by_name(f"epsilon_strong_iff_action_s_unital.{side}").status == "PASS"
    assert verdict.by_name("associative_when_s_unital").status == "VACUOUS"


def test_structure_checks_unital_action():
    verdict = grading_structure_checks(induced_action(frobenius_gpa()))
    assert verdict.by_name("associative_when_s_unital").status == "PASS"
    assert verdict.by_name("skew_grading_coherent").status == "PASS"


# ---------------------------------------------------------------------------
# simplicity verdicts


def test_simplicity_verdict_pair_groupoid():
    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    verdict = skew_groupoid_verdict(gpa)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("skew_simplicity_criterion").status == "PASS"
    assert verdict.by_name("skew_simplicity_biconditional").status == "PASS"
    assert verdict.by_name("groupoid_simple_iff_induced_simple").status == "PASS"
    assert verdict.by_name("action_is_global").status == "PASS"


def test_simplicity_verdict_group_ring_negative():
    gpa = groupoid_ring_action(F2, cyclic_groupoid(2))
    verdict = skew_groupoid_verdict(gpa)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    # not simple and not maximal commutative: biconditional still PASS
    assert verdict.by_name("skew_simplicity_biconditional").status == "PASS"
    assert verdict.by_name("skew_simplicity_criterion").status == "VACUOUS"


def test_simplicity_verdict_disconnected():
    gpa = groupoid_ring_action(
        F2, disjoint_union(matrix_groupoid([1]), matrix_groupoid([1])))
    verdict = skew_groupoid_verdict(gpa)
    assert verdict.ok()
    assert verdict.by_name("system_simple_iff_action_simple").status == "PASS"


def test_simplicity_verdict_frobenius():
    verdict = skew_groupoid_verdict(frobenius_gpa())
    assert verdict.ok()
    assert verdict.by_name("skew_simplicity_criterion").status == "PASS"
    assert verdict.by_name("skew_simplicity_biconditional").status == "PASS"
    assert verdict.by_name("faithful_from_simplicity").status == "PASS"


def test_simplicity_verdict_gates():
    verdict = skew_simplicity_verdict(null_domain_action())
    assert all(r.status == "VACUOUS" for r in verdict.results)


def test_noncommutative_base_conjugation_action():
    # conjugation by the coordinate swap is an automorphism of the matrix
    # ring; the base is simple hence action-simple, and the quotient grading
    # must be system simple even though the skew ring itself is not simple
    M2 = catalog.matrix_ring(F2, 2)
    P = (0, 1, 1, 0)
    conj = {x: M2.mul(M2.mul(P, x), P) for x in M2.elements()}
    pi = global_group_action(M2, C2, {"g0": None, "g1": conj})
    from finsys.paction import is_action_simple
    from finsys.syscheck import is_system_simple
    assert is_action_simple(pi)[0]
    skew = build_skew_ring(pi)
    assert not is_simple(skew.ring)
    assert is_system_simple(skew.grading)[0]
    verdict = skew_simplicity_verdict(pi, skew=skew)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("system_simple_iff_action_simple").status == "PASS"
    # noncommutative base: only the implication applies, and the centralizer
    # hypothesis fails because the center of the base is tiny
    assert verdict.by_name("skew_simplicity_criterion").status == "VACUOUS"
    assert verdict.by_name("skew_simplicity_biconditional").status == "VACUOUS"


def test_larger_field_twists_are_simple():
    # fields twisted by their full automorphism groups, a few sizes up
    from finsys.finring import centralizer
    from finsys.harness.scenarios import build_galois
    for p, n in ((2, 3), (3, 2), (5, 2)):
        skew, ident = skew_groupoid_ring(build_galois(p, n).action)
        assert ident.ok()
        assert skew.ring.order == (p ** n) ** n
        assert is_simple(skew.ring)
        base = skew.base_subring()
        assert centralizer(skew.ring, base).elements == base.elements
