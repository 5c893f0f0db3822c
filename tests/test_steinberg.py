from finsys import catalog
from finsys.finring import ideal_closure, is_simple
from finsys.invsgrp import (
    cyclic_groupoid,
    disjoint_union,
    matrix_groupoid,
)
from finsys.paction import is_action_simple, is_faithful
from finsys.skewconstruct import build_skew_ring
from finsys.steinberg import (
    ga_partial_action,
    greedy_bisection_split,
    indicator_law_witness,
    pointwise_function_ring,
    simplicity_verdicts,
    steinberg_ring,
    theta,
    translation,
    z_s_units,
)

F2 = catalog.prime_field(2)
F4 = catalog.galois_field(2, 2)
F2xF2 = catalog.product_ring(F2, F2)
NULL2 = catalog.zero_mult_ring([2])

PAIR2 = matrix_groupoid([1, 2])
TRIVIAL = matrix_groupoid([1])
DISC2 = disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))


def built_translation(K, G):
    pi, objects = ga_partial_action(K, G)
    return translation(pi, objects, build_skew_ring(pi), steinberg_ring(K, G))


# ---------------------------------------------------------------------------
# the convolution algebra


def test_trivial_groupoid_gives_coefficients():
    sp = steinberg_ring(F4, TRIVIAL)
    assert sp.ring.order == 4
    assert sp.ring.is_commutative and sp.ring.is_associative


def test_pair_groupoid_gives_matrix_ring():
    sp = steinberg_ring(F2, PAIR2)
    assert sp.ring.order == 16
    assert not sp.ring.is_commutative
    assert is_simple(sp.ring)
    # E12 * E21 = E11 in function form
    e12 = sp.vector({(1, 2): (1,)})
    e21 = sp.vector({(2, 1): (1,)})
    assert sp.ring.mul(e12, e21) == sp.vector({(1, 1): (1,)})
    assert sp.ring.mul(e12, e12) == sp.ring.zero


def test_indicator_law_exhaustive():
    from finsys.invsgrp import all_bisections
    for K in (F2, F4):
        sp = steinberg_ring(K, PAIR2)
        assert indicator_law_witness(sp, PAIR2, all_bisections(PAIR2)) is None


def test_group_algebra_not_simple():
    sp = steinberg_ring(F2, cyclic_groupoid(2))
    assert sp.ring.order == 4
    assert not is_simple(sp.ring)
    # the ideal generated by 1+g is proper
    x = sp.vector({"g0": (1,), "g1": (1,)})
    assert len(ideal_closure(sp.ring, [x])) == 2


# ---------------------------------------------------------------------------
# the bisection action


def test_theta_on_pair_groupoid():
    assert theta(PAIR2, frozenset({(2, 1)})) == {1: 2}
    units = frozenset({(1, 1), (2, 2)})
    assert theta(PAIR2, units) == {1: 1, 2: 2}


def test_ga_action_validates_on_fixtures():
    for G in (TRIVIAL, PAIR2, DISC2, cyclic_groupoid(2)):
        for K in (F2, F4):
            pi, space = ga_partial_action(K, G)
            assert pi.groupoid is G
            units = frozenset(G.identity[u] for u in G.objects)
            assert len(pi.domains[units]) == space.ring.order


def test_ga_action_unit_bisections_act_trivially():
    pi, space = ga_partial_action(F2, PAIR2)
    for U in pi.sgrp.idempotents:
        for x in pi.domains[U]:
            assert pi.maps[U][x] == x


def test_ga_action_swap_moves_indicators():
    pi, space = ga_partial_action(F2, PAIR2)
    swap = frozenset({(1, 2), (2, 1)})
    ind1 = space.vector({1: (1,)})
    ind2 = space.vector({2: (1,)})
    assert pi.maps[swap][ind1] == ind2
    assert pi.maps[swap][ind2] == ind1


def test_ga_action_faithful_iff_effective():
    for G in (PAIR2, DISC2, cyclic_groupoid(2)):
        from finsys.invsgrp import groupoid_predicates
        pi, _ = ga_partial_action(F2, G)
        assert is_faithful(pi)[0] == groupoid_predicates(G)["effective_discrete"]


def test_ga_action_simplicity():
    pi, _ = ga_partial_action(F2, PAIR2)
    assert is_action_simple(pi)[0]
    pi, _ = ga_partial_action(F2, DISC2)
    simple, witness = is_action_simple(pi)
    assert not simple


# ---------------------------------------------------------------------------
# translation


def test_translation_roundtrip_pair_groupoid():
    pair = built_translation(F2, PAIR2)
    assert pair.skew.ring.order == 16
    assert len(pair.alpha) == 16 and len(pair.beta) == 16


def test_translation_roundtrip_other_fixtures():
    for K, G in ((F2, TRIVIAL), (F2, DISC2), (F2, cyclic_groupoid(2)),
                 (F4, cyclic_groupoid(2)), (F2xF2, DISC2)):
        pair = built_translation(K, G)
        assert len(pair.alpha) == pair.skew.ring.order


def test_greedy_split_is_disjoint_bisection_cover():
    sp = steinberg_ring(F2, PAIR2)
    from finsys.invsgrp import is_bisection
    for vec in sp.ring.elements():
        pieces = greedy_bisection_split(sp, PAIR2, vec)
        seen = set()
        for k, bis in pieces:
            assert is_bisection(PAIR2, bis)
            assert not (seen & bis)
            seen |= bis
            for g in bis:
                assert sp.value(vec, g) == k
        assert seen == set(sp.support(vec))


def test_roundtrip_verdict_rows():
    verdict = simplicity_verdicts(F2, PAIR2)
    assert verdict.ok()
    assert [r.name for r in verdict.results[-3:]] == [
        "roundtrip_function_side", "roundtrip_skew_side",
        "translation_homomorphisms"]
    assert verdict.by_name("roundtrip_function_side").witness["checked"] == 16


# ---------------------------------------------------------------------------
# z-central s-units


def test_z_s_units():
    assert z_s_units(F2)
    assert z_s_units(F2xF2)
    assert z_s_units(catalog.matrix_ring(F2, 2))  # identity is central
    assert not z_s_units(NULL2)
    assert not z_s_units(catalog.left_only_ring(F2))  # left units not central


# ---------------------------------------------------------------------------
# the verdict battery


def test_verdicts_pair_groupoid_simple():
    verdict = simplicity_verdicts(F2, PAIR2)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    assert verdict.by_name("matrix_recognition").status == "PASS"
    assert verdict.by_name("effective_three_way").status == "PASS"
    assert verdict.by_name("minimal_iff_bisection_simple").status == "PASS"


def test_verdicts_group_groupoid_negative():
    verdict = simplicity_verdicts(F2, cyclic_groupoid(2))
    assert verdict.ok()
    # thin fails, so the algebra must not be simple; biconditionals hold
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    assert verdict.by_name("effective_iff_faithful").status == "PASS"


def test_verdicts_nonsimple_coefficients():
    verdict = simplicity_verdicts(F2xF2, PAIR2)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    assert verdict.by_name("coefficient_ideal_witness").status == "PASS"
    w = verdict.by_name("coefficient_ideal_witness").witness
    assert w["ideal_order"] == 16  # functions into F_2 x {0}


def test_verdicts_disconnected():
    verdict = simplicity_verdicts(F2, DISC2)
    assert verdict.ok()
    assert verdict.by_name("bisection_simple_implies_minimal").status == "VACUOUS"


def test_verdicts_gated_without_z_s_units():
    verdict = simplicity_verdicts(NULL2, TRIVIAL)
    assert verdict.by_name("steinberg_simplicity").status == "VACUOUS"
    assert verdict.by_name("matrix_recognition").status == "VACUOUS"


def test_verdicts_noncommutative_coefficients():
    # matrix coefficients are simple, s-unital, with central units, so the
    # simplicity characterisation applies beyond the commutative case
    M2 = catalog.matrix_ring(F2, 2)
    assert z_s_units(M2)
    verdict = simplicity_verdicts(M2, TRIVIAL)
    assert verdict.ok()
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    # two isolated objects: not minimal, so not simple despite simple K
    verdict = simplicity_verdicts(M2, DISC2)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    sp = steinberg_ring(M2, DISC2)
    assert not is_simple(sp.ring)
    verdict = simplicity_verdicts(M2, cyclic_groupoid(2))
    assert verdict.ok()


def test_verdicts_isotropy_bundle():
    # connected and minimal but not effective: simplicity must fail through
    # the isotropy, not through the coefficients or connectivity
    from finsys.invsgrp import groupoid_predicates, product_groupoid
    G = product_groupoid(PAIR2, cyclic_groupoid(2))
    preds = groupoid_predicates(G)
    assert preds["minimal_discrete"] and not preds["effective_discrete"]
    sp = steinberg_ring(F2, G)
    assert sp.ring.order == 256
    assert not is_simple(sp.ring)
    verdict = simplicity_verdicts(F2, G)
    assert verdict.ok(), [r.line() for r in verdict.results if r.status == "FAIL"]
    assert verdict.by_name("steinberg_simplicity").status == "PASS"
    assert verdict.by_name("effective_iff_faithful").status == "PASS"
    assert verdict.by_name("minimal_iff_bisection_simple").status == "PASS"
