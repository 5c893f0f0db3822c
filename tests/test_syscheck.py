import pytest

from finsys import catalog
from finsys.finring import centralizer, ideal_closure, is_simple, subgroup_closure
from finsys.harness import random_instances
from finsys.invsgrp import cyclic_group, induced_semigroup, matrix_groupoid, disjoint_union
from finsys.skewconstruct import build_skew_ring
from finsys.syscheck import (
    NotGraded,
    ProductEscapes,
    SumNotWhole,
    all_system_ideals,
    center_of_part,
    centralizer_condition,
    degree,
    epsilon_characterizations,
    epsilon_strong_predicates,
    fmt,
    ideal_intersection_property,
    is_system_ideal,
    is_system_simple,
    max_commutative_r0,
    structural_predicates,
    system_ideal_closure,
    theorem_verdicts,
    validate_system,
)

F2 = catalog.prime_field(2)
C2 = cyclic_group(2)


def trivial_system():
    S = cyclic_group(1)
    return validate_system(F2, S, {"g0": [(1,)]})


def group_ring_system():
    """F_2[C_2] graded by C_2; basis g0 (the unit) and g1."""
    R = catalog.semigroup_algebra(F2, ["g0", "g1"], C2.mul, name="F2[C2]")
    return validate_system(R, C2, {"g0": [(1, 0)], "g1": [(0, 1)]})


def matrix_system():
    """M_2(F_2) graded by the induced semigroup of the matrix groupoid on 2.

    Component at (i, j) is the span of the matrix unit E_ij; the adjoined
    zero gets the zero component.
    """
    R = catalog.matrix_ring(F2, 2)
    S = induced_semigroup(matrix_groupoid([1, 2]))
    units = {(1, 1): (1, 0, 0, 0), (1, 2): (0, 1, 0, 0),
             (2, 1): (0, 0, 1, 0), (2, 2): (0, 0, 0, 1)}
    comps = {s: [units[s]] for s in units}
    return validate_system(R, S, comps)


def disconnected_system():
    """F_2 x F_2 graded by the induced semigroup of two isolated objects."""
    R = catalog.product_ring(F2, F2)
    G = disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))
    S = induced_semigroup(G)
    comps = {("a", (1, 1)): [(1, 0)], ("b", (1, 1)): [(0, 1)]}
    return validate_system(R, S, comps)


def null_system():
    """Zero-multiplication ring graded by C_2: no epsilon-structure at all."""
    R = catalog.zero_mult_ring([2, 2], name="null4")
    return validate_system(R, C2, {"g0": [(1, 0)], "g1": [(0, 1)]})


ALL_SYSTEMS = [trivial_system, group_ring_system, matrix_system,
               disconnected_system, null_system]


# ---------------------------------------------------------------------------
# validation


def test_trivial_system_r0():
    sr = trivial_system()
    assert sr.r0.elements == {(0,), (1,)}


def test_sum_not_whole_diagnosed():
    R = catalog.product_ring(F2, F2)
    with pytest.raises(SumNotWhole):
        validate_system(R, C2, {"g0": [(1, 1)]})


def test_product_escape_diagnosed():
    R = catalog.product_ring(F2, F2)
    with pytest.raises(ProductEscapes):
        validate_system(R, C2, {"g0": [(1, 0)], "g1": [(0, 1)]})


# ---------------------------------------------------------------------------
# structural predicates


def test_group_ring_structure():
    sr = group_ring_system()
    preds = structural_predicates(sr)
    assert preds["graded"] and preds["strong"] and preds["coherent"]
    assert preds["idempotent_coherent"] and preds["symmetric"]
    assert preds["left_nondeg_all_base"] and preds["right_nondeg_all_base"]
    assert preds["left_nondeg_idempotent_base"]


def test_matrix_system_structure():
    sr = matrix_system()
    preds = structural_predicates(sr)
    assert preds["graded"] and preds["strong"] and preds["coherent"]
    assert preds["symmetric"]
    assert preds["left_nondeg_all_base"] and preds["right_nondeg_all_base"]


def test_null_system_structure():
    sr = null_system()
    preds = structural_predicates(sr)
    assert preds["graded"]
    assert not preds["strong"] and not preds["symmetric"]
    assert not preds["left_nondeg_all_base"]
    assert not preds["left_nondeg_idempotent_base"]


def test_non_graded_system():
    # both components equal to the whole field: a system but not graded
    S = cyclic_group(2)
    sr = validate_system(F2, S, {"g0": [(1,)], "g1": [(1,)]})
    assert not structural_predicates(sr)["graded"]
    with pytest.raises(NotGraded):
        degree(sr, (1,))


def test_coherent_implies_idempotent_coherent_on_all():
    for build in ALL_SYSTEMS:
        sr = build()
        preds = structural_predicates(sr)
        if preds["coherent"]:
            assert preds["idempotent_coherent"]


# ---------------------------------------------------------------------------
# epsilon-strength


def test_epsilon_strong_on_group_ring():
    sr = group_ring_system()
    for prop in ("unital", "s-unital"):
        out = epsilon_strong_predicates(sr, prop)
        assert out["both"], out["failure"]
    # witnesses really work
    out = epsilon_strong_predicates(sr, "s-unital")
    for w in out["witnesses"]:
        if w.side == "left":
            assert sr.ring.mul(w.unit, w.covers) == w.covers
            assert w.unit in sr.corner_left(w.s)
        else:
            assert sr.ring.mul(w.covers, w.unit) == w.covers
            assert w.unit in sr.corner_right(w.s)


def test_epsilon_fails_on_null_system():
    sr = null_system()
    out = epsilon_strong_predicates(sr, "s-unital")
    assert not out["left"] and not out["right"]
    assert out["failure"]["r"] is not None


def test_epsilon_characterizations_agree_everywhere():
    for build in ALL_SYSTEMS:
        verdict = epsilon_characterizations(build())
        assert verdict.ok(), [r.line() for r in verdict.results
                              if r.status == "FAIL"]


def test_finite_modules_s_unital_iff_unital():
    # the iterated common-unit construction (a + b - ba) turns per-element
    # units of a finite module over an associative ring into a single unit,
    # so the module predicates must coincide on every component
    from finsys.finring import bimodule_predicates

    for build in ALL_SYSTEMS:
        sr = build()
        if not sr.ring.is_associative:
            continue
        for s in sr.sgrp.elements:
            flags = bimodule_predicates(sr.components[s], sr.corner_left(s),
                                        sr.corner_right(s))
            assert flags["left_s_unital"] == flags["left_unital"], (build, s)
            assert flags["right_s_unital"] == flags["right_unital"], (build, s)


# ---------------------------------------------------------------------------
# system ideals


def test_homogeneous_generator_reaches_whole_group_ring():
    sr = group_ring_system()
    closure = system_ideal_closure(sr, (0, 1), "g1")
    assert len(closure) == 4


def test_nonhomogeneous_ideal_is_not_a_system_ideal():
    sr = group_ring_system()
    diag = ideal_closure(sr.ring, [(1, 1)])
    assert diag.elements == {(0, 0), (1, 1)}
    assert not is_system_ideal(sr, diag)
    whole = ideal_closure(sr.ring, [(1, 0)])
    assert is_system_ideal(sr, whole)


def test_disconnected_system_ideal_is_proper():
    sr = disconnected_system()
    closure = system_ideal_closure(sr, (1, 0), ("a", (1, 1)))
    assert closure.elements == {(0, 0), (1, 0)}
    simple, witness = is_system_simple(sr)
    assert not simple
    assert witness["h"] in ((1, 0), (0, 1))


def test_matrix_system_is_system_simple():
    simple, _ = is_system_simple(matrix_system())
    assert simple


def test_group_ring_system_simple_but_not_simple():
    sr = group_ring_system()
    assert is_system_simple(sr)[0]
    assert not is_simple(sr.ring)


def test_system_ideal_closure_minimality_oracle():
    # against the exhaustively enumerated lattice of system ideals
    for build in ALL_SYSTEMS:
        sr = build()
        if sr.ring.order > 64:
            continue
        lattice = all_system_ideals(sr)
        for J in lattice:
            assert is_system_ideal(
                sr, subgroup_closure(sr.ring, sorted(J)))
        for s, h in sr.homogeneous_elements():
            closure = system_ideal_closure(sr, h, s)
            assert is_system_ideal(sr, closure)
            for J in lattice:
                if h in J:
                    assert closure.elements <= J


# ---------------------------------------------------------------------------
# centralizer conditions, intersection property, degree


def test_centralizer_conditions_group_ring():
    sr = group_ring_system()
    # R_0 = F_2 * identity; everything commutes with it
    assert center_of_part(sr).elements == sr.r0.elements
    ok, witness = centralizer_condition(sr)
    assert not ok and witness["x"] not in sr.r0
    assert not max_commutative_r0(sr)[0]


def test_centralizer_conditions_matrix_system():
    sr = matrix_system()
    assert centralizer_condition(sr)[0]
    assert max_commutative_r0(sr)[0]


def test_ideal_intersection_property():
    R = group_ring_system().ring
    whole = subgroup_closure(R, R.basis())
    assert ideal_intersection_property(R, whole)[0]
    skew = subgroup_closure(R, [(1, 1)])
    assert ideal_intersection_property(R, skew)[0]
    zero = subgroup_closure(R, [])
    ok, witness = ideal_intersection_property(R, zero)
    assert not ok and witness["x"] is not None


def test_degree():
    sr = group_ring_system()
    assert degree(sr, (0, 0)) == 0
    assert degree(sr, (1, 0)) == 1
    assert degree(sr, (0, 1)) == 1
    assert degree(sr, (1, 1)) == 2


def test_degree_on_matrix_system():
    sr = matrix_system()
    assert degree(sr, (1, 0, 0, 1)) == 2
    assert degree(sr, (1, 1, 1, 1)) == 4


# ---------------------------------------------------------------------------
# theorem verdicts


def test_theorem_verdicts_respected_everywhere():
    for build in ALL_SYSTEMS:
        verdict = theorem_verdicts(build())
        bad = [r.line() for r in verdict.results if r.status == "FAIL"]
        assert not bad, bad


def test_matrix_system_meets_main_hypotheses():
    verdict = theorem_verdicts(matrix_system())
    assert verdict.by_name("system_simplicity_criterion").status == "PASS"
    assert verdict.by_name("epsilon_strong_simplicity_criterion").status == "PASS"
    assert verdict.by_name("max_commutative_simplicity_equiv").status == "PASS"
    assert verdict.by_name("simple_implies_system_simple").status == "PASS"


def test_group_ring_hypotheses_not_met():
    verdict = theorem_verdicts(group_ring_system())
    assert verdict.by_name("system_simplicity_criterion").status == "VACUOUS"
    assert verdict.by_name("intersection_from_nondegeneracy").status == "PASS"


def test_report_lines_format():
    verdict = theorem_verdicts(trivial_system())
    for line in verdict.lines():
        assert line.startswith("CHECK ")
        assert any(f": {s}" in line for s in ("PASS", "FAIL", "VACUOUS"))


def test_groupoid_grading_translation_identities():
    """For a grading over an induced semigroup with zero component at the
    adjoined element, the idempotent part decomposes along the objects."""
    from finsys.finring import centralizer
    from finsys.syscheck import product_span

    sr = matrix_system()
    R, S = sr.ring, sr.sgrp
    o = S.zero()
    object_idems = [e for e in S.idempotents if e != o]
    assert sr.components[o].is_zero()
    # R_0 is the sum of the object components
    gens = [g for e in object_idems for g in sr.components[e].small_gens()]
    assert subgroup_closure(R, gens).elements == sr.r0.elements
    # Z(R_0) is the sum of the componentwise centers
    centre_gens = []
    for e in object_idems:
        comp = sr.components[e]
        ze = comp.elements & centralizer(R, comp).elements
        centre_gens.extend(sorted(ze))
    assert subgroup_closure(R, centre_gens).elements == \
        center_of_part(sr).elements
    # C_R(Z(R_0)) is the intersection of the per-object centralizers
    big = centralizer(R, center_of_part(sr)).elements
    inter = set(R.elements())
    for e in object_idems:
        comp = sr.components[e]
        ze = comp.elements & centralizer(R, comp).elements
        inter &= centralizer(R, sorted(ze)).elements
    assert big == inter
    # idempotent coherence is automatic for such gradings
    assert structural_predicates(sr)["idempotent_coherent"]


# ---------------------------------------------------------------------------
# oracles for the closure shortcuts: system-ideal closure as one ideal
# closure, and the early stops of is_system_simple and
# ideal_intersection_property


def reference_system_ideal_closure(sr, h):
    """Fixpoint of J -> span of the homogeneous parts of the ideal closure
    of J, from span{h}; every iterate lies in every system ideal containing
    h, so the fixpoint is the smallest one."""
    R = sr.ring
    current = set(subgroup_closure(R, [h]).elements)
    while True:
        ideal = ideal_closure(R, sorted(current))
        homog = set()
        for t in sr.sgrp.elements:
            homog |= ideal.elements & sr.components[t].elements
        nxt = set(subgroup_closure(R, sorted(homog)).elements)
        if nxt == current:
            break
        current = nxt
    assert ideal.elements == current
    return current


def reference_is_system_simple(sr):
    """Every homogeneous closure computed in full, no known-generator stop."""
    for s, h in sr.homogeneous_elements():
        closure = reference_system_ideal_closure(sr, h)
        if len(closure) < sr.ring.order:
            return False, {"s": fmt(s), "h": h, "ideal_order": len(closure)}
    return True, None


def reference_ideal_intersection_property(R, B):
    """Every closure computed in full, no stop on meeting B."""
    hits = B.elements - {R.zero}
    for x in R.elements():
        if x == R.zero:
            continue
        closure = ideal_closure(R, [x]).elements
        if not closure & hits:
            return False, {"x": x, "ideal_order": len(closure)}
    return True, None


@pytest.fixture(scope="module")
def oracle_systems():
    """The hand-built systems plus the skew gradings of a fixed fuzz corpus
    (two of which are 576- and 729-element rings with proper closures)."""
    systems = [(build.__name__, build()) for build in ALL_SYSTEMS]
    for inst in random_instances(3, 12):
        for name, pi in inst.pactions.items():
            systems.append((f"{inst.source}.{name}", build_skew_ring(pi).grading))
    return systems


def test_system_ideal_closure_is_the_ideal_closure(oracle_systems):
    for label, sr in oracle_systems:
        for s, h in sr.homogeneous_elements():
            closure = system_ideal_closure(sr, h, s).elements
            assert closure == reference_system_ideal_closure(sr, h), (label, h)
            assert closure == ideal_closure(sr.ring, [h]).elements, (label, h)


def test_is_system_simple_matches_full_closures(oracle_systems):
    verdicts = []
    for label, sr in oracle_systems:
        got = is_system_simple(sr)
        assert got == reference_is_system_simple(sr), label
        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_ideal_intersection_property_matches_full_closures(oracle_systems):
    # Above 64 elements B = C_R(Z(R_0)) is left out: the property holds
    # there, so the reference closes every element in full (about 10 s).
    # The stop on earlier elements still fires on the 576-element ring with
    # B = R_0, before the failing witness, and on matrix_system.
    verdicts = []
    for label, sr in oracle_systems:
        R = sr.ring
        Bs = [sr.r0, subgroup_closure(R, [])]
        if R.order <= 64:
            Bs.append(centralizer(R, center_of_part(sr)))
        for B in Bs:
            got = ideal_intersection_property(R, B)
            assert got == reference_ideal_intersection_property(R, B), label
            verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_ideal_intersection_witness_on_group_ring():
    R = group_ring_system().ring
    zero = subgroup_closure(R, [])
    assert ideal_intersection_property(R, zero) == (False, {"x": (0, 1), "ideal_order": 4})
    assert reference_ideal_intersection_property(R, zero) == \
        ideal_intersection_property(R, zero)


def test_simplicity_computed_once_per_ring():
    sr = group_ring_system()
    assert not is_simple(sr.ring)
    assert sr.ring._simple is False
    assert is_system_simple(sr) is is_system_simple(sr)
