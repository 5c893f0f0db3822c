import pytest

from finsys import catalog
from finsys.finring import subgroup_closure
from finsys.invsgrp import (
    cyclic_group,
    disjoint_union,
    group_as_groupoid,
    matrix_groupoid,
)
from finsys.paction import (
    AxiomI,
    AxiomII,
    NotIdeal,
    NotIso,
    action_unitality,
    global_group_action,
    groupoid_ring_action,
    identity_map,
    induced_action,
    is_action_simple,
    is_faithful,
    is_groupoid_simple,
    is_invariant_ideal,
    restrict_action_to_ideal,
    s_invariant_closure,
    validate_groupoid_partial_action,
    validate_partial_action,
)

F2 = catalog.prime_field(2)
F4 = catalog.galois_field(2, 2)
C1 = cyclic_group(1)
C2 = cyclic_group(2)
C3 = cyclic_group(3)


def trivial_action():
    whole = subgroup_closure(F2, F2.basis())
    return validate_partial_action(F2, C1, {"g0": whole}, {"g0": None})


def frobenius_action():
    frob = catalog.frobenius_map(F4, 2)
    ident = identity_map(F4.elements())
    return global_group_action(F4, C2, {"g0": ident, "g1": frob})


def coordinate_swap_action():
    """C_2 swapping the coordinates of F_2 x F_2."""
    A = catalog.product_ring(F2, F2)
    swap = {(a, b): (b, a) for (a, b) in A.elements()}
    return global_group_action(A, C2, {"g0": None, "g1": swap})


def c3_shift_action():
    """C_3 cycling the three coordinates of F_2^3."""
    A = catalog.product_ring(F2, F2, F2)
    shift = {(a, b, c): (c, a, b) for (a, b, c) in A.elements()}
    shift2 = {(a, b, c): (b, c, a) for (a, b, c) in A.elements()}
    return global_group_action(A, C3, {"g0": None, "g1": shift, "g2": shift2})


# ---------------------------------------------------------------------------
# validation


def test_trivial_action_valid():
    pi = trivial_action()
    assert pi.domains["g0"].elements == {(0,), (1,)}


def test_frobenius_is_ring_automorphism():
    pi = frobenius_action()
    frob = pi.maps["g1"]
    fixed = [x for x in F4.elements() if frob[x] == x]
    assert len(fixed) == 2  # the prime subfield


def test_identity_consequences_hold():
    for pi in (trivial_action(), frobenius_action(), coordinate_swap_action()):
        S = pi.sgrp
        for e in S.idempotents:
            for x in pi.domains[e]:
                assert pi.maps[e][x] == x
        for s in S.elements:
            for x in pi.domains[s]:
                assert pi.maps[s][pi.maps[S.star(s)][x]] == x


def test_axiom_one_violation():
    small = subgroup_closure(F2, [])
    with pytest.raises(AxiomI):
        validate_partial_action(F2, C1, {"g0": small}, {"g0": {(0,): (0,)}})


def test_axiom_two_violation():
    # D_e and D_g are the two coordinate factors with identity maps; every
    # map is a ring isomorphism onto its domain, but pi_g(D_g cap D_e) = 0
    # while D_g cap D_ge = D_g, so the domain-compatibility axiom fails
    A = catalog.product_ring(F2, F2)
    left = subgroup_closure(A, [(1, 0)])
    right = subgroup_closure(A, [(0, 1)])
    with pytest.raises(AxiomII):
        validate_partial_action(
            A, C2,
            {"g0": left, "g1": right},
            {"g0": None, "g1": None})


def test_not_iso_rejected():
    # the doubling map on F_2 x F_2 collapses (1,1) and (0,0): not a bijection
    A = catalog.product_ring(F2, F2)
    whole = subgroup_closure(A, A.basis())
    squash = {x: (0, 0) for x in A.elements()}
    with pytest.raises(NotIso):
        validate_partial_action(A, C1, {"g0": whole}, {"g0": squash})


# bijections of F_2 x F_2 that are not ring maps: SHEAR is additive, but it
# sends the orthogonal idempotents (1,0), (0,1) to (1,1), (0,1), whose
# product is (0,1); MOVES_ZERO swaps 0 and (1,0)
SHEAR = {(0, 0): (0, 0), (1, 0): (1, 1), (0, 1): (0, 1), (1, 1): (1, 0)}
MOVES_ZERO = {(0, 0): (1, 0), (1, 0): (0, 0), (0, 1): (0, 1), (1, 1): (1, 1)}


@pytest.mark.parametrize("table,kind", [(SHEAR, "multiplicative"),
                                        (MOVES_ZERO, "additive")])
def test_bijection_that_is_not_a_ring_map_rejected(table, kind):
    A = catalog.product_ring(F2, F2)
    whole = subgroup_closure(A, A.basis())
    with pytest.raises(NotIso, match=f"map at g1 is not {kind}"):
        validate_partial_action(A, C2, {"g0": whole, "g1": whole},
                                {"g0": None, "g1": table})
    C2g = group_as_groupoid(C2.elements, {(a, b): C2.mul(a, b)
                                          for a in C2.elements
                                          for b in C2.elements}, "g0")
    with pytest.raises(NotIso, match="map at g1 is not a ring isomorphism"):
        validate_groupoid_partial_action(A, C2g, {"g0": whole, "g1": whole},
                                         {"g0": None, "g1": table})


def test_not_ideal_rejected():
    # span(E11) is not an ideal of the matrix ring
    M = catalog.matrix_ring(F2, 2)
    sub = subgroup_closure(M, [(1, 0, 0, 0)])
    S = cyclic_group(1)
    with pytest.raises(NotIdeal):
        validate_partial_action(M, S, {"g0": sub}, {"g0": None})


# ---------------------------------------------------------------------------
# unitality, invariance, faithfulness


def test_action_unitality():
    flags = action_unitality(frobenius_action())
    assert flags["unital"] and flags["s_unital"]


def test_zero_domains_are_unital():
    # a domain {0} is the zero ring, which is unital with identity 0
    A = catalog.product_ring(F2, F2)
    gpa = groupoid_ring_action(F2, disjoint_union(matrix_groupoid([1]),
                                                  matrix_groupoid([1])))
    pi = induced_action(gpa)
    assert action_unitality(pi)["s_unital"]


def test_field_trivial_action_simple():
    assert is_action_simple(trivial_action())[0]


def test_swap_action_is_simple_but_ring_is_not():
    pi = coordinate_swap_action()
    simple, _ = is_action_simple(pi)
    assert simple
    closure = s_invariant_closure(pi, (1, 0))
    assert len(closure) == 4


def test_disconnected_action_not_simple():
    gpa = groupoid_ring_action(F2, disjoint_union(matrix_groupoid([1]),
                                                  matrix_groupoid([1])))
    pi = induced_action(gpa)
    simple, witness = is_action_simple(pi)
    assert not simple
    assert witness["a"] in ((1, 0), (0, 1))
    J = subgroup_closure(pi.ring, [(1, 0)])
    assert is_invariant_ideal(pi, J)


def test_faithfulness():
    assert not is_faithful(frobenius_action())[0] is None
    assert is_faithful(frobenius_action())[0]
    assert is_faithful(coordinate_swap_action())[0]
    # trivial action of C2 (both maps the identity) is not faithful
    A = catalog.product_ring(F2, F2)
    pi = global_group_action(A, C2, {"g0": None, "g1": None})
    ok, witness = is_faithful(pi)
    assert not ok and witness["s"] == "g1"


def test_faithfulness_with_zero_domain():
    # a zero domain off the idempotents counts against faithfulness
    G = matrix_groupoid([1, 2])
    A = catalog.product_ring(F2, F2)
    zero = subgroup_closure(A, [])
    ideals = {(1, 1): subgroup_closure(A, [(1, 0)]),
              (2, 2): subgroup_closure(A, [(0, 1)]),
              (1, 2): zero, (2, 1): zero}
    maps = {(1, 2): {(0, 0): (0, 0)}, (2, 1): {(0, 0): (0, 0)}}
    gpa = validate_groupoid_partial_action(A, G, ideals, maps)
    assert not gpa.is_global
    pi = induced_action(gpa)
    ok, witness = is_faithful(pi)
    assert not ok


def test_invariant_closure_is_idempotent_and_invariant():
    for pi in (coordinate_swap_action(), c3_shift_action(), frobenius_action()):
        for a in pi.ring.elements():
            if a == pi.ring.zero:
                continue
            closure = s_invariant_closure(pi, a)
            assert is_invariant_ideal(pi, closure)
            assert s_invariant_closure(pi, min(x for x in closure
                                               if x != pi.ring.zero)).elements \
                <= closure.elements
            assert a in closure


def test_ideal_trace_equals_domain_product_for_s_unital_actions():
    # for a left s-unital action, the trace of any ideal on a domain is the
    # span of domain-times-ideal products (and symmetrically on the right)
    from finsys.finring import ideal_closure
    from finsys.syscheck import product_span

    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    fixtures = [coordinate_swap_action(), c3_shift_action(),
                induced_action(gpa)]
    for pi in fixtures:
        A = pi.ring
        ideals = {ideal_closure(A, [a]).elements for a in A.elements()}
        for J_elems in ideals:
            J = subgroup_closure(A, sorted(J_elems))
            for s in pi.sgrp.elements:
                D = pi.domains[s]
                trace = J.elements & D.elements
                assert product_span(A, D, J).elements == trace
                assert product_span(A, J, D).elements == trace


# ---------------------------------------------------------------------------
# groupoid actions


def test_groupoid_ring_action_shape():
    G = matrix_groupoid([1, 2])
    gpa = groupoid_ring_action(F2, G)
    assert gpa.is_global
    assert gpa.ring.order == 4
    assert gpa.object_ideal(1).elements == {(0, 0), (1, 0)}
    pi = induced_action(gpa)
    assert pi.sgrp.zero() is not None
    assert len(pi.domains[pi.sgrp.zero()]) == 1


def test_groupoid_ring_action_is_groupoid_simple():
    gpa = groupoid_ring_action(F2, matrix_groupoid([1, 2]))
    assert is_groupoid_simple(gpa)[0]
    gpa2 = groupoid_ring_action(F2, disjoint_union(matrix_groupoid([1]),
                                                   matrix_groupoid([1])))
    simple, witness = is_groupoid_simple(gpa2)
    assert not simple


def test_groupoid_and_induced_simplicity_agree():
    for G in (matrix_groupoid([1, 2]),
              disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))):
        gpa = groupoid_ring_action(F2, G)
        assert is_groupoid_simple(gpa)[0] == is_action_simple(induced_action(gpa))[0]


def test_frobenius_as_one_object_groupoid_action():
    C2g = group_as_groupoid(C2.elements, {(a, b): C2.mul(a, b)
                                          for a in C2.elements
                                          for b in C2.elements}, "g0")
    whole = subgroup_closure(F4, F4.basis())
    frob = catalog.frobenius_map(F4, 2)
    gpa = validate_groupoid_partial_action(
        F4, C2g, {"g0": whole, "g1": whole}, {"g0": None, "g1": frob})
    assert gpa.is_global
    pi = induced_action(gpa)
    assert is_faithful(pi)[0]
    assert is_action_simple(pi)[0]


def test_proper_restriction_fixture():
    # restrict the C3 coordinate shift to the ideal F_2 x F_2 x 0:
    # domains off the unit become proper nonzero ideals
    pi = c3_shift_action()
    B = subgroup_closure(pi.ring, [(1, 0, 0), (0, 1, 0)])
    res = restrict_action_to_ideal(pi, B)
    assert res.ring.order == 4
    assert len(res.domains["g1"]) == 2
    assert len(res.domains["g0"]) == 4
    assert is_faithful(res)[0]
    flags = action_unitality(res)
    assert flags["s_unital"]


def test_restriction_of_swap_action():
    pi = coordinate_swap_action()
    B = subgroup_closure(pi.ring, [(1, 0)])
    res = restrict_action_to_ideal(pi, B)
    # the swap moves the ideal completely off itself, so D_g = 0
    assert len(res.domains["g1"]) == 1
    assert not is_faithful(res)[0]
