import pytest

from finsys.finring import CapExceeded
from finsys.invsgrp import (
    GroupoidError,
    InternalInconsistency,
    NoInverse,
    NonUniqueInverse,
    NotAssociative,
    all_bisections,
    bisection_semigroup,
    cyclic_group,
    disjoint_union,
    group_as_groupoid,
    groupoid_predicates,
    induced_semigroup,
    is_bisection,
    matrix_groupoid,
    product_groupoid,
    symmetric_inverse_monoid,
    validate_groupoid,
    validate_inverse_semigroup,
)


# ---------------------------------------------------------------------------
# inverse semigroup validation


def test_one_element_semigroup():
    S = validate_inverse_semigroup({("e", "e"): "e"}, ["e"])
    assert S.star("e") == "e"
    assert S.idempotents == ("e",)


def test_cyclic_group_star_is_inversion():
    S = cyclic_group(3)
    assert S.star("g1") == "g2"
    assert S.star("g0") == "g0"
    assert S.idempotents == ("g0",)


def test_symmetric_inverse_monoid_sizes():
    # sum over k of C(n,k)^2 * k!
    assert len(symmetric_inverse_monoid(1)) == 2
    assert len(symmetric_inverse_monoid(2)) == 7
    assert len(symmetric_inverse_monoid(3)) == 34


def test_symmetric_inverse_monoid_star():
    S = symmetric_inverse_monoid(2)
    swap = ((1, 2), (2, 1))
    assert S.star(swap) == swap
    single = ((1, 2),)
    assert S.star(single) == ((2, 1),)


def test_left_zero_band_has_non_unique_inverses():
    table = {(a, b): a for a in "ab" for b in "ab"}
    with pytest.raises(NonUniqueInverse):
        validate_inverse_semigroup(table, ["a", "b"])


def test_non_associative_table_rejected():
    # subtraction mod 3 is not associative
    table = {(i, j): (i - j) % 3 for i in range(3) for j in range(3)}
    with pytest.raises(NotAssociative):
        validate_inverse_semigroup(table, [0, 1, 2])


def test_no_inverse_rejected():
    # {0, 1} under multiplication has inverses; {1, 2} under min does too
    # (it is a semilattice); a right-zero action breaks uniqueness instead,
    # so use a null semigroup with adjoined absorbing behaviour on 3 points:
    # x*y = 0 always; then 1 has s t s = 0 != 1 for all t.
    table = {(i, j): 0 for i in range(2) for j in range(2)}
    with pytest.raises(NoInverse):
        validate_inverse_semigroup(table, [0, 1])


def test_star_antihomomorphism_on_fixtures():
    for S in (cyclic_group(4), symmetric_inverse_monoid(2)):
        for s in S.elements:
            assert S.star(S.star(s)) == s
            for t in S.elements:
                assert S.star(S.mul(s, t)) == S.mul(S.star(t), S.star(s))


# ---------------------------------------------------------------------------
# natural partial order


def test_natural_order_reflexive():
    S = symmetric_inverse_monoid(2)
    for s in S.elements:
        assert S.leq(s, s)


def test_empty_map_is_bottom():
    S = symmetric_inverse_monoid(2)
    empty = ()
    for t in S.elements:
        assert S.leq(empty, t)


def test_restriction_below_identity():
    S = symmetric_inverse_monoid(2)
    ident = ((1, 1), (2, 2))
    part = ((1, 1),)
    assert S.leq(part, ident)
    assert not S.leq(ident, part)


def test_natural_order_is_partial_order():
    for S in (cyclic_group(2), symmetric_inverse_monoid(2)):
        els = S.elements
        for s in els:
            for t in els:
                if S.leq(s, t) and S.leq(t, s):
                    assert s == t
                for u in els:
                    if S.leq(s, t) and S.leq(t, u):
                        assert S.leq(s, u)


def test_idempotent_translates_sit_below():
    S = symmetric_inverse_monoid(2)
    for e in S.idempotents:
        for s in S.elements:
            assert S.leq(S.mul(e, s), s)
            assert S.leq(S.mul(s, e), s)


# ---------------------------------------------------------------------------
# groupoids


def test_matrix_groupoid_shapes():
    for n in (1, 2, 3):
        G = matrix_groupoid(range(1, n + 1))
        assert len(G.morphisms) == n * n
        preds = groupoid_predicates(G)
        assert preds["connected"] and preds["thin"] and preds["is_matrix"]
        assert preds["effective_discrete"] and preds["minimal_discrete"]


def test_matrix_groupoid_composition():
    G = matrix_groupoid([1, 2, 3])
    assert G.compose((1, 2), (2, 3)) == (1, 3)
    assert G.dmap[(1, 2)] == 2 and G.cmap[(1, 2)] == 1
    assert G.inverse[(1, 2)] == (2, 1)
    assert G.identity[2] == (2, 2)


def test_identities_only_groupoid_predicates():
    G = matrix_groupoid([1])
    H = disjoint_union(G, G)
    preds = groupoid_predicates(H)
    assert not preds["connected"] and not preds["minimal_discrete"]
    assert preds["thin"] and preds["effective_discrete"]
    assert not preds["is_matrix"]


def test_group_groupoid_predicates():
    C2 = cyclic_group(2)
    G = group_as_groupoid(C2.elements, {(a, b): C2.mul(a, b) for a in C2.elements
                                        for b in C2.elements}, "g0")
    preds = groupoid_predicates(G)
    assert preds["connected"] and preds["minimal_discrete"]
    assert not preds["thin"] and not preds["effective_discrete"]


def test_product_groupoid_isotropy_bundle():
    # full groupoid on two objects crossed with a one-object group: still
    # connected and minimal, but with isotropy everywhere, so not thin
    C2 = cyclic_group(2)
    loop = group_as_groupoid(C2.elements, {(a, b): C2.mul(a, b)
                                           for a in C2.elements
                                           for b in C2.elements}, "g0")
    G = product_groupoid(matrix_groupoid([1, 2]), loop)
    assert len(G.objects) == 2 and len(G.morphisms) == 8
    preds = groupoid_predicates(G)
    assert preds["connected"] and preds["minimal_discrete"]
    assert not preds["thin"] and not preds["effective_discrete"]
    assert G.compose(((1, 2), "g1"), ((2, 1), "g1")) == ((1, 1), "g0")


def test_validate_groupoid_rejects_bad_tables():
    # missing composition entry
    with pytest.raises(GroupoidError):
        validate_groupoid(["u"], ["e"], {"e": "u"}, {"e": "u"}, {})
    # composition defined on a non-composable pair
    G = matrix_groupoid([1, 2])
    bad = dict(G._compose)
    bad[((1, 2), (1, 2))] = (1, 2)
    with pytest.raises(GroupoidError):
        validate_groupoid(G.objects, G.morphisms, G.dmap, G.cmap, bad)
    # no identity at an object: two loops composing to each other
    with pytest.raises(GroupoidError):
        validate_groupoid(["u"], ["a"], {"a": "u"}, {"a": "u"}, {("a", "a"): "a2"})


# ---------------------------------------------------------------------------
# induced semigroups


def test_induced_semigroup_of_trivial_groupoid():
    S = induced_semigroup(matrix_groupoid([1]))
    assert len(S) == 2
    assert S.zero() == "o"


def test_induced_semigroup_of_matrix_groupoid():
    S = induced_semigroup(matrix_groupoid([1, 2]))
    assert len(S) == 5
    assert S.mul((1, 2), (2, 1)) == (1, 1)
    assert S.mul((1, 2), (1, 2)) == "o"
    assert S.star((1, 2)) == (2, 1)
    assert set(S.idempotents) == {(1, 1), (2, 2), "o"}


def test_induced_semigroup_of_group_is_group_with_zero():
    C2 = cyclic_group(2)
    G = group_as_groupoid(C2.elements, {(a, b): C2.mul(a, b) for a in C2.elements
                                        for b in C2.elements}, "g0")
    S = induced_semigroup(G)
    assert len(S) == 3
    assert S.mul("g1", "g1") == "g0"
    assert S.mul("o", "g1") == "o"


def test_induced_semigroup_avoids_label_clash():
    G = validate_groupoid(["u"], ["o"], {"o": "u"}, {"o": "u"}, {("o", "o"): "o"})
    S = induced_semigroup(G)
    assert S.zero() == "o'"


def test_induced_order_vs_groupoid():
    # in an induced semigroup the only strict order pairs lie below the zero
    S = induced_semigroup(matrix_groupoid([1, 2]))
    o = S.zero()
    for s in S.elements:
        for t in S.elements:
            if S.leq(s, t) and s != t:
                assert s == o


# ---------------------------------------------------------------------------
# bisections


def test_bisections_of_trivial_groupoid():
    G = matrix_groupoid([1])
    assert sorted(all_bisections(G), key=len) == [frozenset(), frozenset({(1, 1)})]


def test_bisections_of_pair_groupoid():
    G = matrix_groupoid([1, 2])
    bis = all_bisections(G)
    assert len(bis) == 7
    assert frozenset({(1, 1), (2, 2)}) in bis
    assert frozenset({(1, 2), (2, 1)}) in bis
    assert frozenset({(1, 1), (1, 2)}) not in bis
    assert not is_bisection(G, {(1, 1), (1, 2)})


def test_bisection_semigroup_of_pair_groupoid():
    G = matrix_groupoid([1, 2])
    S = bisection_semigroup(G)
    assert len(S) == 7
    swap = frozenset({(1, 2), (2, 1)})
    units = frozenset({(1, 1), (2, 2)})
    assert S.mul(swap, swap) == units
    assert S.star(swap) == swap
    # inclusion order and the semigroup order agree (also checked internally)
    for U in S.elements:
        for V in S.elements:
            assert S.leq(U, V) == (U <= V)


def test_bisection_counts_match_partial_injections():
    # bisections of the full matrix groupoid on n objects biject with
    # partial injections on n points
    for n in (1, 2):
        G = matrix_groupoid(range(1, n + 1))
        assert len(all_bisections(G)) == len(symmetric_inverse_monoid(n))


def test_bisection_cap():
    G = matrix_groupoid(range(1, 5))  # 16 morphisms
    with pytest.raises(CapExceeded):
        all_bisections(G, cap=12)


def test_bisection_idempotents_are_unit_subsets():
    G = disjoint_union(matrix_groupoid([1, 2]), matrix_groupoid([1]))
    S = bisection_semigroup(G)
    units = {G.identity[u] for u in G.objects}
    for U in S.idempotents:
        assert set(U) <= units
