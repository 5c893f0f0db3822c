"""Sampled property checks for the closure laws on rings too large to
enumerate subsets exhaustively."""

from hypothesis import given, settings, strategies as st

from finsys import catalog
from finsys.finring import (
    ideal_closure,
    quotient_ring,
    subgroup_closure,
)
from finsys.invsgrp import symmetric_inverse_monoid

M2F2 = catalog.matrix_ring(catalog.prime_field(2), 2)
MIXED = catalog.product_ring(catalog.cyclic_ring(4), catalog.prime_field(3))
SIM3 = symmetric_inverse_monoid(3)

elements_m2 = st.sampled_from(M2F2.elements())
elements_mixed = st.sampled_from(MIXED.elements())
gen_sets = st.lists(elements_m2, max_size=4)


@given(gen_sets)
def test_subgroup_closure_idempotent(gens):
    once = subgroup_closure(M2F2, gens)
    twice = subgroup_closure(M2F2, once.elements)
    assert once == twice


@given(gen_sets, gen_sets)
def test_closures_monotone(g1, g2):
    small = subgroup_closure(M2F2, g1)
    big = subgroup_closure(M2F2, g1 + g2)
    assert small.elements <= big.elements
    assert ideal_closure(M2F2, g1).elements <= ideal_closure(M2F2, g1 + g2).elements


@given(gen_sets)
def test_ideal_closure_absorbs_both_sides(gens):
    ideal = ideal_closure(M2F2, gens)
    for g in gens:
        assert g in ideal
    for e in M2F2.basis():
        for x in list(ideal)[:8]:
            assert M2F2.mul(e, x) in ideal
            assert M2F2.mul(x, e) in ideal


@settings(max_examples=25)
@given(st.lists(elements_mixed, max_size=2), elements_mixed, elements_mixed)
def test_quotient_projection_is_homomorphism(gens, x, y):
    q = quotient_ring(MIXED, ideal_closure(MIXED, gens))
    assert q.project(MIXED.add(x, y)) == q.ring.add(q.project(x), q.project(y))
    assert q.project(MIXED.mul(x, y)) == q.ring.mul(q.project(x), q.project(y))
    assert (q.project(x) == q.ring.zero) == (x in q.ideal)


@given(st.sampled_from(SIM3.elements), st.sampled_from(SIM3.elements),
       st.sampled_from(SIM3.elements))
def test_natural_order_transitive_on_partial_injections(s, t, u):
    assert SIM3.leq(s, s)
    if SIM3.leq(s, t) and SIM3.leq(t, u):
        assert SIM3.leq(s, u)
    if SIM3.leq(s, t) and SIM3.leq(t, s):
        assert s == t


@given(st.sampled_from(SIM3.elements), st.sampled_from(SIM3.elements))
def test_star_reverses_products(s, t):
    assert SIM3.star(SIM3.mul(s, t)) == SIM3.mul(SIM3.star(t), SIM3.star(s))
