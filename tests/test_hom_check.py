"""The ring-homomorphism check on generators against the pairwise scan it
replaced.  The scan over every pair of domain elements stays here as the
oracle: both must accept and reject the same maps, and every failure the
generator check reports must be a genuine one."""

import random
from pathlib import Path

import pytest

from finsys import catalog
from finsys.finring import CapExceeded, _hom_escape, subgroup_closure
from finsys.harness import parse_path, random_instances, scenario
from finsys.skewconstruct import build_skew_ring
from finsys.steinberg import ga_partial_action, steinberg_ring, translation

FIXTURES = Path(__file__).parent.parent / "fixtures"

F2 = catalog.prime_field(2)


def pairwise_escape(A, B, table):
    """The first pair of domain elements on which ``table`` fails to be
    additive or multiplicative, scanning all |D|^2 pairs."""
    dom = sorted(table)
    for x in dom:
        for y in dom:
            if table[A.add(x, y)] != B.add(table[x], table[y]):
                return "additive", (x, y)
            if table[A.mul(x, y)] != B.mul(table[x], table[y]):
                return "multiplicative", (x, y)
    return None


def check_against_oracle(A, B, table, gens):
    """Assert that the generator check and the pairwise scan agree; return
    the generator check's verdict."""
    escape = _hom_escape(A, B, table, gens)
    assert (escape is None) == (pairwise_escape(A, B, table) is None)
    if escape is not None:
        kind, (x, y) = escape
        op, image_op = (A.add, B.add) if kind == "additive" else (A.mul, B.mul)
        assert table[op(x, y)] != image_op(table[x], table[y])
    return escape


def check_action_maps(pi):
    for s, table in pi.maps.items():
        src = pi.domains[pi.sgrp.star(s)]
        assert check_against_oracle(pi.ring, pi.ring, table, src.small_gens()) is None


def check_gpa_maps(gpa):
    G = gpa.groupoid
    for g, table in gpa.maps.items():
        src = gpa.ideals[G.inverse[g]]
        assert check_against_oracle(gpa.ring, gpa.ring, table, src.small_gens()) is None


def test_fixture_maps_agree():
    pactions = 0
    for path in sorted(FIXTURES.glob("*.ins")):
        inst = parse_path(path)
        for pi in inst.pactions.values():
            check_action_maps(pi)
            pactions += 1
        for gpa in inst.gpas.values():
            check_gpa_maps(gpa)
    assert pactions >= 2


@pytest.mark.parametrize("name,params", [
    ("pair-steinberg", {"n": 2, "K": "F2"}),
    ("galois-field", {"p": 2, "n": 2}),
])
def test_bisection_actions_and_translations_agree(name, params):
    inst = scenario(name, **params)
    for gpa in inst.gpas.values():
        check_gpa_maps(gpa)
    for K in inst.rings.values():
        for G in inst.groupoids.values():
            pi, objects = ga_partial_action(K, G)
            check_action_maps(pi)
            skew = build_skew_ring(pi)
            pair = translation(pi, objects, skew, steinberg_ring(K, G))
            S, F = skew.ring, pair.functions.ring
            assert check_against_oracle(S, F, pair.alpha, S.basis()) is None
            assert check_against_oracle(F, S, pair.beta, F.basis()) is None


def test_base_embeddings_of_fuzz_instances_agree():
    embeddings = 0
    for inst in random_instances(3, 12):
        for pi in inst.pactions.values():
            check_action_maps(pi)
            try:
                skew = build_skew_ring(pi)
            except CapExceeded:
                continue
            if skew.has_base_image():
                A = pi.ring
                assert check_against_oracle(A, skew.ring, skew._base_image,
                                            A.basis()) is None
                embeddings += 1
        for gpa in inst.gpas.values():
            check_gpa_maps(gpa)
    assert embeddings >= 3


SMALL_RINGS = [
    catalog.product_ring(F2, F2),
    catalog.galois_field(2, 2),
    catalog.cyclic_ring(4),
    catalog.cyclic_ring(6),
    catalog.product_ring(F2, F2, F2),
    catalog.matrix_ring(F2, 2),
    catalog.zero_mult_ring([2, 2]),
    catalog.left_only_ring(F2),
]


def random_additive_map(rng, R):
    """The additive extension of random images of the basis, each of an
    order dividing that of its basis element."""
    images = [rng.choice([y for y in R.elements()
                          if R.group.smul(d, y) == R.zero])
              for d in R.ranks]
    table = {}
    for x in R.elements():
        v = R.zero
        for n, y in zip(x, images):
            v = R.add(v, R.group.smul(n, y))
        table[x] = v
    return table


def random_maps(rng, R):
    """A permutation, a permutation fixing 0, an additive bijection (when
    one is drawn), the identity, and each of these with two values
    swapped."""
    elements = R.elements()
    shuffled = rng.sample(elements, len(elements))
    nonzero = [x for x in elements if x != R.zero]
    fixing_zero = {R.zero: R.zero,
                   **dict(zip(nonzero, rng.sample(nonzero, len(nonzero))))}
    maps = [dict(zip(elements, shuffled)), fixing_zero,
            {x: x for x in elements}]
    for _ in range(8):
        table = random_additive_map(rng, R)
        if len(set(table.values())) == len(table):
            maps.append(table)
            break
    for table in list(maps):
        a, b = rng.sample(nonzero, 2)
        swapped = dict(table)
        swapped[a], swapped[b] = table[b], table[a]
        maps.append(swapped)
    return maps


@pytest.mark.parametrize("seed", range(6))
def test_random_bijections_agree(seed):
    rng = random.Random(seed)
    verdicts = set()
    for R in SMALL_RINGS:
        for table in random_maps(rng, R):
            for gens in (R.basis(), subgroup_closure(R, R.basis()).small_gens()):
                escape = check_against_oracle(R, R, table, gens)
                verdicts.add(None if escape is None else escape[0])
    assert verdicts == {None, "additive", "multiplicative"}


def test_zero_domain():
    # with no generators only f(0) = 0 is left to check
    R = SMALL_RINGS[0]
    for image in R.elements():
        escape = check_against_oracle(R, R, {R.zero: image}, ())
        assert (escape is None) == (image == R.zero)
