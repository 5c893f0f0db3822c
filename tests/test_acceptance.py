"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The fuzz corpus (100 seeded instances) is built once and shared.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from finsys import catalog
from finsys.finring import (
    centralizer,
    ideal_closure,
    is_simple,
    subgroup_closure,
    unitality_predicates,
)
from finsys.harness import parse_path, random_instances, run, scenario
from finsys.harness.scenarios import build_galois, named_ring
from finsys.invsgrp import (
    cyclic_groupoid,
    disjoint_union,
    groupoid_predicates,
    matrix_groupoid,
)
from finsys.paction import induced_action, is_action_simple, is_faithful, is_groupoid_simple
from finsys.skewconstruct import build_skew_ring, skew_groupoid_ring
from finsys.steinberg import ga_partial_action, steinberg_ring, translation
from finsys.syscheck import all_system_ideals, is_system_ideal, system_ideal_closure

FIXTURES = Path(__file__).parent.parent / "fixtures"

FUZZ_SEED = 20260810
FUZZ_COUNT = 100


@contextmanager
def criterion(number, slug, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({slug}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, " \
                               f"budget {budget_s}s"
    print(f"ACCEPTANCE {number} ({slug}): PASS [{elapsed:.1f}s]")


_CORPUS = None


def _fuzz_corpus():
    global _CORPUS
    if _CORPUS is None:
        instances = random_instances(FUZZ_SEED, FUZZ_COUNT)
        _CORPUS = [(inst, run(inst)) for inst in instances]
    return _CORPUS


@pytest.fixture(scope="module")
def fuzz_corpus():
    return _fuzz_corpus()


@pytest.fixture(scope="module")
def scenario_reports():
    cases = [
        ("matrix-groupoid", {"n": "2", "K": "F2"}),
        ("group-as-groupoid", {"group": "C2", "K": "F2"}),
        ("group-as-groupoid", {"group": "C3", "K": "F2"}),
        ("disconnected", {"n": "2", "K": "F2"}),
        ("pair-steinberg", {"n": "2", "K": "F2"}),
        ("galois-field", {"p": "2", "n": "2"}),
        ("symmetric-inverse-monoid", {"n": "2"}),
    ]
    out = []
    for name, params in cases:
        inst = scenario(name, **params)
        inst.source = f"scenario:{name}"
        out.append((inst, run(inst)))
    for path in sorted(FIXTURES.glob("*.ins")):
        inst = parse_path(path)
        out.append((inst, run(inst)))
    return out


def test_criterion_1_matrix_groupoid_reproduction():
    with criterion(1, "matrix groupoid gives the simple 16-element ring", 5):
        inst = scenario("matrix-groupoid", n="2", K="F2")
        gpa = inst.gpas["groupoid_ring"]
        skew, ident = skew_groupoid_ring(gpa)
        assert skew.ring.order == 16
        assert is_simple(skew.ring)
        preds = groupoid_predicates(inst.groupoids["matrix2"])
        assert preds["effective_discrete"] and preds["minimal_discrete"]
        assert ident.ok()
        report = run(inst)
        assert report.fail_count() == 0


def test_criterion_2_group_ring_negative_case():
    with criterion(2, "one-object group groupoid is not simple", 5):
        inst = scenario("group-as-groupoid", group="C2", K="F2")
        G = next(iter(inst.groupoids.values()))
        preds = groupoid_predicates(G)
        assert preds["thin"] is False
        space = steinberg_ring(named_ring("F2"), G)
        assert not is_simple(space.ring)
        # the ideal generated by the sum of the two group elements is proper
        x = space.vector({"g0": (1,), "g1": (1,)})
        ideal = ideal_closure(space.ring, [x])
        assert x in ideal and 1 < len(ideal) < space.ring.order
        assert run(inst).fail_count() == 0


def test_criterion_3_nonsimple_coefficients():
    with criterion(3, "functions into a proper coefficient ideal", 10):
        K = named_ring("F2xF2")
        G = matrix_groupoid([1, 2])
        space = steinberg_ring(K, G)
        assert not is_simple(space.ring)
        # the two coordinate ideals of the coefficients give the only proper
        # nonzero ideals: functions valued in J
        coordinate_ideals = []
        for J in ((1, 0), (0, 1)):
            span = subgroup_closure(
                space.ring, [space.vector({g: J}) for g in G.morphisms])
            ideal = ideal_closure(space.ring, sorted(span.elements))
            assert ideal.elements == span.elements   # already an ideal
            assert 1 < len(ideal) < space.ring.order
            coordinate_ideals.append(ideal.elements)
        from finsys.finring import proper_ideal_witness
        x, witness_ideal = proper_ideal_witness(space.ring)
        assert witness_ideal.elements in coordinate_ideals


def test_criterion_4_galois_skew_ring():
    with criterion(4, "field with Frobenius gives a simple skew ring", 10):
        sc = build_galois(2, 2)
        skew, ident = skew_groupoid_ring(sc.action)
        assert is_simple(skew.ring)
        assert is_groupoid_simple(sc.action)[0]
        base = skew.base_subring()
        assert centralizer(skew.ring, base).elements == base.elements
        assert ident.ok()


def test_criterion_5_skew_simplicity_biconditional_fuzz():
    with criterion(5, "simple iff action-simple and maximally commutative, "
                      "100 seeded instances", 600):
        fuzz_corpus = _fuzz_corpus()   # generation and checking both count
        assert len(fuzz_corpus) >= 100
        for inst, report in fuzz_corpus:
            pi = inst.pactions["pi"]
            assert pi.ring.is_commutative
            assert unitality_predicates(pi.ring)["s_unital"]
            row = report.by_name("paction.pi.skew_simplicity_biconditional")
            assert row.status == "PASS", (inst.source, row.line())


def test_criterion_6_block_ring_structure_rows(fuzz_corpus, scenario_reports):
    with criterion(6, "graded structure identities on every instance", 600):
        names = ("skew_grading_coherent", "corner_matches_domain_square",
                 "triple_product_matches_domain_cube",
                 "corner_unitality_matches", "symmetric_iff_domains_idempotent",
                 "epsilon_strong_iff_action_s_unital",
                 "associative_when_s_unital")
        seen = 0
        for inst, report in list(fuzz_corpus) + list(scenario_reports):
            for row in report.rows:
                if any(n in row.name for n in names):
                    assert row.status != "FAIL", (inst.source, row.line())
                    seen += 1
        assert seen > 500


def test_criterion_7_epsilon_agreement_and_system_simplicity(fuzz_corpus,
                                                             scenario_reports):
    with criterion(7, "three-way epsilon agreement and simple implies "
                      "system simple", 600):
        seen_eps = seen_imp = 0
        for inst, report in list(fuzz_corpus) + list(scenario_reports):
            for row in report.rows:
                if "epsilon_characterizations" in row.name:
                    assert row.status == "PASS", (inst.source, row.line())
                    seen_eps += 1
                if "simple_implies_system_simple" in row.name:
                    assert row.status != "FAIL", (inst.source, row.line())
                    seen_imp += 1
        assert seen_eps > 500 and seen_imp > 100


ROUNDTRIP_FIXTURES = [
    ("F2", lambda: matrix_groupoid([1])),
    ("F4", lambda: matrix_groupoid([1])),
    ("F2", lambda: cyclic_groupoid(2)),
    ("F4", lambda: cyclic_groupoid(2)),
    ("F2", lambda: cyclic_groupoid(3)),
    ("F2", lambda: disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))),
    ("F2xF2", lambda: disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))),
    ("F2", lambda: matrix_groupoid([1, 2])),
]


def test_criterion_8_translation_roundtrips():
    with criterion(8, "translation round trips exhaustively on the fixture "
                      "set", 60 * len(ROUNDTRIP_FIXTURES)):
        for kname, build in ROUNDTRIP_FIXTURES:
            K = named_ring(kname)
            G = build()
            assert K.order ** len(G.morphisms) <= 4096
            start = time.perf_counter()
            pi, objects = ga_partial_action(K, G)
            pair = translation(pi, objects, build_skew_ring(pi),
                               steinberg_ring(K, G))   # raises on any violation
            assert len(pair.alpha) == pair.skew.ring.order
            assert len(pair.beta) == K.order ** len(G.morphisms)
            assert time.perf_counter() - start < 60


SMALL_GROUPOIDS = [
    ("trivial", lambda: matrix_groupoid([1])),
    ("loop2", lambda: cyclic_groupoid(2)),
    ("loop3", lambda: cyclic_groupoid(3)),
    ("disc2", lambda: disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]))),
    ("disc3", lambda: disjoint_union(
        disjoint_union(matrix_groupoid([1]), matrix_groupoid([1]), "a", "b"),
        matrix_groupoid([1]), "ab", "c")),
    ("pair2", lambda: matrix_groupoid([1, 2])),
    ("pair2_pt", lambda: disjoint_union(matrix_groupoid([1, 2]),
                                        matrix_groupoid([1]))),
    ("loop2_pt", lambda: disjoint_union(cyclic_groupoid(2), matrix_groupoid([1]))),
]


def test_criterion_9_effectiveness_and_minimality_characterizations():
    with criterion(9, "effective iff faithful; minimal iff bisection-simple",
                   120):
        for name, build in SMALL_GROUPOIDS:
            G = build()
            assert len(G.morphisms) <= 6
            preds = groupoid_predicates(G)
            for kname in ("F2", "F4"):
                K = named_ring(kname)
                pi, _ = ga_partial_action(K, G)
                assert is_faithful(pi)[0] == preds["effective_discrete"], \
                    (name, kname)
                # coefficients are simple s-unital fields here
                assert is_action_simple(pi)[0] == preds["minimal_discrete"], \
                    (name, kname)


def test_criterion_10_oracle_crosschecks(scenario_reports):
    with criterion(10, "finite s-unitality agreement and smallest system "
                       "ideals against the lattice oracle", 300):
        pool = [catalog.prime_field(2), catalog.prime_field(3),
                catalog.galois_field(2, 2),
                catalog.product_ring(catalog.prime_field(2),
                                     catalog.prime_field(2)),
                catalog.matrix_ring(catalog.prime_field(2), 2),
                catalog.zero_mult_ring([2]), catalog.cyclic_ring(4),
                catalog.left_only_ring(catalog.prime_field(2))]
        for inst, _ in scenario_reports:
            pool.extend(inst.rings.values())
        for R in pool:
            flags = unitality_predicates(R)
            assert flags["s_unital"] == flags["unital"], R.name

        systems = []
        for inst, _ in scenario_reports:
            systems.extend(inst.systems.values())
        swap = parse_path(FIXTURES / "swap_action.ins").pactions["swap"]
        systems.append(build_skew_ring(swap).grading)
        for name, params in (("disconnected", {"n": "2", "K": "F2"}),
                             ("matrix-groupoid", {"n": "2", "K": "F2"}),
                             ("galois-field", {"p": "2", "n": "2"})):
            gpa = next(iter(scenario(name, **params).gpas.values()))
            systems.append(build_skew_ring(induced_action(gpa)).grading)
        checked = 0
        for sr in systems:
            if sr.ring.order > 64:
                continue
            lattice = all_system_ideals(sr)
            for J in lattice:
                assert is_system_ideal(sr, subgroup_closure(sr.ring, sorted(J)))
            for s, h in sr.homogeneous_elements():
                closure = system_ideal_closure(sr, h, s)
                assert is_system_ideal(sr, closure)
                for J in lattice:
                    if h in J:
                        assert closure.elements <= J
                checked += 1
        assert checked > 20
