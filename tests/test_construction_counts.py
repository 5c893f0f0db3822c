"""Each derived object is built once per battery, each derived fact is
computed once per object, and each ring-homomorphism check multiplies only
on generator pairs.  The work is counted by wrapping the module attributes
every finsys module calls them through."""

import sys
from pathlib import Path

import pytest

from finsys import invsgrp, paction, skewconstruct, steinberg, syscheck
from finsys.finring import FinRing
from finsys.harness import checks, parse_path, random_instances, run, scenario
from finsys.skewconstruct import DEFAULT_SKEW_CAP
from finsys.steinberg import DEFAULT_BISECTION_CAP

FIXTURES = Path(__file__).parent.parent / "fixtures"

INSTANCES = [
    ("disconnected", {"n": 2, "K": "F2"}),
    ("galois-field", {"p": 2, "n": 2}),
]


def rebind(monkeypatch, module, name, wrap):
    """Rebind module.name in every finsys module that holds it to
    wrap(original)."""
    original = getattr(module, name)
    wrapper = wrap(original)
    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "finsys" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, wrapper)


def count_calls(monkeypatch, module, name) -> list:
    """Rebind module.name to a wrapper that records the arguments of each
    call; returns that record."""
    calls = []

    def wrap(original):
        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return counted

    rebind(monkeypatch, module, name, wrap)
    return calls


@pytest.mark.parametrize("name,params", INSTANCES)
def test_steinberg_battery_builds_each_object_once(monkeypatch, name, params):
    inst = scenario(name, **params)
    counted = {fn: count_calls(monkeypatch, module, fn) for module, fn in (
        (steinberg, "ga_partial_action"), (invsgrp, "bisection_semigroup"),
        (steinberg, "steinberg_ring"), (skewconstruct, "build_skew_ring"))}
    pairs = [(K, G) for K in inst.rings.values() for G in inst.groupoids.values()]
    assert pairs
    for K, G in pairs:
        for calls in counted.values():
            calls.clear()
        verdict = checks._steinberg_battery(K, G, DEFAULT_BISECTION_CAP,
                                            DEFAULT_SKEW_CAP)
        assert verdict.by_name("translation_homomorphisms").status == "PASS"
        assert {fn: len(calls) for fn, calls in counted.items()} == \
            dict.fromkeys(counted, 1)


@pytest.mark.parametrize("name,params", INSTANCES)
def test_gpa_battery_induces_the_action_once(monkeypatch, name, params):
    inst = scenario(name, **params)
    calls = count_calls(monkeypatch, paction, "induced_action")
    assert inst.gpas
    for gname, gpa in inst.gpas.items():
        calls.clear()
        checks._gpa_battery(gname, gpa, DEFAULT_SKEW_CAP)
        assert len(calls) == 1


def test_structural_predicates_computed_once_per_system(monkeypatch):
    # system sections, and the block and skew gradings of partial actions
    calls = count_calls(monkeypatch, syscheck, "_structural_predicates")
    for path in sorted(FIXTURES.glob("*.ins")):
        run(parse_path(path))
    for inst in random_instances(3, 4):
        run(inst)
    systems = [id(args[0]) for args in calls]     # calls keeps them alive
    assert len(systems) > 4 and len(systems) == len(set(systems))


def _action_bound(pi) -> int:
    return sum(len(src) * len(src.small_gens()) + len(src.small_gens()) ** 2
               for src in (pi.domains[pi.sgrp.star(s)] for s in pi.sgrp.elements))


def _translation_bound(pair) -> int:
    k = len(pair.skew.ring.basis())
    return pair.skew.ring.order * k + k * k


@pytest.mark.parametrize("name,params", INSTANCES)
def test_homomorphism_checks_multiply_on_generators(monkeypatch, name, params):
    # each map's ring-homomorphism check multiplies on generator pairs only,
    # within |D| k + k^2 per map for k generators, not on all |D|^2 pairs
    muls = [0]
    original_mul = FinRing.mul

    def counted_mul(self, x, y):
        muls[0] += 1
        return original_mul(self, x, y)

    monkeypatch.setattr(FinRing, "mul", counted_mul)
    spent = []     # (mul calls, bound) per checked call

    def measured(bound):
        def wrap(original):
            def inner(*args, **kwargs):
                before = muls[0]
                result = original(*args, **kwargs)
                spent.append((muls[0] - before, bound(result)))
                return result
            return inner
        return wrap

    rebind(monkeypatch, paction, "validate_partial_action", measured(_action_bound))
    rebind(monkeypatch, steinberg, "translation", measured(_translation_bound))
    run(scenario(name, **params))
    assert len(spent) >= 3 and any(calls for calls, _ in spent)
    assert all(calls <= bound for calls, bound in spent), spent
