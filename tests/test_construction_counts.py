"""Each derived object is built once per battery and each derived fact is
computed once per object.  The constructions are counted by wrapping the
module attributes every finsys module calls them through."""

import sys
from pathlib import Path

import pytest

from finsys import invsgrp, paction, skewconstruct, steinberg, syscheck
from finsys.harness import checks, parse_path, random_instances, run, scenario
from finsys.skewconstruct import DEFAULT_SKEW_CAP
from finsys.steinberg import DEFAULT_BISECTION_CAP

FIXTURES = Path(__file__).parent.parent / "fixtures"

INSTANCES = [
    ("disconnected", {"n": 2, "K": "F2"}),
    ("galois-field", {"p": 2, "n": 2}),
]


def count_calls(monkeypatch, module, name) -> list:
    """Rebind module.name in every finsys module that holds it to a wrapper
    that records the arguments of each call; returns that record."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.split(".")[0] == "finsys" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
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
