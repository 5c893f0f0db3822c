"""Named ready-made instances: the worked examples the verdict batteries run on."""

from __future__ import annotations

from dataclasses import dataclass

from .. import catalog
from ..finring import FinRing, subgroup_closure
from ..invsgrp import (
    FinGroupoid,
    cyclic_groupoid,
    disjoint_union,
    matrix_groupoid,
    symmetric_inverse_monoid,
)
from ..paction import (
    GroupoidPartialAction,
    groupoid_ring_action,
    validate_groupoid_partial_action,
)
from .files import InstanceFile


class BadParams(Exception):
    pass


_RING_BUILDERS = {
    "F2": lambda: catalog.prime_field(2),
    "F3": lambda: catalog.prime_field(3),
    "F5": lambda: catalog.prime_field(5),
    "F7": lambda: catalog.prime_field(7),
    "F4": lambda: catalog.galois_field(2, 2),
    "F8": lambda: catalog.galois_field(2, 3),
    "F9": lambda: catalog.galois_field(3, 2),
    "F2xF2": lambda: catalog.product_ring(catalog.prime_field(2),
                                          catalog.prime_field(2)),
    "F3xF3": lambda: catalog.product_ring(catalog.prime_field(3),
                                          catalog.prime_field(3)),
    "F2xF4": lambda: catalog.product_ring(catalog.prime_field(2),
                                          catalog.galois_field(2, 2)),
    "Z4": lambda: catalog.cyclic_ring(4),
    "M2F2": lambda: catalog.matrix_ring(catalog.prime_field(2), 2),
    "null2": lambda: catalog.zero_mult_ring([2]),
}


def named_ring(name: str) -> FinRing:
    if name not in _RING_BUILDERS:
        raise BadParams(f"unknown coefficient ring {name!r}; "
                        f"choose from {sorted(_RING_BUILDERS)}")
    return _RING_BUILDERS[name]()


def _int(params, key, default):
    value = params.pop(key, default)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise BadParams(f"parameter {key} must be an integer, got {value!r}")


def _add_gpa(inst: InstanceFile, kname: str, K: FinRing, gname: str,
             G: FinGroupoid, gpa: GroupoidPartialAction):
    inst.add("ring", kname, K)
    if gpa.ring is not K:
        inst.add("ring", f"{kname}_amb", gpa.ring)
    inst.add("groupoid", gname, G)
    inst.add("gpa", "groupoid_ring", gpa)


def _matrix_groupoid_scenario(params) -> InstanceFile:
    n = _int(params, "n", 2)
    kname = params.pop("K", "F2")
    if n < 1 or n > 3:
        raise BadParams("matrix-groupoid supports n between 1 and 3")
    K = named_ring(kname)
    G = matrix_groupoid(range(1, n + 1))
    inst = InstanceFile()
    _add_gpa(inst, kname, K, f"matrix{n}", G, groupoid_ring_action(K, G))
    return inst


def _group_as_groupoid_scenario(params) -> InstanceFile:
    group = params.pop("group", "C2")
    kname = params.pop("K", "F2")
    if not (group.startswith("C") and group[1:].isdigit()):
        raise BadParams(f"unknown group {group!r}; use C2, C3, ...")
    n = int(group[1:])
    if not 1 <= n <= 6:
        raise BadParams("group order must be between 1 and 6")
    K = named_ring(kname)
    G = cyclic_groupoid(n)
    inst = InstanceFile()
    _add_gpa(inst, kname, K, f"loop_{group}", G, groupoid_ring_action(K, G))
    return inst


def _disconnected_scenario(params) -> InstanceFile:
    n = _int(params, "n", 2)
    kname = params.pop("K", "F2")
    if not 2 <= n <= 3:
        raise BadParams("disconnected supports n = 2 or 3")
    G = matrix_groupoid([1])
    for i in range(n - 1):
        G = disjoint_union(G, matrix_groupoid([1]), tag1=f"c{i}", tag2=f"c{i + 1}")
    K = named_ring(kname)
    inst = InstanceFile()
    _add_gpa(inst, kname, K, f"discrete{n}", G, groupoid_ring_action(K, G))
    return inst


def _pair_steinberg_scenario(params) -> InstanceFile:
    n = _int(params, "n", 2)
    kname = params.pop("K", "F2")
    if not 1 <= n <= 3:
        raise BadParams("pair-steinberg supports n between 1 and 3")
    inst = InstanceFile()
    inst.add("ring", kname, named_ring(kname))
    inst.add("groupoid", f"pair{n}", matrix_groupoid(range(1, n + 1)))
    return inst


@dataclass
class GaloisScenario:
    """A finite field with its full automorphism group acting globally."""
    p: int
    n: int
    field: FinRing
    action: GroupoidPartialAction

    def frobenius_order(self) -> int:
        frob = catalog.frobenius_map(self.field, self.p)
        power, order = frob, 1
        ident = {x: x for x in self.field.elements()}
        while power != ident:
            power = {x: frob[power[x]] for x in power}
            order += 1
        return order


def build_galois(p: int, n: int) -> GaloisScenario:
    if p ** n > 64:
        raise BadParams("field size p^n must be at most 64")
    try:
        field = catalog.galois_field(p, n)
    except Exception as exc:
        raise BadParams(str(exc))
    G = cyclic_groupoid(n)
    frob = catalog.frobenius_map(field, p)
    whole = subgroup_closure(field, field.basis())
    power = {x: x for x in field.elements()}
    ideals, maps = {}, {}
    for i in range(n):
        ideals[f"g{i}"] = whole
        maps[f"g{i}"] = dict(power)
        power = {x: frob[power[x]] for x in power}
    gpa = validate_groupoid_partial_action(field, G, ideals, maps)
    scenario = GaloisScenario(p, n, field, gpa)
    if scenario.frobenius_order() != n:
        raise BadParams(f"the {p}-power map has order {scenario.frobenius_order()}, "
                        f"not {n}; the stored polynomial is wrong")
    if not gpa.is_global:
        raise BadParams("field automorphism data must give a global action")
    if n > 1:
        from ..paction import induced_action, is_faithful
        if not is_faithful(induced_action(gpa))[0]:
            raise BadParams("a nontrivial automorphism group must act faithfully")
    return scenario


def _galois_scenario(params) -> InstanceFile:
    p = _int(params, "p", 2)
    n = _int(params, "n", 2)
    sc = build_galois(p, n)
    inst = InstanceFile()
    inst.add("ring", f"F{p ** n}", sc.field)
    inst.add("groupoid", "galois_group", sc.action.groupoid)
    inst.add("gpa", "frobenius", sc.action)
    return inst


def _sim_scenario(params) -> InstanceFile:
    n = _int(params, "n", 2)
    if not 1 <= n <= 3:
        raise BadParams("symmetric-inverse-monoid supports n between 1 and 3")
    inst = InstanceFile()
    inst.add("semigroup", f"partial_injections_{n}", symmetric_inverse_monoid(n))
    return inst


SCENARIOS = {
    "matrix-groupoid": _matrix_groupoid_scenario,
    "group-as-groupoid": _group_as_groupoid_scenario,
    "disconnected": _disconnected_scenario,
    "pair-steinberg": _pair_steinberg_scenario,
    "galois-field": _galois_scenario,
    "symmetric-inverse-monoid": _sim_scenario,
}


def scenario(name: str, **params) -> InstanceFile:
    """Build a named scenario; unknown names or parameters raise BadParams."""
    if name not in SCENARIOS:
        raise BadParams(f"unknown scenario {name!r}; "
                        f"choose from {sorted(SCENARIOS)}")
    params = dict(params)
    inst = SCENARIOS[name](params)
    if params:
        raise BadParams(f"unknown parameters {sorted(params)} for scenario {name}")
    return inst
