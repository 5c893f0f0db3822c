"""Seeded random instance generation.

Instances are valid by construction, never by rejection: bisection actions of
small groupoids on function rings, automorphism-group actions on products of
finite fields, and restrictions of the latter to coordinate ideals.  All
coefficient rings are commutative and unital, so every generated action is
s-unital and the commutative biconditionals apply.
"""

from __future__ import annotations

import random
import warnings

from .. import catalog
from ..invsgrp import (
    cyclic_groupoid,
    disjoint_union,
    matrix_groupoid,
    validate_inverse_semigroup,
)
from ..paction import global_group_action, restrict_action_to_ideal
from ..steinberg import ga_partial_action
from ..finring import subgroup_closure
from .files import InstanceFile

MAX_LPI_DEFAULT = 1024
MAX_RING_DEFAULT = 64


def _groupoid_shapes():
    # (name, groupoid builder, sum over bisections of |c(U)|)
    return [
        ("trivial", lambda: matrix_groupoid([1]), 1),
        ("loop_c2", lambda: cyclic_groupoid(2), 2),
        ("loop_c3", lambda: cyclic_groupoid(3), 3),
        ("disc2", lambda: disjoint_union(matrix_groupoid([1]),
                                         matrix_groupoid([1])), 4),
        ("pair2_pt", lambda: disjoint_union(matrix_groupoid([1, 2]),
                                            matrix_groupoid([1])), 23),
        ("pair2", lambda: matrix_groupoid([1, 2]), 8),
    ]


_FIELD_POOL = ["F2", "F3", "F4", "F2xF2", "Z4"]

_FACTOR_POOL = [("F2", 2, 1), ("F3", 3, 1), ("F4", 2, 2), ("F9", 3, 2),
                ("F5", 5, 1)]


def _named_ring(name):
    from .scenarios import named_ring
    return named_ring(name)


def _ga_instance(rng: random.Random, max_lpi: int) -> InstanceFile | None:
    options = []
    for name, build, weight in _groupoid_shapes():
        for kname in _FIELD_POOL:
            K = _named_ring(kname)
            if K.order ** weight <= max_lpi:
                options.append((name, build, kname))
    if not options:
        return None
    name, build, kname = rng.choice(options)
    K = _named_ring(kname)
    G = build()
    pi, _space = ga_partial_action(K, G)
    return _wrap(pi)


def _fingerprint(table):
    return tuple(sorted(table.items()))


def _automorphism_pool(factors):
    """Generators of the automorphism group of a product of finite fields:
    one Frobenius per factor and one swap per pair of equal factors."""
    rings = [_named_ring(name) for name, _, _ in factors]
    A = catalog.product_ring(*rings) if len(rings) > 1 else rings[0]
    widths = [len(R.ranks) for R in rings]
    offsets = []
    at = 0
    for w in widths:
        offsets.append(at)
        at += w

    def assemble(parts):
        out = []
        for part in parts:
            out.extend(part)
        return tuple(out)

    def split(x):
        return [tuple(x[offsets[i]:offsets[i] + widths[i]])
                for i in range(len(rings))]

    pool = []
    for i, (name, p, deg) in enumerate(factors):
        if deg > 1:
            frob = catalog.frobenius_map(rings[i], p)
            table = {}
            for x in A.elements():
                parts = split(x)
                parts[i] = frob[parts[i]]
                table[x] = assemble(parts)
            pool.append(table)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if factors[i][0] != factors[j][0]:
                continue
            table = {}
            for x in A.elements():
                parts = split(x)
                parts[i], parts[j] = parts[j], parts[i]
                table[x] = assemble(parts)
            pool.append(table)
    return A, pool


def _close_group(gens, identity):
    elems = {_fingerprint(identity): identity}
    frontier = list(gens)
    for g in gens:
        elems.setdefault(_fingerprint(g), g)
    while frontier:
        nxt = []
        for f in frontier:
            for g in list(elems.values()):
                for comp in ({x: f[g[x]] for x in g}, {x: g[f[x]] for x in f}):
                    key = _fingerprint(comp)
                    if key not in elems:
                        elems[key] = comp
                        nxt.append(comp)
        if len(elems) > 24:
            return None
        frontier = nxt
    return [elems[key] for key in sorted(elems)]


def _build_global(rng: random.Random, max_ring: int, max_lpi: int):
    """A random automorphism-group action on a product of finite fields;
    also returns the coordinate blocks of the factors for restrictions."""
    n_factors = rng.choice([1, 2, 2, 3])
    factors = []
    order = 1
    for _ in range(n_factors):
        name, p, deg = rng.choice(_FACTOR_POOL)
        if order * p ** deg > max_ring:
            continue
        factors.append((name, p, deg))
        order *= p ** deg
    if not factors:
        factors = [("F2", 2, 1)]
    A, pool = _automorphism_pool(factors)
    identity = {x: x for x in A.elements()}
    gens = [rng.choice(pool)] if pool else []
    if pool and rng.random() < 0.5:
        gens.append(rng.choice(pool))
    group = _close_group(gens, identity)
    # every domain of a global action is the whole ring, so the block ring
    # has |A|^|group| elements; shed generators until that fits
    while group is None or A.order ** len(group) > max_lpi:
        if not gens:
            group = [identity]
            break
        gens = gens[:-1]
        group = _close_group(gens, identity)
    labels = [f"a{i}" for i in range(len(group))]
    lookup = {_fingerprint(g): lab for g, lab in zip(group, labels)}
    table = {}
    for g, la in zip(group, labels):
        for h, lb in zip(group, labels):
            comp = {x: g[h[x]] for x in h}
            table[(la, lb)] = lookup[_fingerprint(comp)]
    S = validate_inverse_semigroup(table, labels)
    pi = global_group_action(A, S, dict(zip(labels, group)))
    blocks = []
    at = 0
    for name, _, _ in factors:
        width = len(_named_ring(name).ranks)
        blocks.append((at, width))
        at += width
    return pi, blocks


def _wrap(pi) -> InstanceFile:
    inst = InstanceFile()
    inst.add("ring", "A", pi.ring)
    inst.add("semigroup", "S", pi.sgrp)
    inst.add("paction", "pi", pi)
    return inst


def _global_instance(rng: random.Random, max_ring: int,
                     max_lpi: int) -> InstanceFile:
    pi, _ = _build_global(rng, max_ring, max_lpi)
    return _wrap(pi)


def _restriction_instance(rng: random.Random, max_ring: int,
                          max_lpi: int) -> InstanceFile:
    pi, blocks = _build_global(rng, max_ring, max_lpi)
    if len(blocks) < 2:
        return _wrap(pi)
    # restrict to the ideal spanned by a proper nonempty subset of the factors
    A = pi.ring
    size = rng.randrange(1, len(blocks))
    picks = sorted(rng.sample(range(len(blocks)), size))
    gens = []
    basis = A.basis()
    for i in picks:
        start, width = blocks[i]
        gens.extend(basis[start:start + width])
    B = subgroup_closure(A, gens)
    return _wrap(restrict_action_to_ideal(pi, B))


def random_instances(seed: int, count: int, max_ring: int = MAX_RING_DEFAULT,
                     max_lpi: int = MAX_LPI_DEFAULT) -> list[InstanceFile]:
    """Deterministic for a fixed seed; bounds are clamped to the global caps
    with a warning.  Each instance's source tag is ``fuzz:SEED:IDX``, followed
    by ``:max_ring=N`` and ``:max_lpi=N`` for (clamped) bounds that differ from
    the defaults, so that ``fuzz_instance`` regenerates it."""
    from ..finring import DEFAULT_ORDER_CAP

    if max_lpi > DEFAULT_ORDER_CAP:
        warnings.warn(f"max_lpi {max_lpi} exceeds the order cap; "
                      f"clamping to {DEFAULT_ORDER_CAP}")
        max_lpi = DEFAULT_ORDER_CAP
    if max_ring > DEFAULT_ORDER_CAP:
        warnings.warn(f"max_ring {max_ring} exceeds the order cap; "
                      f"clamping to {DEFAULT_ORDER_CAP}")
        max_ring = DEFAULT_ORDER_CAP
    bounds = "".join(f":{key}={value}" for key, value, default in (
        ("max_ring", max_ring, MAX_RING_DEFAULT),
        ("max_lpi", max_lpi, MAX_LPI_DEFAULT)) if value != default)
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.random()
        if kind < 0.45:
            inst = _ga_instance(rng, max_lpi)
        elif kind < 0.8:
            inst = _global_instance(rng, max_ring, max_lpi)
        else:
            inst = _restriction_instance(rng, max_ring, max_lpi)
        if inst is not None:
            inst.source = f"fuzz:{seed}:{len(out)}{bounds}"
            out.append(inst)
    return out


def fuzz_instance(source: str) -> InstanceFile:
    """The instance a source tag of ``random_instances`` names; a malformed
    tag raises TypeError or ValueError."""
    _, seed, idx, *bounds = source.split(":")
    kwargs = {key: int(value) for key, value in (b.split("=") for b in bounds)}
    return random_instances(int(seed), int(idx) + 1, **kwargs)[int(idx)]
