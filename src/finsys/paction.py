"""Partial actions of inverse semigroups and of groupoids on finite rings.

A partial action is a family of two-sided ideals D_s with ring isomorphisms
pi_s: D_{s*} -> D_s, subject to: the D_s sum to the ring, pi_s(D_{s*} cap D_t)
= D_s cap D_st, and pi_s pi_t = pi_st where both sides are defined.  Maps are
stored as full element tables and the axioms are checked by direct scan.
Each map is checked to be a ring homomorphism on (element, generator) pairs
and generator pairs, which is complete by biadditivity, as in quotient_ring.
"""

from __future__ import annotations

import itertools

from .finring import (
    FinRing,
    Ideal,
    MalformedSpec,
    Subgroup,
    _absorption_escape,
    _hom_escape,
    ideal_closure,
    ring_on_subgroup,
    subgroup_closure,
    unitality_predicates,
)
from .invsgrp import FinGroupoid, InternalInconsistency, InverseSemigroup, induced_semigroup
from .syscheck import fmt


class NotIdeal(Exception):
    pass


class NotIso(Exception):
    pass


class AxiomI(Exception):
    pass


class AxiomII(Exception):
    pass


class AxiomIII(Exception):
    pass


class PartialAction:
    """Validated partial action of an inverse semigroup on a ring."""

    def __init__(self, ring: FinRing, sgrp: InverseSemigroup, domains, maps,
                 groupoid: FinGroupoid | None = None):
        self.ring = ring
        self.sgrp = sgrp
        self.domains = dict(domains)     # s -> Ideal
        self.maps = dict(maps)           # s -> {element of D_{s*}: element of D_s}
        self.groupoid = groupoid         # set when induced from a groupoid action
        self._unitality: dict | None = None  # action_unitality, once computed

    def apply(self, s, x):
        return self.maps[s][x]

    def __repr__(self):
        return (f"PartialAction({self.ring.name} under "
                f"{len(self.sgrp)}-element semigroup)")


def identity_map(domain) -> dict:
    return {x: x for x in domain}


def _check_ideal(ring: FinRing, sub: Subgroup, label) -> Ideal:
    escape = _absorption_escape(ring, sub)
    if escape is not None:
        raise NotIdeal(f"domain of {fmt(label)} is not a two-sided ideal "
                       f"(fails at {escape[0]})")
    return Ideal(ring, sub.elements, sub.generators, "two-sided", trusted=True)


def validate_partial_action(A: FinRing, S: InverseSemigroup, domains,
                            maps, groupoid=None) -> PartialAction:
    """Exhaustively verify all partial-action axioms.

    Also verifies two consequences that must follow once the axioms hold:
    pi_e is the identity on D_e for idempotent e, and pi_{s*} inverts pi_s;
    their failure signals an internal inconsistency, not a bad instance.
    """
    if not A.is_associative:
        raise MalformedSpec("partial actions are defined over associative rings")
    doms = {}
    for s in S.elements:
        d = domains.get(s)
        if d is None:
            d = subgroup_closure(A, [])
        elif not isinstance(d, Subgroup):
            d = subgroup_closure(A, d)
        doms[s] = _check_ideal(A, d, s)

    tabs = {}
    for s in S.elements:
        table = maps.get(s)
        if table is None:
            table = identity_map(doms[S.star(s)])
        table = {A.group.reduce(x): A.group.reduce(y) for x, y in table.items()}
        src, dst = doms[S.star(s)], doms[s]
        if set(table) != set(src.elements):
            raise NotIso(f"map at {fmt(s)} is not defined on exactly D_s*",
                         s)
        if set(table.values()) != set(dst.elements):
            raise NotIso(f"map at {fmt(s)} is not a bijection onto D_s", s)
        escape = _hom_escape(A, A, table, src.small_gens())
        if escape is not None:
            raise NotIso(f"map at {fmt(s)} is not {escape[0]}", s, escape[1])
        tabs[s] = table

    span = subgroup_closure(A, [g for s in S.elements
                                for g in doms[s].small_gens()])
    if len(span) != A.order:
        raise AxiomI(f"domains span only {len(span)} of {A.order} elements")

    for s in S.elements:
        st = S.star(s)
        for t in S.elements:
            image = {tabs[s][x] for x in doms[st].elements & doms[t].elements}
            target = doms[s].elements & doms[S.mul(s, t)].elements
            if image != target:
                raise AxiomII(f"pi_{fmt(s)}(D_{fmt(st)} cap D_{fmt(t)}) != "
                              f"D_{fmt(s)} cap D_{fmt(S.mul(s, t))}")

    for s in S.elements:
        for t in S.elements:
            lhs_dom = doms[S.star(t)].elements & doms[S.star(S.mul(s, t))].elements
            for x in sorted(lhs_dom):
                y = tabs[t][x]
                if y not in doms[S.star(s)]:
                    raise AxiomIII(f"pi_{fmt(t)}({x}) leaves the domain of "
                                   f"pi_{fmt(s)}")
                if tabs[s][y] != tabs[S.mul(s, t)][x]:
                    raise AxiomIII(f"pi_{fmt(s)} pi_{fmt(t)} != pi_{fmt(S.mul(s, t))} "
                                   f"at {x}")

    for e in S.idempotents:
        for x in doms[e]:
            if tabs[e][x] != x:
                raise InternalInconsistency(
                    f"pi at idempotent {fmt(e)} moves {x} despite valid axioms")
    for s in S.elements:
        for x in doms[s]:
            if tabs[s][tabs[S.star(s)][x]] != x:
                raise InternalInconsistency(
                    f"pi_{fmt(s)} does not invert pi_{fmt(S.star(s))} at {x}")

    return PartialAction(A, S, doms, tabs, groupoid=groupoid)


# ---------------------------------------------------------------------------
# predicates on actions


def action_unitality(pi: PartialAction) -> dict:
    """Ring unitality and idempotency of every domain, aggregated over the
    family; computed once per action."""
    if pi._unitality is None:
        out = {"unital": True, "locally_unital": True, "left_s_unital": True,
               "right_s_unital": True, "s_unital": True, "idempotent_ring": True}
        for s in pi.sgrp.elements:
            flags = unitality_predicates(pi.ring, pi.domains[s])
            for key in out:
                out[key] = out[key] and flags[key]
        pi._unitality = out
    return pi._unitality


def _invariant_closure(A: FinRing, moves, a) -> Ideal:
    """Smallest ideal containing a that every (table, source) pair of
    ``moves`` carries into itself, the table applied on its source ideal."""
    current = ideal_closure(A, [A.group.reduce(a)])
    while True:
        extra = [table[x] for table, src in moves
                 for x in current.elements & src.elements
                 if table[x] not in current]
        if not extra:
            return current
        current = ideal_closure(A, sorted(current.elements | set(extra)))


def s_invariant_closure(pi: PartialAction, a) -> Ideal:
    """Smallest ideal containing a that is carried into itself by every pi_s."""
    S = pi.sgrp
    moves = [(pi.maps[s], pi.domains[S.star(s)]) for s in S.elements]
    return _invariant_closure(pi.ring, moves, a)


def is_invariant_ideal(pi: PartialAction, J: Subgroup) -> bool:
    A = pi.ring
    if set(ideal_closure(A, J.small_gens()).elements) != set(J.elements):
        return False
    for s in pi.sgrp.elements:
        src = pi.domains[pi.sgrp.star(s)]
        if any(pi.maps[s][x] not in J for x in J.elements & src.elements):
            return False
    return True


def is_action_simple(pi: PartialAction):
    """(bool, witness): no invariant ideal other than 0 and the whole ring."""
    A = pi.ring
    if A.order == 1:
        return False, {"a": None}
    for a in A.elements():
        if a == A.zero:
            continue
        closure = s_invariant_closure(pi, a)
        if len(closure) < A.order:
            return False, {"a": a, "ideal_order": len(closure)}
    return True, None


def is_faithful(pi: PartialAction):
    """(bool, witness): no pi_s with s outside E(S) is the identity map.

    A zero domain makes pi_s the identity on {0}, which counts against
    faithfulness under this literal reading.
    """
    S = pi.sgrp
    for s in S.elements:
        if S.is_idempotent(s):
            continue
        src, dst = pi.domains[S.star(s)], pi.domains[s]
        if src.elements == dst.elements and \
                all(pi.maps[s][x] == x for x in src):
            return False, {"s": fmt(s)}
    return True, None


# ---------------------------------------------------------------------------
# groupoid partial actions


class GroupoidPartialAction:
    """Validated partial action of a finite groupoid on a ring.

    ``ideals`` assigns an ideal to every morphism; the per-object ideals are
    the ones at the identity morphisms.
    """

    def __init__(self, ring: FinRing, groupoid: FinGroupoid, ideals, maps,
                 is_global: bool):
        self.ring = ring
        self.groupoid = groupoid
        self.ideals = dict(ideals)
        self.maps = dict(maps)
        self.is_global = is_global

    def object_ideal(self, u) -> Ideal:
        return self.ideals[self.groupoid.identity[u]]

    def __repr__(self):
        return f"GroupoidPartialAction({self.ring.name} under {self.groupoid!r})"


def validate_groupoid_partial_action(A: FinRing, G: FinGroupoid, ideals,
                                     maps) -> GroupoidPartialAction:
    if not A.is_associative:
        raise MalformedSpec("groupoid actions are defined over associative rings")
    ids = {}
    for g in G.morphisms:
        d = ideals.get(g)
        if d is None and g in {G.identity[u] for u in G.objects}:
            raise NotIdeal(f"object ideal at {fmt(g)} is required")
        if d is None:
            d = ideals.get(G.identity[G.cmap[g]])
        if not isinstance(d, Subgroup):
            d = subgroup_closure(A, d)
        ids[g] = _check_ideal(A, d, g)
    # A_g must sit inside A_{c(g)} and absorb products from it
    for g in G.morphisms:
        outer = ids[G.identity[G.cmap[g]]]
        if not ids[g].elements <= outer.elements:
            raise NotIdeal(f"ideal at {fmt(g)} is not inside the ideal at its codomain")

    tabs = {}
    for g in G.morphisms:
        table = maps.get(g)
        if table is None:
            table = identity_map(ids[G.inverse[g]])
        table = {A.group.reduce(x): A.group.reduce(y) for x, y in table.items()}
        src, dst = ids[G.inverse[g]], ids[g]
        if set(table) != set(src.elements) or set(table.values()) != set(dst.elements):
            raise NotIso(f"map at {fmt(g)} is not a bijection D_(g^-1) -> D_g", g)
        escape = _hom_escape(A, A, table, src.small_gens())
        if escape is not None:
            raise NotIso(f"map at {fmt(g)} is not a ring isomorphism", g, escape[1])
        tabs[g] = table

    span = subgroup_closure(A, [x for u in G.objects
                                for x in ids[G.identity[u]].small_gens()])
    if len(span) != A.order:
        raise AxiomI(f"object ideals span only {len(span)} of {A.order} elements")

    for u in G.objects:
        e = G.identity[u]
        if any(tabs[e][x] != x for x in ids[e]):
            raise AxiomII(f"map at identity {fmt(e)} is not the identity")

    inv = G.inverse
    for g in G.morphisms:
        for h in G.morphisms:
            if not G.composable(g, h):
                continue
            gh = G.compose(g, h)
            pre = {x for x in ids[h].elements & ids[inv[g]].elements}
            dom = {x for x in ids[inv[h]] if tabs[h][x] in pre}
            for x in sorted(dom):
                if x not in ids[inv[gh]]:
                    raise AxiomII(
                        f"alpha_{fmt(h)}^-1(A_{fmt(inv[g])} cap A_{fmt(h)}) "
                        f"escapes A_{fmt(inv[gh])} at {x}")
                if tabs[g][tabs[h][x]] != tabs[gh][x]:
                    raise AxiomIII(
                        f"alpha_{fmt(g)} alpha_{fmt(h)} != alpha_{fmt(gh)} at {x}")

    is_global = all(ids[g].elements == ids[G.identity[G.cmap[g]]].elements
                    for g in G.morphisms)
    if is_global:
        for g in G.morphisms:
            for h in G.morphisms:
                if not G.composable(g, h):
                    continue
                gh = G.compose(g, h)
                if any(tabs[g][tabs[h][x]] != tabs[gh][x] for x in ids[inv[gh]]):
                    is_global = False
                    break
            if not is_global:
                break
    return GroupoidPartialAction(A, G, ids, tabs, is_global)


def induced_action(gpa: GroupoidPartialAction) -> PartialAction:
    """The partial action of the induced semigroup; the adjoined zero acts on
    the zero ideal."""
    S = induced_semigroup(gpa.groupoid)
    zero = S.zero()
    domains = {zero: subgroup_closure(gpa.ring, [])}
    maps = {zero: {gpa.ring.zero: gpa.ring.zero}}
    for g in gpa.groupoid.morphisms:
        domains[g] = gpa.ideals[g]
        maps[g] = gpa.maps[g]
    return validate_partial_action(gpa.ring, S, domains, maps,
                                   groupoid=gpa.groupoid)


def is_groupoid_simple(gpa: GroupoidPartialAction):
    """(bool, witness) for simplicity under groupoid invariance, closing
    under the groupoid's own maps rather than the induced action's."""
    A = gpa.ring
    inv = gpa.groupoid.inverse
    if A.order == 1:
        return False, {"a": None}
    moves = [(gpa.maps[g], gpa.ideals[inv[g]]) for g in gpa.groupoid.morphisms]
    for a in A.elements():
        if a == A.zero:
            continue
        current = _invariant_closure(A, moves, a)
        if len(current) < A.order:
            return False, {"a": a, "ideal_order": len(current)}
    return True, None


# ---------------------------------------------------------------------------
# constructions


def global_group_action(A: FinRing, S: InverseSemigroup, tables) -> PartialAction:
    """Global action: every domain is the whole ring; S must be a group."""
    if len(S.idempotents) != 1:
        raise MalformedSpec("global actions here are indexed by groups")
    whole = subgroup_closure(A, A.basis())
    domains = {s: whole for s in S.elements}
    return validate_partial_action(A, S, domains, tables)


def groupoid_ring_action(B: FinRing, G: FinGroupoid) -> GroupoidPartialAction:
    """Groupoid-ring data: one coordinate copy of B per object, every A_g the
    full copy at c(g), and alpha_g transporting the copy at d(g) identically.

    The skew groupoid ring of this action is the groupoid ring of G over B.
    The copies must be separate coordinates (not one shared subset): the
    induced semigroup action assigns the zero ideal to the adjoined zero, so
    ideals at distinct objects have to intersect trivially.
    """
    from .catalog import product_ring

    objs = list(G.objects)
    n = len(objs)
    kk = len(B.ranks)
    A = product_ring(*([B] * n), name=f"{B.name}^{n}") if n > 1 else B
    pos = {u: i for i, u in enumerate(objs)}

    def block(u, bvec):
        v = [0] * (n * kk)
        for t, c in enumerate(bvec):
            v[pos[u] * kk + t] = c
        return tuple(v)

    ideals, maps = {}, {}
    for g in G.morphisms:
        src_u, dst_u = G.dmap[g], G.cmap[g]
        ideals[g] = subgroup_closure(A, [block(dst_u, b) for b in B.basis()])
        maps[g] = {block(src_u, bvec): block(dst_u, bvec)
                   for bvec in itertools.product(*(range(d) for d in B.ranks))}
    return validate_groupoid_partial_action(A, G, ideals, maps)


def restrict_action_to_ideal(pi: PartialAction, B: Subgroup) -> PartialAction:
    """Restrict a partial action to an ideal B of the ring.

    The new carrier ring is B itself; the domain at s becomes
    B cap pi_s(B cap D_{s*}), which keeps all axioms valid.
    """
    A = pi.ring
    B = _check_ideal(A, B, "restriction")
    ring, enc, dec = ring_on_subgroup(B, name=f"{A.name}|restrict")
    new_dom = {}
    for s in pi.sgrp.elements:
        src = pi.domains[pi.sgrp.star(s)]
        image = {pi.maps[s][x] for x in B.elements & src.elements}
        new_dom[s] = B.elements & image
    domains, maps = {}, {}
    for s in pi.sgrp.elements:
        domains[s] = subgroup_closure(ring, [enc(x) for x in new_dom[s]])
        maps[s] = {enc(x): enc(pi.maps[s][x])
                   for x in sorted(new_dom[pi.sgrp.star(s)])}
    return validate_partial_action(ring, pi.sgrp, domains, maps)
