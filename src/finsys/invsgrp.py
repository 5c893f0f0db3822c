"""Finite inverse semigroups and finite discrete groupoids.

Semigroups are Cayley tables over hashable labels; the star map is found by
the unique-inverse axiom.  Groupoids are small categories with explicit
domain/codomain maps and a composition table defined exactly on composable
pairs.  Both validate all axioms exhaustively on construction.
"""

from __future__ import annotations

import itertools

from .finring import CapExceeded


class NotAssociative(Exception):
    pass


class NoInverse(Exception):
    pass


class NonUniqueInverse(Exception):
    pass


class GroupoidError(Exception):
    pass


class InternalInconsistency(Exception):
    """A cross-check between two facts that must agree has failed."""


class InverseSemigroup:
    """Inverse semigroup: each s has a unique t with sts = s and tst = t."""

    def __init__(self, elements, table, star, idempotents):
        self.elements = tuple(elements)
        self._table = table
        self._star = star
        self.idempotents = tuple(idempotents)

    def mul(self, a, b):
        return self._table[(a, b)]

    def star(self, a):
        return self._star[a]

    def is_idempotent(self, e) -> bool:
        return self.mul(e, e) == e

    def leq(self, s, t) -> bool:
        """Natural partial order: s <= t iff s = t s* s."""
        return s == self.mul(self.mul(t, self.star(s)), s)

    def zero(self):
        """The absorbing element, if the semigroup has one."""
        for z in self.elements:
            if all(self.mul(z, s) == z and self.mul(s, z) == z
                   for s in self.elements):
                return z
        return None

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"InverseSemigroup({len(self.elements)} elements)"


def validate_inverse_semigroup(table, labels) -> InverseSemigroup:
    """Check associativity and the unique-inverse axiom; compute the star map.

    ``table`` is either a mapping (a, b) -> c or a list of rows aligned with
    ``labels``.
    """
    labels = tuple(labels)
    if not isinstance(table, dict):
        table = {(a, b): table[i][j]
                 for i, a in enumerate(labels) for j, b in enumerate(labels)}
    for a in labels:
        for b in labels:
            if (a, b) not in table:
                raise NotAssociative(f"table is not total: missing ({a}, {b})")
            if table[(a, b)] not in set(labels):
                raise NotAssociative(f"product {a}*{b} = {table[(a, b)]} is not an element")

    def mul(a, b):
        return table[(a, b)]

    for a in labels:
        for b in labels:
            ab = mul(a, b)
            for c in labels:
                if mul(ab, c) != mul(a, mul(b, c)):
                    raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")

    star = {}
    for s in labels:
        candidates = [t for t in labels
                      if mul(mul(s, t), s) == s and mul(mul(t, s), t) == t]
        if not candidates:
            raise NoInverse(f"no inverse for {s}")
        if len(candidates) > 1:
            raise NonUniqueInverse(f"{s} has inverses {candidates}")
        star[s] = candidates[0]

    for s in labels:
        if star[star[s]] != s:
            raise InternalInconsistency(f"(s*)* != s at {s}")
        for t in labels:
            if star[mul(s, t)] != mul(star[t], star[s]):
                raise InternalInconsistency(f"(st)* != t*s* at {s},{t}")

    idems = tuple(e for e in labels if mul(e, e) == e)
    for e in idems:
        if star[e] != e:
            raise InternalInconsistency(f"idempotent {e} with e* != e")
    return InverseSemigroup(labels, dict(table), star, idems)


def cyclic_group(n: int) -> InverseSemigroup:
    """The cyclic group of order n as an inverse semigroup, labels g0..g{n-1}."""
    labels = [f"g{i}" for i in range(n)]
    table = {(f"g{i}", f"g{j}"): f"g{(i + j) % n}"
             for i in range(n) for j in range(n)}
    return validate_inverse_semigroup(table, labels)


def symmetric_inverse_monoid(n: int) -> InverseSemigroup:
    """All partial injections on {1..n} under composition (apply right first).

    Elements are labelled by their graphs as sorted tuples of (x, f(x)) pairs.
    """
    points = range(1, n + 1)
    maps = []
    for k in range(n + 1):
        for dom in itertools.combinations(points, k):
            for image in itertools.permutations(points, k):
                maps.append(tuple(sorted(zip(dom, image))))
    table = {}
    for f in maps:
        fd = dict(f)
        for g in maps:
            gd = dict(g)
            comp = tuple(sorted((x, fd[gd[x]]) for x in gd if gd[x] in fd))
            table[(f, g)] = comp
    return validate_inverse_semigroup(table, maps)


# ---------------------------------------------------------------------------
# groupoids


class FinGroupoid:
    """Finite discrete groupoid: objects, morphisms, and a partial composition
    defined exactly on pairs (g, h) with d(g) = c(h)."""

    def __init__(self, objects, morphisms, dmap, cmap, compose, identity,
                 inverse):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.dmap = dict(dmap)
        self.cmap = dict(cmap)
        self._compose = dict(compose)
        self.identity = dict(identity)   # object -> identity morphism
        self.inverse = dict(inverse)     # morphism -> inverse morphism

    def composable(self, g, h) -> bool:
        return self.dmap[g] == self.cmap[h]

    def compose(self, g, h):
        return self._compose[(g, h)]

    def iso_part(self):
        """Morphisms with equal domain and codomain."""
        return [g for g in self.morphisms if self.dmap[g] == self.cmap[g]]

    def __repr__(self):
        return f"FinGroupoid({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


def validate_groupoid(objects, morphisms, dmap, cmap, compose) -> FinGroupoid:
    """Validate an explicitly tabulated groupoid and derive identities/inverses."""
    objects = tuple(objects)
    morphisms = tuple(morphisms)
    if len(set(objects)) != len(objects) or len(set(morphisms)) != len(morphisms):
        raise GroupoidError("duplicate object or morphism labels")
    for g in morphisms:
        if dmap[g] not in objects or cmap[g] not in objects:
            raise GroupoidError(f"morphism {g} has endpoints outside the object set")
    for g in morphisms:
        for h in morphisms:
            defined = (g, h) in compose
            should = dmap[g] == cmap[h]
            if defined != should:
                raise GroupoidError(
                    f"composition must be defined exactly on composable pairs; "
                    f"pair ({g}, {h}) is {'extra' if defined else 'missing'}")
            if defined:
                k = compose[(g, h)]
                if k not in set(morphisms):
                    raise GroupoidError(f"{g}{h} = {k} is not a morphism")
                if cmap[k] != cmap[g] or dmap[k] != dmap[h]:
                    raise GroupoidError(f"endpoints of {g}{h} are wrong")
    for g in morphisms:
        for h in morphisms:
            if dmap[g] != cmap[h]:
                continue
            gh = compose[(g, h)]
            for k in morphisms:
                if dmap[h] != cmap[k]:
                    continue
                if compose[(gh, k)] != compose[(g, compose[(h, k)])]:
                    raise GroupoidError(f"composition not associative at ({g},{h},{k})")

    identity = {}
    for u in objects:
        cands = [e for e in morphisms
                 if dmap[e] == cmap[e] == u
                 and all(compose[(e, g)] == g for g in morphisms if cmap[g] == u)
                 and all(compose[(g, e)] == g for g in morphisms if dmap[g] == u)]
        if len(cands) != 1:
            raise GroupoidError(f"object {u} has {len(cands)} identity morphisms")
        identity[u] = cands[0]

    inverse = {}
    for g in morphisms:
        cands = [h for h in morphisms
                 if dmap[h] == cmap[g] and cmap[h] == dmap[g]
                 and compose[(g, h)] == identity[cmap[g]]
                 and compose[(h, g)] == identity[dmap[g]]]
        if len(cands) != 1:
            raise GroupoidError(f"morphism {g} has {len(cands)} inverses")
        inverse[g] = cands[0]

    return FinGroupoid(objects, morphisms, dmap, cmap, compose, identity, inverse)


def matrix_groupoid(labels) -> FinGroupoid:
    """Objects ``labels``, exactly one morphism (i, j): j -> i per ordered pair."""
    labels = tuple(labels)
    if not labels:
        raise GroupoidError("matrix groupoid needs a nonempty object set")
    morphisms = [(i, j) for i in labels for j in labels]
    dmap = {(i, j): j for (i, j) in morphisms}
    cmap = {(i, j): i for (i, j) in morphisms}
    compose = {((i, j), (j2, k)): (i, k)
               for (i, j) in morphisms for (j2, k) in morphisms if j == j2}
    return validate_groupoid(labels, morphisms, dmap, cmap, compose)


def group_as_groupoid(labels, table, unit) -> FinGroupoid:
    """A group presented as a one-object groupoid."""
    dmap = {g: "*" for g in labels}
    cmap = dict(dmap)
    compose = {(g, h): table[(g, h)] for g in labels for h in labels}
    G = validate_groupoid(["*"], labels, dmap, cmap, compose)
    if G.identity["*"] != unit:
        raise GroupoidError("declared unit is not the identity morphism")
    return G


def cyclic_groupoid(n: int) -> FinGroupoid:
    """The cyclic group of order n as a one-object groupoid, labels g0..g{n-1}."""
    C = cyclic_group(n)
    return group_as_groupoid(C.elements, {(a, b): C.mul(a, b)
                                          for a in C.elements
                                          for b in C.elements}, "g0")


def disjoint_union(G1: FinGroupoid, G2: FinGroupoid,
                   tag1="a", tag2="b") -> FinGroupoid:
    """Disjoint union of two groupoids, labels tagged to avoid clashes."""
    objects = [(tag1, u) for u in G1.objects] + [(tag2, u) for u in G2.objects]
    morphisms = [(tag1, g) for g in G1.morphisms] + [(tag2, g) for g in G2.morphisms]
    dmap, cmap, compose = {}, {}, {}
    for tag, G in ((tag1, G1), (tag2, G2)):
        for g in G.morphisms:
            dmap[(tag, g)] = (tag, G.dmap[g])
            cmap[(tag, g)] = (tag, G.cmap[g])
        for (g, h), k in G._compose.items():
            compose[((tag, g), (tag, h))] = (tag, k)
    return validate_groupoid(objects, morphisms, dmap, cmap, compose)


def product_groupoid(G1: FinGroupoid, G2: FinGroupoid) -> FinGroupoid:
    """Componentwise product; pairs compose exactly when both coordinates do.

    Crossing a full groupoid with a one-object group gives connected,
    non-thin instances with several objects (isotropy bundles).
    """
    objects = [(u, v) for u in G1.objects for v in G2.objects]
    morphisms = [(g, h) for g in G1.morphisms for h in G2.morphisms]
    dmap = {(g, h): (G1.dmap[g], G2.dmap[h]) for g, h in morphisms}
    cmap = {(g, h): (G1.cmap[g], G2.cmap[h]) for g, h in morphisms}
    compose = {}
    for g, h in morphisms:
        for g2, h2 in morphisms:
            if G1.dmap[g] == G1.cmap[g2] and G2.dmap[h] == G2.cmap[h2]:
                compose[((g, h), (g2, h2))] = (G1.compose(g, g2),
                                               G2.compose(h, h2))
    return validate_groupoid(objects, morphisms, dmap, cmap, compose)


def induced_semigroup(G: FinGroupoid) -> InverseSemigroup:
    """Morphisms of G plus a fresh absorbing element; undefined compositions
    collapse to it."""
    zero = "o"
    while zero in set(G.morphisms):
        zero += "'"
    labels = tuple(G.morphisms) + (zero,)
    table = {}
    for a in labels:
        for b in labels:
            if a == zero or b == zero:
                table[(a, b)] = zero
            elif G.composable(a, b):
                table[(a, b)] = G.compose(a, b)
            else:
                table[(a, b)] = zero
    return validate_inverse_semigroup(table, labels)


def groupoid_predicates(G: FinGroupoid) -> dict:
    """Connectivity, thinness, effectiveness, minimality and matrix recognition.

    In the discrete case minimality must coincide with connectivity and
    effectiveness with thinness; both are computed independently here and an
    InternalInconsistency is raised if they ever disagree.
    """
    hom_count = {}
    for g in G.morphisms:
        key = (G.dmap[g], G.cmap[g])
        hom_count[key] = hom_count.get(key, 0) + 1
    pairs = [(u, v) for u in G.objects for v in G.objects]
    connected = all(hom_count.get((u, v), 0) >= 1 for u, v in pairs)
    thin = all(hom_count.get((u, v), 0) <= 1 for u, v in pairs)

    effective = set(G.iso_part()) == {G.identity[u] for u in G.objects}

    objset = set(G.objects)
    minimal = True
    for r in range(len(G.objects) + 1):
        for combo in itertools.combinations(G.objects, r):
            U = set(combo)
            preimage = [g for g in G.morphisms if G.cmap[g] in U]
            if {G.dmap[g] for g in preimage} == U and U not in (set(), objset):
                minimal = False
                break
        if not minimal:
            break

    if minimal != connected:
        raise InternalInconsistency(
            "minimality by invariant-subset enumeration disagrees with connectivity")
    if effective != thin:
        raise InternalInconsistency(
            "effectiveness via the isotropy subgroupoid disagrees with thinness")
    return {
        "connected": connected,
        "thin": thin,
        "effective_discrete": effective,
        "minimal_discrete": minimal,
        "is_matrix": connected and thin,
    }


# ---------------------------------------------------------------------------
# bisections


def is_bisection(G: FinGroupoid, subset) -> bool:
    """d and c must both be injective on the subset."""
    subset = list(subset)
    return (len({G.dmap[g] for g in subset}) == len(subset)
            and len({G.cmap[g] for g in subset}) == len(subset))


def all_bisections(G: FinGroupoid, cap: int = 12) -> list[frozenset]:
    if len(G.morphisms) > cap:
        raise CapExceeded(
            f"{len(G.morphisms)} morphisms exceeds the bisection cap {cap}")
    out = []
    for r in range(len(G.morphisms) + 1):
        for combo in itertools.combinations(G.morphisms, r):
            if is_bisection(G, combo):
                out.append(frozenset(combo))
    return out


def bisection_product(G: FinGroupoid, U, V) -> frozenset:
    return frozenset(G.compose(g, h) for g in U for h in V if G.composable(g, h))


def bisection_semigroup(G: FinGroupoid, cap: int = 12) -> InverseSemigroup:
    """All bisections under setwise composition; star is setwise inversion.

    The result is validated as an inverse semigroup, its idempotents are
    checked to be exactly the subsets of the identity morphisms, and the
    natural partial order is checked to be set inclusion.
    """
    bis = all_bisections(G, cap=cap)
    bset = set(bis)
    table = {}
    for U in bis:
        for V in bis:
            P = bisection_product(G, U, V)
            if P not in bset:
                raise InternalInconsistency(
                    f"product of bisections {sorted(U)} and {sorted(V)} is not a bisection")
            table[(U, V)] = P
    S = validate_inverse_semigroup(table, bis)
    units = {G.identity[u] for u in G.objects}
    expected_idems = {U for U in bis if U <= units}
    if set(S.idempotents) != expected_idems:
        raise InternalInconsistency("idempotent bisections are not the unit subsets")
    for U in bis:
        if S.star(U) != frozenset(G.inverse[g] for g in U):
            raise InternalInconsistency("star on bisections is not setwise inversion")
        for V in bis:
            if S.leq(U, V) != (U <= V):
                raise InternalInconsistency("bisection order is not set inclusion")
    return S
