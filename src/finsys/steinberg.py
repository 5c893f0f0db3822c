"""Convolution algebras of finite discrete groupoids.

For a finite discrete groupoid every function on the morphisms is compactly
supported and locally constant, so the convolution algebra is built on the
full function space and must coincide with the groupoid ring; both models are
constructed independently and compared.  The bisections act on functions on
the objects by transporting values along arrows, giving a partial action of
the bisection semigroup whose skew ring translates back and forth to the
convolution algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finring import (
    CapExceeded,
    FinRing,
    Subgroup,
    _hom_escape,
    centralizer,
    is_simple,
    proper_ideal_witness,
    subgroup_closure,
    unitality_predicates,
)
from .invsgrp import (
    FinGroupoid,
    InternalInconsistency,
    bisection_semigroup,
    groupoid_predicates,
)
from .paction import PartialAction, is_action_simple, is_faithful, validate_partial_action
from .skewconstruct import DEFAULT_SKEW_CAP, SkewRing, build_skew_ring
from .syscheck import SystemVerdict, fmt

DEFAULT_BISECTION_CAP = 12


class FunctionSpace:
    """K-valued functions on a finite label set, as one block per label."""

    def __init__(self, K: FinRing, labels, ring: FinRing):
        self.K = K
        self.labels = tuple(labels)
        self.ring = ring
        self._width = len(K.ranks)
        self._pos = {lab: i * self._width for i, lab in enumerate(self.labels)}

    def value(self, vec, label):
        p = self._pos[label]
        return tuple(vec[p:p + self._width])

    def vector(self, fn) -> tuple:
        """Assemble a ring element from a mapping label -> K element
        (missing labels are zero)."""
        vec = [0] * (self._width * len(self.labels))
        for lab, k in fn.items():
            p = self._pos[lab]
            vec[p:p + self._width] = self.K.group.reduce(k)
        return tuple(vec)

    def indicator(self, k, subset) -> tuple:
        return self.vector({lab: k for lab in subset})

    def support(self, vec):
        return [lab for lab in self.labels
                if self.value(vec, lab) != self.K.zero]


def _function_ranks(K: FinRing, n: int):
    return list(K.ranks) * n


def pointwise_function_ring(K: FinRing, labels, name: str,
                            cap: int = DEFAULT_SKEW_CAP) -> FunctionSpace:
    labels = tuple(labels)
    width = len(K.ranks)
    k = width * len(labels)
    sc = [[None] * k for _ in range(k)]
    zero = (0,) * k
    for a in range(len(labels)):
        for i in range(width):
            for b in range(len(labels)):
                for j in range(width):
                    if a != b:
                        sc[a * width + i][b * width + j] = zero
                    else:
                        v = [0] * k
                        prod = K.sc[i][j]
                        v[a * width:a * width + width] = prod
                        sc[a * width + i][b * width + j] = tuple(v)
    ring = FinRing(_function_ranks(K, len(labels)), sc, name=name, cap=cap)
    return FunctionSpace(K, labels, ring)


def steinberg_ring(K: FinRing, G: FinGroupoid,
                   cap: int = DEFAULT_SKEW_CAP) -> FunctionSpace:
    """Functions on the morphisms under convolution.

    The structure constants are computed by summing over genuine
    factorisations b c = a; independently the groupoid-ring model multiplies
    formal sums by (k g)(k' g') = (kk')(gg'), and the two tables must agree.
    """
    mors = tuple(G.morphisms)
    width = len(K.ranks)
    k = width * len(mors)
    pos = {g: i * width for i, g in enumerate(mors)}

    sc = [[None] * k for _ in range(k)]
    for g in mors:
        for i in range(width):
            for h in mors:
                for j in range(width):
                    # convolution of the basis functions supported on g and h
                    acc = [0] * k
                    for b in mors:
                        for c in mors:
                            if not G.composable(b, c):
                                continue
                            a = G.compose(b, c)
                            vb = (1 if b == g else 0)
                            vc = (1 if c == h else 0)
                            if vb and vc:
                                prod = K.sc[i][j]
                                for t, coeff in enumerate(prod):
                                    acc[pos[a] + t] += coeff
                    sc[pos[g] + i][pos[h] + j] = tuple(
                        x % d for x, d in zip(acc, _function_ranks(K, len(mors))))
    ring = FinRing(_function_ranks(K, len(mors)), sc, name=f"A_{K.name}({G!r})",
                   cap=cap)

    # groupoid-ring model on the same basis
    for g in mors:
        for i in range(width):
            for h in mors:
                for j in range(width):
                    if G.composable(g, h):
                        expect = [0] * k
                        expect[pos[G.compose(g, h)]:pos[G.compose(g, h)] + width] = \
                            K.sc[i][j]
                        expect = tuple(expect)
                    else:
                        expect = (0,) * k
                    if sc[pos[g] + i][pos[h] + j] != expect:
                        raise InternalInconsistency(
                            "convolution disagrees with the groupoid ring model")
    return FunctionSpace(K, mors, ring)


def indicator_law_witness(space: FunctionSpace, G: FinGroupoid,
                          bisections) -> dict | None:
    """First violation of indicator * indicator = (product)_(set product)."""
    K = space.K
    for U in bisections:
        for V in bisections:
            UV = frozenset(G.compose(g, h) for g in U for h in V
                           if G.composable(g, h))
            for x in K.elements():
                for y in K.elements():
                    lhs = space.ring.mul(space.indicator(x, U),
                                         space.indicator(y, V))
                    rhs = space.indicator(K.mul(x, y), UV)
                    if lhs != rhs:
                        return {"U": fmt(U), "V": fmt(V), "k": x, "l": y}
    return None


# ---------------------------------------------------------------------------
# the bisection action on functions on the objects


def theta(G: FinGroupoid, U) -> dict:
    """Transport of objects along the bisection: d(g) -> c(g) for g in U."""
    return {G.dmap[g]: G.cmap[g] for g in U}


def ga_partial_action(K: FinRing, G: FinGroupoid,
                      bisection_cap: int = DEFAULT_BISECTION_CAP,
                      cap: int = DEFAULT_SKEW_CAP):
    """Partial action of the bisection semigroup on functions on the objects.

    Returns (PartialAction, FunctionSpace).  The domain at U consists of the
    functions supported on c(U); the map at U substitutes through the object
    transport of the inverse bisection.
    """
    S = bisection_semigroup(G, cap=bisection_cap)
    space = pointwise_function_ring(K, G.objects, name=f"Fn({K.name})", cap=cap)
    A = space.ring

    domains = {}
    for U in S.elements:
        support = {G.cmap[g] for g in U}
        gens = [space.vector({u: b}) for u in support for b in K.basis()]
        domains[U] = subgroup_closure(A, gens)

    maps = {}
    for U in S.elements:
        star = S.star(U)
        move = theta(G, star)    # c(U) -> d(U)
        table = {}
        for x in domains[star].sorted_elements():
            fn = {}
            for obj in move:
                val = space.value(x, move[obj])
                if val != K.zero:
                    fn[obj] = val
            table[x] = space.vector(fn)
        maps[U] = table
    pi = validate_partial_action(A, S, domains, maps, groupoid=G)
    return pi, space


# ---------------------------------------------------------------------------
# translation between the skew ring and the convolution algebra


@dataclass
class TranslationPair:
    """Mutually inverse ring isomorphisms between the skew ring of the
    bisection action and the convolution algebra."""
    action: PartialAction
    skew: SkewRing
    functions: FunctionSpace     # convolution algebra on the morphisms
    objects: FunctionSpace       # pointwise algebra on the objects
    alpha: dict                  # skew element -> function vector
    beta: dict                   # function vector -> skew element


def greedy_bisection_split(space: FunctionSpace, G: FinGroupoid, vec):
    """Split a function into indicator summands on pairwise disjoint
    bisections, fibre by fibre: scan the support of each nonzero value and
    open a new bisection whenever injectivity of d or c would break."""
    K = space.K
    pieces = []
    values = {}
    for g in space.support(vec):
        values.setdefault(space.value(vec, g), []).append(g)
    for k in sorted(values):
        open_bis = []
        for g in values[k]:
            for bis in open_bis:
                if all(G.dmap[g] != G.dmap[h] and G.cmap[g] != G.cmap[h]
                       for h in bis):
                    bis.append(g)
                    break
            else:
                open_bis.append([g])
        pieces.extend((k, frozenset(b)) for b in open_bis)
    return pieces


def translation(pi: PartialAction, objects: FunctionSpace, skew: SkewRing,
                functions: FunctionSpace) -> TranslationPair:
    """Verify exhaustively that the skew ring of the bisection action ``pi``
    (as returned by ga_partial_action, with ``objects`` its function space)
    and the convolution algebra ``functions`` are inverse ring isomorphisms;
    also checks that the greedy and the singleton indicator decompositions
    give the same skew element.  The round trips are checked on every
    element, the homomorphism laws on (element, basis element) pairs and
    basis pairs, which is complete by biadditivity (see _hom_escape)."""
    K = objects.K
    G = pi.groupoid
    S = pi.sgrp
    lpi = skew.lpi

    def alpha_of_lpi(x):
        fn = {g: K.zero for g in G.morphisms}
        for U in S.elements:
            comp = lpi.component(x, U)
            if comp == objects.ring.zero:
                continue
            for g in U:
                fn[g] = K.group.add(fn[g], objects.value(comp, G.cmap[g]))
        return functions.vector(fn)

    for i in skew.relation_ideal:
        if alpha_of_lpi(i) != functions.ring.zero:
            raise InternalInconsistency(
                "translation to functions does not kill the relation ideal")
    alpha = {}
    for q in skew.ring.elements():
        alpha[q] = alpha_of_lpi(skew.quotient.lift(q))

    beta = {}
    for vec in functions.ring.elements():
        total = skew.ring.zero
        for k, bis in greedy_bisection_split(functions, G, vec):
            coeff = objects.indicator(k, {G.cmap[g] for g in bis})
            total = skew.ring.add(total, skew.project(lpi.embed(bis, coeff)))
        single = skew.ring.zero
        for g in functions.support(vec):
            k = functions.value(vec, g)
            coeff = objects.indicator(k, {G.cmap[g]})
            single = skew.ring.add(single,
                                   skew.project(lpi.embed(frozenset({g}), coeff)))
        if total != single:
            raise InternalInconsistency(
                "greedy and singleton decompositions give different skew elements")
        beta[vec] = total

    for q in skew.ring.elements():
        if beta[alpha[q]] != q:
            raise InternalInconsistency("translation round trip fails on the skew side")
    for vec in functions.ring.elements():
        if alpha[beta[vec]] != vec:
            raise InternalInconsistency("translation round trip fails on the function side")
    escape = _hom_escape(skew.ring, functions.ring, alpha, skew.ring.basis())
    if escape is not None:
        raise InternalInconsistency(f"translation is not {escape[0]}")
    return TranslationPair(pi, skew, functions, objects, alpha, beta)


# ---------------------------------------------------------------------------
# the z-central s-units condition and the verdict battery


def z_s_units(K: FinRing) -> bool:
    """Every element absorbs some central element on the right."""
    zk = centralizer(K, K.basis())
    return all(any(K.mul(k, z) == k for z in zk) for k in K.elements())


def simplicity_verdicts(K: FinRing, G: FinGroupoid,
                        bisection_cap: int = DEFAULT_BISECTION_CAP,
                        cap: int = DEFAULT_SKEW_CAP) -> SystemVerdict:
    """Simplicity of the convolution algebra against effectiveness,
    minimality and coefficient simplicity, plus the bisection-action
    characterisations, then the exhaustive translation round trips.  Rows
    whose hypotheses fail report VACUOUS; rows whose constructions exceed the
    caps report SKIPPED.

    The convolution algebra, the bisection action and its skew ring are each
    built once and handed to every row that reads them.  Since |objects| <=
    |morphisms|, once the convolution algebra fits the cap the action can
    only exceed the bisection cap; the skew ring has its own cap.
    """
    verdict = SystemVerdict()
    preds = groupoid_predicates(G)
    verdict.add("groupoid_lemma_crosschecks", "PASS", {
        "connected": preds["connected"], "thin": preds["thin"]})

    space = steinberg_ring(K, G, cap=cap)
    verdict.add("convolution_matches_groupoid_ring", "PASS")

    ga = skew = None
    try:
        ga, objects = ga_partial_action(K, G, bisection_cap=bisection_cap,
                                        cap=cap)
        skew = build_skew_ring(ga, cap=cap)
    except CapExceeded:
        pass

    if ga is None:
        verdict.add("indicator_convolution_law", "SKIPPED", {"reason": "cap"})
    else:
        witness = indicator_law_witness(space, G, ga.sgrp.elements)
        verdict.add("indicator_convolution_law",
                    "PASS" if witness is None else "FAIL", witness)

    alg_simple = is_simple(space.ring)
    k_simple = is_simple(K)
    k_flags = unitality_predicates(K)
    zsu = z_s_units(K)

    if ga is not None:
        faithful, _ = is_faithful(ga)
        ga_simple, ga_witness = is_action_simple(ga)
        ok = preds["effective_discrete"] == faithful
        verdict.add("effective_iff_faithful", "PASS" if ok else "FAIL",
                    None if ok else {"effective": preds["effective_discrete"],
                                     "faithful": faithful})
        if ga_simple and not preds["minimal_discrete"]:
            verdict.add("bisection_simple_implies_minimal", "FAIL", ga_witness)
        else:
            verdict.add("bisection_simple_implies_minimal",
                        "PASS" if ga_simple else "VACUOUS")
        if k_simple and k_flags["s_unital"]:
            ok = preds["minimal_discrete"] == ga_simple
            verdict.add("minimal_iff_bisection_simple", "PASS" if ok else "FAIL",
                        None if ok else {"minimal": preds["minimal_discrete"],
                                         "bisection_simple": ga_simple})
        else:
            verdict.add("minimal_iff_bisection_simple", "VACUOUS",
                        {"k_simple": k_simple, "k_s_unital": k_flags["s_unital"]})
    else:
        for name in ("effective_iff_faithful", "bisection_simple_implies_minimal",
                     "minimal_iff_bisection_simple"):
            verdict.add(name, "SKIPPED", {"reason": "cap"})

    if zsu:
        expected = preds["effective_discrete"] and preds["minimal_discrete"] and k_simple
        ok = alg_simple == expected
        verdict.add("steinberg_simplicity", "PASS" if ok else "FAIL",
                    None if ok else {"algebra_simple": alg_simple,
                                     "effective": preds["effective_discrete"],
                                     "minimal": preds["minimal_discrete"],
                                     "k_simple": k_simple})
        expected = k_simple and preds["connected"] and preds["thin"]
        ok = alg_simple == expected
        verdict.add("matrix_recognition", "PASS" if ok else "FAIL",
                    None if ok else {"algebra_simple": alg_simple,
                                     "k_simple": k_simple,
                                     "is_matrix": preds["is_matrix"]})
    else:
        verdict.add("steinberg_simplicity", "VACUOUS", {"z_s_units": False})
        verdict.add("matrix_recognition", "VACUOUS", {"z_s_units": False})

    if ga is not None and not zsu:
        verdict.add("effective_three_way", "VACUOUS", {"z_s_units": zsu})
    elif skew is None:
        verdict.add("effective_three_way", "SKIPPED", {"reason": "cap"})
    else:
        base = skew.grading.r0
        zt = Subgroup(skew.ring,
                      centralizer(skew.ring, base).elements & base.elements,
                      trusted=True)
        cent_ok = centralizer(skew.ring, zt).elements <= base.elements
        ok = preds["effective_discrete"] == faithful == cent_ok
        verdict.add("effective_three_way", "PASS" if ok else "FAIL",
                    None if ok else {"effective": preds["effective_discrete"],
                                     "faithful": faithful,
                                     "centralizer_in_base": cent_ok})

    if not alg_simple and not k_simple and K.order > 1:
        # the functions valued in a proper nonzero coefficient ideal form a
        # proper nonzero ideal of the whole algebra
        witness = proper_ideal_witness(K)
        if witness is not None:
            _, coeff_ideal = witness
            span = subgroup_closure(
                space.ring,
                [space.vector({g: j}) for g in G.morphisms
                 for j in coeff_ideal.elements])
            verdict.add("coefficient_ideal_witness",
                        "PASS" if 1 < len(span) < space.ring.order else "FAIL",
                        {"ideal_order": len(span)})

    if skew is None:
        for name in ("roundtrip_function_side", "roundtrip_skew_side",
                     "translation_homomorphisms"):
            verdict.add(name, "SKIPPED", {"reason": "cap"})
    else:
        # translation() raises on any violation, so reaching here means PASS
        pair = translation(ga, objects, skew, space)
        verdict.add("roundtrip_function_side", "PASS",
                    {"checked": len(pair.beta)})
        verdict.add("roundtrip_skew_side", "PASS", {"checked": len(pair.alpha)})
        verdict.add("translation_homomorphisms", "PASS")
    return verdict
