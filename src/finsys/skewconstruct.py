"""The graded ring of a partial action and its quotient skew ring.

Given a partial action pi, the block ring carries one formal summand per
semigroup element s holding the domain D_s, with product
(a delta_s)(b delta_t) = pi_s(pi_{s*}(a) b) delta_st.  Dividing by the ideal
generated by a delta_r - a delta_s for r below s in the natural order yields
the skew ring.  Everything is built explicitly and cross-checked: the grading
is validated as a system, the coefficient-sum map is checked to vanish on the
relation ideal, and the base ring embedding is verified to be an isomorphism
onto the idempotent part whenever the s-unitality gates hold.
"""

from __future__ import annotations

from .finring import (
    CapExceeded,
    FinRing,
    GroupCoords,
    Ideal,
    RingQuotient,
    Subgroup,
    _hom_escape,
    centralizer,
    ideal_closure,
    is_simple,
    proper_ideal_witness,
    quotient_ring,
    subgroup_closure,
    unitality_predicates,
)
from .invsgrp import InternalInconsistency
from .paction import (
    GroupoidPartialAction,
    PartialAction,
    action_unitality,
    induced_action,
    is_action_simple,
    is_faithful,
    is_groupoid_simple,
)
from .syscheck import (
    SystemRing,
    SystemVerdict,
    _status,
    center_of_part,
    centralizer_condition,
    epsilon_strong_predicates,
    fmt,
    ideal_intersection_property,
    is_system_simple,
    max_commutative_r0,
    product_span,
    structural_predicates,
    validate_system,
)

DEFAULT_SKEW_CAP = 4096


class TNotWellDefined(Exception):
    """The coefficient-sum map does not vanish on the relation ideal."""


class HypothesisNotMet(Exception):
    """A verdict battery was asked to run without its s-unitality gates."""


class LPiRing:
    """Formal sums over the semigroup with one block per element."""

    def __init__(self, action: PartialAction, ring: FinRing, blocks, offsets,
                 grading: SystemRing):
        self.action = action
        self.ring = ring
        self.blocks = blocks     # s -> GroupCoords over D_s
        self.offsets = offsets   # s -> (start, width) in the rank vector
        self.grading = grading

    def embed(self, s, a) -> tuple:
        """The element a delta_s, for a in D_s."""
        start, width = self.offsets[s]
        coords = self.blocks[s].encode(self.action.ring.group.reduce(a))
        vec = [0] * len(self.ring.ranks)
        vec[start:start + width] = coords
        return tuple(vec)

    def component(self, x, s):
        """The coefficient of delta_s in x, as an element of the base ring."""
        start, width = self.offsets[s]
        return self.blocks[s].decode(tuple(x[start:start + width]))

    def coefficient_sum(self, x):
        """Sum of all block coefficients, an element of the base ring."""
        A = self.action.ring
        total = A.zero
        for s in self.action.sgrp.elements:
            total = A.add(total, self.component(x, s))
        return total


def build_L_pi(pi: PartialAction, cap: int = DEFAULT_SKEW_CAP) -> LPiRing:
    """Construct the block ring; its associativity flag is computed honestly
    and may well be false for actions that are not s-unital."""
    A = pi.ring
    S = pi.sgrp
    total = 1
    for s in S.elements:
        total *= len(pi.domains[s])
    if total > cap:
        raise CapExceeded(f"block ring would have {total} elements, cap {cap}")

    blocks, offsets, ranks = {}, {}, []
    for s in S.elements:
        coords = GroupCoords(pi.domains[s].elements, A.add, A.zero)
        blocks[s] = coords
        offsets[s] = (len(ranks), len(coords.basis))
        ranks.extend(coords.orders)

    k = len(ranks)
    sc = [[None] * k for _ in range(k)]
    index = [(s, b) for s in S.elements for b in blocks[s].basis]
    for i, (s, a) in enumerate(index):
        st = S.star(s)
        pulled = pi.maps[st][a]
        for j, (t, b) in enumerate(index):
            y = A.mul(pulled, b)
            z = pi.maps[s][y]
            target = S.mul(s, t)
            if z not in pi.domains[target]:
                raise InternalInconsistency(
                    f"block product lands outside D_{fmt(target)}")
            start, width = offsets[target]
            vec = [0] * k
            vec[start:start + width] = blocks[target].encode(z)
            sc[i][j] = tuple(vec)
    ring = FinRing(ranks, sc, name=f"L({A.name})", cap=cap)

    lpi = LPiRing(pi, ring, blocks, offsets, None)
    comps = {s: [lpi.embed(s, b) for b in blocks[s].basis] for s in S.elements}
    lpi.grading = validate_system(ring, S, comps)
    return lpi


def relation_ideal(lpi: LPiRing) -> Ideal:
    """Ideal generated by a delta_r - a delta_s over all order pairs r < s,
    with a running over an additive basis of D_r (differences are additive
    in a, so basis generators suffice)."""
    S = lpi.action.sgrp
    L = lpi.ring
    gens = []
    for r in S.elements:
        for s in S.elements:
            if r == s or not S.leq(r, s):
                continue
            if not lpi.action.domains[r].elements <= lpi.action.domains[s].elements:
                raise InternalInconsistency(
                    f"D_{fmt(r)} not inside D_{fmt(s)} despite {fmt(r)} <= {fmt(s)}")
            for a in lpi.blocks[r].basis:
                gens.append(L.sub(lpi.embed(r, a), lpi.embed(s, a)))
    return ideal_closure(L, gens)


class SkewRing:
    """The quotient of the block ring by the relation ideal."""

    def __init__(self, lpi: LPiRing, quotient: RingQuotient, rel: Ideal,
                 grading: SystemRing, t_ok: bool, base_image: dict | None):
        self.lpi = lpi
        self.quotient = quotient
        self.ring = quotient.ring
        self.relation_ideal = rel
        self.grading = grading
        self.t_ok = t_ok
        self._base_image = base_image  # A element -> quotient element

    def project(self, x):
        return self.quotient.project(x)

    def tmap(self, q):
        """Sum of the coefficients of any representative; well defined only
        when the coefficient-sum map kills the relation ideal."""
        if not self.t_ok:
            raise TNotWellDefined("coefficient sum does not vanish on the relations")
        return self.lpi.coefficient_sum(self.quotient.lift(q))

    def imap(self, a):
        """The canonical copy of a base element inside the quotient."""
        if self._base_image is None:
            raise HypothesisNotMet(
                "base embedding needs the action and the base ring s-unital")
        return self._base_image[self.lpi.action.ring.group.reduce(a)]

    def has_base_image(self) -> bool:
        return self._base_image is not None

    def base_subring(self) -> Subgroup:
        return subgroup_closure(self.ring, list(self._base_image.values()))


def _base_image(skew_ring, lpi, project) -> dict:
    """One decomposition of each base element over the idempotent domains,
    pushed into the quotient."""
    pi = lpi.action
    A = pi.ring
    table = {A.zero: skew_ring.zero}
    for e in pi.sgrp.idempotents:
        dom = pi.domains[e]
        if dom.is_zero():
            continue
        nxt = {}
        for val, q in table.items():
            for a in dom:
                key = A.add(val, a)
                if key not in nxt:
                    nxt[key] = skew_ring.add(q, project(lpi.embed(e, a)))
        table = nxt
    if len(table) != A.order:
        raise InternalInconsistency(
            "idempotent domains do not span the base ring")
    return table


def build_skew_ring(pi: PartialAction, cap: int = DEFAULT_SKEW_CAP) -> SkewRing:
    lpi = build_L_pi(pi, cap=cap)
    rel = relation_ideal(lpi)
    quot = quotient_ring(lpi.ring, rel)
    Q = quot.ring
    comps = {s: [quot.project(lpi.embed(s, b)) for b in lpi.blocks[s].basis]
             for s in pi.sgrp.elements}
    grading = validate_system(Q, pi.sgrp, comps)

    t_ok = all(lpi.coefficient_sum(i) == pi.ring.zero
               for i in rel.sorted_elements())

    base_image = None
    if unitality_predicates(pi.ring)["s_unital"] and action_unitality(pi)["s_unital"]:
        base_image = _base_image(Q, lpi, quot.project)
        _verify_base_embedding(pi, lpi, Q, grading, base_image, t_ok, quot)
    return SkewRing(lpi, quot, rel, grading, t_ok, base_image)


def _verify_base_embedding(pi, lpi, Q, grading, base_image, t_ok, quot):
    """The base copy must be an injective ring homomorphism onto the
    idempotent part, inverse to the coefficient sum.  Under the s-unitality
    gates a failure here is a bug, not a property of the instance."""
    A = pi.ring
    escape = _hom_escape(A, Q, base_image, A.basis())
    if escape is not None:
        raise InternalInconsistency(f"base embedding is not {escape[0]}")
    if len(set(base_image.values())) != A.order:
        raise InternalInconsistency("base embedding is not injective")
    if set(base_image.values()) != grading.r0.elements:
        raise InternalInconsistency(
            "base embedding does not land onto the idempotent part")
    if not t_ok:
        raise InternalInconsistency(
            "coefficient sum fails on relations despite s-unital gates")
    for a in A.elements():
        if lpi.coefficient_sum(quot.lift(base_image[a])) != a:
            raise InternalInconsistency("coefficient sum does not invert the embedding")


# ---------------------------------------------------------------------------
# property batteries


def grading_structure_checks(pi: PartialAction, cap: int = DEFAULT_SKEW_CAP,
                         skew: "SkewRing | None" = None) -> SystemVerdict:
    """Structure facts of the graded construction: coherence, corner
    identities against domain products, symmetry against domain idempotency,
    epsilon-strength against action s-unitality, and associativity whenever
    one-sided s-unitality holds.

    Coherence is asserted for the skew-ring grading: there a coefficient at a
    smaller semigroup element is identified with the same coefficient at any
    larger one, which is what containment of components means.  In the ring
    of formal sums the components at distinct elements are disjoint blocks,
    so its literal coherence is only observed, never asserted.
    """
    A = pi.ring
    S = pi.sgrp
    if skew is None:
        skew = build_skew_ring(pi, cap=cap)
    lpi = skew.lpi
    verdict = SystemVerdict()
    preds = structural_predicates(lpi.grading)

    coh = structural_predicates(skew.grading)["coherent"]
    verdict.add("skew_grading_coherent", "PASS" if coh else "FAIL")
    verdict.add("block_grading_coherence_observed", "PASS",
                {"coherent": preds["coherent"]})

    corner_bad = None
    triple_bad = None
    for s in S.elements:
        Rs = lpi.grading.component(s)
        Rst = lpi.grading.component(S.star(s))
        corner = product_span(lpi.ring, Rs, Rst)
        dd = product_span(A, pi.domains[s], pi.domains[s])
        ss = S.mul(s, S.star(s))
        expected = {lpi.embed(ss, x) for x in dd}
        if corner.elements != expected:
            corner_bad = corner_bad or {"s": fmt(s)}
        left3 = product_span(lpi.ring, corner, Rs)
        right3 = product_span(lpi.ring, Rs, product_span(lpi.ring, Rst, Rs))
        ddd = product_span(A, dd, pi.domains[s])
        expected3 = {lpi.embed(s, x) for x in ddd}
        if not (left3.elements == right3.elements == expected3):
            triple_bad = triple_bad or {"s": fmt(s)}
    verdict.add("corner_matches_domain_square",
                "PASS" if corner_bad is None else "FAIL", corner_bad)
    verdict.add("triple_product_matches_domain_cube",
                "PASS" if triple_bad is None else "FAIL", triple_bad)

    for side in ("left", "right"):
        mismatch = None
        for s in S.elements:
            Rs = lpi.grading.component(s)
            corner = product_span(lpi.ring, Rs,
                                  lpi.grading.component(S.star(s)))
            dd = product_span(A, pi.domains[s], pi.domains[s])
            lhs = unitality_predicates(lpi.ring, corner)[f"{side}_s_unital"]
            rhs = unitality_predicates(A, dd)[f"{side}_s_unital"]
            if lhs != rhs:
                mismatch = {"s": fmt(s), "corner": lhs, "domain_square": rhs}
                break
        verdict.add(f"corner_unitality_matches.{side}",
                    "PASS" if mismatch is None else "FAIL", mismatch)

    dom_idem = action_unitality(pi)["idempotent_ring"]
    verdict.add("symmetric_iff_domains_idempotent",
                "PASS" if preds["symmetric"] == dom_idem else "FAIL",
                None if preds["symmetric"] == dom_idem else
                {"symmetric": preds["symmetric"], "domains_idempotent": dom_idem})

    eps = epsilon_strong_predicates(lpi.grading, "s-unital")
    action_su = {side: action_unitality(pi)[f"{side}_s_unital"]
                 for side in ("left", "right")}
    for side in ("left", "right"):
        ok = eps[side] == action_su[side]
        verdict.add(f"epsilon_strong_iff_action_s_unital.{side}",
                    "PASS" if ok else "FAIL",
                    None if ok else {"grading": eps[side], "action": action_su[side]})

    if action_su["left"] or action_su["right"]:
        verdict.add("associative_when_s_unital",
                    "PASS" if lpi.ring.is_associative else "FAIL")
    else:
        verdict.add("associative_when_s_unital", "VACUOUS",
                    {"associative_anyway": lpi.ring.is_associative})
    return verdict


def skew_simplicity_verdict(pi: PartialAction, cap: int = DEFAULT_SKEW_CAP,
                            skew: SkewRing | None = None) -> SystemVerdict:
    """Simplicity of the skew ring against action simplicity and centralizer
    conditions; everything is gated on the action and base being s-unital."""
    verdict = SystemVerdict()
    A = pi.ring
    su_action = action_unitality(pi)["s_unital"]
    su_base = unitality_predicates(A)["s_unital"]
    if not (su_action and su_base):
        for name in ("system_simple_iff_action_simple",
                     "skew_simplicity_criterion",
                     "skew_simplicity_biconditional",
                     "max_commutative_iff_intersection",
                     "faithful_from_centralizer",
                     "faithful_from_simplicity",
                     "base_embedding_roundtrip"):
            verdict.add(name, "VACUOUS",
                        {"action_s_unital": su_action, "base_s_unital": su_base})
        return verdict

    if skew is None:
        skew = build_skew_ring(pi, cap=cap)
    Q = skew.ring
    base = skew.base_subring()
    action_simple, action_witness = is_action_simple(pi)
    sys_simple, _ = is_system_simple(skew.grading)
    simple = is_simple(Q)
    z_base = Subgroup(Q, centralizer(Q, base).elements & base.elements,
                      trusted=True)
    cent = centralizer(Q, z_base)
    cent_ok = cent.elements <= base.elements
    maxcomm = centralizer(Q, base).elements == base.elements
    faithful, faithful_witness = is_faithful(pi)
    domains_nonzero = all(
        not pi.domains[s].is_zero()
        for s in pi.sgrp.elements if not pi.sgrp.is_idempotent(s))

    ok = sys_simple == action_simple
    verdict.add("system_simple_iff_action_simple",
                "PASS" if ok else "FAIL",
                None if ok else {"system_simple": sys_simple,
                                 "action_simple": action_simple,
                                 "witness": action_witness})

    hyp = action_simple and cent_ok
    verdict.add("skew_simplicity_criterion", _status(hyp, simple),
                None if simple or not hyp else
                {"proper_ideal_generator": proper_ideal_witness(Q)[0]})

    if A.is_commutative:
        both = action_simple and maxcomm
        verdict.add("skew_simplicity_biconditional",
                    "PASS" if simple == both else "FAIL",
                    None if simple == both else
                    {"simple": simple, "action_simple": action_simple,
                     "max_commutative": maxcomm})
        iip, iip_witness = ideal_intersection_property(Q, base)
        verdict.add("max_commutative_iff_intersection",
                    "PASS" if maxcomm == iip else "FAIL",
                    None if maxcomm == iip else
                    {"max_commutative": maxcomm, "iip": iip,
                     "witness": iip_witness})
    else:
        verdict.add("skew_simplicity_biconditional", "VACUOUS",
                    {"base_commutative": False})
        verdict.add("max_commutative_iff_intersection", "VACUOUS",
                    {"base_commutative": False})

    hyp = domains_nonzero and cent_ok
    verdict.add("faithful_from_centralizer", _status(hyp, faithful),
                None if faithful or not hyp else faithful_witness)
    hyp = domains_nonzero and simple
    verdict.add("faithful_from_simplicity", _status(hyp, faithful),
                None if faithful or not hyp else faithful_witness)

    round_ok = skew.has_base_image() and skew.t_ok and all(
        skew.tmap(skew.imap(a)) == a for a in A.elements())
    verdict.add("base_embedding_roundtrip", "PASS" if round_ok else "FAIL")
    return verdict


# ---------------------------------------------------------------------------
# groupoid specialisation


def skew_groupoid_ring(gpa: GroupoidPartialAction,
                       cap: int = DEFAULT_SKEW_CAP):
    """The morphism-indexed construction, cross-checked against the quotient
    of the induced action; returns (SkewRing, identification verdict).

    The two must agree element-for-element: the only order relations in the
    induced semigroup sit below the adjoined zero, whose domain is the zero
    ideal, so the relation ideal vanishes and the identification map is the
    block-wise identity.  It is still verified to be a bijective ring
    homomorphism.
    """
    A = gpa.ring
    G = gpa.groupoid
    pi = induced_action(gpa)
    skew = build_skew_ring(pi, cap=cap)

    total = 1
    for g in G.morphisms:
        total *= len(gpa.ideals[g])
    if total > cap:
        raise CapExceeded(f"direct construction would have {total} elements")

    blocks, offsets, ranks = {}, {}, []
    for g in G.morphisms:
        coords = GroupCoords(gpa.ideals[g].elements, A.add, A.zero)
        blocks[g] = coords
        offsets[g] = (len(ranks), len(coords.basis))
        ranks.extend(coords.orders)
    k = len(ranks)
    index = [(g, b) for g in G.morphisms for b in blocks[g].basis]
    sc = [[None] * k for _ in range(k)]
    for i, (g, a) in enumerate(index):
        pulled = gpa.maps[G.inverse[g]][a]
        for j, (h, b) in enumerate(index):
            vec = [0] * k
            if G.composable(g, h):
                z = gpa.maps[g][A.mul(pulled, b)]
                gh = G.compose(g, h)
                start, width = offsets[gh]
                vec[start:start + width] = blocks[gh].encode(z)
            sc[i][j] = tuple(vec)
    direct = FinRing(ranks, sc, name=f"{A.name}*G", cap=cap)

    verdict = SystemVerdict()

    def identify(x):
        vec = [0] * len(skew.lpi.ring.ranks)
        for g in G.morphisms:
            start, width = offsets[g]
            lstart, lwidth = skew.lpi.offsets[g]
            if width != lwidth:
                raise InternalInconsistency("block shapes disagree")
            vec[lstart:lstart + lwidth] = x[start:start + width]
        return skew.project(tuple(vec))

    table = {x: identify(x) for x in direct.elements()}
    bijective = (direct.order == skew.ring.order
                 and len(set(table.values())) == direct.order)
    homomorphic = bijective and _hom_escape(direct, skew.ring, table,
                                            direct.basis()) is None
    verdict.add("direct_and_quotient_constructions_agree",
                "PASS" if bijective and homomorphic else "FAIL",
                None if bijective and homomorphic else
                {"bijective": bijective, "orders": (direct.order, skew.ring.order)})
    return skew, verdict


def skew_groupoid_verdict(gpa: GroupoidPartialAction,
                          cap: int = DEFAULT_SKEW_CAP) -> SystemVerdict:
    """Groupoid-ring simplicity battery: the induced-action battery plus the
    groupoid-invariance sides."""
    verdict = SystemVerdict()
    skew, ident = skew_groupoid_ring(gpa, cap=cap)
    pi = skew.lpi.action
    verdict.extend(ident)

    g_simple, g_witness = is_groupoid_simple(gpa)
    a_simple, _ = is_action_simple(pi)
    ok = g_simple == a_simple
    verdict.add("groupoid_simple_iff_induced_simple",
                "PASS" if ok else "FAIL",
                None if ok else {"groupoid": g_simple, "induced": a_simple})

    verdict.extend(skew_simplicity_verdict(pi, cap=cap, skew=skew))
    verdict.add("action_is_global",
                "PASS" if gpa.is_global else "VACUOUS",
                {"is_global": gpa.is_global})
    return verdict
