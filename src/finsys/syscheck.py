"""Rings carrying a family of additive subgroups indexed by a semigroup.

A system is a ring R with subgroups R_s, one per semigroup element, whose sum
is R and with R_s R_t inside R_st.  This module validates systems, evaluates
the structural predicates on them (gradedness, strength, coherence,
non-degeneracy, symmetry, epsilon-strength), computes smallest system ideals,
and runs every simplicity criterion as a verdict with explicit witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .finring import (
    FinRing,
    Ideal,
    Subgroup,
    _adjoin,
    _close_ideal,
    _first_proper_closure,
    bimodule_predicates,
    center,
    centralizer,
    ideal_closure,
    is_simple,
    proper_ideal_witness,
    subgroup_closure,
    unitality_predicates,
)
from .invsgrp import InverseSemigroup


class SumNotWhole(Exception):
    pass


class ProductEscapes(Exception):
    pass


class NotGraded(Exception):
    pass


def fmt(x) -> str:
    """Stable printable form for witness payloads (labels may be frozensets)."""
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(map(fmt, x))) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(map(fmt, x)) + ")"
    return str(x)


@dataclass
class CheckResult:
    name: str
    status: str                      # PASS | FAIL | VACUOUS | SKIPPED
    witness: dict | None = None

    def line(self) -> str:
        if not self.witness:
            return f"CHECK {self.name}: {self.status}"
        parts = ", ".join(f"{k}={fmt(v)}" for k, v in sorted(self.witness.items()))
        return f"CHECK {self.name}: {self.status} (witness: {parts})"


@dataclass
class SystemVerdict:
    """Ordered list of named check outcomes; false verdicts carry witnesses."""
    results: list = field(default_factory=list)

    def add(self, name, status, witness=None):
        self.results.append(CheckResult(name, status, witness))

    def extend(self, other: "SystemVerdict"):
        self.results.extend(other.results)

    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def by_name(self, name) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def lines(self):
        return [r.line() for r in self.results]


@dataclass
class EpsilonWitness:
    s: object
    side: str                 # left | right
    unit: tuple               # element of the relevant corner subgroup
    scope: str                # global (one unit for all of R_s) | per-element
    covers: tuple | None = None   # the element the unit works for, if per-element


class SystemRing:
    """A validated system: ring + semigroup + component subgroups."""

    def __init__(self, ring: FinRing, sgrp: InverseSemigroup, components):
        self.ring = ring
        self.sgrp = sgrp
        self.components = dict(components)
        self.r0 = self._sum_over(sgrp.idempotents)
        self._corner_left: dict = {}
        self._corner_right: dict = {}
        self._decomposition: dict | None = None
        self._system_simple: tuple | None = None   # is_system_simple, once computed
        self._predicates: dict | None = None       # structural_predicates, once computed

    def _sum_over(self, keys) -> Subgroup:
        gens = []
        for s in keys:
            gens.extend(self.components[s].small_gens())
        return subgroup_closure(self.ring, gens)

    def component(self, s) -> Subgroup:
        return self.components[s]

    def corner_left(self, s) -> Subgroup:
        """Additive span of R_s R_{s*}."""
        if s not in self._corner_left:
            self._corner_left[s] = product_span(
                self.ring, self.components[s], self.components[self.sgrp.star(s)])
        return self._corner_left[s]

    def corner_right(self, s) -> Subgroup:
        """Additive span of R_{s*} R_s."""
        if s not in self._corner_right:
            self._corner_right[s] = product_span(
                self.ring, self.components[self.sgrp.star(s)], self.components[s])
        return self._corner_right[s]

    def homogeneous_elements(self):
        """Pairs (s, h) with h a nonzero element of R_s."""
        for s in self.sgrp.elements:
            for h in self.components[s]:
                if h != self.ring.zero:
                    yield s, h

    def decomposition(self, r) -> dict:
        """The unique homogeneous decomposition of r; requires gradedness."""
        if self._decomposition is None:
            if not is_graded(self):
                raise NotGraded(f"{self.ring.name} is not a direct sum of its components")
            table = {self.ring.zero: {}}
            for s in self.sgrp.elements:
                comp = self.components[s]
                if len(comp) == 1:
                    continue
                nxt = {}
                for val, parts in table.items():
                    for a in comp:
                        key = self.ring.add(val, a)
                        if key in nxt:
                            raise NotGraded("component sum is not direct")
                        if a == self.ring.zero:
                            nxt[key] = parts
                        else:
                            nxt[key] = {**parts, s: a}
                table = nxt
            self._decomposition = table
        return self._decomposition[r]

    def __repr__(self):
        return f"SystemRing({self.ring.name} over {len(self.sgrp)} elements)"


def product_span(R: FinRing, A: Subgroup, B: Subgroup) -> Subgroup:
    """Additive span of the set product A*B (finite sums of products)."""
    elems = {R.zero}
    for a in A.small_gens():
        for b in B.small_gens():
            _adjoin(R.group, elems, R.mul(a, b))
    return Subgroup(R, elems, trusted=True)


def validate_system(ring: FinRing, sgrp: InverseSemigroup,
                    components) -> SystemRing:
    """Check the two system axioms exhaustively (on component generators)."""
    comps = {}
    for s in sgrp.elements:
        c = components.get(s)
        if c is None:
            c = subgroup_closure(ring, [])
        elif not isinstance(c, Subgroup):
            c = subgroup_closure(ring, c)
        comps[s] = c
    gens = []
    for s in sgrp.elements:
        gens.extend(comps[s].small_gens())
    total = subgroup_closure(ring, gens)
    if len(total) != ring.order:
        missing = min(x for x in ring.elements() if x not in total)
        raise SumNotWhole(
            f"components span only {len(total)} of {ring.order} elements; "
            f"{missing} is not reached")
    for s in sgrp.elements:
        for t in sgrp.elements:
            target = comps[sgrp.mul(s, t)]
            for a in comps[s].small_gens():
                for b in comps[t].small_gens():
                    p = ring.mul(a, b)
                    if p not in target:
                        raise ProductEscapes(
                            f"R_{fmt(s)} * R_{fmt(t)} escapes R_{fmt(sgrp.mul(s, t))}: "
                            f"{a} * {b} = {p}")
    return SystemRing(ring, sgrp, comps)


# ---------------------------------------------------------------------------
# structural predicates


def is_graded(sr: SystemRing) -> bool:
    """The component sum is direct iff the component orders multiply to |R|."""
    total = 1
    for s in sr.sgrp.elements:
        total *= len(sr.components[s])
    return total == sr.ring.order


def _nondegenerate(sr: SystemRing, side: str, base: str):
    """One reading of non-degeneracy; returns (bool, witness or None).

    ``base`` selects the quantifier base: the idempotents only, or the whole
    semigroup.  ``side`` = left asks for t with ts idempotent and R_t r != 0.
    """
    S = sr.sgrp
    pool = S.idempotents if base == "idempotent" else S.elements
    for s in pool:
        for r in sr.components[s]:
            if r == sr.ring.zero:
                continue
            ok = False
            for t in S.elements:
                prod = S.mul(t, s) if side == "left" else S.mul(s, t)
                if not S.is_idempotent(prod):
                    continue
                comp = sr.components[t]
                if side == "left":
                    hit = any(sr.ring.mul(x, r) != sr.ring.zero for x in comp)
                else:
                    hit = any(sr.ring.mul(r, x) != sr.ring.zero for x in comp)
                if hit:
                    ok = True
                    break
            if not ok:
                return False, {"s": fmt(s), "r": r}
    return True, None


def structural_predicates(sr: SystemRing) -> dict:
    """Gradedness, strength, coherence, symmetry and both non-degeneracy
    readings (idempotent-base quantifier and all-of-S quantifier).  Computed
    once per system: a SystemRing does not change after construction."""
    if sr._predicates is None:
        sr._predicates = _structural_predicates(sr)
    return sr._predicates


def _structural_predicates(sr: SystemRing) -> dict:
    S, R = sr.sgrp, sr.ring
    strong = True
    for s in S.elements:
        for t in S.elements:
            if product_span(R, sr.components[s], sr.components[t]).elements \
                    != sr.components[S.mul(s, t)].elements:
                strong = False
                break
        if not strong:
            break
    coherent = True
    for s in S.elements:
        for t in S.elements:
            if S.leq(s, t) and not sr.components[s].elements <= sr.components[t].elements:
                coherent = False
    idem_coherent = True
    for s in S.elements:
        comp = sr.components[s]
        left = product_span(R, sr.r0, comp)
        right = product_span(R, comp, sr.r0)
        if not (left.elements <= comp.elements and right.elements <= comp.elements):
            idem_coherent = False
    symmetric = True
    for s in S.elements:
        comp = sr.components[s]
        lhs = product_span(R, sr.corner_left(s), comp)
        if lhs.elements != comp.elements:
            symmetric = False
    out = {
        "graded": is_graded(sr),
        "strong": strong,
        "coherent": coherent,
        "idempotent_coherent": idem_coherent,
        "symmetric": symmetric,
    }
    for side in ("left", "right"):
        for base, key in (("idempotent", "idempotent_base"), ("all", "all_base")):
            out[f"{side}_nondeg_{key}"] = _nondegenerate(sr, side, base)[0]
    return out


# ---------------------------------------------------------------------------
# epsilon-strength


def epsilon_strong_predicates(sr: SystemRing, prop: str = "s-unital") -> dict:
    """Is each R_s a ``prop`` module over its corners, per side, with witnesses.

    prop is "unital" or "s-unital".  The returned dict carries left/right/both
    flags, the collected EpsilonWitness records, and the first failure.
    """
    if prop not in ("unital", "s-unital"):
        raise ValueError(f"bad property {prop!r}")
    R = sr.ring
    witnesses = []
    failure = None
    left = right = True
    for s in sr.sgrp.elements:
        comp = sr.components[s]
        cl = sr.corner_left(s)
        cr = sr.corner_right(s)
        if prop == "unital":
            eps = next((a for a in cl if all(R.mul(a, m) == m for m in comp)), None)
            if eps is None:
                left = False
                failure = failure or {"s": fmt(s), "side": "left"}
            else:
                witnesses.append(EpsilonWitness(s, "left", eps, "global"))
            eps = next((b for b in cr if all(R.mul(m, b) == m for m in comp)), None)
            if eps is None:
                right = False
                failure = failure or {"s": fmt(s), "side": "right"}
            else:
                witnesses.append(EpsilonWitness(s, "right", eps, "global"))
        else:
            for m in comp:
                eps = next((a for a in cl if R.mul(a, m) == m), None)
                if eps is None:
                    left = False
                    failure = failure or {"s": fmt(s), "side": "left", "r": m}
                else:
                    witnesses.append(EpsilonWitness(s, "left", eps, "per-element", m))
                eps = next((b for b in cr if R.mul(m, b) == m), None)
                if eps is None:
                    right = False
                    failure = failure or {"s": fmt(s), "side": "right", "r": m}
                else:
                    witnesses.append(EpsilonWitness(s, "right", eps, "per-element", m))
    return {"left": left, "right": right, "both": left and right,
            "witnesses": witnesses, "failure": failure}


def epsilon_characterizations(sr: SystemRing) -> SystemVerdict:
    """Three independent routes to epsilon-strength must agree.

    (module) each R_s is a P module over its corner;
    (corner) the system is symmetric and each corner ring is one-sidedly P;
    (search) per-element or global units found by direct scan.
    Disagreement is reported as a FAIL verdict, never an exception.
    """
    R = sr.ring
    verdict = SystemVerdict()
    preds = structural_predicates(sr)
    for prop in ("unital", "s-unital"):
        key = "unital" if prop == "unital" else "s_unital"
        search = epsilon_strong_predicates(sr, prop)
        for side in ("left", "right"):
            via_module = True
            for s in sr.sgrp.elements:
                flags = bimodule_predicates(sr.components[s], sr.corner_left(s),
                                            sr.corner_right(s))
                if not flags[f"{side}_{key}"]:
                    via_module = False
                    break
            via_corner = preds["symmetric"]
            if via_corner:
                for s in sr.sgrp.elements:
                    corner = sr.corner_left(s) if side == "left" else sr.corner_right(s)
                    if not unitality_predicates(R, corner)[f"{side}_{key}"]:
                        via_corner = False
                        break
            via_search = search[side]
            agree = via_module == via_corner == via_search
            verdict.add(
                f"epsilon_characterizations.{key}.{side}",
                "PASS" if agree else "FAIL",
                None if agree else {"module": via_module, "corner": via_corner,
                                    "search": via_search})
        # two-sided variant: a single unit works on the left at s while its
        # counterpart at s* works on the right
        both_sides = True
        for s in sr.sgrp.elements:
            comp = sr.components[s]
            cl, cr = sr.corner_left(s), sr.corner_right(s)
            if prop == "unital":
                found = any(all(R.mul(a, m) == m for m in comp) for a in cl) and \
                    any(all(R.mul(m, b) == m for m in comp) for b in cr)
            else:
                found = all(
                    any(R.mul(a, m) == m for a in cl) and
                    any(R.mul(m, b) == m for b in cr)
                    for m in comp)
            if not found:
                both_sides = False
                break
        two_sided_module = search["both"]
        verdict.add(
            f"epsilon_characterizations.{key}.two_sided",
            "PASS" if both_sides == two_sided_module else "FAIL",
            None if both_sides == two_sided_module else
            {"witness_route": both_sides, "module_route": two_sided_module})
    return verdict


# ---------------------------------------------------------------------------
# system ideals


def system_ideal_closure(sr: SystemRing, h, s=None) -> Ideal:
    """Smallest system ideal containing the homogeneous element h.

    This is the ideal closure of h: since R_s R_t lies in R_st and R is the
    sum of its components, every product in the closure of a homogeneous h
    expands into homogeneous terms, so the closure is spanned by homogeneous
    elements and is itself a system ideal.  The result is verified to equal
    the span of its homogeneous parts.
    """
    R = sr.ring
    h = R.group.reduce(h)
    if s is not None and h not in sr.components[s]:
        raise ValueError(f"{h} is not in the component of {fmt(s)}")
    if s is None and not any(h in sr.components[t] for t in sr.sgrp.elements):
        raise ValueError(f"{h} is not homogeneous")
    elems, _ = _close_ideal(R, [h], True, True)
    homog = set()
    for t in sr.sgrp.elements:
        homog |= (elems & sr.components[t].elements)
    if subgroup_closure(R, sorted(homog)).elements != elems:
        raise AssertionError("ideal closure of a homogeneous element is not "
                             "spanned by homogeneous elements")
    return Ideal(R, elems, [h], "two-sided", trusted=True)


def is_system_ideal(sr: SystemRing, I: Subgroup) -> bool:
    """I is an ideal equal to the span of its homogeneous parts."""
    R = sr.ring
    if set(ideal_closure(R, I.small_gens()).elements) != set(I.elements):
        return False
    homog = set()
    for t in sr.sgrp.elements:
        homog |= (I.elements & sr.components[t].elements)
    return subgroup_closure(R, sorted(homog)).elements == I.elements


def is_system_simple(sr: SystemRing):
    """(bool, witness): every nonzero system ideal contains a nonzero
    homogeneous element, so it suffices to close each of those.

    A closure that reaches an element already known to generate R is R, so
    it stops there; only a proper closure is computed in full.  Computed once
    per system: a SystemRing does not change after construction.
    """
    if sr._system_simple is None:
        found = _first_proper_closure(
            sr.ring, (h for _, h in sr.homogeneous_elements()))
        if found is None:
            sr._system_simple = True, None
        else:
            # the witness names the first component h was enumerated under
            h = found[0]
            s = next(t for t in sr.sgrp.elements if h in sr.components[t])
            closure = system_ideal_closure(sr, h, s)
            sr._system_simple = False, {"s": fmt(s), "h": h,
                                        "ideal_order": len(closure)}
    return sr._system_simple


def all_system_ideals(sr: SystemRing) -> list[frozenset]:
    """Every system ideal, as the join-closure of the single-generated ones.

    A system ideal is spanned by its homogeneous elements, hence is a join of
    closures of single homogeneous elements.  Exponential only in the number
    of distinct atoms; meant for small oracle runs.
    """
    R = sr.ring
    atoms = set()
    for s, h in sr.homogeneous_elements():
        atoms.add(frozenset(system_ideal_closure(sr, h, s).elements))
    ideals = {frozenset({R.zero})} | atoms
    frontier = list(atoms)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(ideals):
                join = frozenset(subgroup_closure(R, sorted(a | b)).elements)
                if join not in ideals:
                    ideals.add(join)
                    nxt.append(join)
        frontier = nxt
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# centralizer conditions, intersection property, degree


def center_of_part(sr: SystemRing) -> Subgroup:
    """Z(R_0): elements of R_0 commuting with all of R_0."""
    inside = centralizer(sr.ring, sr.r0)
    return Subgroup(sr.ring, inside.elements & sr.r0.elements, trusted=True)


def centralizer_condition(sr: SystemRing):
    """(bool, witness) for C_R(Z(R_0)) contained in R_0."""
    big = centralizer(sr.ring, center_of_part(sr))
    for x in big:
        if x not in sr.r0:
            return False, {"x": x}
    return True, None


def max_commutative_r0(sr: SystemRing):
    """(bool, witness) for C_R(R_0) = R_0."""
    big = centralizer(sr.ring, sr.r0)
    if big.elements == sr.r0.elements:
        return True, None
    x = min(big.elements ^ sr.r0.elements)
    return False, {"x": x}


def ideal_intersection_property(R: FinRing, B: Subgroup):
    """(bool, witness): every nonzero ideal of R meets B nontrivially.

    Equivalent to: the closure of every nonzero element meets B - {0}.  A
    closure stops as soon as it hits B or an earlier element whose closure
    met B; a failing element reaches neither, so its closure is computed in
    full.
    """
    hits = B.elements - {R.zero}
    met = set()
    for x in R.elements():
        if x == R.zero:
            continue
        elems, stopped = _close_ideal(R, [x], True, True,
                                      stop=lambda z: z in hits or z in met)
        if not stopped and not (elems & hits):
            return False, {"x": x, "ideal_order": len(elems)}
        met.add(x)
    return True, None


def degree(sr: SystemRing, r) -> int:
    """Number of nonzero homogeneous components of r in a graded system."""
    r = sr.ring.group.reduce(r)
    return len(sr.decomposition(r))


# ---------------------------------------------------------------------------
# theorem verdicts


def _status(hyp: bool, concl: bool) -> str:
    if not hyp:
        return "VACUOUS"
    return "PASS" if concl else "FAIL"


def theorem_verdicts(sr: SystemRing) -> SystemVerdict:
    """Hypotheses and conclusions of every simplicity criterion, evaluated
    independently.  A FAIL row would be a falsification and is expected never
    to occur; VACUOUS marks instances whose hypotheses are not met.

    Non-degeneracy hypotheses use the all-of-S quantifier base (the stronger
    reading); both readings are available from structural_predicates.
    """
    R = sr.ring
    verdict = SystemVerdict()
    preds = structural_predicates(sr)
    simple = is_simple(R)
    sys_simple, sys_witness = is_system_simple(sr)
    cent_ok, cent_witness = centralizer_condition(sr)
    maxcomm, _ = max_commutative_r0(sr)
    eps = epsilon_strong_predicates(sr, "s-unital")
    nondeg_left, nondeg_left_witness = _nondegenerate(sr, "left", "all")
    nondeg_right, nondeg_right_witness = _nondegenerate(sr, "right", "all")
    ccent = centralizer(R, center_of_part(sr))

    verdict.add("simple_implies_system_simple",
                _status(simple, sys_simple),
                None if sys_simple else sys_witness)

    hyp = (preds["idempotent_coherent"] and sys_simple
           and (nondeg_left or nondeg_right) and cent_ok)
    verdict.add("system_simplicity_criterion", _status(hyp, simple),
                None if simple or not hyp else
                {"proper_ideal_generator": proper_ideal_witness(R)[0]})

    hyp = preds["idempotent_coherent"] and (nondeg_left or nondeg_right)
    iip, iip_witness = ideal_intersection_property(R, ccent)
    verdict.add("intersection_from_nondegeneracy", _status(hyp, iip),
                None if iip or not hyp else iip_witness)

    hyp = (sys_simple and preds["coherent"] and (eps["left"] or eps["right"])
           and cent_ok)
    verdict.add("epsilon_strong_simplicity_criterion", _status(hyp, simple),
                None if simple or not hyp else
                {"proper_ideal_generator": proper_ideal_witness(R)[0]})

    for side, nondeg, witness in (("left", nondeg_left, nondeg_left_witness),
                                  ("right", nondeg_right, nondeg_right_witness)):
        hyp = preds["coherent"] and eps[side]
        concl = nondeg and iip
        verdict.add(f"nondegeneracy_from_epsilon_strong.{side}",
                    _status(hyp, concl),
                    None if concl or not hyp else
                    {"nondegenerate": nondeg, "iip": iip,
                     "witness": witness or iip_witness})

    hyp = (preds["idempotent_coherent"] and (nondeg_left or nondeg_right)
           and maxcomm)
    verdict.add("max_commutative_simplicity_equiv",
                _status(hyp, simple == sys_simple),
                None if not hyp or simple == sys_simple else
                {"simple": simple, "system_simple": sys_simple})

    hyp = preds["coherent"] and eps["both"] and maxcomm
    verdict.add("epsilon_max_commutative_equiv",
                _status(hyp, simple == sys_simple),
                None if not hyp or simple == sys_simple else
                {"simple": simple, "system_simple": sys_simple})

    verdict.add("coherent_implies_idempotent_coherent",
                _status(preds["coherent"], preds["idempotent_coherent"]))

    return verdict
