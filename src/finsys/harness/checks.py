"""Battery driver: turn a parsed instance into an ordered check report.

Every section contributes a fixed battery of named checks; rows appear in
declaration order, so a report is byte-identical across runs of the same
instance.  Timings are opt-in (they carry the elapsed time of the producing
battery) to keep the default output deterministic.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from ..finring import CapExceeded, DEFAULT_ORDER_CAP, unitality_predicates
from ..invsgrp import InternalInconsistency, groupoid_predicates
from ..skewconstruct import (
    DEFAULT_SKEW_CAP,
    build_skew_ring,
    grading_structure_checks,
    skew_groupoid_verdict,
    skew_simplicity_verdict,
)
from ..steinberg import DEFAULT_BISECTION_CAP, simplicity_verdicts
from ..syscheck import (
    CheckResult,
    SystemVerdict,
    epsilon_characterizations,
    fmt,
    structural_predicates,
    theorem_verdicts,
)


def jsonable(x):
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(fmt(v) for v in x)
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return fmt(x)


@dataclass
class ReportRow(CheckResult):
    millis: int = 0

    def line(self, timings=False) -> str:
        if self.status == "SKIPPED" and self.witness == {"reason": "cap"}:
            out = f"CHECK {self.name}: SKIPPED(cap)"
        else:
            out = super().line()
        if timings:
            out += f" [{self.millis} ms]"
        return out

    def record(self, instance=None, timings=False) -> dict:
        rec = {"name": self.name, "status": self.status,
               "witness": jsonable(self.witness),
               "millis": self.millis if timings else 0}
        if instance is not None:
            rec["instance"] = instance
        return rec


@dataclass
class Report:
    rows: list = field(default_factory=list)
    source: str | None = None

    def fail_count(self) -> int:
        return sum(r.status == "FAIL" for r in self.rows)

    def exit_code(self) -> int:
        return 1 if self.fail_count() else 0

    def text(self, timings=False) -> str:
        lines = [r.line(timings=timings) for r in self.rows]
        lines.append(f"SUMMARY: {len(self.rows)} checks, "
                     f"{self.fail_count()} failures")
        return "\n".join(lines)

    def machine(self, timings=False) -> str:
        return "\n".join(json.dumps(r.record(self.source, timings=timings),
                                    sort_keys=True) for r in self.rows)

    def by_name(self, name) -> ReportRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def statuses(self) -> dict:
        out = {}
        for r in self.rows:
            out[r.status] = out.get(r.status, 0) + 1
        return out


def _ring_battery(name, R) -> SystemVerdict:
    verdict = SystemVerdict()
    verdict.add("flags", "PASS", {"order": R.order,
                                  "associative": R.is_associative,
                                  "commutative": R.is_commutative})
    flags = unitality_predicates(R)
    verdict.add("s_unital_iff_unital",
                "PASS" if flags["s_unital"] == flags["unital"] else "FAIL",
                None if flags["s_unital"] == flags["unital"] else flags)
    return verdict


def _semigroup_battery(name, S) -> SystemVerdict:
    verdict = SystemVerdict()
    bad = None
    els = S.elements
    for s in els:
        if not S.leq(s, s):
            bad = {"kind": "not_reflexive", "s": fmt(s)}
        for t in els:
            if S.leq(s, t) and S.leq(t, s) and s != t:
                bad = {"kind": "not_antisymmetric", "s": fmt(s), "t": fmt(t)}
            for u in els:
                if S.leq(s, t) and S.leq(t, u) and not S.leq(s, u):
                    bad = {"kind": "not_transitive", "s": fmt(s), "t": fmt(t),
                           "u": fmt(u)}
            if bad:
                break
        if bad:
            break
    verdict.add("natural_order_is_partial_order",
                "PASS" if bad is None else "FAIL", bad)
    bad = None
    for e in S.idempotents:
        for s in els:
            if not S.leq(S.mul(e, s), s) or not S.leq(S.mul(s, e), s):
                bad = {"e": fmt(e), "s": fmt(s)}
    verdict.add("idempotent_translates_sit_below",
                "PASS" if bad is None else "FAIL", bad)
    return verdict


def _groupoid_battery(name, G) -> SystemVerdict:
    verdict = SystemVerdict()
    try:
        preds = groupoid_predicates(G)
        verdict.add("predicates", "PASS", preds)
    except InternalInconsistency as exc:
        verdict.add("predicates", "FAIL", {"error": str(exc)})
    return verdict


def _system_battery(name, sr) -> SystemVerdict:
    verdict = SystemVerdict()
    verdict.add("structure", "PASS", structural_predicates(sr))
    verdict.extend(epsilon_characterizations(sr))
    verdict.extend(theorem_verdicts(sr))
    return verdict


def _paction_battery(name, pi, skew_cap) -> SystemVerdict:
    verdict = SystemVerdict()
    try:
        skew = build_skew_ring(pi, cap=skew_cap)
    except CapExceeded:
        verdict.add("skew_ring", "SKIPPED", {"reason": "cap"})
        return verdict
    verdict.extend(grading_structure_checks(pi, cap=skew_cap, skew=skew))
    verdict.extend(skew_simplicity_verdict(pi, cap=skew_cap, skew=skew))
    for row in theorem_verdicts(skew.grading).results:
        verdict.add(f"skew_grading.{row.name}", row.status, row.witness)
    for row in epsilon_characterizations(skew.grading).results:
        verdict.add(f"skew_grading.{row.name}", row.status, row.witness)
    return verdict


def _gpa_battery(name, gpa, skew_cap) -> SystemVerdict:
    verdict = SystemVerdict()
    try:
        verdict.extend(skew_groupoid_verdict(gpa, cap=skew_cap))
    except CapExceeded:
        verdict.add("skew_groupoid_ring", "SKIPPED", {"reason": "cap"})
    return verdict


def _steinberg_battery(K, G, bisection_cap, skew_cap) -> SystemVerdict:
    try:
        return simplicity_verdicts(K, G, bisection_cap=bisection_cap,
                                   cap=skew_cap)
    except CapExceeded:
        verdict = SystemVerdict()
        verdict.add("battery", "SKIPPED", {"reason": "cap"})
        return verdict


def _batteries(instance, bisection_cap: int, skew_cap: int) -> list:
    """(prefix, battery) pairs in report order; a battery's row ``name`` is
    reported as ``prefix.name``."""
    batteries = []
    for kind, name in instance.order:
        obj = instance.get(kind, name)
        if kind == "ring":
            batteries.append((f"ring.{name}",
                              lambda o=obj, n=name: _ring_battery(n, o)))
        elif kind == "semigroup":
            batteries.append((f"semigroup.{name}",
                              lambda o=obj, n=name: _semigroup_battery(n, o)))
        elif kind == "groupoid":
            batteries.append((f"groupoid.{name}",
                              lambda o=obj, n=name: _groupoid_battery(n, o)))
        elif kind == "system":
            batteries.append((f"system.{name}",
                              lambda o=obj, n=name: _system_battery(n, o)))
        elif kind == "paction":
            batteries.append((f"paction.{name}",
                              lambda o=obj, n=name: _paction_battery(n, o, skew_cap)))
        elif kind == "gpa":
            batteries.append((f"gpa.{name}",
                              lambda o=obj, n=name: _gpa_battery(n, o, skew_cap)))
    for rkind, rname in instance.order:
        if rkind != "ring":
            continue
        for gkind, gname in instance.order:
            if gkind != "groupoid":
                continue
            K = instance.rings[rname]
            G = instance.groupoids[gname]
            batteries.append(
                (f"steinberg.{rname}.{gname}",
                 lambda K=K, G=G: _steinberg_battery(K, G, bisection_cap,
                                                     skew_cap)))
    return batteries


def run(instance, checks=None, cap: int = DEFAULT_ORDER_CAP,
        bisection_cap: int = DEFAULT_BISECTION_CAP,
        skew_cap: int = DEFAULT_SKEW_CAP) -> Report:
    """Execute the battery of every section (plus one battery per
    ring-groupoid pair for the convolution algebras) and collect the report.

    ``checks`` filters the emitted rows by substring; batteries always run in
    declaration order so reports stay deterministic.
    """
    report = Report(source=instance.source)
    for prefix, battery in _batteries(instance, bisection_cap, skew_cap):
        start = time.perf_counter()
        verdict = battery()
        elapsed = int(1000 * (time.perf_counter() - start))
        for row in verdict.results:
            full = f"{prefix}.{row.name}"
            if checks and not any(tok == "all" or tok in full for tok in checks):
                continue
            report.rows.append(ReportRow(full, row.status, row.witness, elapsed))
    return report


def replay(record: dict, cap: int = DEFAULT_ORDER_CAP,
           bisection_cap: int = DEFAULT_BISECTION_CAP,
           skew_cap: int = DEFAULT_SKEW_CAP) -> tuple[bool, str]:
    """Re-run the battery that emits the named check of the recorded
    instance and compare.

    Returns (ok, message).  The witness must reproduce exactly: a witness
    that does not re-verify means the original report cannot be trusted.
    The caps must be the ones the record was made with.
    """
    from .files import parse_path

    path = record.get("instance")
    name = record.get("name")
    if not path or not name:
        return False, "record needs 'instance' and 'name' fields"
    if str(path).startswith("fuzz:"):
        from .fuzz import fuzz_instance
        try:
            instance = fuzz_instance(str(path))
        except (TypeError, ValueError) as exc:
            return False, f"bad fuzz source tag {path!r}: {exc}"
    else:
        instance = parse_path(path, cap=cap)
    # only a battery whose prefix heads the name can emit the row
    rows = [row for prefix, battery in _batteries(instance, bisection_cap, skew_cap)
            if name.startswith(prefix + ".")
            for row in battery().results if f"{prefix}.{row.name}" == name]
    if not rows:
        return False, f"check {name} did not run"
    row = rows[0]
    if row.status != record.get("status"):
        return False, (f"status changed: recorded {record.get('status')}, "
                       f"got {row.status}")
    if jsonable(row.witness) != record.get("witness"):
        return False, "witness changed"
    return True, f"{name}: {row.status} reproduced"
