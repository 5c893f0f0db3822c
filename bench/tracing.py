"""Span tracing of the finsys layers, installed from outside the package.

``Tracer.installed()`` replaces the public functions of every layer module
(plus the ring multiplications and the two closure helpers the per-layer
metrics need) by wrappers that record one span per call: span id, parent
span id, function, instance id, start and end.  Spans stay in memory until
``write_spans`` stores them at the end of the run.

A module that imported a function by name (``from ..finring import
ideal_closure``) holds its own reference, so every ``finsys`` module is
scanned and each reference to a wrapped function is rebound; restoring puts
the originals back.  ``test_tracing.py`` compares the wrappers' call counts
with cProfile's to catch a reference that was missed.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

# Layer name -> modules whose public functions belong to that layer.
LAYERS = {
    "finring": ["finsys.finring"],
    "invsgrp": ["finsys.invsgrp"],
    "syscheck": ["finsys.syscheck"],
    "paction": ["finsys.paction"],
    "skewconstruct": ["finsys.skewconstruct"],
    "steinberg": ["finsys.steinberg"],
    "harness": ["finsys.harness.checks", "finsys.harness.scenarios",
                "finsys.harness.fuzz", "finsys.harness.files"],
}

# Methods and private helpers of finring that per-layer metrics name, as
# (class or None for the module, attribute, span name).
EXTRA = [
    ("FinRing", "mul", "finring.mul"),
    ("FinRing", "mul_basis_left", "finring.mul_basis_left"),
    ("FinRing", "mul_basis_right", "finring.mul_basis_right"),
    (None, "_close_ideal", "finring.close_ideal"),
    (None, "_adjoin", "finring.adjoin"),
]

SPAN_FIELDS = [("id", "i"), ("parent", "i"), ("name", "i"), ("instance", "i"),
               ("start", "d"), ("end", "d")]


def fingerprint(obj):
    """Structural identity of a ring, groupoid, semigroup or partial action.

    Equal fingerprints mean the same mathematical object, so calls that
    rebuild from equal inputs count as repeats even when the Python objects
    differ.  Anything else is keyed by identity.
    """
    from finsys.finring import FinRing
    from finsys.invsgrp import FinGroupoid, InverseSemigroup
    from finsys.paction import PartialAction

    if isinstance(obj, FinRing):
        return ("ring", obj.ranks, obj.sc)
    if isinstance(obj, FinGroupoid):
        return ("groupoid", frozenset(obj.morphisms),
                frozenset(obj.dmap.items()), frozenset(obj.cmap.items()),
                frozenset(obj._compose.items()))
    if isinstance(obj, InverseSemigroup):
        return ("semigroup", frozenset(obj._table.items()))
    if isinstance(obj, PartialAction):
        return ("paction", fingerprint(obj.ring), fingerprint(obj.sgrp),
                frozenset((s, d.elements) for s, d in obj.domains.items()),
                frozenset((s, frozenset(m.items())) for s, m in obj.maps.items()))
    return ("id", id(obj))


class Tracer:
    """In-memory span recorder with per-function aggregates."""

    def __init__(self):
        self.names: list[str] = []
        self.originals: dict = {}    # span name -> wrapped function
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.cum_s: list[float] = []
        self._active: list[int] = []
        self.spans = {f: array(code) for f, code in SPAN_FIELDS}
        self.instance = -1           # id stamped on spans; -1 is set-up
        self._stack = [-1]
        self._child = [0.0]
        self._ids = itertools.count()
        # observations that per-layer ratios need
        self.close_early = 0
        self.close_whole = 0
        self.adjoin_added = 0
        self.sic_whole = 0
        self._mul_pairs: dict[int, set] = {}
        self.mul_distinct = 0
        self._keys: dict[str, set] = {}

    # -- recording ----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.cum_s.append(0.0)
        self._active.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, before=None, after=None):
        nid = self._name_id(name)
        self.originals[name] = fn
        stack, child, ids = self._stack, self._child, self._ids
        calls, self_s, cum_s, active = self.calls, self.self_s, self.cum_s, self._active
        sp = self.spans
        a_id, a_parent, a_name, a_inst, a_start, a_end = (
            sp["id"].append, sp["parent"].append, sp["name"].append,
            sp["instance"].append, sp["start"].append, sp["end"].append)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = next(ids)
            stack.append(sid)
            child.append(0.0)
            active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                d = t1 - t0
                child[-1] += d
                a_id(sid)
                a_parent(stack[-1])
                a_name(nid)
                a_inst(tracer.instance)
                a_start(t0)
                a_end(t1)
                calls[nid] += 1
                self_s[nid] += d - inner
                active[nid] -= 1
                if not active[nid]:
                    cum_s[nid] += d
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- observers ----------------------------------------------------------
    def _observe_mul(self, args):
        ring, x, y = args
        pairs = self._mul_pairs.get(id(ring))
        if pairs is None:
            pairs = self._mul_pairs[id(ring)] = set()
            weakref.finalize(ring, self._fold_pairs, id(ring))
        pairs.add((x, y))

    def _fold_pairs(self, key):
        self.mul_distinct += len(self._mul_pairs.pop(key, ()))

    def _observe_close(self, args, result):
        elems, stopped = result
        self.close_early += bool(stopped)
        self.close_whole += len(elems) == args[0].order

    def _observe_adjoin(self, args, result):
        self.adjoin_added += len(result)

    def _observe_sic(self, args, result):
        self.sic_whole += len(result) == args[0].ring.order

    def _distinct(self, name, nargs):
        seen = self._keys.setdefault(name, set())

        def before(args):
            seen.add((self.instance, *(fingerprint(a) for a in args[:nargs])))
        return before

    def distinct(self, name) -> int:
        """Distinct (instance id, structural argument) pairs ``name`` saw."""
        return len(self._keys.get(name, ()))

    def flush(self):
        """Fold the distinct-pair sets of rings that are still alive."""
        for key in list(self._mul_pairs):
            self._fold_pairs(key)

    # -- installation -------------------------------------------------------
    def _targets(self):
        """Wrappers for everything the tracer covers: (function, wrapper)
        pairs for module functions and (class, attribute, method, wrapper)
        for methods."""
        import finsys.finring as fr
        hooks = {
            "finring.mul": dict(before=self._observe_mul),
            "finring.close_ideal": dict(after=self._observe_close),
            "finring.adjoin": dict(after=self._observe_adjoin),
            "syscheck.system_ideal_closure": dict(after=self._observe_sic),
            "skewconstruct.build_skew_ring": dict(
                before=self._distinct("skewconstruct.build_skew_ring", 1)),
            "steinberg.ga_partial_action": dict(
                before=self._distinct("steinberg.ga_partial_action", 2)),
            "invsgrp.bisection_semigroup": dict(
                before=self._distinct("invsgrp.bisection_semigroup", 1)),
        }
        functions, methods = [], []
        for layer, modnames in LAYERS.items():
            for modname in modnames:
                mod = importlib.import_module(modname)
                for attr, fn in sorted(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn) \
                            or fn.__module__ != modname:
                        continue
                    name = f"{layer}.{attr}"
                    functions.append((fn, self.wrap(fn, name, **hooks.get(name, {}))))
        for owner, attr, name in EXTRA:
            if owner is None:
                fn = getattr(fr, attr)
                functions.append((fn, self.wrap(fn, name, **hooks.get(name, {}))))
            else:
                cls = getattr(fr, owner)
                fn = cls.__dict__[attr]
                methods.append((cls, attr, fn,
                                self.wrap(fn, name, **hooks.get(name, {}))))
        return functions, methods

    @contextmanager
    def installed(self):
        """Wrap every target and rebind each module-level reference to it."""
        functions, methods = self._targets()
        wrappers = {id(fn): wrapper for fn, wrapper in functions}
        rebound = []
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    rebound.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for cls, attr, fn, wrapper in methods:
            setattr(cls, attr, wrapper)
        try:
            yield self
        finally:
            for cls, attr, fn, wrapper in methods:
                setattr(cls, attr, fn)
            for mod, attr, value in rebound:
                setattr(mod, attr, value)
            self.flush()

    # -- results ------------------------------------------------------------
    def totals(self, *names: str):
        """Summed (calls, self_s, cum_s) over the given span names."""
        ids = [self.names.index(n) for n in names]
        return (sum(self.calls[i] for i in ids),
                sum(self.self_s[i] for i in ids),
                sum(self.cum_s[i] for i in ids))

    def write_spans(self, path_stem: str):
        """Write the spans as one binary array per field plus a JSON index."""
        header = {"names": self.names, "count": len(self.spans["id"]),
                  "byteorder": sys.byteorder,
                  "fields": [[f, code, self.spans[f].itemsize]
                             for f, code in SPAN_FIELDS]}
        with open(path_stem + ".bin", "wb") as out:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(out)
        with open(path_stem + ".json", "w") as out:
            json.dump(header, out)


def _package_modules():
    """Every loaded finsys module.  A module imported later binds names from
    the already-rebound source modules, so it needs no rebinding."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "finsys" or name.startswith("finsys."))]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics as name -> (value, unit).  A ratio whose base is
    zero (the function never ran) reads 0."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    calls, self_s, _ = t.totals("finring.mul")
    put("finring.mul.calls", calls, "count")
    put("finring.mul.self_s", self_s, "s")
    put("finring.mul.distinct_ratio", _ratio(t.mul_distinct, calls), "ratio")
    calls, self_s, _ = t.totals("finring.mul_basis_left", "finring.mul_basis_right")
    put("finring.mul_basis.calls", calls, "count")
    put("finring.mul_basis.self_s", self_s, "s")
    calls, self_s, _ = t.totals("finring.close_ideal")
    put("finring.close_ideal.calls", calls, "count")
    put("finring.close_ideal.self_s", self_s, "s")
    put("finring.close_ideal.early_stop_ratio", _ratio(t.close_early, calls), "ratio")
    put("finring.close_ideal.whole_ratio", _ratio(t.close_whole, calls), "ratio")
    put("finring.adjoin.calls", t.totals("finring.adjoin")[0], "count")
    put("finring.adjoin.added", t.adjoin_added, "count")
    put("finring.quotient_ring.cum_s", t.totals("finring.quotient_ring")[2], "s")
    put("finring.unitality_predicates.calls",
        t.totals("finring.unitality_predicates")[0], "count")

    calls, _, cum_s = t.totals("syscheck.is_system_simple")
    put("syscheck.is_system_simple.calls", calls, "count")
    put("syscheck.is_system_simple.cum_s", cum_s, "s")
    calls, self_s, _ = t.totals("syscheck.system_ideal_closure")
    put("syscheck.system_ideal_closure.calls", calls, "count")
    put("syscheck.system_ideal_closure.self_s", self_s, "s")
    put("syscheck.system_ideal_closure.whole_ratio", _ratio(t.sic_whole, calls), "ratio")
    for fn in ("theorem_verdicts", "structural_predicates", "epsilon_characterizations"):
        put(f"syscheck.{fn}.cum_s", t.totals(f"syscheck.{fn}")[2], "s")

    calls, self_s, cum_s = t.totals("paction.validate_partial_action")
    put("paction.validate_partial_action.calls", calls, "count")
    put("paction.validate_partial_action.self_s", self_s, "s")
    put("paction.validate_partial_action.cum_s", cum_s, "s")
    put("paction.s_invariant_closure.calls",
        t.totals("paction.s_invariant_closure")[0], "count")

    calls, _, cum_s = t.totals("skewconstruct.build_skew_ring")
    put("skewconstruct.build_skew_ring.calls", calls, "count")
    put("skewconstruct.build_skew_ring.cum_s", cum_s, "s")
    put("skewconstruct.build_skew_ring.repeat_ratio",
        _ratio(calls, t.distinct("skewconstruct.build_skew_ring")), "ratio")
    put("skewconstruct.build_L_pi.cum_s", t.totals("skewconstruct.build_L_pi")[2], "s")
    put("skewconstruct.relation_ideal.cum_s",
        t.totals("skewconstruct.relation_ideal")[2], "s")

    calls, self_s, cum_s = t.totals("steinberg.translation")
    put("steinberg.translation.calls", calls, "count")
    put("steinberg.translation.self_s", self_s, "s")
    put("steinberg.translation.cum_s", cum_s, "s")
    calls = t.totals("steinberg.ga_partial_action")[0]
    put("steinberg.ga_partial_action.calls", calls, "count")
    put("steinberg.ga_partial_action.repeat_ratio",
        _ratio(calls, t.distinct("steinberg.ga_partial_action")), "ratio")
    put("steinberg.steinberg_ring.calls", t.totals("steinberg.steinberg_ring")[0], "count")

    calls, _, cum_s = t.totals("invsgrp.bisection_semigroup")
    put("invsgrp.bisection_semigroup.calls", calls, "count")
    put("invsgrp.bisection_semigroup.repeat_ratio",
        _ratio(calls, t.distinct("invsgrp.bisection_semigroup")), "ratio")
    put("invsgrp.bisection_semigroup.cum_s", cum_s, "s")

    put("harness.run.self_s", t.totals("harness.run")[1], "s")
    put("harness.random_instances.cum_s", t.totals("harness.random_instances")[2], "s")
    put("harness.scenario.cum_s", t.totals("harness.scenario")[2], "s")
    return out
