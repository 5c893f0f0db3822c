"""Self-tests of the benchmark's tracing, speed probe and correctness gate.

    PYTHONPATH=src python3 -m pytest -q bench/test_tracing.py
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [p for p in (SRC, BENCH) if p not in sys.path]

import run as bench_run  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import Iteration  # noqa: E402


def _small_run():
    from finsys import harness
    inst = harness.scenario("matrix-groupoid", n=2, K="F2")
    harness.run(inst)


def test_wrapper_counts_equal_cprofile_counts():
    """A reference the rebinding missed is called without its wrapper, so
    cProfile would count more calls of the original than the wrapper saw."""
    tracer = Tracer()
    profile = cProfile.Profile()
    with tracer.installed():
        profile.enable()
        _small_run()
        profile.disable()
    stats = pstats.Stats(profile).stats
    mismatched = {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        profiled = stats[key][1] if key in stats else 0
        traced = tracer.calls[tracer.names.index(name)]
        if profiled != traced:
            mismatched[name] = (traced, profiled)
    assert not mismatched, mismatched
    assert tracer.totals("finring.mul")[0] > 0
    assert tracer.totals("steinberg.translation")[0] > 0


def test_install_restores_every_reference():
    import finsys.finring as fr
    import finsys.harness.checks as checks
    mul, close, up = fr.FinRing.mul, fr._close_ideal, checks.unitality_predicates
    with Tracer().installed():
        assert fr.FinRing.mul is not mul
        assert checks.unitality_predicates is not up
        assert checks.unitality_predicates is fr.unitality_predicates
    assert (fr.FinRing.mul, fr._close_ideal, checks.unitality_predicates) == (mul, close, up)


_COUNTS = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
from finsys import harness
from tracing import Tracer, layer_metrics
tracer = Tracer()
with tracer.installed():
    instances = harness.random_instances(20260810, 6)
    instances.append(harness.scenario("matrix-groupoid", n=2, K="F2"))
    for inst in instances:
        harness.run(inst)
print(json.dumps({{k: v for k, (v, _) in layer_metrics(tracer).items()
                  if not k.endswith("_s")}}, sort_keys=True))
"""


def test_counts_repeat_across_runs_and_hash_seeds():
    """Counts, and the ratios built from them, are the same in repeated
    runs and under different string-hash seeds."""
    code = _COUNTS.format(src=SRC, bench=BENCH)
    seen = []
    for hash_seed in ("0", "1", "12345", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=300)
        seen.append(json.loads(proc.stdout))
    assert all(s == seen[0] for s in seen), seen
    assert seen[0]["finring.mul.calls"] > 0


def test_layer_metrics_name_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    tracer = Tracer()
    with tracer.installed():
        pass
    reported = {k: unit for k, (_, unit) in layer_metrics(tracer).items()}
    reported["trace.overhead_ratio"] = "ratio"
    assert reported == declared


def _iteration(statuses, reports, errors=()):
    it = Iteration(statuses=dict(statuses), reports=dict(reports))
    it.errors.extend(errors)
    return it


def test_gate_counts_fail_rows_errors_and_digest_mismatches():
    good = _iteration({"PASS": 3}, {0: "a"})
    assert bench_run._check([good, good], None)[:2] == (6, 0)
    assert bench_run._check([good], good.digest())[:2] == (3, 0)
    assert bench_run._check([good], "0" * 64)[1] == 1
    failing = _iteration({"PASS": 2, "FAIL": 1}, {0: "a"})
    assert bench_run._check([failing], None)[1] == 1
    raised = _iteration({"PASS": 1}, {0: "a", 1: "b"}, [(1, "KeyError: x")])
    assert bench_run._check([raised], None)[:2] == (2, 1)
    other = _iteration({"PASS": 3}, {0: "b"})
    assert bench_run._check([good, other], None)[1] == 1


def test_probe_clocks_exclude_probe_time_and_restore_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    probe = SpeedProbe()
    with probe:
        start, _ = probe.clocks()
        wall = time.perf_counter()
        while time.perf_counter() - wall < 0.3:
            pass
        raw, scaled = probe.clocks()
        wall = time.perf_counter() - wall
    assert probe.probes > 0
    assert abs((raw - start) + probe.probe_s - wall) < 0.01
    assert scaled > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
