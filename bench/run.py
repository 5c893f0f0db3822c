"""The finsys benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 bench/run.py [--workload corpus|galois8|disconnected3|all]
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--corpus-seed N]

Run from the repository root; finsys is imported from ``src/``.  Each
workload runs in its own process as a closed loop: one caller, no threads,
the next instance starts when the previous report is complete.  With
``--workload all`` (the default) every workload runs in a child process, one
after the other.

``--trace 0`` times set-up, then builds fresh inputs and runs the whole
workload repeatedly until ``--seconds`` of run time have been measured (and
at least the workload's minimum number of passes), and reports the
end-to-end metrics.  ``--trace 1`` runs the workload once
untraced and once with every layer wrapped (see ``tracing.py``), reports the
per-layer metrics and the tracing overhead, and writes the spans to
``bench/out/``.  Both modes fail the run on a FAIL row, an exception from a
battery, reports that differ between passes (or between the traced and the
untraced pass), or a report that differs from the reference digest in
``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (report rows), ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Set-up is timed in windows: one before the first pass and one after each
# pass, so that they span the same stretch of time as the passes.  The windows
# of a workload's minimum number of passes share SETUP_SECONDS.  A window's
# sample is its time divided by the builds in it; setup_s is the median
# sample.  A sample is a mean over many builds because a shared 2-vCPU host
# can alternate, every second or so, between two speeds up to 2x apart: the
# median of short samples would jump between them.
SETUP_SECONDS = 5.0


def _setup_window(workload, seed, corpus_seed, clocks, samples):
    """Append the mean per-build (raw, reference) set-up time over one window."""
    window = SETUP_SECONDS / (workload.min_passes + 1)
    builds, (raw, scaled) = 0, clocks()
    while builds == 0 or clocks()[0] - raw < window:
        workload.build(seed, corpus_seed)
        builds += 1
    raw_end, scaled_end = clocks()
    samples.append(((raw_end - raw) / builds, (scaled_end - scaled) / builds))


def _check(iterations, reference):
    """(attempted, failed, digest, notes) over a list of passes."""
    attempted = failed = 0
    notes = []
    for it in iterations:
        attempted += it.rows + len(it.errors)
        failed += it.statuses.get("FAIL", 0) + len(it.errors)
        for idx, message in it.errors:
            notes.append(f"instance {idx} raised {message}")
        if it.statuses.get("FAIL"):
            notes.append(f"{it.statuses['FAIL']} FAIL rows")
    digests = [it.digest() for it in iterations]
    if len(set(digests)) > 1:
        failed += 1
        notes.append(f"reports differ between passes: {digests}")
    if reference is not None and digests[0] != reference:
        failed += 1
        notes.append(f"report digest {digests[0]} differs from reference {reference}")
    return attempted, failed, digests[0], notes


def _environment(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit():
    """HEAD of the checkout; None when it is not a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _reference(workload, corpus_seed):
    with open(os.path.join(BENCH, "reference.json")) as f:
        return json.load(f).get(workload.reference_key(corpus_seed))


def run_untraced(workload, args):
    from probe import SpeedProbe
    from workloads import run_iteration
    # Untimed warm-up build: the first one also imports finsys.
    workload.build(args.seed, args.corpus_seed)
    probe = SpeedProbe()
    setup_samples = []
    with probe:
        clocks = probe.clocks
        _setup_window(workload, args.seed, args.corpus_seed, clocks, setup_samples)
        iterations = [run_iteration(workload, args.seed, args.corpus_seed,
                                    clocks=clocks)]
        # A user's process makes one pass; later passes would only add the
        # garbage of earlier ones, and how many fit depends on the host's
        # speed.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        _setup_window(workload, args.seed, args.corpus_seed, clocks, setup_samples)
        while len(iterations) < workload.min_passes \
                or sum(it.wall_s for it in iterations) < args.seconds:
            iterations.append(run_iteration(workload, args.seed, args.corpus_seed,
                                            clocks=clocks))
            _setup_window(workload, args.seed, args.corpus_seed, clocks,
                          setup_samples)
        raw_total, scaled_total = clocks()
    attempted, failed, digest, notes = _check(
        iterations, _reference(workload, args.corpus_seed))
    per_instance = [statistics.median(it.times[i] for it in iterations)
                    for i in sorted(iterations[0].times)]
    rows = sum(it.rows for it in iterations)
    skipped = sum(it.statuses.get("SKIPPED", 0) for it in iterations)
    metrics = {
        "wall_s": (statistics.median(it.scaled_s for it in iterations), "s"),
        "setup_s": (statistics.median(scaled for _, scaled in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "checks_not_skipped_ratio": ((rows - skipped) / rows if rows else 0.0, "ratio"),
    }
    info = {
        "iterations": len(iterations),
        "instances": len(per_instance),
        "checks_total": rows,
        "checks_failed": failed,
        "checks_skipped": skipped,
        "report_digest": digest,
        "wall_raw_s": statistics.median(it.wall_s for it in iterations),
        "setup_raw_s": statistics.median(raw for raw, _ in setup_samples),
        "wall_samples_s": [it.scaled_s for it in iterations],
        "wall_raw_samples_s": [it.wall_s for it in iterations],
        "instance_median_s": per_instance,
        "setup_samples_s": setup_samples,
        "probes": probe.probes,
        "probe_overhead_ratio": probe.probe_s / raw_total,
        "speed_ratio": scaled_total / raw_total,
    }
    return attempted, failed, metrics, info, notes


def run_traced(workload, args):
    from tracing import Tracer, layer_metrics
    from workloads import run_iteration
    base = run_iteration(workload, args.seed, args.corpus_seed)
    tracer = Tracer()
    with tracer.installed():
        traced = run_iteration(workload, args.seed, args.corpus_seed, tracer)
    attempted, failed, digest, notes = _check(
        [base, traced], _reference(workload, args.corpus_seed))
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced.wall_s / base.wall_s - 1, "ratio")
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"spans-{workload.name}-seed{args.seed}")
    tracer.write_spans(stem)
    info = {
        "untraced_wall_s": base.wall_s,
        "traced_wall_s": traced.wall_s,
        "spans": len(tracer.spans["id"]),
        "spans_file": os.path.relpath(stem + ".bin", ROOT),
        "checks_total": base.rows,
        "checks_failed": failed,
        "checks_skipped": base.statuses.get("SKIPPED", 0),
        "report_digest": digest,
    }
    return attempted, failed, metrics, info, notes


def run_one(args):
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    attempted, failed, metrics, info, notes = runner(workload, args)
    env = _environment(args)
    env["trace_overhead_ratio"] = metrics["trace.overhead_ratio"][0] if args.trace else None

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if not args.trace:
        # Raw times, printed, not gated: see README.md, "End-to-end metrics".
        print(f"wall_raw_s {info['wall_raw_s']} s")
        print(f"setup_raw_s {info['setup_raw_s']} s")
        print(f"speed_ratio {info['speed_ratio']} ratio (reference ÷ raw seconds, "
              f"{info['probes']} probes, overhead {info['probe_overhead_ratio']:.4f})")
    if info.get("instances", 1) > 1:
        # Printed, not gated: see README.md, "End-to-end metrics".
        quantiles = statistics.quantiles(info["instance_median_s"], n=100)
        for p in (50, 90):
            print(f"instance_p{p}_ms {1000 * quantiles[p - 1]} ms "
                  f"(of {info['instances']} instances)")
    base = info["checks_total"]
    print(f"checks_failed {info['checks_failed']} count (of {base})")
    print(f"checks_skipped {info['checks_skipped']} count (of {base})")
    print(f"report_digest {info['report_digest']}")
    for note in notes:
        print(f"error: {note}")
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT, exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(result, env=env, info=info, notes=notes), f, indent=1,
                  sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own child process, sequentially."""
    from workloads import WORKLOADS
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines() or [""]
        print(f"== {name}")
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            results[name] = None
    ok = all(r is not None for r in results.values())
    print(json.dumps({
        "correct": ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{m}": v for w, r in results.items() if r
                    for m, v in r["metrics"].items()},
    }, sort_keys=True))
    return status if ok else 2


def main(argv=None):
    from workloads import DEFAULT_CORPUS_SEED, WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: the order corpus instances run in")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="run time to measure with --trace 0")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                        help="seed of random_instances for the corpus workload")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "finsys", "__init__.py")):
        print(f"bench: finsys sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
