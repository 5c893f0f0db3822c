"""Summarize the results in bench/out/ as one trajectory point.

    python3 bench/summarize.py [--commit SHA]

For each workload with untraced results, prints each end-to-end metric's
median, quartiles (``statistics.quantiles(values, n=4)``) and spread (the
distance between the quartiles as a share of the median) over the run seeds
found, and the same for the raw times behind ``wall_s`` and ``setup_s``; for each workload with a traced result, its per-layer counts.  The
output is one JSON object, the shape of an entry of ``trajectory.json``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _quartiles(values, unit) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "unit": unit}


def summarize(commit=None) -> dict:
    runs, traced, env = {}, {}, None
    for path in sorted(glob.glob(os.path.join(OUT, "*-seed*-trace*.json"))):
        with open(path) as f:
            result = json.load(f)
        name = result["env"]["workload"]
        if result["env"]["trace"]:
            traced[name] = {k: v["value"] for k, v in result["metrics"].items()
                            if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"}
        else:
            runs.setdefault(name, []).append(result)
            env = env or result["env"]
    point = {"commit": commit or (env or {}).get("commit"),
             "environment": {k: (env or {}).get(k) for k in ("python", "nproc", "cpu")},
             "workloads": {}}
    for name, results in sorted(runs.items()):
        metrics = {}
        for metric in results[0]["metrics"]:
            metrics[metric] = _quartiles(
                [r["metrics"][metric]["value"] for r in results],
                results[0]["metrics"][metric]["unit"])
        # The raw times the gated reference seconds were scaled from.
        raw = {metric: _quartiles([r["info"][metric] for r in results], "s")
               for metric in ("wall_raw_s", "setup_raw_s")}
        point["workloads"][name] = {
            "runs": len(results),
            "seeds": sorted(r["env"]["seed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "report_digest": results[0]["info"]["report_digest"],
            "end_to_end": metrics,
            "raw_not_gated": raw,
        }
    for name, layer in sorted(traced.items()):
        point["workloads"].setdefault(name, {})["per_layer_counts"] = layer
    return point


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--commit", help="commit to record when the results carry none "
                        "(they were made outside a git repository)")
    args = parser.parse_args()
    print(json.dumps(summarize(args.commit), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
