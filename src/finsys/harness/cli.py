"""Command line front end.

Exit codes: 0 = no FAIL row, 1 = at least one FAIL, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..finring import CapExceeded, DEFAULT_ORDER_CAP, MalformedSpec, is_simple
from ..invsgrp import GroupoidError, NoInverse, NonUniqueInverse, NotAssociative
from ..paction import AxiomI, AxiomII, AxiomIII, NotIdeal, NotIso
from ..skewconstruct import (
    DEFAULT_SKEW_CAP,
    build_skew_ring,
    skew_groupoid_verdict,
    skew_simplicity_verdict,
)
from ..steinberg import DEFAULT_BISECTION_CAP
from ..syscheck import ProductEscapes, SumNotWhole
from .checks import Report, ReportRow, jsonable, replay, run
from .files import ParseError, UnresolvedRef, parse_path, serialize
from .fuzz import random_instances
from .scenarios import BadParams, SCENARIOS, scenario

# stable tokens for the two headline verdict batteries
VERDICT_TOKENS = {
    "thm5.8": ("paction", skew_simplicity_verdict),
    "thm7.5": ("gpa", skew_groupoid_verdict),
}


def _print_report(report: Report, fmt: str, timings: bool) -> int:
    if fmt == "machine":
        text = report.machine(timings=timings)
        if text:
            print(text)
    else:
        print(report.text(timings=timings))
    return report.exit_code()


def _cmd_verify(args) -> int:
    instance = parse_path(args.file, cap=args.cap)
    checks = None if args.checks in (None, "all") else args.checks.split(",")
    report = run(instance, checks=checks, cap=args.cap,
                 bisection_cap=args.bisection_cap, skew_cap=args.skew_cap)
    return _print_report(report, args.format, args.timings)


def _cmd_scenario(args) -> int:
    params = {}
    for tok in args.params:
        if "=" not in tok:
            raise BadParams(f"parameters look like key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        params[key] = value
    inst = scenario(args.name, **params)
    text = serialize(inst)
    if args.emit:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.emit} ({len(inst.order)} sections)")
    if args.run or not args.emit:
        inst.source = args.emit or f"scenario:{args.name}"
        report = run(inst, cap=args.cap, bisection_cap=args.bisection_cap,
                     skew_cap=args.skew_cap)
        return _print_report(report, args.format, args.timings)
    return 0


def _cmd_fuzz(args) -> int:
    instances = random_instances(args.seed, args.count,
                                 max_ring=args.max_ring, max_lpi=args.max_lpi)
    rows = []
    failures = 0
    for inst in instances:
        report = run(inst, cap=args.cap, bisection_cap=args.bisection_cap,
                     skew_cap=args.skew_cap)
        failures += report.fail_count()
        if args.format == "machine":
            text = report.machine(timings=args.timings)
            if text:
                print(text)
        else:
            for row in report.rows:
                print(f"{inst.source} {row.line(timings=args.timings)}")
        rows.extend(report.rows)
    # machine output stays pure JSONL, so it can be fed to replay as is
    print(f"SUMMARY: {len(instances)} instances, {len(rows)} checks, "
          f"{failures} failures",
          file=sys.stderr if args.format == "machine" else sys.stdout)
    return 1 if failures else 0


def _cmd_replay(args) -> int:
    ok_all = True
    with open(args.witness, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if args.fail_only and record.get("status") != "FAIL":
                continue
            ok, message = replay(record, cap=args.cap,
                                 bisection_cap=args.bisection_cap,
                                 skew_cap=args.skew_cap)
            print(("REPLAY OK: " if ok else "REPLAY MISMATCH: ") + message)
            ok_all = ok_all and ok
    return 0 if ok_all else 1


def _cmd_build_skew(args) -> int:
    instance = parse_path(args.file, cap=args.cap)
    pi = instance.get("paction", args.name)
    skew = build_skew_ring(pi, cap=args.skew_cap)
    info = {
        "block_ring_order": skew.lpi.ring.order,
        "block_ring_associative": skew.lpi.ring.is_associative,
        "relation_ideal_order": len(skew.relation_ideal),
        "skew_ring_order": skew.ring.order,
        "skew_ring_simple": is_simple(skew.ring),
        "coefficient_sum_defined": skew.t_ok,
        "base_embedding_defined": skew.has_base_image(),
    }
    print(json.dumps(jsonable(info), sort_keys=True, indent=2))
    return 0


def _cmd_verdict(args) -> int:
    instance = parse_path(args.file, cap=args.cap)
    kind, battery = VERDICT_TOKENS[args.token]
    obj = instance.get(kind, args.name)
    verdict = battery(obj, cap=args.skew_cap)
    report = Report(source=instance.source)
    report.rows = [ReportRow(f"{kind}.{args.name}.{r.name}", r.status, r.witness)
                   for r in verdict.results]
    return _print_report(report, args.format, args.timings)


def _cmd_steinberg(args) -> int:
    from .checks import _steinberg_battery

    instance = parse_path(args.file, cap=args.cap)
    K = instance.get("ring", args.ring)
    G = instance.get("groupoid", args.groupoid)
    verdict = _steinberg_battery(K, G, args.bisection_cap, args.skew_cap)
    report = Report(source=instance.source)
    report.rows = [ReportRow(f"steinberg.{args.ring}.{args.groupoid}.{r.name}",
                             r.status, r.witness) for r in verdict.results]
    return _print_report(report, args.format, args.timings)


def _common(parser):
    parser.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP,
                        help="ring order cap")
    parser.add_argument("--skew-cap", type=int, default=DEFAULT_SKEW_CAP,
                        help="cap on the block ring order")
    parser.add_argument("--bisection-cap", type=int,
                        default=DEFAULT_BISECTION_CAP,
                        help="max morphisms for bisection enumeration")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text")
    parser.add_argument("--timings", action="store_true",
                        help="include timings (reports stop being byte-stable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsys",
        description="Construct finite graded rings, partial actions, skew "
                    "rings and groupoid convolution algebras, and verify "
                    "their structure theory exhaustively.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run check batteries on an instance file")
    p.add_argument("file")
    p.add_argument("--checks", default="all",
                   help="comma list of name substrings (default: all)")
    _common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("scenario", help="build a named scenario instance")
    p.add_argument("name", choices=sorted(SCENARIOS))
    p.add_argument("params", nargs="*", help="key=value parameters")
    p.add_argument("--emit", help="write the instance file here")
    p.add_argument("--run", action="store_true",
                   help="also run the batteries after emitting")
    _common(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("fuzz", help="generate and verify random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--max-ring", type=int, default=64)
    p.add_argument("--max-lpi", type=int, default=1024)
    _common(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("replay", help="re-verify recorded check outcomes")
    p.add_argument("witness", help="file of machine-format records")
    p.add_argument("--fail-only", action="store_true",
                   help="replay only FAIL records")
    _common(p)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("build-skew", help="build the skew ring of a partial action")
    p.add_argument("file")
    p.add_argument("name", help="paction section name")
    _common(p)
    p.set_defaults(func=_cmd_build_skew)

    p = sub.add_parser("verdict", help="run a headline verdict battery")
    p.add_argument("token", choices=sorted(VERDICT_TOKENS))
    p.add_argument("file")
    p.add_argument("name", help="section name the battery applies to")
    _common(p)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("steinberg", help="convolution algebra verdicts for a "
                                         "ring and a groupoid")
    p.add_argument("action", choices=("verdict",))
    p.add_argument("file")
    p.add_argument("ring")
    p.add_argument("groupoid")
    _common(p)
    p.set_defaults(func=_cmd_steinberg)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, UnresolvedRef, BadParams, MalformedSpec,
            FileNotFoundError, json.JSONDecodeError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotIso, NotIdeal, AxiomI, AxiomII, AxiomIII, NotAssociative,
            NoInverse, NonUniqueInverse, GroupoidError, SumNotWhole,
            ProductEscapes) as exc:
        # an invalid instance (InternalInconsistency, a bug, is not caught);
        # the message comes first, NotIso's args go on with a label and a pair
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
