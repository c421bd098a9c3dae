"""Command line interface.

Subcommands: check, homology, cone, demo, report, export.  Targets are
either shipped fixture names (see `chainalg demo --list`) or paths to
scenario JSON files.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 schema/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .rings import ring_from_name
from .complexes import ChainComplex, ComplexBundle
from . import fixtures as fx
from . import scenario as sc
from . import report as rp

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2


def _add_common(p, with_ring=True):
    p.add_argument("--format", choices=("md", "json"), default="md",
                   help="report rendering (default md)")
    p.add_argument("--output", "-o", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--timings", action="store_true",
                   help="include per-check timings (breaks byte-determinism)")
    p.add_argument("--window", type=int, default=12, metavar="N",
                   help="truncation window for fixtures (default 12)")
    if with_ring:
        p.add_argument("--ring", default="Z", metavar="RING",
                       help="coefficient ring for fixtures: Z, Q, GF(p)")


@functools.cache   # one per process, built by the first call to `main`
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainalg",
        description="Exact verification of graded bialgebra-type structures, "
                    "cone products, and chain-complex invariants.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run a scenario's or fixture's checks")
    p.add_argument("target", help="fixture name or scenario file")
    _add_common(p)

    p = sub.add_parser("homology", help="homology summaries of a complex")
    p.add_argument("target", help="fixture name or complex scenario file")
    p.add_argument("--cone", action="store_true",
                   help="include the cone of the scenario's chain map and "
                        "the transition automorphism")
    _add_common(p)

    p = sub.add_parser("cone", help="cone product construction and component "
                                    "cross-check")
    p.add_argument("target", help="fixture name or cone scenario file")
    _add_common(p)

    p = sub.add_parser("demo", help="full canned suite for a shipped fixture")
    p.add_argument("target", nargs="?", help="fixture name")
    p.add_argument("--list", action="store_true", help="list shipped fixtures")
    _add_common(p)

    p = sub.add_parser("report", help="batch-run several targets")
    p.add_argument("targets", nargs="+", help="fixture names or scenario files")
    _add_common(p)

    p = sub.add_parser("export", help="write a fixture as a scenario file")
    p.add_argument("target", help="fixture name")
    p.add_argument("--output", "-o", metavar="FILE")
    p.add_argument("--window", type=int, default=12, metavar="N")
    p.add_argument("--ring", default="Z", metavar="RING")
    return ap


def _is_fixture(target: str) -> bool:
    return target in fx.fixture_names()


def _load_scenario(target: str) -> sc.Scenario:
    try:
        return sc.load(target)
    except FileNotFoundError:
        raise sc.SchemaError("$", f"no such file or fixture: {target!r}; "
                                  f"fixtures: {', '.join(fx.fixture_names())}")


def _records_for_target(target: str, args, suite: str = "check"):
    window = fx.TruncationWindow(args.window)
    if _is_fixture(target):
        ring = ring_from_name(args.ring)
        return rp.fixture_records(target, ring, window, suite=suite,
                                  timings=args.timings)
    scenario = _load_scenario(target)
    prefix = (scenario.name or target) + "."
    if scenario.kind == "bialgebra":
        return rp.bialgebra_records(scenario.payload, scenario.checks, prefix,
                                    args.timings,
                                    reverse_bivector=scenario.reverse_bivector)
    if scenario.kind == "cone":
        return rp.cone_records(scenario.payload, scenario.checks, prefix,
                               args.timings)
    return rp.complex_records(scenario.payload, scenario.checks, prefix,
                              args.timings)


def _emit(report: rp.Report, args) -> int:
    text = (rp.render_json(report) if args.format == "json"
            else rp.render_markdown(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_check(args) -> int:
    records = _records_for_target(args.target, args, suite="check")
    return _emit(rp.Report(f"check {args.target}", records), args)


def cmd_demo(args) -> int:
    if args.list or not args.target:
        for name in fx.fixture_names():
            print(name)
        return EXIT_OK
    if not _is_fixture(args.target):
        raise sc.SchemaError("$", f"unknown fixture {args.target!r}; "
                                  f"fixtures: {', '.join(fx.fixture_names())}")
    records = _records_for_target(args.target, args, suite="demo")
    return _emit(rp.Report(f"demo {args.target}", records), args)


def cmd_homology(args) -> int:
    window = fx.TruncationWindow(args.window)
    ring = ring_from_name(args.ring)
    target = args.target
    if _is_fixture(target):
        inst = fx.make_fixture(target, window, ring)
        bundle = (inst if isinstance(inst, ComplexBundle)
                  else ComplexBundle(ChainComplex(inst.module)))
        records = rp.homology_records(bundle, args.cone, f"{target}.",
                                      args.timings)
    else:
        scenario = _load_scenario(target)
        if scenario.kind != "complex":
            raise sc.SchemaError("$.kind",
                                 "homology needs a complex scenario or fixture")
        prefix = (scenario.name or target) + "."
        records = rp.homology_records(scenario.payload, args.cone, prefix,
                                      args.timings)
        records += rp.complex_records(scenario.payload, scenario.checks, prefix,
                                      args.timings)
    return _emit(rp.Report(f"homology {target}", records), args)


def cmd_cone(args) -> int:
    window = fx.TruncationWindow(args.window)
    target = args.target
    if _is_fixture(target):
        ring = ring_from_name(args.ring)
        if target not in rp.CONE_FIXTURES:
            raise sc.SchemaError("$", f"fixture {target!r} has no cone-product "
                                      "data; use lambda-s3 or lambda-s1-*")
        inst = fx.make_fixture(target, window, ring)
        records = rp.fixture_cone_records(target, inst, f"{target}.",
                                          args.timings)
    else:
        scenario = _load_scenario(target)
        if scenario.kind != "cone":
            raise sc.SchemaError("$.kind", "cone needs a cone scenario or a "
                                           "lambda fixture")
        prefix = (scenario.name or target) + "."
        records = rp.cone_records(scenario.payload, scenario.checks, prefix,
                                  args.timings)
    return _emit(rp.Report(f"cone {target}", records), args)


def cmd_report(args) -> int:
    records = [r for t in args.targets
               for r in _records_for_target(t, args, suite="demo")]
    return _emit(rp.Report("report " + " ".join(args.targets), records), args)


def cmd_export(args) -> int:
    import json as _json

    window = fx.TruncationWindow(args.window)
    ring = ring_from_name(args.ring)
    if not _is_fixture(args.target):
        raise sc.SchemaError("$", f"export supports the shipped fixtures, "
                                  f"not {args.target!r}")
    inst = fx.make_fixture(args.target, window, ring)
    doc = (sc.export_complex(inst, args.target, rp.PAIR_CHECKS)
           if isinstance(inst, ComplexBundle)
           else sc.export_bialgebra(inst, args.ring))
    text = _json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "homology": cmd_homology,
        "cone": cmd_cone,
        "demo": cmd_demo,
        "report": cmd_report,
        "export": cmd_export,
    }
    try:
        return handlers[args.command](args)
    except sc.SchemaError as e:
        print(f"schema error at {e.path}: {e.message}", file=sys.stderr)
        return EXIT_SCHEMA
    except (KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
