"""Command line interface.

Subcommands: check, homology, cone, demo, report, export.  Targets are
either shipped fixture names (see `chainalg demo --list`) or paths to
scenario JSON files.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 schema/usage errors and files that cannot be read or
written.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .rings import ring_from_name
from .complexes import ComplexBundle
from . import fixtures as fx
from . import scenario as sc
from . import report as rp

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_SCHEMA = 2


def _add_common(p):
    p.add_argument("--format", choices=("md", "json"), default="md",
                   help="report rendering (default md)")
    p.add_argument("--output", "-o", metavar="FILE",
                   help="write the report to FILE instead of stdout")
    p.add_argument("--timings", action="store_true",
                   help="include per-check timings (breaks byte-determinism)")
    p.add_argument("--window", type=int, default=12, metavar="N",
                   help="truncation window for fixtures (default 12)")
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


def _scenario(target: str, args, demo: bool) -> sc.Scenario:
    """A scenario file, or a fixture as the kind and payload its exported
    file gives, running its demo or else its check suite."""
    window = fx.TruncationWindow(args.window)
    if target in fx.fixture_names():
        ring = ring_from_name(args.ring)
        payload = fx.make_fixture(target, window, ring)
        kind = "complex" if isinstance(payload, ComplexBundle) else "bialgebra"
        return sc.Scenario(kind, target, ring, payload,
                           rp.FIXTURES[target][demo], window)
    try:
        return sc.load(target)
    except FileNotFoundError:
        raise sc.SchemaError("$", f"no such file or fixture: {target!r}; "
                                  f"fixtures: {', '.join(fx.fixture_names())}")


def _own_checks(scn):
    return scn.checks


def _report(args, targets, demo: bool, select) -> int:
    """Emit the records of select(scenario), the checks to run, for each
    target in order."""
    records = []
    for target in targets:
        scn = _scenario(target, args, demo)
        records += rp.records(scn, select(scn), (scn.name or target) + ".",
                              args.timings)
    return _emit(rp.Report(f"{args.command} {' '.join(targets)}", records),
                 args)


def _write(text: str, args):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(report: rp.Report, args) -> int:
    _write(rp.render_json(report) if args.format == "json"
           else rp.render_markdown(report), args)
    return EXIT_CHECK_FAILED if report.failed else EXIT_OK


def cmd_check(args) -> int:
    return _report(args, [args.target], False, _own_checks)


def cmd_demo(args) -> int:
    if args.list or not args.target:
        for name in fx.fixture_names():
            print(name)
        return EXIT_OK
    if args.target not in fx.fixture_names():
        raise sc.SchemaError("$", f"unknown fixture {args.target!r}; "
                                  f"fixtures: {', '.join(fx.fixture_names())}")
    return _report(args, [args.target], True, _own_checks)


def cmd_homology(args) -> int:
    def select(scn):
        if scn.window is None and scn.kind != "complex":
            raise sc.SchemaError("$.kind",
                                 "homology needs a complex scenario or fixture")
        return ((rp.HOMOLOGY if args.cone else rp.HOMOLOGY[:1])
                + (scn.checks if scn.window is None else ()))
    return _report(args, [args.target], False, select)


def cmd_cone(args) -> int:
    def select(scn):
        if scn.window is None:
            if scn.kind != "cone":
                raise sc.SchemaError("$.kind", "cone needs a cone scenario "
                                               "or a lambda fixture")
            return scn.checks
        checks = tuple(c for c in scn.checks if rp.CHECKS[c][0] == "cone")
        if not checks:
            raise sc.SchemaError("$", f"fixture {scn.name!r} has no "
                                      "cone-product data; use lambda-s3 or "
                                      "lambda-s1-*")
        return checks
    return _report(args, [args.target], True, select)


def cmd_report(args) -> int:
    return _report(args, args.targets, True, _own_checks)


def cmd_export(args) -> int:
    if args.target not in fx.fixture_names():
        raise sc.SchemaError("$", f"export supports the shipped fixtures, "
                                  f"not {args.target!r}")
    scn = _scenario(args.target, args, False)
    doc = (sc.export_complex(scn.payload, scn.name,
                             [c for c in scn.checks if rp.CHECKS[c][0]])
           if scn.kind == "complex"
           else sc.export_bialgebra(scn.payload, args.ring))
    sc.ingest(doc)   # refuse, writing nothing, what `check` would refuse
    _write(json.dumps(doc, indent=2, ensure_ascii=False) + "\n", args)
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
    except (KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
