"""Command line front-end.

``modpoints run [suite]`` executes verification suites and emits a text or
JSON report (exit 0 when everything passes, 1 on failures, 2 on usage
errors and malformed input, 3 when a suite raised; the report then shows
it as an error check and still holds the other suites).  The remaining
subcommands expose individual computations: stability verdicts,
quadratic-space censuses and group data, blow-up chart reports, Betti
tables and the divisor ledger.  Each handler returns its result, reading
any quantity a suite also checks from a ``checks.Quantities``, the
registry the suites read; ``main`` encodes it with ``checks.encode`` and
writes it, as JSON unless ``run`` asks for text.  All output is exact.
``fqspace``, ``betti`` and ``picard`` are imported by the handlers that use
them, so that a command loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from contextlib import nullcontext
from typing import Optional, Sequence

from . import blowup, checks, stability

MAX_TABLE_DEGREE = 40  # 37338 partitions, about 3 MB of output


class InputError(ValueError):
    """Malformed command line input, reported in one line with exit code 2."""


def _cmd_run(args) -> dict:
    names = checks.SUITE_NAMES if args.suite == "all" else (args.suite,)
    return checks.run_report(names)


def _cmd_stability(args) -> dict:
    if args.config is not None:
        try:
            parts = tuple(int(p) for p in args.config.split(","))
            config = stability.PointConfig.from_parts(parts)
        except ValueError as exc:
            raise InputError(f"--config {args.config}: {exc}") from None
        return {"config": parts, **checks.encode(stability.classify(config))}
    if not 1 <= args.table <= MAX_TABLE_DEGREE:
        raise InputError(f"--table {args.table}: degree must be between 1 and {MAX_TABLE_DEGREE}")
    return checks.Quantities().verdict_table(args.table)


def _cmd_fq(args) -> dict:
    from . import fqspace

    if args.action == "census":
        zero, iso, non = fqspace.census()
        return {"zero": zero, "isotropic": iso, "nonisotropic": non}
    if args.action == "perp":
        # int(..., 16) would also take "1_0", spaces and non-ASCII digits
        if not re.fullmatch("(0x)?[0-9a-fA-F]+", args.vector):
            raise InputError(f"fq perp {args.vector}: expected hex digits, optionally after 0x")
        vector = int(args.vector, 16)
        try:
            iso, non = fqspace.perp_census(vector)
        except ValueError as exc:
            raise InputError(f"fq perp {args.vector}: {exc}") from None
        return {"vector": f"0x{vector:02x}", "isotropic": iso, "nonisotropic": non}
    return checks.Quantities().group_summary()


def _cmd_slice(args):
    quantities = checks.Quantities()
    if args.action == "transversality":
        names = blowup.CHART_NAMES if args.chart == "all" else (args.chart,)
        return [quantities.pullback(name) for name in names]
    per_chart = {
        name: [{"support": support, "order": order} for support, order in rows]
        for name, rows in quantities.scan().per_chart.items()
    }
    return {**quantities.scan_summary(), "per_chart": per_chart}


def _cmd_betti(args) -> dict:
    from . import betti

    if args.action == "kirwan":
        table = betti.kirwan_betti()
    elif args.action == "tor":
        table = betti.tor_betti_ordered() if args.ordered else betti.tor_betti_unordered()
    else:
        table = betti.BettiTable(betti.boundary_invariants())
    return table.by_degree()


def _cmd_picard(args):
    from . import picard

    if args.action == "verify":
        return picard.verify_blowup_identities()
    if args.action == "intersections":
        numbers = picard.top_self_intersections()
        return {
            "T_i^5": numbers.component,
            "T_ord^5": numbers.ordered,
            "T^5": numbers.unordered,
        }
    return checks.Quantities().obstruction()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modpoints",
        description="Exact checks for the moduli space of 8 points on the projective line",
    )
    parser.set_defaults(format="json")  # only ``run`` offers text
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", help="write to this file instead of stdout")
    commands = parser.add_subparsers(dest="command", required=True)

    def leaf(parent, name, func, **kwargs):
        command = parent.add_parser(name, parents=[output], **kwargs)
        command.set_defaults(func=func)
        return command

    def actions(name, help):
        return commands.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    run = leaf(commands, "run", _cmd_run, help="run verification suites")
    suites = ("all",) + checks.SUITE_NAMES
    run.add_argument("suite", nargs="?", default="all", choices=suites)
    run.add_argument("--format", choices=("text", "json"), default="text")

    stab = leaf(commands, "stability", _cmd_stability, help="classify a configuration")
    group = stab.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="comma-separated multiplicities, e.g. 4,4")
    group.add_argument("--table", type=int, help=f"verdicts for degree N <= {MAX_TABLE_DEGREE}")

    fq = actions("fq", "quadratic space over GF(2)")
    leaf(fq, "census", _cmd_fq)
    perp = leaf(fq, "perp", _cmd_fq)
    perp.add_argument("vector", help="hex-encoded isotropic vector, bit i = coordinate i+1")
    leaf(fq, "group", _cmd_fq)

    slc = actions("slice", "blow-up charts of the normal slice")
    trans = leaf(slc, "transversality", _cmd_slice)
    trans.add_argument("--chart", choices=blowup.CHART_NAMES + ("all",), default="all")
    leaf(slc, "stabilizers", _cmd_slice)

    bt = actions("betti", "Betti tables")
    leaf(bt, "kirwan", _cmd_betti)
    side = leaf(bt, "tor", _cmd_betti).add_mutually_exclusive_group(required=True)
    side.add_argument("--ordered", action="store_true")
    side.add_argument("--unordered", action="store_true")
    leaf(bt, "boundary", _cmd_betti)

    pc = actions("picard", "divisor-class ledger")
    for action in ("verify", "intersections", "obstruction"):
        leaf(pc, action, _cmd_picard)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    created = bool(args.out) and not os.path.exists(args.out)
    try:
        # open --out before any work, so that an unwritable path fails at once,
        # but empty it only once there is output: malformed input leaves it as it was
        with open(args.out, "a", encoding="utf-8") if args.out else nullcontext(sys.stdout) as handle:
            payload = checks.encode(args.func(args))
            text = checks.render_text(payload) if args.format == "text" else json.dumps(payload, indent=2)
            if args.out:
                handle.truncate(0)
            handle.write(text + "\n")
    except (InputError, OSError) as exc:
        if created and isinstance(exc, InputError):
            os.remove(args.out)  # malformed input leaves no new file behind
        parser.exit(2, f"modpoints: error: {exc}\n")
    if args.command != "run" or checks.report_passed(payload):
        return 0
    return 3 if checks.report_errored(payload) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
