"""Command line front-end.

``modpoints run [suite]`` executes verification suites and emits a text or
JSON report (exit 0 when everything passes, 1 on failures, 2 on usage
errors and malformed input, 3 when a check raised; the report then shows
that check as an error and still holds every other check).  Any other
subcommand whose computation raises prints the traceback and exits 3
too, leaving ``--out`` as malformed input leaves it.  The remaining
subcommands expose individual computations: stability verdicts,
quadratic-space censuses and group data, blow-up chart reports, Betti
tables and the divisor ledger.  Each leaf subcommand binds the function
that computes what it prints: for a quantity a suite also checks, the
function the suite calls, through the same ``checks.Quantities`` method
where one exists (the registry the suites read, which also hands the
group's data to ``betti`` and ``picard``).  ``main`` encodes the result
with ``checks.encode`` and writes it, as JSON unless ``run`` asks for
text.  All output is exact.
``fqspace``, ``betti`` and ``picard`` are imported by the functions that use
them, so that a command loads only what it runs.
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


def _run(args) -> dict:
    names = checks.SUITE_NAMES if args.suite == "all" else (args.suite,)
    return checks.run_report(names)


def _stability(args) -> dict:
    # int() would also take "4_4", spaces and non-ASCII digits
    if args.config is not None:
        if not re.fullmatch("[0-9]+(,[0-9]+)*", args.config):
            raise InputError(f"--config {args.config}: expected decimal multiplicities separated by commas")
        parts = tuple(map(int, args.config.split(",")))
        try:
            config = stability.PointConfig.from_parts(parts)
        except ValueError as exc:
            raise InputError(f"--config {args.config}: {exc}") from None
        return {"config": parts, **checks.encode(stability.classify(config))}
    if not (re.fullmatch("[0-9]+", args.table) and 1 <= int(args.table) <= MAX_TABLE_DEGREE):
        raise InputError(f"--table {args.table}: degree must be between 1 and {MAX_TABLE_DEGREE}")
    return checks.Quantities().verdict_table(int(args.table))


def _census(args) -> dict:
    from . import fqspace

    zero, iso, non = fqspace.census()
    return {"zero": zero, "isotropic": iso, "nonisotropic": non}


def _perp(args) -> dict:
    from . import fqspace

    # int(..., 16) would also take "1_0", spaces and non-ASCII digits
    if not re.fullmatch("(0x)?[0-9a-fA-F]+", args.vector):
        raise InputError(f"fq perp {args.vector}: expected hex digits, optionally after 0x")
    vector = int(args.vector, 16)
    try:
        iso, non = fqspace.perp_census(vector)
    except ValueError as exc:
        raise InputError(f"fq perp {args.vector}: {exc}") from None
    return {"vector": f"0x{vector:02x}", "isotropic": iso, "nonisotropic": non}


def _transversality(args) -> list:
    quantities = checks.Quantities()
    names = blowup.CHART_NAMES if args.chart == "all" else (args.chart,)
    return [quantities.pullback(name) for name in names]


def _stabilizers(args) -> dict:
    quantities = checks.Quantities()
    per_chart = {
        name: [{"support": support, "order": order} for support, order in rows]
        for name, rows in quantities.scan().per_chart.items()
    }
    return {**quantities.scan_summary(), "per_chart": per_chart}


def _tor(args) -> dict:
    quantities = checks.Quantities()
    return (quantities.tor_ordered() if args.ordered else quantities.tor_unordered()).by_degree()


def _boundary(args) -> dict:
    from . import betti

    return betti.BettiTable(betti.boundary_invariants()).by_degree()


def _verify(args) -> list:
    from . import picard

    return picard.verify_blowup_identities()


def _intersections(args) -> dict:
    numbers = checks.Quantities().intersections()
    return {"T_i^5": numbers.component, "T_ord^5": numbers.ordered, "T^5": numbers.unordered}


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
        sub = parent.add_parser(name, parents=[output], **kwargs)
        sub.set_defaults(func=func)
        return sub

    def actions(name, help):
        return commands.add_parser(name, help=help).add_subparsers(required=True)

    run = leaf(commands, "run", _run, help="run verification suites")
    suites = ("all",) + checks.SUITE_NAMES
    run.add_argument("suite", nargs="?", default="all", choices=suites)
    run.add_argument("--format", choices=("text", "json"), default="text")

    stab = leaf(commands, "stability", _stability, help="classify a configuration")
    group = stab.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="comma-separated multiplicities, e.g. 4,4")
    group.add_argument("--table", help=f"verdicts for degree N <= {MAX_TABLE_DEGREE}")

    fq = actions("fq", "quadratic space over GF(2)")
    leaf(fq, "census", _census)
    perp = leaf(fq, "perp", _perp)
    perp.add_argument("vector", help="hex-encoded isotropic vector, bit i = coordinate i+1")
    leaf(fq, "group", lambda args: checks.Quantities().group_summary())

    slc = actions("slice", "blow-up charts of the normal slice")
    trans = leaf(slc, "transversality", _transversality)
    trans.add_argument("--chart", choices=blowup.CHART_NAMES + ("all",), default="all")
    leaf(slc, "stabilizers", _stabilizers)

    bt = actions("betti", "Betti tables")
    leaf(bt, "kirwan", lambda args: checks.Quantities().kirwan().by_degree())
    side = leaf(bt, "tor", _tor).add_mutually_exclusive_group(required=True)
    side.add_argument("--ordered", action="store_true")
    side.add_argument("--unordered", action="store_true")
    leaf(bt, "boundary", _boundary)

    pc = actions("picard", "divisor-class ledger")
    leaf(pc, "verify", _verify)
    leaf(pc, "intersections", _intersections)
    leaf(pc, "obstruction", lambda args: checks.Quantities().obstruction())

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
    except Exception:
        if created:
            os.remove(args.out)  # nor does a computation that raised
        import traceback

        traceback.print_exc()
        return 3
    if args.command != "run" or checks.report_passed(payload):
        return 0
    return 3 if checks.report_errored(payload) else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
