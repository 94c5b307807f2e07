"""End-to-end and per-layer benchmark of the modpoints verifier.

    python3 bench/run.py --workload run_all|run_slice|elim --seed N --seconds S --trace 0|1

Run from a source checkout; nothing is installed.  Every workload is a
closed loop with one client.  ``run_all`` and ``run_slice`` start a fresh
interpreter per operation, which imports ``modpoints.cli`` and runs
``run all`` or ``run slice --format json`` (the code path of the installed
``modpoints`` script); ``elim`` runs a seeded ladder of eliminations in
this process.  Every output is checked by ``checkers.py``.

The machine is shared and each of its cores swings in speed on its own, so
the benchmark and its children keep to one core, and every timed interval
is scaled to a fixed reference speed by the kernel of ``speed.py``, timed
on that core right before and after it.  A cold operation is paused every
``PAUSE_S`` seconds to time the kernel again, so long operations are scaled
piece by piece.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it carries the
per-layer metrics instead, from traced operations that alternate with
untraced ones.  Result and trace files go to ``.bench_out/`` in the checkout.
See bench/README.md for the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from checkers import SUITES, check_elim, check_report
from ladder import make_problem, prepare, solve
from speed import at_reference_speed, kernel_ms
from tracer import Tracer, import_times, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PY = sys.executable

COLD_SUITES = {"run_all": ("all", SUITES), "run_slice": ("slice", ("slice",))}
WORKLOADS = tuple(COLD_SUITES) + ("elim",)
ELIM_SETUP_ROUNDS = 7
IMPORT_PROBES = 5
REFERENCE_SEED = 0  # the elim problem whose call counts the traced run reports
PAUSE_S = 0.5  # a cold child runs this long between two timings of the kernel

# The operation of the cold workloads: what the ``modpoints`` console script
# does, with the import of modpoints.cli timed inside the same interpreter.
BOOT = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import modpoints.cli\n"
    "sys.stderr.write(f'\\nbench-import-s {time.perf_counter() - t!r}\\n')\n"
    "sys.exit(modpoints.cli.main(sys.argv[1:]))\n"
)


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package, or the wrong one)."""


@dataclass
class Child:
    seconds: float  # wall time while running, pauses left out
    ref_seconds: float  # the same at the reference speed
    first_scale: float  # reference time over wall time, in the child's first half second
    code: int
    stdout: bytes
    stderr: str
    peak_rss_mb: float


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def spawn(argv: List[str], tag: str) -> Child:
    """Run one child to its end; wall time, exit code, output and peak RSS.

    Every ``PAUSE_S`` seconds the child is stopped while the reference
    kernel runs on the same core, then continued; each piece of the child's
    run is scaled by the kernel times on either side of it.
    """
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    pieces = []  # (wall seconds, the same at the reference speed)
    before = kernel_ms()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        # In a process group of its own, a child left stopped by a killed
        # benchmark is sent SIGHUP and SIGCONT by the kernel, so it ends.
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT, process_group=0)
        exited = os.pidfd_open(proc.pid)
        reaped = False
        try:
            start = time.perf_counter()
            while not select.select([exited], [], [], PAUSE_S)[0]:
                os.kill(proc.pid, signal.SIGSTOP)
                state = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                if state.si_code != os.CLD_STOPPED:
                    break  # it ended before the signal came
                end = time.perf_counter()
                after = kernel_ms()
                pieces.append((end - start, at_reference_speed(end - start, before, after)))
                before = after
                os.kill(proc.pid, signal.SIGCONT)
                start = time.perf_counter()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
            end = time.perf_counter()
        finally:
            os.close(exited)
            if not reaped:
                proc.kill()
                os.waitpid(proc.pid, 0)
    pieces.append((end - start, at_reference_speed(end - start, before, kernel_ms())))
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        sum(wall for wall, _ in pieces),
        sum(ref for _, ref in pieces),
        pieces[0][1] / pieces[0][0],
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_text(encoding="utf-8", errors="replace"),
        usage.ru_maxrss / 1024,
    )


def require_checkout_package(path: str) -> None:
    if Path(path.strip()).resolve().parent.parent != SRC.resolve():
        raise SetupError(f"modpoints was imported from {path.strip()}, not from {SRC}")


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(ref_seconds: List[float]) -> Dict[str, float]:
    """End-to-end timings from the operations' times at the reference speed."""
    ms = [s * 1e3 for s in ref_seconds]
    return {
        "ref_op_ms.p50": statistics.median(ms),
        "ref_op_ms.p90": percentile(ms, 90),
        "ref_ops_per_s": len(ms) / sum(ref_seconds),
    }


def print_wall(op_seconds: List[float]) -> None:
    """The unscaled wall times, for the reader; they swing with the machine."""
    ms = [s * 1e3 for s in op_seconds]
    print(f"{'wall op_ms.p50':40s} {statistics.median(ms):14.4f} ms", file=sys.stderr)


class Outcome:
    """Attempted and failed operations, and problems found in outputs."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(f"failed: {why}")


def layer_values(summaries: List[Dict], names: List[str]) -> Dict[str, float]:
    """Median over traced operations of ``<span>.<calls|ms|self_ms>``; 0 if never called."""
    out = {}
    for name in names:
        span, _, stat = name.rpartition(".")
        if stat in ("calls", "ms", "self_ms") and summaries:
            out[name] = statistics.median(s.get(span, {}).get(stat, 0) for s in summaries)
    return out


def import_metrics() -> Dict[str, float]:
    """Median over fresh interpreters of the ``-X importtime`` figures."""
    probes = []
    for _ in range(IMPORT_PROBES):
        child = spawn([PY, "-X", "importtime", "-c", "import modpoints.cli"], "import-probe")
        if child.code != 0:
            raise SetupError(f"import of modpoints.cli failed: {child.stderr[-500:]}")
        probes.append(import_times(child.stderr))
    return {name: statistics.median(p.get(name, 0.0) for p in probes) for name in probes[0]}


def write_trace(workload: str, spans: list, summaries: List[Dict]) -> None:
    """The spans of the last traced operation and every operation's summary."""
    origin = min((span[3] for span in spans), default=0.0)
    (OUT / f"{workload}.trace.json").write_text(json.dumps({
        "summaries": summaries,
        "last_spans": {
            "columns": ["name", "parent", "nested", "start_us", "end_us"],
            "rows": [[n, p, d, round((s - origin) * 1e6), round((e - origin) * 1e6)] for n, p, d, s, e in spans],
        },
    }, separators=(",", ":")))


def overhead_metrics(traced: List[float], untraced: List[float]) -> Dict[str, float]:
    t, u = statistics.median(traced) * 1e3, statistics.median(untraced) * 1e3
    return {"trace.op_ms.p50": t, "trace.untraced_op_ms.p50": u, "trace.overhead_pct": (t / u - 1) * 100}


# ----------------------------------------------------------------------
# run_all and run_slice: one fresh interpreter per operation

def run_cold(workload: str, seconds: float, trace: bool, layer_names: List[str], outcome: Outcome) -> Dict:
    suite, suites = COLD_SUITES[workload]
    args = ["run", suite, "--format", "json"]
    probe = spawn([PY, "-c", "import modpoints.cli; print(modpoints.cli.__file__)"], "probe")
    if probe.code != 0:
        raise SetupError(f"cannot import modpoints.cli: {probe.stderr[-500:]}")
    require_checkout_package(probe.stdout.decode())  # this also compiled the bytecode

    reference: List[bytes] = []

    def checked(child: Child) -> bool:
        outcome.attempted += 1
        try:
            report = json.loads(child.stdout)
        except ValueError:
            report = None
        if child.code not in (0, 1) or report is None:
            outcome.fail(f"exit {child.code}: {child.stderr[-500:]}")
            return False
        if not reference:
            reference.append(child.stdout)
            outcome.problems += check_report(report, suites)
        elif child.stdout != reference[0]:
            outcome.problems.append("report differs from the first report of the run")
            outcome.problems += check_report(report, suites)
        if child.code != 0:
            outcome.problems.append(f"exit code {child.code}")
        return True

    untraced: List[Child] = []
    imports: List[float] = []
    traced: List[Child] = []
    summaries: List[Dict] = []
    spans_path = OUT / f"{workload}.spans.marshal"
    spans: list = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        child = spawn([PY, "-c", BOOT, *args], workload)
        if checked(child):
            untraced.append(child)
            imports.append(float(child.stderr.rsplit("bench-import-s", 1)[1]) * child.first_scale)
        if trace:
            child = spawn([PY, str(BENCH / "tracer.py"), str(spans_path), *args], workload)
            if checked(child):
                traced.append(child)
                spans = marshal.loads(spans_path.read_bytes())  # written by this run's child
                summaries.append(summarize(spans))
    if not untraced:
        return {}
    if not trace:
        print_wall([c.seconds for c in untraced])
        return {
            **timing_metrics([c.ref_seconds for c in untraced]),
            "setup_s": statistics.median(imports),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in untraced),
        }
    write_trace(workload, spans, summaries)
    values = layer_values(summaries, layer_names)
    values.update(import_metrics())
    values.update(overhead_metrics([c.seconds for c in traced], [c.seconds for c in untraced]))
    values["fqspace.generate_group.alloc_mb"] = 0.0
    if values.get("fqspace.generate_group.calls"):
        alloc_path = OUT / "alloc.json"
        child = spawn([PY, str(BENCH / "tracer.py"), "--alloc", str(alloc_path)], "alloc")
        if child.code != 0:
            raise SetupError(f"allocation probe failed: {child.stderr[-500:]}")
        values.update(json.loads(alloc_path.read_text()))
    return values


# ----------------------------------------------------------------------
# elim: a seeded elimination ladder in this process

def run_elim(seed: int, seconds: float, trace: bool, layer_names: List[str], outcome: Outcome) -> Dict:
    before = kernel_ms()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from modpoints import poly

    import_s = time.perf_counter() - start
    import_ref_s = at_reference_speed(import_s, before, kernel_ms())
    require_checkout_package(poly.__file__)

    tracer = Tracer()

    def operation(problem, traced: bool = False) -> tuple | None:
        """Solve and check one problem: the solve's wall time, and that time
        at the reference speed, from kernel timings right before and after it."""
        given = prepare(poly, problem)
        outcome.attempted += 1
        if traced:
            tracer.install()
            tracer.reset()
        before = kernel_ms()
        begin = time.perf_counter()
        try:
            outputs = solve(poly, given)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.fail(repr(exc))
            return None
        finally:
            elapsed = time.perf_counter() - begin
            tracer.uninstall()
        ref_elapsed = at_reference_speed(elapsed, before, kernel_ms())
        outcome.problems += check_elim(problem, outputs)
        return elapsed, ref_elapsed

    rng = random.Random(seed)
    # Set-up is the import plus a warm-up solve; making and converting a
    # problem's inputs takes under a millisecond and is left out.
    warm_up = [operation(make_problem(rng)) for _ in range(ELIM_SETUP_ROUNDS)]
    solved = [ref for _, ref in filter(None, warm_up)]
    setup_s = import_ref_s + (statistics.median(solved) if solved else 0.0)

    untraced: List[tuple] = []
    traced: List[float] = []
    summaries: List[Dict] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        timing = operation(make_problem(rng))
        if timing is not None:
            untraced.append(timing)
        if trace:
            timing = operation(make_problem(rng), traced=True)
            if timing is not None:
                traced.append(timing[0])
                summaries.append(summarize(tracer.records))
    if not untraced:
        return {}
    if not trace:
        print_wall([wall for wall, _ in untraced])
        return {
            **timing_metrics([ref for _, ref in untraced]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    write_trace("elim", tracer.records, summaries)
    values = layer_values(summaries, layer_names)
    # Call counts depend on the problem, so they come from one fixed
    # reference problem and repeat exactly from run to run.
    if operation(make_problem(random.Random(REFERENCE_SEED)), traced=True) is not None:
        calls = [name for name in layer_names if name.endswith(".calls")]
        values.update(layer_values([summarize(tracer.records)], calls))
    values.update(import_metrics())
    values.update(overhead_metrics(traced, [wall for wall, _ in untraced]))
    values["fqspace.generate_group.alloc_mb"] = 0.0
    return values


# ----------------------------------------------------------------------

def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # so that ``spawn`` ends its child on the way out


def main(argv: List[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modpoints" / "cli.py").is_file():
        print(f"error: no modpoints sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    layer_names = [m["name"] for m in spec["per_layer"]]
    OUT.mkdir(exist_ok=True)
    # Each core swings in speed on its own: the kernel that reads the speed
    # must run on the core the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    outcome = Outcome()
    try:
        if args.workload == "elim":
            values = run_elim(args.seed, args.seconds, bool(args.trace), layer_names, outcome)
        else:
            values = run_cold(args.workload, args.seconds, bool(args.trace), layer_names, outcome)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not values:
        print("error: no operation completed", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2

    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for m in wanted:
        print(f"{m['name']:40s} {values[m['name']]:14.4f} {m['unit']}", file=sys.stderr)
    result = {
        "correct": not [p for p in outcome.problems if not p.startswith("failed: ")],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    line = json.dumps(result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
