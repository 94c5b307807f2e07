"""CLI surface: subcommands, exit codes, report determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modpoints import blowup, checks, fqspace, poly, stability
from modpoints.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_run_all_json(capsys):
    code, out = run_cli(capsys, "run", "all", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["version"] == checks.SCHEMA_VERSION
    assert [s["name"] for s in report["suites"]] == list(checks.SUITE_NAMES)
    by_id = {
        c["id"]: c for suite in report["suites"] for c in suite["checks"]
    }
    assert by_id["betti.M_K"]["payload"] == [1, 2, 3, 3, 2, 1]
    assert by_id["betti.M_K"]["status"] == "pass"
    assert by_id["fq.census"]["payload"] == [1, 35, 28]
    assert all(c["status"] == "pass" for c in by_id.values())
    assert all(c["anchor"] for c in by_id.values())


def test_check_ids_are_unique():
    report = checks.run_report(list(checks.SUITE_NAMES))
    ids = [c["id"] for suite in report["suites"] for c in suite["checks"]]
    assert len(ids) == len(set(ids))


def test_no_floats_anywhere_in_the_report():
    report = checks.run_report(list(checks.SUITE_NAMES))

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(report)


def test_report_is_byte_stable(capsys):
    _, first = run_cli(capsys, "run", "all", "--format", "json")
    _, second = run_cli(capsys, "run", "all", "--format", "json")
    assert first == second


def test_single_suite_and_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "run", "fq", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert [s["name"] for s in report["suites"]] == ["fq"]


# each golden file and the arguments of the command whose output it holds, from
# the one list that the CI golden step also reads
GOLDEN_COMMANDS = {
    golden: tuple(argv)
    for golden, *argv in map(str.split, (GOLDEN.parent / "golden_commands.txt").read_text().splitlines())
}


@pytest.mark.parametrize("golden", GOLDEN_COMMANDS, ids=lambda golden: golden.removesuffix(".json"))
def test_subcommand_output_is_golden(golden, capsys):
    code, out = run_cli(capsys, *GOLDEN_COMMANDS[golden])
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def _leaf_commands(parser, prefix=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_commands(child, prefix + (name,))


def test_every_leaf_subcommand_is_golden():
    leaves = list(_leaf_commands(build_parser()))
    assert len(leaves) == 13
    for leaf in leaves:
        assert any(argv[: len(leaf)] == leaf for argv in GOLDEN_COMMANDS.values()), leaf
    assert sorted(GOLDEN_COMMANDS) == sorted(path.name for path in GOLDEN.iterdir())


def test_an_unrecognized_trailing_argument_prints_the_full_usage(capsys):
    def error(parse, argv):
        with pytest.raises(SystemExit) as info:
            parse(argv)
        assert info.value.code == 2
        return capsys.readouterr().err

    for argv in GOLDEN_COMMANDS.values():
        argv = [*argv, "extra"]
        err = error(main, argv)
        assert err == error(build_parser().parse_args, argv), argv
        assert err.startswith("usage: modpoints [-h] {run,stability,fq,slice,betti,picard} ...\n"), err
        assert err.endswith("error: unrecognized arguments: extra\n"), err


@pytest.mark.parametrize("command", ["fq", "slice", "betti", "picard"])
def test_a_command_without_its_subcommand_exits_2(command, capsys):
    with pytest.raises(SystemExit) as info:
        main([command])
    assert info.value.code == 2
    assert "error: the following arguments are required: {" in capsys.readouterr().err


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["run", "nosuchsuite"])
    assert info.value.code == 2


@pytest.mark.parametrize("option", ["--parallel", "--suite=fq"])
def test_run_accepts_no_other_options(option):
    with pytest.raises(SystemExit) as info:
        main(["run", "fq", option])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("fq", "perp", "zz"),
        ("fq", "perp", "0x03"),  # non-isotropic
        ("fq", "perp", "0x40"),  # out of range
        ("fq", "perp", "1_0"),  # int(..., 16) reads this as 0x10
        ("fq", "perp", "\uff10x01"),  # a full-width zero
        ("stability", "--config", "0,8"),
        ("stability", "--config", "4,x"),
        ("stability", "--config", "4_4"),  # int() reads this as 44
        ("stability", "--config", "\uff14,4"),  # a full-width four
        ("stability", "--config", "4,4,"),
        ("stability", "--table", "1_0"),  # int() reads this as 10
        ("stability", "--table", "eight"),
        ("stability", "--table", "0"),
        ("stability", "--table", "-3"),
        ("stability", "--table", "41"),
        ("fq", "census", "--out", "/nonexistent/x"),
    ],
    ids=" ".join,
)
def test_malformed_input_exits_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("modpoints: error: ")
    assert captured.err.count("\n") == 1


def test_unwritable_out_fails_before_any_suite_runs(monkeypatch, tmp_path, capsys):
    def must_not_run(quantities):
        raise AssertionError("the suite ran although --out cannot be opened")

    monkeypatch.setitem(checks.SUITES, "fq", (checks.Check("fq.never", "never runs", must_not_run, None),))
    with pytest.raises(SystemExit) as info:
        main(["run", "fq", "--out", str(tmp_path / "missing" / "x")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("modpoints: error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv", [("stability", "--config", "4,x"), ("fq", "perp", "0x03"), ("stability", "--table", "41")]
)
def test_malformed_input_leaves_existing_out_file_as_it_was(argv, tmp_path):
    target = tmp_path / "keep.json"
    target.write_bytes(b"earlier output\n" * 100)
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(target)])
    assert info.value.code == 2
    assert target.read_bytes() == b"earlier output\n" * 100
    # and a path that did not exist still does not
    fresh = tmp_path / "new.json"
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(fresh)])
    assert info.value.code == 2
    assert not fresh.exists()
    # a run that has output replaces the whole file, however long it was
    assert main(["stability", "--config", "4,4", "--out", str(target)]) == 0
    assert target.read_text() == (GOLDEN / "stability_config_4_4.json").read_text()


def _probe(code):
    """What ``code`` prints in a fresh interpreter; -S keeps site, and whatever
    it imports, out of sys.modules."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_cli_import_needs_no_dataclasses():
    probe = "import modpoints.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert _probe(probe) == "[]"


LOADED = "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'modpoints'))"


def test_run_slice_loads_only_the_modules_it_runs():
    probe = "import sys, modpoints.cli; modpoints.cli.main(['run', 'slice', '--format', 'json'])"
    names = ("blowup", "checks", "cli", "poly", "record", "stability")
    assert _probe(probe + LOADED) == str(["modpoints"] + [f"modpoints.{n}" for n in names])


def test_importing_a_module_loads_no_other():
    assert _probe("import sys, modpoints.poly" + LOADED) == "['modpoints', 'modpoints.poly']"


def test_run_all_computes_each_shared_quantity_once(monkeypatch):
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(fqspace, "coxeter_generators")
    count(fqspace, "orbits_under")
    count(stability, "classify")
    count(blowup, "discriminant_factors")
    count(blowup, "chart")
    count(blowup, "discriminant_pullback")
    count(blowup, "scan_stabilizers")
    count(blowup, "antidiag_resultants")
    checks.run_report(list(checks.SUITE_NAMES))
    # one pair of discriminant factors, which the pullbacks and the tangent cone
    # read; each chart once, for its weights, its pullback and the scan; one
    # pullback per chart and one scan, which slice and picard both read; the
    # antidiagonal resultants once, for the constraint and their own second
    # route; one path search and relation check; two orbit walks under the
    # Coxeter generators: their transitivity, inside the search, and their
    # orbits on the nonzero vectors, which give the orbit sizes, the orbit of
    # h, whose length gives the order of Stab(h), and the unordered cusps;
    # Stab(h)'s orbits on h-perp are walked as orbits of pairs, outside
    # orbits_under
    assert calls == {
        "coxeter_generators": 1, "orbits_under": 2, "classify": 130, "discriminant_factors": 1, "chart": 3,
        "discriminant_pullback": 3, "scan_stabilizers": 1, "antidiag_resultants": 1,
    }


def test_a_subcommand_builds_only_the_chart_it_prints(monkeypatch, capsys):
    built, chart = [], blowup.chart
    monkeypatch.setattr(blowup, "chart", lambda name: built.append(name) or chart(name))
    assert run_cli(capsys, "slice", "transversality", "--chart", "R")[0] == 0
    assert built == ["R"]


def test_raising_suite_is_reported_as_an_error(monkeypatch, capsys):
    def broken(quantities):
        raise ZeroDivisionError("forced")

    monkeypatch.setitem(checks.SUITES, "betti", (checks.Check("betti.broken", "forced error", broken, 1),))
    assert main(["run", "all", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert "ZeroDivisionError: forced" in captured.err  # the traceback
    report = json.loads(captured.out)
    assert report["version"] == checks.SCHEMA_VERSION
    assert [s["name"] for s in report["suites"]] == list(checks.SUITE_NAMES)
    by_suite = {s["name"]: s["checks"] for s in report["suites"]}
    assert by_suite["betti"] == [
        {
            "id": "betti.broken",
            "anchor": "forced error",
            "status": "error",
            "payload": {"type": "ZeroDivisionError", "message": "forced"},
            "expected": None,
        }
    ]
    assert all(c["status"] == "pass" for name in ("stability", "fq", "slice", "picard") for c in by_suite[name])
    assert not checks.report_passed(report)

    code, out = run_cli(capsys, "run", "betti")
    assert code == 3
    assert "[ERROR] betti.broken: forced error" in out


def test_a_raising_check_leaves_the_rest_of_its_suite_passing(monkeypatch, capsys):
    first, raising, *rest = checks.SUITES["fq"]
    raised = checks.Check(raising.id, raising.anchor, lambda quantities: 1 // 0, raising.expected)
    monkeypatch.setitem(checks.SUITES, "fq", (first, raised, *rest))
    assert main(["run", "fq"]) == 3
    captured = capsys.readouterr()
    assert "ZeroDivisionError" in captured.err  # the traceback
    lines = captured.out.splitlines()
    assert [line for line in lines if "[ERROR]" in line] == [f"  [ERROR] {raising.id}: {raising.anchor}"]
    passing = [line.split()[1] for line in lines if "[PASS]" in line]
    assert passing == [f"{row.id}:" for row in (first, *rest)]
    assert lines[-1] == f"{len(rest) + 1}/{len(rest) + 2} checks passed"


def test_the_text_report_prints_what_a_check_raised_under_its_row(monkeypatch, capsys):
    def broken(quantities):
        raise ZeroDivisionError("forced")

    monkeypatch.setitem(checks.SUITES, "betti", (checks.Check("betti.broken", "forced error", broken, 1),))
    code, out = run_cli(capsys, "run", "betti")
    assert code == 3
    assert out.splitlines() == [
        "suite betti",
        "  [ERROR] betti.broken: forced error",
        "         raised ZeroDivisionError: forced",
        "0/1 checks passed",
    ]


def test_a_broken_coxeter_path_is_reported_as_an_error(broken_coxeter_path, monkeypatch, capsys):
    calls, reflection = [], fqspace.reflection
    monkeypatch.setattr(fqspace, "reflection", lambda v: calls.append(v) or reflection(v))
    code, out = run_cli(capsys, "run", "all", "--format", "json")
    assert code == 3
    # one path search, which builds the seven transvections, for all eight rows
    # that read the group: the failure is remembered as a value would be
    assert len(calls) == 7
    by_suite = {s["name"]: s["checks"] for s in json.loads(out)["suites"]}
    assert list(by_suite) == list(checks.SUITE_NAMES)
    rows = [c for name in checks.SUITE_NAMES for c in by_suite[name]]
    # the rows that read the group: its order and orbits, Stab(h), betti's
    # unordered cusp count and picard's cover degree 8!; the census, the perps
    # and every other row do not
    errors = [c for c in rows if c["status"] != "pass"]
    assert [c["id"] for c in errors] == [
        "fq.group_order", "fq.orbits", "fq.stabilizer", "fq.stab_transitivity",
        "betti.tor_unordered", "betti.routes_agree", "picard.intersections", "picard.obstruction",
    ]
    for error in errors:
        assert error["status"] == "error" and error["expected"] is None
        assert error["payload"]["type"] == "AssertionError"
        assert "= 1 fails on the path" in error["payload"]["message"]
    assert len(rows) - len(errors) == 24


def test_a_subcommand_that_raises_exits_3_with_its_traceback(broken_coxeter_path, capsys, tmp_path):
    assert main(["fq", "group"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "= 1 fails on the path" in captured.err
    # --out is left as malformed input leaves it
    target, fresh = tmp_path / "keep.json", tmp_path / "new.json"
    target.write_bytes(b"earlier output\n")
    assert main(["fq", "group", "--out", str(target)]) == 3
    assert main(["fq", "group", "--out", str(fresh)]) == 3
    assert target.read_bytes() == b"earlier output\n"
    assert not fresh.exists()


def test_failing_check_exits_1(monkeypatch, capsys):
    broken = (checks.Check("fq.broken", "forced failure", lambda quantities: None, 1),)
    monkeypatch.setitem(checks.SUITES, "fq", broken)
    code, out = run_cli(capsys, "run", "fq", "--format", "json")
    assert code == 1
    assert json.loads(out)["suites"][0]["checks"][0]["status"] == "fail"


def test_text_report_shows_expected_and_actual_under_a_failing_check(monkeypatch, capsys):
    census, *rest = checks.SUITES["fq"]
    wrong = checks.Check(census.id, census.anchor, census.compute, (1, 35, 29))
    monkeypatch.setitem(checks.SUITES, "fq", (wrong, *rest))
    code, out = run_cli(capsys, "run", "fq")
    assert code == 1
    lines = out.splitlines()
    failing = lines.index("  [FAIL] fq.census: census (1, 35, 28)")
    assert lines[failing + 1] == "         expected [1, 35, 29], got [1, 35, 28]"
    assert len(lines) == len(checks.SUITES["fq"]) + 3  # suite line, checks, that one line, total
    assert lines[-1] == "5/6 checks passed"


def test_status_is_pass_exactly_when_payload_equals_expected():
    report = checks.run_report(list(checks.SUITE_NAMES))
    for check in (c for suite in report["suites"] for c in suite["checks"]):
        assert (check["status"] == "pass") == (check["payload"] == check["expected"]), check["id"]


def _only_check(suite, check_id):
    (report,) = checks.run_report([suite])["suites"]
    return next(c for c in report["checks"] if c["id"] == check_id)


def test_perp_check_reads_every_isotropic_vector(monkeypatch):
    other, census = fqspace.isotropic_vectors()[7], fqspace.perp_census
    monkeypatch.setattr(fqspace, "perp_census", lambda h: (18, 13) if h == other else census(h))
    check = _only_check("fq", "fq.perp")
    assert check["status"] == "fail"
    assert check["payload"] == {"value": [19, 12], "second_route": {f"0x{other:02x}": [18, 13]}}


def test_odd_degree_check_reads_every_verdict(monkeypatch):
    classify = stability.classify
    semistable = stability.StabilityVerdict(stability.STRICTLY_SEMISTABLE, False)
    monkeypatch.setattr(
        stability, "classify", lambda config: semistable if config.parts == (3, 3, 1) else classify(config)
    )
    check = _only_check("stability", "stability.odd_degree")
    assert check["status"] == "fail"
    assert check["payload"] == {
        "value": {"checked_degrees": [5, 7, 9, 11]},
        "second_route": {"3,3,1": {"status": "strictly_semistable", "polystable": False}},
    }


def test_antidiagonal_check_reads_two_points(monkeypatch):
    t0, t1 = poly.variables("t0", "t1")
    monkeypatch.setattr(blowup, "antidiag_fixed_constraint", lambda resultants: t0 ** 8 - t1 ** 8 + 1)
    check = _only_check("slice", "slice.antidiag")
    assert check["status"] == "fail"
    assert check["payload"] == {"value": "t0^8 - t1^8 + 1", "second_route": {"1,2": "-254", "0,0": "1"}}


def test_antidiagonal_check_reads_each_resultant_by_composition(monkeypatch):
    # a wrong sign in both resultants leaves the radical of their gcd as it was
    resultants = blowup.antidiag_resultants
    monkeypatch.setattr(blowup, "antidiag_resultants", lambda: tuple(-r for r in resultants()))
    check = _only_check("slice", "slice.antidiag")
    assert check["status"] == "fail"
    negated = "-t0^16 + 2*t0^8*t1^8 - t1^16"
    assert check["payload"] == {"value": "t0^8 - t1^8", "second_route": {"lam^2": negated, "lam^14": negated}}


def test_slice_checks_read_the_tangent_cone(monkeypatch):
    # stripping one power of the exceptional coordinate fewer leaves every
    # strict transform divisible by it, so each restriction is 0
    extract = blowup.extract_exceptional

    def one_fewer(p, name):
        k, strict = extract(p, name)
        return (k - 1, strict * poly.MultiPoly.variable(name)) if k else (k, strict)

    monkeypatch.setattr(blowup, "extract_exceptional", one_fewer)
    multiplicity = _only_check("slice", "slice.multiplicity")
    assert multiplicity["status"] == "fail"
    assert multiplicity["payload"] == {"value": {"P": 4, "Q": 4, "R": 4}, "second_route": multiplicity["expected"]}
    crossing = _only_check("slice", "slice.transversality")
    assert crossing["status"] == "fail"
    assert {name: row["restriction"] for name, row in crossing["payload"]["value"].items()} == dict.fromkeys("PQR", "0")
    assert crossing["payload"]["second_route"] == {
        name: row["restriction"] for name, row in crossing["expected"].items()
    }


def test_a_wrong_tangent_cone_is_reported_beside_each_chart(monkeypatch):
    gamma0 = poly.MultiPoly.variable("gamma0")
    monkeypatch.setattr(blowup, "tangent_cone", lambda factors: (5, gamma0 ** 5))
    multiplicity = _only_check("slice", "slice.multiplicity")
    assert multiplicity["payload"] == {"value": multiplicity["expected"], "second_route": dict.fromkeys("PQR", 5)}
    crossing = _only_check("slice", "slice.transversality")
    assert crossing["payload"]["second_route"] == {"P": "u0^5", "Q": "u0^5", "R": "1"}


def test_chart_weight_check_reads_the_luna_slice_weights(monkeypatch):
    monkeypatch.setitem(blowup.SLICE_WEIGHTS, "beta1", -8)
    check = _only_check("slice", "slice.chart_weights")
    assert check["status"] == "fail"
    assert [check["payload"][name]["t1"] for name in "PQR"] == [-16, -14, -12]
    assert [check["expected"][name]["t1"] for name in "PQR"] == [-14, -12, -10]


def test_text_format_lists_every_check(capsys):
    code, out = run_cli(capsys, "run", "betti")
    assert code == 0
    assert "betti.M_K" in out
    assert out.strip().endswith("checks passed")


def test_stability_config(capsys):
    code, out = run_cli(capsys, "stability", "--config", "4,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "strictly_semistable"
    assert payload["polystable"] is True


def test_stability_table(capsys):
    code, out = run_cli(capsys, "stability", "--table", "8")
    assert code == 0
    table = json.loads(out)
    assert len(table) == 22  # partitions of 8
    assert table["4,4"] == {"status": "strictly_semistable", "polystable": True}


def test_fq_subcommands(capsys):
    code, out = run_cli(capsys, "fq", "census")
    assert code == 0
    assert json.loads(out) == {"zero": 1, "isotropic": 35, "nonisotropic": 28}

    code, out = run_cli(capsys, "fq", "perp", "0x01")
    assert code == 0
    assert json.loads(out) == {"vector": "0x01", "isotropic": 19, "nonisotropic": 12}

    code, out = run_cli(capsys, "fq", "group")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 40320
    assert payload["orbit_sizes"] == {"isotropic": 35, "nonisotropic": 28}
    assert payload["stab_order"] == 1152


def test_slice_subcommands(capsys):
    code, out = run_cli(capsys, "slice", "transversality", "--chart", "R")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["exceptional_multiplicity"] == 6
    assert payload[0]["factors"][0]["constant"] is True

    code, out = run_cli(capsys, "slice", "stabilizers")
    assert code == 0
    payload = json.loads(out)
    assert payload["orders"] == [1, 2, 4]
    assert payload["e"] == 8


def test_betti_subcommands(capsys):
    code, out = run_cli(capsys, "betti", "kirwan")
    assert code == 0
    assert json.loads(out) == {"0": 1, "2": 2, "4": 3, "6": 3, "8": 2, "10": 1}

    code, out = run_cli(capsys, "betti", "tor", "--ordered")
    assert code == 0
    assert json.loads(out) == {"0": 1, "2": 43, "4": 99, "6": 99, "8": 43, "10": 1}

    code, out = run_cli(capsys, "betti", "boundary")
    assert code == 0
    assert json.loads(out) == {"0": 1, "2": 1, "4": 2, "6": 1, "8": 1}


def test_picard_subcommands(capsys):
    code, out = run_cli(capsys, "picard", "verify")
    assert code == 0
    assert all(item["holds"] for item in json.loads(out))

    code, out = run_cli(capsys, "picard", "intersections")
    assert code == 0
    assert json.loads(out) == {"T_i^5": "6", "T_ord^5": "210", "T^5": "1/192"}

    code, out = run_cli(capsys, "picard", "obstruction")
    assert code == 0
    payload = json.loads(out)
    assert payload["required_exceptional_power"] == "16807/600000"
    assert payload["feasible"] is False
