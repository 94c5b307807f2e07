"""CLI surface: subcommands, exit codes, report determinism."""

import argparse
import json
from pathlib import Path

import pytest

from modpoints import checks, fqspace, stability
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


def test_golden_fq_report(capsys):
    code, out = run_cli(capsys, "run", "fq", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "report_fq.json").read_text()


SUBCOMMAND_GOLDEN = {
    "report_all": ("run", "all", "--format", "json"),
    "stability_config_4_4": ("stability", "--config", "4,4"),
    "stability_table_8": ("stability", "--table", "8"),
    "fq_census": ("fq", "census"),
    "fq_perp_0x01": ("fq", "perp", "0x01"),
    "fq_group": ("fq", "group"),
    "slice_transversality_all": ("slice", "transversality", "--chart", "all"),
    "slice_transversality_R": ("slice", "transversality", "--chart", "R"),
    "slice_stabilizers": ("slice", "stabilizers"),
    "betti_kirwan": ("betti", "kirwan"),
    "betti_tor_ordered": ("betti", "tor", "--ordered"),
    "betti_tor_unordered": ("betti", "tor", "--unordered"),
    "betti_boundary": ("betti", "boundary"),
    "picard_verify": ("picard", "verify"),
    "picard_intersections": ("picard", "intersections"),
    "picard_obstruction": ("picard", "obstruction"),
}


@pytest.mark.parametrize("name", sorted(SUBCOMMAND_GOLDEN))
def test_subcommand_output_is_golden(name, capsys):
    code, out = run_cli(capsys, *SUBCOMMAND_GOLDEN[name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_golden_text_report(capsys):
    code, out = run_cli(capsys, "run", "all")
    assert code == 0
    assert out == (GOLDEN / "report_all.txt").read_text()


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
        assert any(argv[: len(leaf)] == leaf for argv in SUBCOMMAND_GOLDEN.values()), leaf


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
        ("stability", "--config", "0,8"),
        ("stability", "--config", "4,x"),
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
    def must_not_run():
        raise AssertionError("the suite ran although --out cannot be opened")

    monkeypatch.setitem(checks.SUITES, "fq", must_not_run)
    with pytest.raises(SystemExit) as info:
        main(["run", "fq", "--out", str(tmp_path / "missing" / "x")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("modpoints: error: ")
    assert err.count("\n") == 1


def test_run_all_computes_each_shared_quantity_once(monkeypatch):
    calls = {}

    def count(module, name):
        original = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(fqspace, "generate_group")
    count(fqspace, "stabilizer")
    count(fqspace, "orbits_under")
    count(stability, "classify")
    fqspace.stabilizer_chain.cache_clear()
    checks.run_report(list(checks.SUITE_NAMES))
    assert calls == {"generate_group": 0, "stabilizer": 0, "orbits_under": 2, "classify": 130}
    assert fqspace.stabilizer_chain.cache_info().misses == 1  # one chain build


def test_raising_suite_is_reported_as_an_error(monkeypatch, capsys):
    def broken():
        raise ZeroDivisionError("forced")

    monkeypatch.setitem(checks.SUITES, "betti", broken)
    assert main(["run", "all", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert "ZeroDivisionError: forced" in captured.err  # the traceback
    report = json.loads(captured.out)
    assert report["version"] == "1"
    assert [s["name"] for s in report["suites"]] == list(checks.SUITE_NAMES)
    by_suite = {s["name"]: s["checks"] for s in report["suites"]}
    assert by_suite["betti"] == [
        {
            "id": "betti.error",
            "anchor": "the suite runs to completion",
            "status": "error",
            "payload": {"type": "ZeroDivisionError", "message": "forced"},
        }
    ]
    assert all(c["status"] == "pass" for name in ("stability", "fq", "slice", "picard") for c in by_suite[name])
    assert not checks.report_passed(report)

    code, out = run_cli(capsys, "run", "betti")
    assert code == 3
    assert "[ERROR] betti.error: the suite runs to completion" in out


def test_failing_check_exits_1(monkeypatch, capsys):
    broken = [checks.CheckResult("fq.broken", "forced failure", "fail", None)]
    monkeypatch.setitem(checks.SUITES, "fq", lambda: broken)
    code, out = run_cli(capsys, "run", "fq", "--format", "json")
    assert code == 1
    assert json.loads(out)["suites"][0]["checks"][0]["status"] == "fail"


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
