import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redistrib import (
    ALL_AXIOMS,
    LF,
    NAFR,
    PROP,
    ValidationError,
    evaluate,
    format_rule,
    make_problem,
    parse_rule,
    split_rule_list,
)
from redistrib.cli import (
    _BLOCK_ROWS,
    _apply_rows,
    _compare_rows,
    _coverage,
    _emit,
    _summary,
    load_dataset,
    main,
)
from redistrib import cli
from redistrib.rules import MAX_RULE_DEPTH
from conftest import AXIOM_MESSAGES, GRID_MESSAGES, LONG_GRIDS, nested_spec

CSV_TEXT = "id,income,need\na,5,1\nb,1,3\n"
JSON_TEXT = json.dumps(
    {
        "agents": [
            {"id": "a", "income": 5, "need": 1},
            {"id": "b", "income": 1, "need": 3},
        ]
    }
)


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    return str(path)


@pytest.fixture
def json_path(tmp_path):
    path = tmp_path / "two.json"
    path.write_text(JSON_TEXT, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_apply_report(capsys, csv_path):
    code, report, _ = run_cli(
        capsys, "apply", "--rule", "prop", "--input", csv_path, "--no-timestamp"
    )
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["command"] == "apply"
    assert report["rule"] == "prop"
    assert report["input"] == csv_path
    assert "generated_at" not in report
    assert report["agents"] == [
        {
            "id": "a",
            "income": 5.0,
            "need": 1.0,
            "allocation": 1.5,
            "needs_coverage": 1.5,
        },
        {
            "id": "b",
            "income": 1.0,
            "need": 3.0,
            "allocation": 4.5,
            "needs_coverage": 1.5,
        },
    ]
    assert report["summary"] == {"total": 6.0, "mean": 3.0, "min": 1.5, "max": 4.5}


def test_apply_includes_timestamp_by_default(capsys, csv_path):
    code, report, _ = run_cli(capsys, "apply", "--rule", "lf", "--input", csv_path)
    assert code == 0
    assert "generated_at" in report


def test_apply_zero_need_agent_has_null_coverage(capsys, tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("id,income,need\na,5,1\nb,1,3\nc,2,0\n", encoding="utf-8")
    code, report, _ = run_cli(
        capsys, "apply", "--rule", "prop", "--input", str(path), "--no-timestamp"
    )
    assert code == 0
    rows = {row["id"]: row for row in report["agents"]}
    assert rows["c"]["allocation"] == 0.0
    assert rows["c"]["needs_coverage"] is None


def test_apply_output_is_byte_stable(capsys, csv_path):
    argv = ("apply", "--rule", "nafr", "--input", csv_path, "--no-timestamp")
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


def test_apply_json_input_matches_csv(capsys, csv_path, json_path):
    _, from_csv, _ = run_cli(
        capsys, "apply", "--rule", "full", "--input", csv_path, "--no-timestamp"
    )
    _, from_json, _ = run_cli(
        capsys, "apply", "--rule", "full", "--input", json_path, "--no-timestamp"
    )
    assert from_csv["agents"] == from_json["agents"]
    assert from_csv["summary"] == from_json["summary"]


def test_apply_format_flag_overrides_extension(capsys, tmp_path):
    path = tmp_path / "data.txt"
    path.write_text(JSON_TEXT, encoding="utf-8")
    code, report, _ = run_cli(
        capsys,
        "apply",
        "--rule",
        "lf",
        "--input",
        str(path),
        "--format",
        "json",
        "--no-timestamp",
    )
    assert code == 0
    assert [row["id"] for row in report["agents"]] == ["a", "b"]


def test_apply_writes_output_file(capsys, csv_path, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "apply",
            "--rule",
            "prop",
            "--input",
            csv_path,
            "--output",
            str(out),
            "--no-timestamp",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert str(out) in captured.err
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["command"] == "apply"


def test_apply_preserves_float_values_exactly(capsys, tmp_path):
    path = tmp_path / "dec.csv"
    path.write_text("id,income,need\na,0.1,0.3\nb,0.2,0.7\n", encoding="utf-8")
    code, report, _ = run_cli(
        capsys, "apply", "--rule", "prop", "--input", str(path), "--no-timestamp"
    )
    assert code == 0
    problem = make_problem(("a", "b"), (0.1, 0.2), (0.3, 0.7))
    expected = evaluate(parse_rule("prop"), problem).values
    got = [row["allocation"] for row in report["agents"]]
    assert got == expected.tolist()  # bit for bit through the JSON layer


def test_apply_echoes_stripped_rule_text(capsys, csv_path):
    _, report, _ = run_cli(
        capsys, "apply", "--rule", "  prop ", "--input", csv_path, "--no-timestamp"
    )
    assert report["rule"] == "prop"


def test_check_passes_for_proportional(capsys):
    code, report, err = run_cli(
        capsys,
        "check",
        "--rule",
        "prop",
        "--samples",
        "60",
        "--no-timestamp",
    )
    assert code == 0
    assert report["all_passed"] is True
    assert report["seed"] == 0
    assert report["samples"] == 60
    assert report["tolerance"] == 1e-9
    assert [item["axiom"] for item in report["axioms"]] == list(ALL_AXIOMS)
    assert all(item["counterexample"] is None for item in report["axioms"])
    for name in ALL_AXIOMS:
        assert f"{name}: pass" in err


def test_check_failure_reports_counterexample(capsys):
    code, report, err = run_cli(
        capsys,
        "check",
        "--rule",
        "full",
        "--axioms",
        "dummy",
        "--samples",
        "60",
        "--no-timestamp",
    )
    assert code == 1
    assert report["all_passed"] is False
    assert "dummy: FAIL" in err
    (entry,) = report["axioms"]
    cex = entry["counterexample"]
    assert cex["deviation"] > cex["threshold"]
    problem = cex["instance"]["problem"]
    assert set(problem) == {"ids", "incomes", "needs"}
    assert len(problem["ids"]) == len(problem["incomes"]) == len(problem["needs"])


def test_check_axiom_list_expansion_order(capsys):
    code, report, _ = run_cli(
        capsys,
        "check",
        "--rule",
        "lf",
        "--axioms",
        "core,dummy",
        "--samples",
        "40",
        "--no-timestamp",
    )
    assert code == 0
    assert [item["axiom"] for item in report["axioms"]] == [
        "homogeneity",
        "equal_treatment",
        "continuity",
        "dummy",
    ]


def test_check_passes_when_payoffs_dwarf_the_problem(capsys):
    # A = 1e10·t²⁰ pays ~1e24 on problems of size ~10: rounding in the
    # payoffs must not read as a homogeneity or continuity violation.
    rule = "ab:A=poly:" + "0," * 20 + "1e10,B=id"
    code, report, _ = run_cli(
        capsys, "check", "--rule", rule, "--axioms", "core", "--no-timestamp"
    )
    assert code == 0
    assert report["all_passed"] is True


def test_check_stdout_stays_machine_readable_on_failure(capsys):
    code = main(
        ["check", "--rule", "full", "--axioms", "dummy", "--samples", "40",
         "--no-timestamp"]
    )
    captured = capsys.readouterr()
    assert code == 1
    json.loads(captured.out)  # must parse despite the FAIL banner on stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--rule", "prop", "--axioms", "symmetry"],
        ["check", "--rule", "bogus"],
        ["apply", "--rule", "convex(lf;prop;1.5)", "--input", "unused"],
        ["extract", "--rule", "prop", "--grid", "2:1:1"],
        ["extract", "--rule", "prop", "--grid", "1:1:1"],
        ["classify", "--rule", "prop", "--grid", "0.5:4.5:1"],
        # a report value overflows to inf and cannot be written as JSON
        ["extract", "--rule", "ab:A=poly:" + "0," * 20 + "1e300,B=id", "--grid=1e7:3e7:1e7"],
        # payoffs overflow, and the sampled deviation is NaN
        ["dual", "--rule", "ab:A=poly:" + "0," * 20 + "1e300,B=id", "--samples", "20"],
        # a tolerance that is not positive and finite, refused before any verdict
        ["check", "--rule", "lf", "--samples", "10", "--tol", "nan"],
        ["dual", "--rule", "lf", "--samples", "10", "--tol", "inf"],
        ["classify", "--rule", "lf", "--samples", "10", "--tol", "nan"],
        # an empty axiom list, which would pass with no axiom checked
        ["check", "--rule", "lf", "--axioms", ","],
        ["check", "--rule", "lf", "--axioms", ""],
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parse_failures_exit_2(capsys, argv):
    code = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1  # the error, and no verdict or warning


@pytest.mark.parametrize("kind", ["convex", "dual"])
@pytest.mark.parametrize("command", ["check", "dual"])
def test_rule_nesting_is_capped(capsys, kind, command):
    def run(depth):
        argv = [command, "--rule", nested_spec(kind, depth), "--samples", "20"]
        return main(argv + ["--no-timestamp"]), capsys.readouterr()

    code, captured = run(MAX_RULE_DEPTH)
    assert code in (0, 1) and json.loads(captured.out)["command"] == command
    for depth in (MAX_RULE_DEPTH + 1, 2000):
        code, captured = run(depth)
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"ParseError: rule nests convex and dual more than {MAX_RULE_DEPTH} deep\n"
        )


@pytest.mark.parametrize("depth", [MAX_RULE_DEPTH + 1, 2000])
def test_compare_rule_lists_name_the_nesting_cap(capsys, depth):
    argv = ["compare", "--rules", "lf," + nested_spec("dual", depth), "--input", "unused"]
    code = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"ParseError: rule nests convex and dual more than {MAX_RULE_DEPTH} deep\n"
    )


@pytest.mark.parametrize(
    "spec,message",
    [
        ("lf,bogus" + ",prop" * 2000, "could not parse rule list near 'bogus,prop,"),
        ("lf," + "dual(" * 2000 + "lf", "unbalanced '(' in 'lf,dual(dual("),
    ],
    ids=["unparsable", "unbalanced"],
)
def test_a_long_rule_list_is_quoted_in_short(capsys, spec, message):
    code = main(["compare", "--rules", spec, "--input", "unused", "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"ParseError: {message}")
    assert len(captured.err.splitlines()) == 1 and len(captured.err) < 300


@pytest.mark.parametrize(
    "spec,message",
    [
        (
            "convex(lf;" + "lf;" * 3000 + "lf;0.5)",
            "convex takes rule;rule;weight, got 'convex(lf;lf;",
        ),
        ("x" * 5000, "unknown rule 'xxxx"),
        ("lin:1," + "9" * 400, "number '9999"),
        ("ab:A=poly:0.5,B=" + "q" * 400, "unknown function 'qqqq"),
    ],
    ids=["convex-parts", "unknown", "number", "function"],
)
def test_a_long_rule_is_quoted_in_short(capsys, spec, message):
    code = main(["check", "--rule", spec, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"ParseError: {message}")
    assert len(captured.err.splitlines()) == 1
    assert len(captured.err.encode("utf-8")) < 200


@pytest.mark.parametrize(
    "spec,message",
    [
        ("bogus", "unknown rule 'bogus'"),
        ("prop:", "unknown rule 'prop:'"),
        ("lf:x", "unknown rule 'lf:x'"),
        ("ab", "unknown rule 'ab'"),
        ("afam:", "afam takes A=<fn>, got 'afam:'"),
        ("ab:B=id,A=id", "ab takes A=<fn>,B=<fn>, got 'ab:B=id,A=id'"),
        ("ab:A=id,B=", "unknown function ''"),
        ("convex(lf;prop)", "convex takes rule;rule;weight, got 'convex(lf;prop)'"),
        ("ab:A=id", "ab takes A=<fn>,B=<fn>, got 'ab:A=id'"),
        ("afam:B=id", "afam takes A=<fn>, got 'afam:B=id'"),
        ("bfam:A=id", "bfam takes B=<fn>, got 'bfam:A=id'"),
        ("lin:0.3", "lin takes two coefficients, got 'lin:0.3'"),
        ("lindual:1,2,3", "lindual takes two coefficients, got 'lindual:1,2,3'"),
        ("lin:", "lin takes two coefficients, got 'lin:'"),
        ("afam:A=sin", "unknown function 'sin'"),
        ("afam:A=const:1,2", "wrong number of parameters in 'const:1,2'"),
        ("afam:A=poly:", "wrong number of parameters in 'poly:'"),
        ("afam:A=exp:1", "unknown function kind 'exp'"),
        ("afam:A=id:", "unknown function kind 'id'"),
        ("afam:A=wavelet:x", "expected a number, got 'x'"),
        ("lin:0.3,x", "expected a number, got 'x'"),
        ("lin:0.3,inf", "number 'inf' is not finite"),
    ],
)
def test_a_short_rule_keeps_its_exact_message(capsys, spec, message):
    code = main(["check", "--rule", spec, "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"ParseError: {message}\n"


def test_data_failures_exit_3(capsys, tmp_path):
    cases = {
        "zero_need.csv": "id,income,need\na,5,0\nb,1,0\n",
        "dup.csv": "id,income,need\na,5,1\na,1,3\n",
        "header.csv": "agent,cash,want\na,5,1\n",
        "bad_number.csv": "id,income,need\na,five,1\n",
        "not_json.json": "{",
        "no_agents.json": "{\"rows\": []}",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = main(
            ["apply", "--rule", "lf", "--input", str(path), "--no-timestamp"]
        )
        captured = capsys.readouterr()
        assert code == 3, name
        assert captured.out == "", name
    code = main(
        ["apply", "--rule", "lf", "--input", str(tmp_path / "missing.csv")]
    )
    capsys.readouterr()
    assert code == 3


@pytest.mark.parametrize(
    "column,message",
    [
        ("income", "NonFinite: total income inf is not finite"),
        ("need", "NonFinite: total need inf is not finite"),
    ],
)
def test_overflowing_totals_exit_3_and_name_the_total(capsys, tmp_path, column, message):
    path = tmp_path / "huge.csv"
    rows = ("a,1e308,1\nb,1e308,1\n" if column == "income" else "a,1,1e308\nb,1,1e308\n")
    path.write_text("id,income,need\n" + rows, encoding="utf-8")
    code = main(["apply", "--rule", "prop", "--input", str(path), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_a_rule_that_fails_on_valid_data_exits_2_and_names_the_rule(
    capsys, tmp_path, to_file
):
    # ȳ + (y − ȳ)·1e308 overflows for the deviations ±5
    path = tmp_path / "two.csv"
    path.write_text("id,income,need\na,0,1\nb,10,1\n", encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["apply", "--rule", "lin:1e+308,0.0", "--input", str(path)]
    code = main(argv + ["--no-timestamp"] + (["--output", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith(
        "RuleError: rule 'lin:1e+308,0.0' does not allocate this problem: "
        "NonFinite: allocation entry -inf "
    )


def test_a_huge_income_weight_pays_a_lone_agent_its_income(capsys, tmp_path):
    # a·y + (1 − a)·ȳ cancels to 0.0 at a = 1e300; ȳ + a(y − ȳ) is exact
    path = tmp_path / "one.csv"
    path.write_text("id,income,need\na,-710534.77,490051.41\n", encoding="utf-8")
    argv = ["apply", "--rule", "dual(lin:1e+300,0.0)", "--input", str(path)]
    code = main(argv + ["--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert json.loads(captured.out)["agents"][0]["allocation"] == -710534.77


@pytest.mark.parametrize(
    "text,ids,incomes",
    [
        ("id,income,need\r\na,5,1\r\nb,1,3\r\n", ("a", "b"), (5.0, 1.0)),
        ('id,income,need\n"x, y",5,1\nb,1,3\n', ("x, y", "b"), (5.0, 1.0)),
        ("id,income,need\n\na,5,1\n , ,\n\nb,1,3\n\n", ("a", "b"), (5.0, 1.0)),
        (" ID , Income,need\n a ,-2.5 , 1e1\n", ("a",), (-2.5,)),
        # only \n, \r and \r\n end a csv line, not every str.splitlines break
        ("id,income,need\na\x0cb\u2028c,5,1\n", ("a\x0cb\u2028c",), (5.0,)),
    ],
    ids=["crlf", "quoted-comma", "blank-lines", "padded-cells", "form-feed-in-id"],
)
def test_csv_loader_accepts(tmp_path, text, ids, incomes):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    problem = load_dataset(str(path))
    assert problem.agents == ids
    assert problem.incomes.tolist() == list(incomes)


# Nested far deeper than json.load can recurse.
DEEP_JSON = '{"agents": ' + "[" * 200_000 + "]" * 200_000 + "}"
HUGE_INCOME = b'{"agents": [{"id": "a", "income": 1' + b"0" * 400 + b', "need": 1}]}'


@pytest.mark.parametrize(
    "name,data,message",
    [
        # blank lines count: the bad row is the fourth line of the file
        ("columns.csv", b"id,income,need\na,5,1\n\nb,1\n", "line 4: expected 3 columns"),
        ("number.csv", b"id,income,need\r\na,5,1\r\nb,x,3\r\n", "line 3: income 'x'"),
        ("late.csv", b"id,income,need\na,5,1\nb,1,3,4\nc,1,y\n", "line 3: expected 3"),
        ("latin1.csv", b"id,income,need\n\xe9,5,1\n", "can't decode"),
        ("need.json", b'{"agents": [{"id": "a", "income": 5, "need": [1]}]}', "need [1]"),
        ("keys.json", b'{"agents": [{"id": "a", "income": 5}]}', "agents[0]: expected"),
        ("huge.json", HUGE_INCOME, "agents[0]: income 1000"),
    ],
)
def test_loader_errors_exit_3_and_name_the_row(capsys, tmp_path, name, data, message):
    path = tmp_path / name
    path.write_bytes(data)
    code = main(["apply", "--rule", "lf", "--input", str(path), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert str(path) in captured.err and message in captured.err


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_non_finite_needs_coverage_exits_2_before_writing(capsys, tmp_path, to_file):
    path = tmp_path / "tiny_need.csv"
    path.write_text("id,income,need\na,5,1\nb,1,5e-324\nc,2,3\n", encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["apply", "--rule", "lf", "--input", str(path), "--no-timestamp"]
    code = main(argv + (["--output", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not JSON compliant: inf" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "rows,bad",
    [
        ("b,-1e300,5e-324\nc,1e300,3\n", "-inf"),
        # json names inf when the column holds both signs
        ("b,-1e300,5e-324\nc,1e300,5e-324\n", "inf"),
        ("b,1e300,5e-324\nc,-1e300,5e-324\n", "inf"),
    ],
    ids=["-inf", "-inf-then-inf", "inf-then-inf"],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
def test_non_finite_coverage_is_named_as_json_names_it(capsys, tmp_path, rows, bad, to_file):
    path = tmp_path / "tiny_need.csv"
    path.write_text("id,income,need\na,5,1\n" + rows + "d,2,3\n", encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["apply", "--rule", "lf", "--input", str(path), "--no-timestamp"]
    code = main(argv + (["--output", str(out)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and not out.exists()
    assert captured.err == f"ValueError: Out of range float values are not JSON compliant: {bad}\n"


# Datasets whose rows take each path of the loaders, with the columns they hold.
EDGE_DATASETS = {
    # blank and whitespace-only rows are skipped but still counted as lines
    "blank-lines.csv": (
        "id,income,need\n\na,5,1\n , ,\n\nb,1,3\n\n",
        ["a", "b"], [5.0, 1.0], [1.0, 3.0],
    ),
    "padded.csv": (
        " ID , Income,need\r\n a ,-2.5 , 1e1\r\n\t,\t,\r\n b , 7.5,2 \r\n",
        ["a", "b"], [-2.5, 7.5], [10.0, 2.0],
    ),
    "zero-need.csv": (
        "id,income,need\na,5,1\nb,1,3\nc,2,0\n",
        ["a", "b", "c"], [5.0, 1.0, 2.0], [1.0, 3.0, 0.0],
    ),
    "integer-income.json": (
        json.dumps(
            {
                "agents": [
                    {"id": "a", "income": 5, "need": 1},
                    {"id": 7, "income": 1.5, "need": 3},
                    {"id": "c", "income": -2, "need": 0},
                ]
            }
        ),
        ["a", "7", "c"], [5.0, 1.5, -2.0], [1.0, 3.0, 0.0],
    ),
}


def _reference_report(command, specs, path, ids, incomes, needs):
    """The report json.dumps writes, built from the expected columns."""
    problem = make_problem(ids, incomes, needs)
    values = {spec: evaluate(parse_rule(spec), problem).values.tolist() for spec in specs}
    agents = [{"id": i, "income": y, "need": z} for i, y, z in zip(ids, incomes, needs)]
    report = {"schema_version": "1", "command": command}
    if command == "apply":
        (spec,) = specs
        report.update(rule=spec, input=path)
        for row, x in zip(agents, values[spec]):
            row.update(allocation=x, needs_coverage=x / row["need"] if row["need"] else None)
        report["agents"] = agents
        report["summary"] = _summary_of(values[spec])
    else:
        report.update(rules=specs, input=path)
        for k, row in enumerate(agents):
            row["allocations"] = {spec: values[spec][k] for spec in specs}
        report["agents"] = agents
        report["summary"] = {spec: _summary_of(values[spec]) for spec in specs}
    return json.dumps(report, indent=2) + "\n"


def _summary_of(values):
    total = 0.0
    for x in values:
        total += x
    return {"total": total, "mean": total / len(values), "min": min(values), "max": max(values)}


@pytest.mark.parametrize("name", sorted(EDGE_DATASETS))
@pytest.mark.parametrize(
    "command,specs",
    [("apply", ["prop"]), ("apply", ["nafr"]), ("compare", ["lf", "prop", "dual(lin:0.3,0.2)"])],
)
def test_edge_dataset_reports_are_exact(capsys, tmp_path, name, command, specs):
    text, *columns = EDGE_DATASETS[name]
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    if command == "apply":
        argv = ["apply", "--rule", specs[0]]
    else:
        argv = ["compare", "--rules", ",".join(specs)]
    code = main(argv + ["--input", str(path), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == _reference_report(command, specs, str(path), *columns)


@pytest.mark.parametrize(
    "name,text,message",
    [
        ("columns.csv", "id,income,need\na,5,1\n\nb,1\n", " line 4: expected 3 columns, got 2"),
        ("blank.csv", "id,income,need\n\n \t, ,\nb,x,3\n", " line 4: income 'x' is not a number"),
        ("padded.csv", "id,income,need\n a , 5 , one \n", " line 2: need ' one ' is not a number"),
        ("extra.csv", "id,income,need\na,5,1,\n", " line 2: expected 3 columns, got 4"),
        # the first bad row is named, and before any duplicate id
        ("first.csv", "id,income,need\na,5,1\na,1,3\nc,1,y\nd,z,1\n", " line 4: need 'y' is not a number"),
        # a duplicate id is named before the Problem's own checks
        ("duplicate.csv", "id,income,need\na,5,0\nb,1,0\na,1,0\n", ": duplicate agent id 'a'"),
        # a byte order mark moves no line number
        ("bom.csv", "\ufeffid,income,need\na,5,1\nb,x,3\n", " line 3: income 'x' is not a number"),
        (
            "income.json",
            '{"agents": [{"id": "a", "income": 5, "need": 1}, {"id": "b", "income": "x", "need": 1}]}',
            ' agents[1]: income "x" is not a number',
        ),
        (
            "keys.json",
            '{"agents": [{"id": "a", "income": 5, "need": 1}, {"id": "b", "need": 1}]}',
            " agents[1]: expected keys id, income, need",
        ),
        (
            "duplicate.json",
            '{"agents": [{"id": 1, "income": 5, "need": 1}, {"id": "1", "income": 1, "need": 1}]}',
            ": duplicate agent id '1'",
        ),
        # JSON booleans are not numbers, though float() takes them
        (
            "true.json",
            '{"agents": [{"id": "a", "income": true, "need": 1}]}',
            " agents[0]: income true is not a number",
        ),
        (
            "false.json",
            '{"agents": [{"id": "a", "income": 5, "need": 1}, {"id": "b", "income": 1, "need": false}]}',
            " agents[1]: need false is not a number",
        ),
        # an id is a string or a number, though str() takes any value
        (
            "null-id.json",
            '{"agents": [{"id": "a", "income": 5, "need": 1}, {"id": null, "income": 1, "need": 1}]}',
            " agents[1]: id null is not a string or a number",
        ),
        (
            "bool-id.json",
            '{"agents": [{"id": true, "income": 5, "need": 1}]}',
            " agents[0]: id true is not a string or a number",
        ),
        (
            "array-id.json",
            '{"agents": [{"id": [1], "income": 5, "need": 1}]}',
            " agents[0]: id [1] is not a string or a number",
        ),
        (
            "object-id.json",
            '{"agents": [{"id": {"k": 1}, "income": "x", "need": 1}]}',
            ' agents[0]: id {"k": 1} is not a string or a number',
        ),
        ("deep.json", DEEP_JSON, ": JSON nested too deeply"),
    ],
)
def test_loader_errors_are_named_exactly(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code = main(["apply", "--rule", "lf", "--input", str(path), "--no-timestamp"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"DatasetError: {path}{message}\n"


@pytest.mark.parametrize("name,text", [("two.csv", CSV_TEXT), ("two.json", JSON_TEXT)])
def test_a_byte_order_mark_is_skipped(capsys, tmp_path, name, text):
    # Excel's "CSV UTF-8" export and Notepad write one before the first byte.
    reports = []
    for prefix in ("", "\ufeff"):
        path = tmp_path / (f"bom-{name}" if prefix else name)
        path.write_text(prefix + text, encoding="utf-8")
        code, report, err = run_cli(
            capsys, "apply", "--rule", "prop", "--input", str(path), "--no-timestamp"
        )
        assert code == 0 and err == ""
        reports.append((report["agents"], report["summary"]))
    assert reports[0] == reports[1]


# Ids with quotes, backslashes, control and non-ASCII characters.
AWKWARD = st.sampled_from('"\\\n\t\x00\x1f\x7f/\u00e9\u20ac\U0001f600')
TEXTS = st.text(st.one_of(AWKWARD, st.characters()), max_size=6)
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, -1e16, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), FLOATS), min_size=1, max_size=8))
def test_summary_matches_python_min_max_and_left_sum(values):
    expected = _summary_of(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        summary = _summary(np.array(values))
    assert all(type(v) is float for v in summary.values())
    # float.hex tells -0.0 from 0.0.
    assert {k: v.hex() for k, v in summary.items()} == {k: v.hex() for k, v in expected.items()}


def test_summary_reports_the_first_of_a_signed_zero_tie():
    assert repr(_summary(np.array((0.0, -0.0, 1.0)))["min"]) == "0.0"
    assert repr(_summary(np.array((-0.0, 0.0, 1.0)))["min"]) == "-0.0"
    assert repr(_summary(np.array((-1.0, -0.0, 0.0)))["max"]) == "-0.0"
    assert repr(_summary(np.array((-0.0, -0.0)))["total"]) == "0.0"
    assert repr(_summary(np.array((1.7e308, 1.7e308)))["total"]) == "inf"


def _coverage_reference(values, needs):
    """_coverage one agent at a time: the same texts, or the same error."""
    bad = {
        float.__repr__(value / need)
        for value, need in zip(values, needs)
        if need > 0 and not math.isfinite(value / need)
    }
    for text in ("nan", "inf", "-inf"):
        if text in bad:
            raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    texts = [float.__repr__(value / need) if need > 0 else "null" for value, need in zip(values, needs)]
    return lambda start, stop: texts[start:stop]


def _coverage_outcome(coverage, values, needs):
    """The column's texts, read a block of rows at a time, or its error."""
    try:
        column = coverage(values, needs)
    except ValueError as exc:
        return str(exc)
    n, rows = len(values), cli._BLOCK_ROWS
    return [text for start in range(0, n, rows) for text in column(start, min(start + rows, n))]


@given(
    st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(
                st.one_of(FLOATS, st.sampled_from([math.nan, math.inf, -math.inf])),
                min_size=n,
                max_size=n,
            ),
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, -1.0]),
                    st.floats(min_value=0.0, allow_infinity=False),
                ),
                min_size=n,
                max_size=n,
            ),
        )
    )
)
def test_coverage_matches_the_scalar_reference(columns):
    values, needs = columns
    expected = _coverage_outcome(_coverage_reference, values, needs)
    # Blocks of 2 rows check and read a column in several blocks.
    for rows in (_BLOCK_ROWS, 2):
        with mock.patch.object(cli, "_BLOCK_ROWS", rows), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            observed = _coverage_outcome(_coverage, np.array(values), np.array(needs))
            assert observed == expected


def test_coverage_names_nan_then_inf_then_minus_inf():
    # The third need is 0, so that agent's value is never divided.
    needs = np.array((1.0, 5e-324, 0.0, 1.0))
    for values, bad in [
        ((-math.inf, 1e300, math.inf, math.nan), "nan"),
        ((-math.inf, 1e300, math.nan, 1.0), "inf"),
        ((-math.inf, -1e300, math.nan, 1.0), "-inf"),
    ]:
        expected = f"Out of range float values are not JSON compliant: {bad}"
        assert _coverage_outcome(_coverage, np.array(values), needs) == expected
    assert list(_coverage(np.array((1.0, 5e-324, math.nan, -2.0)), needs)(0, 4)) == [
        "1.0", "1.0", "null", "-2.0"
    ]


def _emitted(report):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(report, argparse.Namespace(output="-"))
    return out.getvalue()


@contextlib.contextmanager
def _writer(block_rows, cpus):
    """Tables written in blocks of block_rows rows, as on a host of cpus CPUs.

    Yields the mock of os.fork, which counts the helper processes started.
    """
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows), mock.patch.object(
        os, "sched_getaffinity", return_value=set(range(cpus)), create=True
    ), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        yield fork


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check_emit(head, rows, build, tail):
    """_emit of the column form must write what json.dumps writes of the rows.

    It is written in one process, and in blocks of 2 rows on one CPU and on
    two, where a table of 4 or more rows has its second half formatted by a
    helper process.
    """
    report = {**head, "agents": rows, **tail}
    try:
        expected = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError:
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emitted({**head, "agents": build(), **tail})
        return
    assert _emitted({**head, "agents": build(), **tail}) == expected
    for cpus in (1, 2):
        with _writer(2, cpus) as fork:
            assert _emitted({**head, "agents": build(), **tail}) == expected
        assert fork.call_count == (cpus == 2 and len(rows) >= 4)
    _no_child_is_left()


def _apply_case(ids, incomes, needs, values, rule="prop"):
    head = {"schema_version": "1", "command": "apply", "rule": rule, "input": "in.csv"}
    rows = [
        {
            "id": i,
            "income": y,
            "need": z,
            "allocation": x,
            "needs_coverage": x / z if z > 0 else None,
        }
        for i, y, z, x in zip(ids, incomes, needs, values)
    ]
    columns = (np.array(incomes), np.array(needs), np.array(values))
    return head, rows, lambda: _apply_rows(ids, *columns)


@given(st.data(), st.integers(min_value=0, max_value=6), TEXTS)
def test_emit_of_apply_report_matches_json_dumps(data, n, rule):
    columns = [data.draw(st.lists(TEXTS, min_size=n, max_size=n))]
    columns += [data.draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(3)]
    head, rows, build = _apply_case(*columns, rule=rule)
    tail = {"summary": {"total": data.draw(FLOATS), "min": data.draw(FLOATS)}}
    _check_emit(head, rows, build, tail)


def test_emit_of_a_table_longer_than_a_block_matches_json_dumps():
    n = 2 * _BLOCK_ROWS + 1
    values = [k / 7 for k in range(n)]
    head, rows, build = _apply_case([f"a{k}" for k in range(n)], values, values, values)
    _check_emit(head, rows, build, {"summary": {}})


@given(
    st.data(),
    st.integers(min_value=0, max_value=6),
    st.lists(TEXTS, max_size=3, unique=True),
)
def test_emit_of_compare_report_matches_json_dumps(data, n, specs):
    ids = data.draw(st.lists(TEXTS, min_size=n, max_size=n))
    incomes, needs = (data.draw(st.lists(FLOATS, min_size=n, max_size=n)) for _ in range(2))
    allocations = {
        spec: data.draw(st.lists(FLOATS, min_size=n, max_size=n)) for spec in specs
    }
    head = {"schema_version": "1", "command": "compare", "rules": specs, "input": "in.json"}
    rows = [
        {
            "id": i,
            "income": y,
            "need": z,
            "allocations": {spec: allocations[spec][k] for spec in specs},
        }
        for k, (i, y, z) in enumerate(zip(ids, incomes, needs))
    ]
    tail = {"summary": {spec: {"total": sum(allocations[spec])} for spec in specs}}

    def build():
        arrays = {spec: np.array(values) for spec, values in allocations.items()}
        return _compare_rows(ids, np.array(incomes), np.array(needs), arrays)

    _check_emit(head, rows, build, tail)


def _long_apply_case(n):
    values = [k / 7 - 3 for k in range(n)]
    needs = [float(k % 5) for k in range(n)]
    return _apply_case([f"a{k}" for k in range(n)], values, needs, values)


def _helper_status(statuses):
    """os.waitpid that records each status it returns."""
    real = os.waitpid

    def waitpid(pid, options):
        result = real(pid, options)
        statuses.append(result[1])
        return result

    return waitpid


def test_a_failing_helper_leaves_the_bytes_unchanged():
    head, rows, build = _long_apply_case(9)
    expected = json.dumps({**head, "agents": rows}, indent=2) + "\n"
    parent, encode = os.getpid(), cli._encode_str

    def encode_here_only(text):
        if os.getpid() != parent:
            raise RuntimeError("the helper fails")
        return encode(text)

    statuses = []
    with _writer(2, 2) as fork, mock.patch.object(cli, "_encode_str", encode_here_only), \
            mock.patch.object(os, "waitpid", _helper_status(statuses)):
        assert _emitted({**head, "agents": build()}) == expected
    assert fork.call_count == 1 and statuses and statuses[0] != 0
    _no_child_is_left()


def test_a_helper_without_a_temporary_file_is_not_started():
    head, rows, build = _long_apply_case(9)
    expected = json.dumps({**head, "agents": rows}, indent=2) + "\n"
    with _writer(2, 2) as fork, mock.patch.object(
        cli.tempfile, "TemporaryFile", side_effect=OSError(28, "No space left on device")
    ):
        assert _emitted({**head, "agents": build()}) == expected
    assert fork.call_count == 0


def _long_dataset(tmp_path, n):
    path = tmp_path / "long.csv"
    path.write_text(
        "id,income,need\n" + "".join(f"h{k},{k * 1.5 - 40},{k % 7}\n" for k in range(n)),
        encoding="utf-8",
    )
    return str(path)


@pytest.mark.parametrize("command", ["apply", "compare"])
def test_one_cpu_writes_the_bytes_of_two(capsys, tmp_path, command):
    path = _long_dataset(tmp_path, 40)
    rules = ["--rule", "prop"] if command == "apply" else ["--rules", "lf,prop,dual(lin:0.3,0.2)"]
    outputs = []
    for cpus in (1, 2):
        with _writer(4, cpus) as fork:
            code = main([command, *rules, "--input", path, "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert fork.call_count == cpus - 1
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    _no_child_is_left()


class _RowsRefused(io.StringIO):
    """A stdout that takes the report's head, then breaks at the first rows."""

    def write(self, text):
        if text.startswith("    {"):
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("to", ["stdout", "output"])
def test_a_failed_write_leaves_no_helper_behind(capsys, tmp_path, to):
    # Blocks of 8 rows: this process's half is more than a file buffer, so
    # the write fails while the helper may still run.
    path = _long_dataset(tmp_path, 4000)
    argv = ["apply", "--rule", "prop", "--input", path, "--no-timestamp"]
    if to == "stdout":
        with _writer(8, 2) as fork, contextlib.redirect_stdout(_RowsRefused()):
            code = main(argv)
        message = "OutputError: cannot write <stdout>: Broken pipe\n"
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with _writer(8, 2) as fork:
            code = main(argv + ["--output", "/dev/full"])
        message = "OutputError: cannot write /dev/full: No space left on device\n"
    assert code == 2 and fork.call_count == 1
    assert capsys.readouterr().err == message
    _no_child_is_left()


def _buffered_cli(argv, **kwargs):
    """The CLI in a new interpreter whose stdout buffers, as it does by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "redistrib", *argv], env=env, text=True, **kwargs
    )


@pytest.mark.parametrize("rows", [2, 9000])
@pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
def test_a_report_stdout_cannot_take_exits_2_with_one_line(tmp_path, sink, rows):
    # 9000 rows are more than two blocks, so a host of two CPUs starts the
    # helper; 2 rows fail only as stdout is flushed. The exit flush of what
    # stdout still buffers must then fail no second time.
    path = _long_dataset(tmp_path, rows)
    if sink == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
        message = "OutputError: cannot write <stdout>: Broken pipe\n"
    else:
        if not os.path.exists(sink):
            pytest.skip(f"no {sink}")
        stdout = os.open(sink, os.O_WRONLY)
        message = "OutputError: cannot write <stdout>: No space left on device\n"
    try:
        proc = _buffered_cli(
            ["apply", "--rule", "prop", "--input", path], stdout=stdout, stderr=subprocess.PIPE
        )
    finally:
        os.close(stdout)
    assert (proc.returncode, proc.stderr) == (2, message)


def test_the_helper_writes_the_one_process_bytes_to_a_real_stdout(capsys, tmp_path):
    # The helper must not flush its copy of this process's stdout buffer.
    path = _long_dataset(tmp_path, 9000)
    argv = ["apply", "--rule", "prop", "--input", path, "--no-timestamp"]
    with _writer(cli._BLOCK_ROWS, 1):
        assert main(argv) == 0
    expected = capsys.readouterr().out
    proc = _buffered_cli(argv, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected


def test_a_written_report_leaves_no_helper_behind(capsys, tmp_path):
    path = _long_dataset(tmp_path, 100)
    target = tmp_path / "report.json"
    with _writer(8, 2) as fork:
        code = main(["apply", "--rule", "prop", "--input", path, "--output", str(target)])
    assert code == 0 and fork.call_count == 1
    assert len(json.loads(target.read_text(encoding="utf-8"))["agents"]) == 100
    _no_child_is_left()


def test_dual_of_full(capsys):
    code, report, _ = run_cli(
        capsys, "dual", "--rule", "full", "--samples", "100", "--no-timestamp"
    )
    assert code == 0
    assert report["dual_rule"] == "nafr"
    assert report["dual_label"] == "need-adjusted-full"
    assert report["self_dual"]["passed"] is False
    assert report["self_dual"]["max_deviation"] > 1e-9
    assert set(report["self_dual"]["witness"]) == {"ids", "incomes", "needs"}


def test_dual_of_proportional(capsys):
    code, report, _ = run_cli(
        capsys, "dual", "--rule", "prop", "--samples", "100", "--no-timestamp"
    )
    assert code == 0
    assert report["dual_rule"] == "prop"
    assert report["dual_label"] == "proportional"
    assert report["self_dual"]["passed"] is True
    assert report["self_dual"]["witness"] is None


AB_POLY = "ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02"
DUAL_RULES = [
    ("convex(lf;prop;0.5)", "convex(lf;prop;0.5)"),
    (
        AB_POLY,
        "ab:A=poly:0.25,0.0,-0.05"
        ",B=poly:0.33,0.33999999999999997,0.030000000000000002",
    ),
    ("afam:A=affine:0.2,0.4", "afam:A=affine:-0.2,0.6000000000000001"),
    ("bfam:B=poly:0.5,0.3,0.1", "bfam:B=poly:0.1,0.5,-0.1"),
    ("lin:0.3,0.2", "lindual:0.3,0.2"),
    ("lindual:0.3,0.2", "lin:0.3,0.2"),
    (f"dual({AB_POLY})", AB_POLY),
    ("dual(convex(lf;nafr;0.4))", "convex(lf;nafr;0.4)"),
    (
        "convex(dual(lin:0.3,0.2);afam:A=id;0.6)",
        "convex(lin:0.3,0.2;afam:A=affine:-1.0,1.0;0.6)",
    ),
]


def test_dual_outside_the_label_catalog(capsys):
    for rule, dual_rule in DUAL_RULES:
        code, report, _ = run_cli(
            capsys, "dual", "--rule", rule, "--samples", "20", "--no-timestamp"
        )
        assert code == 0
        assert report["dual_rule"] == dual_rule, rule
        assert report["dual_label"] is None


def test_a_dual_weight_past_the_float_range_exits_2_with_one_line(capsys):
    # 1 − B(1 − t) has constant term 1 − 2e308, which no float holds.
    code, report, err = run_cli(
        capsys, "dual", "--rule", "bfam:B=poly:1e308,1e308", "--no-timestamp"
    )
    assert (code, report) == (2, None)
    assert err == "ValueError: parameter -inf is not finite\n"


def test_importing_the_cli_leaves_fractions_unloaded():
    code = "import sys, redistrib.cli; assert 'fractions' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_a_decimal_grid_straddling_zero_classifies(capsys):
    code, report, _ = run_cli(
        capsys, "classify", "--rule", "prop", "--grid=-0.3:0.3:0.1",
        "--samples", "20", "--no-timestamp",
    )
    assert (code, report["label"]) == (0, "proportional")
    assert report["profile"]["grid"] == [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]


def test_extract_proportional_weights(capsys):
    code, report, _ = run_cli(
        capsys, "extract", "--rule", "prop", "--no-timestamp"
    )
    assert code == 0
    assert report["grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]
    assert report["a_values"] == pytest.approx([0.0] * 5, abs=1e-9)
    assert report["b_values"] == pytest.approx(report["grid"], abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extract_on_the_longest_grid(capsys):
    code, report, err = run_cli(
        capsys, "extract", "--rule", "lin:0.3,0.2", "--grid=0:99999:1", "--no-timestamp"
    )
    assert (code, err) == (0, "")
    assert report["grid"] == [float(k) for k in range(100_000)]
    assert report["a_values"] == pytest.approx([0.3] * 100_000, rel=1e-12)
    assert report["b_values"] == pytest.approx(
        [0.2 * t for t in report["grid"]], rel=1e-12, abs=1e-12
    )


def test_classify_full(capsys):
    code, report, _ = run_cli(
        capsys, "classify", "--rule", "full", "--samples", "60", "--no-timestamp"
    )
    assert code == 0
    assert report["label"] == "full"
    assert report["a_shape"] == "zero"
    assert report["b_shape"] == "zero"
    assert report["max_residual"] <= 1e-9
    assert report["profile"]["grid"] == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_classify_at_large_ratios(capsys):
    code, report, _ = run_cli(
        capsys,
        "classify",
        "--rule",
        "prop",
        "--grid=-2e9:2e9:1e9",
        "--samples",
        "60",
        "--no-timestamp",
    )
    assert code == 0
    assert report["label"] == "proportional"


def test_compare_reports_a_repeated_spec_once(capsys, csv_path):
    def report_of(*rules):
        argv = ["compare", *(a for r in rules for a in ("--rules", r))]
        return run_cli(capsys, *argv, "--input", csv_path, "--no-timestamp")

    assert report_of("lf,lf", "prop") == report_of("lf,prop")


def test_compare_with_greedy_rule_lists(capsys, csv_path):
    code, report, _ = run_cli(
        capsys,
        "compare",
        "--rules",
        "lf,lin:1,0",
        "--rules",
        "full",
        "--input",
        csv_path,
        "--no-timestamp",
    )
    assert code == 0
    assert report["rules"] == ["lf", "lin:1.0,0.0", "full"]
    first = report["agents"][0]["allocations"]
    assert first["lf"] == first["lin:1.0,0.0"] == 5.0
    assert first["full"] == 3.0
    assert report["summary"]["full"] == {
        "total": 6.0,
        "mean": 3.0,
        "min": 3.0,
        "max": 3.0,
    }


COEFFS = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 5e-324]),
    st.floats(-1e300, 1e300),
)
POLYS = st.lists(COEFFS, min_size=1, max_size=21).map(
    lambda c: "poly:" + ",".join(map(repr, c))
)
LEAF_RULES = st.one_of(
    st.sampled_from(["lf", "full", "prop", "nafr"]),
    st.builds(
        lambda head, a, b: f"{head}:{a!r},{b!r}",
        st.sampled_from(["lin", "lindual"]),
        COEFFS,
        COEFFS,
    ),
    st.builds(lambda a, b: f"ab:A={a},B={b}", POLYS, POLYS),
    POLYS.map(lambda a: f"afam:A={a}"),
    POLYS.map(lambda b: f"bfam:B={b}"),
)


def _nested_rule_texts(depth):
    if depth == 0:
        return LEAF_RULES
    inner = _nested_rule_texts(depth - 1)
    return st.one_of(
        inner,
        inner.map(lambda r: f"dual({r})"),
        st.builds(
            lambda a, b, w: f"convex({a};{b};{w!r})", inner, inner, st.floats(0.0, 1.0)
        ),
    )


CLI_COMMANDS = st.sampled_from(
    [
        ["check", "--samples", "20"],
        ["dual", "--samples", "20"],
        ["classify", "--samples", "20", "--grid=-2:2:1"],
        ["extract"],
    ]
)


# Huge coefficients overflow numpy's block arithmetic on purpose, and no
# numpy warning may reach stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(rule=_nested_rule_texts(2), command=CLI_COMMANDS)
def test_cli_returns_a_documented_exit_code_and_never_raises(rule, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], "--rule", rule, *command[1:], "--no-timestamp"])
    assert code in (0, 1, 2, 3), err.getvalue()


# Edges of the Problem domain: extreme and subnormal magnitudes, signed
# zeros, and zero or tiny needs.
DOMAIN_INCOMES = st.one_of(
    st.sampled_from([1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0, 1.0, -2.5, 0.1]),
    st.floats(-1e6, 1e6),
)
DOMAIN_NEEDS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e308, 1.0, 0.5]), st.floats(0.0, 1e6)
)


@st.composite
def domain_datasets(draw):
    """Ids, incomes and needs of 1-6 agents, incomes cancelling pairwise or not."""
    n = draw(st.integers(1, 6))
    incomes = draw(st.lists(DOMAIN_INCOMES, min_size=n, max_size=n))
    if draw(st.booleans()):
        incomes[1::2] = [-y for y in incomes[0::2]][: len(incomes[1::2])]
    needs = draw(st.lists(DOMAIN_NEEDS, min_size=n, max_size=n))
    return [f"a{k}" for k in range(n)], incomes, needs


def _write_dataset(directory, fmt, ids, incomes, needs):
    path = os.path.join(directory, f"data.{fmt}")
    if fmt == "csv":
        lines = ["id,income,need"] + [
            f"{i},{y!r},{z!r}" for i, y, z in zip(ids, incomes, needs)
        ]
        text = "\n".join(lines) + "\n"
    else:
        agents = [{"id": i, "income": y, "need": z} for i, y, z in zip(ids, incomes, needs)]
        text = json.dumps({"agents": agents})
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _is_valid_problem(data):
    try:
        make_problem(*data)
    except ValidationError:
        return False
    return True


def _refuse_constant(name):
    raise ValueError(f"report holds {name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(
    data=domain_datasets(),
    fmt=st.sampled_from(["csv", "json"]),
    rules=st.lists(_nested_rule_texts(1), min_size=1, max_size=3),
    compare=st.booleans(),
    to_file=st.booleans(),
)
def test_dataset_reports_are_finite_and_exact_or_not_written(
    data, fmt, rules, compare, to_file
):
    """apply and compare write a report of the exact allocations, or nothing."""
    with tempfile.TemporaryDirectory() as directory:
        path = _write_dataset(directory, fmt, *data)
        target = os.path.join(directory, "report.json")
        if compare:
            argv = ["compare", *(arg for r in rules for arg in ("--rules", r))]
        else:
            argv = ["apply", "--rule", rules[0]]
        argv += ["--input", path, "--no-timestamp"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + (["--output", target] if to_file else []))
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        # exit 3 is for invalid data; a rule that fails on valid data exits 2
        assert code != 3 or not _is_valid_problem(data), err.getvalue()
        if code != 0:
            assert out.getvalue() == ""
            assert not os.path.exists(target)
            return
        if to_file:
            assert out.getvalue() == ""
            with open(target, encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = out.getvalue()
    report = json.loads(text, parse_constant=_refuse_constant)
    problem = make_problem(*data)
    if compare:
        parsed = [rule for r in rules for rule in split_rule_list(r)]
        # each distinct spec once, at its first place
        assert report["rules"] == list(dict.fromkeys(map(format_rule, parsed)))
        for rule in parsed:
            observed = [row["allocations"][format_rule(rule)] for row in report["agents"]]
            assert observed == evaluate(rule, problem).values.tolist()
    else:
        observed = [row["allocation"] for row in report["agents"]]
        assert observed == evaluate(parse_rule(rules[0]), problem).values.tolist()


MEMORY_ROWS = 50_000


def _emit_peak_per_row(build):
    """Traced peak bytes per row of building a report and writing it to a null sink."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            _emit({"agents": build()}, argparse.Namespace(output="-"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / MEMORY_ROWS


def _memory_problem():
    rng = np.random.default_rng(0)
    ids = [f"h{k:07d}" for k in rng.permutation(MEMORY_ROWS)]
    incomes = np.round(rng.lognormal(10.0, 0.8, MEMORY_ROWS), 2).tolist()
    needs = np.round(rng.uniform(200.0, 30000.0, MEMORY_ROWS), 2).tolist()
    return make_problem(ids, incomes, needs)


def test_load_dataset_holds_little_beyond_the_problem(tmp_path):
    problem = _memory_problem()
    path = tmp_path / "memory.csv"
    rows = zip(problem.agents, problem.incomes.tolist(), problem.needs.tolist())
    path.write_text(
        "id,income,need\n" + "".join(f"{i},{y!r},{z!r}\n" for i, y, z in rows),
        encoding="utf-8",
    )
    del problem, rows
    tracemalloc.start()
    try:
        loaded = load_dataset(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(loaded) == MEMORY_ROWS
    # about 184 B, of which the Problem keeps about 81 B (ids and two float64
    # columns): the rows are read straight into columns, with no per-row
    # record to re-split
    assert peak / MEMORY_ROWS < 220


def test_apply_report_holds_little_per_row():
    problem = _memory_problem()
    values = evaluate(PROP, problem).values
    per_row = _emit_peak_per_row(
        lambda: _apply_rows(problem.agents, problem.incomes, problem.needs, values)
    )
    # about 46 B: the columns are read once, and no coverage text is held
    assert per_row < 100


def test_compare_report_holds_little_per_row():
    problem = _memory_problem()
    allocations = {
        format_rule(rule): evaluate(rule, problem).values for rule in (LF, PROP, NAFR)
    }
    per_row = _emit_peak_per_row(
        lambda: _compare_rows(problem.agents, problem.incomes, problem.needs, allocations)
    )
    assert per_row < 150


@pytest.mark.parametrize("target", ["dir", "missing/report.json"])
def test_an_unwritable_output_exits_2_with_one_line(capsys, tmp_path, target):
    output = tmp_path if target == "dir" else tmp_path / target
    code = main(["dual", "--rule", "full", "--output", str(output)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"OutputError: cannot write {output}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["check", "--axioms", "core"], ["dual"], ["classify"]],
    ids=lambda argv: argv[0],
)
def test_sampling_reports_open_with_their_seed_and_samples(capsys, argv):
    code, report, _ = run_cli(
        capsys, *argv, "--rule", "prop", "--seed", "4", "--samples", "5", "--no-timestamp"
    )
    assert code == 0
    assert list(report)[:5] == ["schema_version", "command", "rule", "seed", "samples"]
    assert (report["seed"], report["samples"]) == (4, 5)


_HUGE = "x" * 1_000_000


@pytest.mark.parametrize(
    "name,text",
    [
        ("income.json", json.dumps({"agents": [{"id": "a", "income": _HUGE, "need": 1}]})),
        ("need.json", json.dumps({"agents": [{"id": "a", "income": 1, "need": [_HUGE]}]})),
        (
            "id.json",
            json.dumps(
                {"agents": [{"id": _HUGE, "income": 1, "need": 1}] * 2}
            ),
        ),
        ("header.csv", "id,income," + "n" * 100_000 + "\na,1,1\n"),
    ],
)
def test_a_huge_dataset_value_is_quoted_in_short(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, report, err = run_cli(capsys, "apply", "--rule", "prop", "--input", str(path))
    assert code == 3 and report is None
    assert err.count("\n") == 1
    assert len(err) <= len(str(path)) + 150, err[:300]


@pytest.mark.parametrize("text,message", GRID_MESSAGES.values(), ids=list(GRID_MESSAGES))
def test_a_refused_grid_is_quoted_as_typed_and_in_short(capsys, text, message):
    code, report, err = run_cli(
        capsys, "extract", "--rule", "prop", f"--grid={text}", "--no-timestamp"
    )
    assert (code, report) == (2, None)
    assert err == f"ParseError: {message}\n"


@pytest.mark.parametrize("text,points", LONG_GRIDS.values(), ids=list(LONG_GRIDS))
def test_a_grid_part_of_any_length_is_read_exactly(capsys, text, points):
    code, report, err = run_cli(capsys, "extract", "--rule", "prop", f"--grid={text}")
    assert (code, err) == (0, "")
    assert report["grid"] == list(points)


@pytest.mark.parametrize("name,message", AXIOM_MESSAGES.values(), ids=list(AXIOM_MESSAGES))
def test_an_unknown_axiom_is_quoted_in_short(capsys, name, message):
    code, report, err = run_cli(capsys, "check", "--rule", "prop", "--axioms", name)
    assert (code, report) == (2, None)
    assert err == f"UnknownAxiom: {message}\n"


# Each command's options in help order, before the common --output and
# --no-timestamp.
COMMAND_OPTIONS = {
    "apply": ["--rule", "--input", "--format"],
    "check": ["--rule", "--axioms", "--seed", "--samples", "--tol"],
    "dual": ["--rule", "--seed", "--samples", "--tol"],
    "extract": ["--rule", "--grid"],
    "classify": ["--rule", "--grid", "--seed", "--samples", "--tol"],
    "compare": ["--rules", "--input", "--format"],
}


def test_each_command_takes_its_options_in_help_order():
    (commands,) = (
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert list(commands.choices) == list(COMMAND_OPTIONS) == list(cli._DISPATCH)
    for name, options in COMMAND_OPTIONS.items():
        actions = commands.choices[name]._actions
        flags = [flag for action in actions for flag in action.option_strings]
        assert flags == ["-h", "--help", *options, "--output", "--no-timestamp"], name


def test_main_calls_the_dispatch_entry_of_its_command(capsys, monkeypatch):
    def handler(args):
        return {"handled": args.command}, 0

    monkeypatch.setitem(cli._DISPATCH, "dual", handler)
    assert run_cli(capsys, "dual", "--rule", "prop") == (0, {"handled": "dual"}, "")


def test_the_parser_is_built_once_per_process(capsys, monkeypatch):
    # Each parser built counts; one main() after another builds none.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            code, report, _ = run_cli(capsys, "dual", "--rule", "lf", "--samples", "5")
            assert (code, report["dual_rule"]) == (0, "lf")
        # The top-level parser and one per command.
        assert len(built) == 1 + len(cli._COMMANDS)
        assert cli.build_parser() is cli.build_parser()
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", "--rule", "prop", "--input"],
        ["check", "--rule", "prop", "--axioms", "homogeneity", "--samples", "5"],
        ["dual", "--rule", "prop", "--samples", "5"],
        ["extract", "--rule", "prop"],
        ["classify", "--rule", "prop", "--samples", "5"],
        ["compare", "--rules", "lf,prop", "--input"],
    ],
    ids=lambda argv: argv[0],
)
def test_each_report_names_its_command(capsys, csv_path, argv):
    if argv[-1] == "--input":
        argv = argv + [csv_path]
    code, report, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0
    assert list(report)[:2] == ["schema_version", "command"]
    assert report["command"] == argv[0]


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["apply"])
    capsys.readouterr()
    assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(CSV_TEXT, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "redistrib",
            "apply",
            "--rule",
            "prop",
            "--input",
            str(path),
            "--no-timestamp",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["total"] == 6.0
