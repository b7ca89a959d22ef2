"""Command line interface over income-and-need datasets.

Subcommands: apply, check, dual, extract, classify, compare. Reports are
JSON on stdout (or a file via --output); human messages go to stderr.
Exit codes: 0 success, 1 axiom check failures, 2 parse errors, 3 dataset
validation errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Sequence, TextIO

from .analysis import classify, parse_grid, profile_rule
from .axioms import Counterexample, SampleConfig, axiom_suite, expand_axiom_names
from .core import Problem, ValidationError, make_problem
from .duality import check_self_dual, dual_closed_form
from .rules import RuleSpec, evaluate, format_rule, parse_rule, split_rule_list

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DATA_ERROR = 3

_CATALOG_LABELS = {
    "lf": "laissez-faire",
    "full": "full",
    "prop": "proportional",
    "nafr": "need-adjusted-full",
}


class DatasetError(ValueError):
    """The input dataset is malformed or violates a domain rule."""


def _parse_record_value(raw: object, what: str, where: str) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        raise DatasetError(f"{where}: {what} {raw!r} is not a number") from None


def _checked_csv_row(row: list[str], where: str) -> tuple[str, float, float] | None:
    """A row the fast path refused, checked field by field: None if it is blank."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != 3:
        raise DatasetError(f"{where}: expected 3 columns, got {len(row)}")
    return (
        row[0].strip(),
        _parse_record_value(row[1], "income", where),
        _parse_record_value(row[2], "need", where),
    )


def _read_csv(handle: TextIO, path: str) -> list[tuple[str, float, float]]:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file")
    header = [cell.strip().lower() for cell in header]
    if header != ["id", "income", "need"]:
        raise DatasetError(
            f"{path}: header must be id,income,need, got {','.join(header)!r}"
        )
    records = []
    for k, row in enumerate(reader, start=2):
        try:
            agent_id, income, need = row
            record = (agent_id.strip(), float(income), float(need))
        except ValueError:
            record = _checked_csv_row(row, f"{path} line {k}")
            if record is None:
                continue
        records.append(record)
    return records


def _checked_json_entry(entry: object, where: str) -> tuple[str, float, float]:
    """An entry the fast path refused, checked field by field."""
    if not isinstance(entry, dict) or not {"id", "income", "need"} <= set(entry):
        raise DatasetError(f"{where}: expected keys id, income, need")
    return (
        str(entry["id"]),
        _parse_record_value(entry["income"], "income", where),
        _parse_record_value(entry["need"], "need", where),
    )


def _read_json(handle: TextIO, path: str) -> list[tuple[str, float, float]]:
    try:
        payload = json.load(handle)
    except ValueError as exc:
        raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    agents = payload.get("agents") if isinstance(payload, dict) else None
    if not isinstance(agents, list):
        raise DatasetError(f"{path}: expected an object with an 'agents' list")
    records = []
    for k, entry in enumerate(agents):
        try:
            record = (str(entry["id"]), float(entry["income"]), float(entry["need"]))
        except (KeyError, TypeError, ValueError, OverflowError):
            record = _checked_json_entry(entry, f"{path} agents[{k}]")
        records.append(record)
    return records


def load_dataset(path: str, fmt: str | None = None) -> Problem:
    """Read a csv or json dataset of id, income, need records as a Problem.

    Csv is parsed row by row as it is read; well-formed rows go straight
    through float(), and any other row gets the checks that name its line.
    A duplicate id is reported before the Problem's own checks run.
    """
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            if fmt == "csv":
                records = _read_csv(handle, path)
            elif fmt == "json":
                records = _read_json(handle, path)
            else:
                raise DatasetError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    ids, incomes, needs = zip(*records) if records else ((), (), ())
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for agent_id in ids:
            if agent_id in seen:
                raise DatasetError(f"{path}: duplicate agent id {agent_id!r}")
            seen.add(agent_id)
    return make_problem(ids, incomes, needs)


def _summary(values: Sequence[float]) -> dict:
    return {
        "total": float(sum(values)),
        "mean": float(sum(values)) / len(values),
        "min": min(values),
        "max": max(values),
    }


def _json_safe(value):
    if isinstance(value, Problem):
        return {
            "ids": [str(a) for a in value.agents],
            "incomes": list(value.incomes),
            "needs": list(value.needs),
        }
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _counterexample_json(counterexample: Counterexample) -> dict:
    return {
        "instance": _json_safe(counterexample.instance),
        "expected": _json_safe(counterexample.expected),
        "observed": _json_safe(counterexample.observed),
        "deviation": counterexample.deviation,
        "threshold": counterexample.threshold,
    }


def _base_report(command: str, args: argparse.Namespace) -> dict:
    report: dict = {"schema_version": SCHEMA_VERSION, "command": command}
    if getattr(args, "rule", None) is not None:
        report["rule"] = args.rule.strip()
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    return report


_encode_str = json.encoder.encode_basestring_ascii
# Rows of a table joined into one string before it is written.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class _Table:
    """A list of `rows` objects with the same keys, held as one column per key.

    A column is an iterable of JSON texts, one per row, read once as the
    report is written, or a nested _Table whose rows are the objects under
    that key.
    """

    rows: int
    columns: dict[str, Iterable[str] | _Table]


def _finite(texts: list[str]) -> list[str]:
    """Raise json's error if these float.__repr__ texts hold a non-finite value.

    A report holding one is then refused before any byte of it is written.
    """
    for bad in ("nan", "inf", "-inf"):
        if bad in texts:
            raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
    return texts


def _row_parts(table: _Table, depth: int) -> list[str | Iterable[str]]:
    """One row at indent level depth: its literal texts and columns, in order."""
    pad = "  " * (depth + 1)
    parts: list[str | Iterable[str]] = ["{"]
    for k, (key, column) in enumerate(table.columns.items()):
        parts.append(f"{',' if k else ''}\n{pad}{_encode_str(key)}: ")
        if isinstance(column, _Table):
            parts += _row_parts(column, depth + 1)
        else:
            parts.append(column)
    parts.append("\n" + "  " * depth + "}" if table.columns else "}")
    return parts


def _table_chunks(table: _Table) -> Iterator[str]:
    """The table as the value of a top-level key in json.dumps(indent=2) layout.

    The literal texts of one row and its columns are zipped and joined a
    block of rows at a time, so neither a per-row string nor the whole
    table's text is ever built.
    """
    streams: list[Iterable[str]] = []
    literal = "    "
    for part in _row_parts(table, 2):
        if isinstance(part, str):
            literal += part
        else:
            streams += [repeat(literal), part]
            literal = ""
    n = table.rows
    if n == 0:
        yield "[]"
        return
    streams.append(chain(repeat(literal + ",\n", n - 1), [literal + "\n"]))
    rows = zip(*streams)
    yield "[\n"
    while block := list(islice(rows, _BLOCK_ROWS)):
        yield "".join(chain.from_iterable(block))
    yield "  ]"


def _report_chunks(report: dict) -> Iterator[str]:
    """The report as json.dumps(report, indent=2) writes it, plus a newline.

    Top-level keys are spliced in that layout. Every value but a _Table is
    encoded here, by json.dumps with its lines shifted one level in (JSON
    strings never hold a raw newline), so a value JSON cannot hold raises
    before the first chunk is returned. Tables, whose columns hold only
    finite values, are joined as they are read.
    """
    pieces: list[Iterable[str]] = []
    for k, (key, value) in enumerate(report.items()):
        head = ("{\n" if k == 0 else ",\n") + f"  {_encode_str(key)}: "
        if isinstance(value, _Table):
            pieces += [[head], _table_chunks(value)]
        else:
            text = json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
            pieces.append([head + text])
    pieces.append(["\n}\n"])
    return chain.from_iterable(pieces)


def _emit(report: dict, args: argparse.Namespace) -> None:
    chunks = _report_chunks(report)
    if args.output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
        print(f"wrote report to {args.output}", file=sys.stderr)


def _sample_config(args: argparse.Namespace) -> SampleConfig:
    return SampleConfig(seed=args.seed, trials=args.samples)


def _agent_columns(
    ids: Sequence[str], incomes: Sequence[float], needs: Sequence[float]
) -> dict[str, Iterable[str] | _Table]:
    return {
        "id": map(_encode_str, ids),
        "income": map(float.__repr__, incomes),
        "need": map(float.__repr__, needs),
    }


def _apply_rows(
    ids: Sequence[str],
    incomes: Sequence[float],
    needs: Sequence[float],
    values: Sequence[float],
) -> _Table:
    """Rows of id, income, need, allocation and needs coverage per agent.

    Coverage alone can overflow, so only its texts are held and checked.
    """
    columns = _agent_columns(ids, incomes, needs)
    columns["allocation"] = map(float.__repr__, values)
    columns["needs_coverage"] = _finite(
        [
            float.__repr__(value / need) if need > 0 else "null"
            for value, need in zip(values, needs)
        ]
    )
    return _Table(len(ids), columns)


def _compare_rows(
    ids: Sequence[str],
    incomes: Sequence[float],
    needs: Sequence[float],
    allocations: dict[str, Sequence[float]],
) -> _Table:
    """Rows of id, income, need and each rule's allocation per agent."""
    columns = _agent_columns(ids, incomes, needs)
    texts = {spec: map(float.__repr__, values) for spec, values in allocations.items()}
    columns["allocations"] = _Table(len(ids), texts)
    return _Table(len(ids), columns)


def _cmd_apply(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    problem = load_dataset(args.input, args.format)
    allocation = evaluate(rule, problem)
    report = _base_report("apply", args)
    report["input"] = args.input
    report["agents"] = _apply_rows(
        problem.agents, problem.incomes, problem.needs, allocation.values
    )
    report["summary"] = _summary(allocation.values)
    return report, EXIT_OK


def _cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    names = expand_axiom_names(
        [part.strip() for part in args.axioms.split(",") if part.strip()]
    )
    reports = axiom_suite(rule, names, _sample_config(args), args.tol)
    for item in reports:
        status = "pass" if item.passed else "FAIL"
        print(f"{item.axiom}: {status}", file=sys.stderr)
    report = _base_report("check", args)
    report["seed"] = args.seed
    report["samples"] = args.samples
    report["tolerance"] = args.tol
    report["axioms"] = [
        {
            "axiom": item.axiom,
            "passed": item.passed,
            "trials_run": item.trials_run,
            "counterexample": (
                _counterexample_json(item.counterexample)
                if item.counterexample is not None
                else None
            ),
        }
        for item in reports
    ]
    all_passed = all(item.passed for item in reports)
    report["all_passed"] = all_passed
    return report, EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_dual(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    closed = dual_closed_form(rule)
    self_report = check_self_dual(rule, _sample_config(args), args.tol)
    report = _base_report("dual", args)
    report["seed"] = args.seed
    report["samples"] = args.samples
    report["dual_rule"] = format_rule(closed) if closed is not None else None
    report["dual_label"] = (
        _CATALOG_LABELS.get(format_rule(closed)) if closed is not None else None
    )
    report["self_dual"] = {
        "passed": self_report.is_self_dual,
        "max_deviation": self_report.max_deviation,
        "witness": _json_safe(self_report.witness),
    }
    return report, EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    grid = parse_grid(args.grid)
    profile = profile_rule(rule, grid)
    report = _base_report("extract", args)
    report["grid"] = list(profile.grid)
    report["a_values"] = list(profile.a_values)
    report["b_values"] = list(profile.b_values)
    return report, EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    grid = parse_grid(args.grid)
    result = classify(rule, grid, _sample_config(args), args.tol)
    report = _base_report("classify", args)
    report["seed"] = args.seed
    report["samples"] = args.samples
    report["label"] = result.label
    report["a_shape"] = result.a_shape
    report["a_value"] = result.a_value
    report["b_shape"] = result.b_shape
    report["b_value"] = result.b_value
    report["max_residual"] = result.max_residual
    report["profile"] = {
        "grid": list(result.profile.grid),
        "a_values": list(result.profile.a_values),
        "b_values": list(result.profile.b_values),
    }
    return report, EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> tuple[dict, int]:
    # One rule per distinct spec, in first-seen order.
    rules: dict[str, RuleSpec] = {}
    for chunk in args.rules:
        for rule in split_rule_list(chunk):
            rules.setdefault(format_rule(rule), rule)
    specs = list(rules)
    problem = load_dataset(args.input, args.format)
    allocations = {spec: evaluate(rule, problem).values for spec, rule in rules.items()}
    report = _base_report("compare", args)
    report["rules"] = specs
    report["input"] = args.input
    report["agents"] = _compare_rows(
        problem.agents, problem.incomes, problem.needs, allocations
    )
    report["summary"] = {spec: _summary(allocations[spec]) for spec in specs}
    return report, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redistrib",
        description="Evaluate and analyze redistribution rules on income-and-need data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default="-", help="report path, or - for stdout")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generated_at field for byte-stable output",
        )

    def add_sampling(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--tol", type=float, default=1e-9)

    p_apply = sub.add_parser("apply", help="allocate a dataset under one rule")
    p_apply.add_argument("--rule", required=True)
    p_apply.add_argument("--input", required=True)
    p_apply.add_argument("--format", choices=("csv", "json"))
    add_common(p_apply)

    p_check = sub.add_parser("check", help="run axiom checks against one rule")
    p_check.add_argument("--rule", required=True)
    p_check.add_argument(
        "--axioms", default="all", help="comma list of axiom names, or core, or all"
    )
    add_sampling(p_check)
    add_common(p_check)

    p_dual = sub.add_parser("dual", help="closed-form dual and self-duality check")
    p_dual.add_argument("--rule", required=True)
    add_sampling(p_dual)
    add_common(p_dual)

    p_extract = sub.add_parser("extract", help="recover deviation weights on a grid")
    p_extract.add_argument("--rule", required=True)
    p_extract.add_argument("--grid", default="-2:2:1", help="lo:hi:step, inclusive")
    add_common(p_extract)

    p_classify = sub.add_parser("classify", help="name the functional form of a rule")
    p_classify.add_argument("--rule", required=True)
    p_classify.add_argument("--grid", default="-2:2:1", help="lo:hi:step, inclusive")
    add_sampling(p_classify)
    add_common(p_classify)

    p_compare = sub.add_parser("compare", help="allocate one dataset under many rules")
    p_compare.add_argument(
        "--rules",
        action="append",
        required=True,
        help="comma list of rule specs; repeatable",
    )
    p_compare.add_argument("--input", required=True)
    p_compare.add_argument("--format", choices=("csv", "json"))
    add_common(p_compare)

    return parser


_DISPATCH = {
    "apply": _cmd_apply,
    "check": _cmd_check,
    "dual": _cmd_dual,
    "extract": _cmd_extract,
    "classify": _cmd_classify,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _DISPATCH[args.command](args)
        _emit(report, args)
    except ValueError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, (DatasetError, ValidationError)):
            return EXIT_DATA_ERROR
        return EXIT_PARSE_ERROR
    return code


def run() -> None:
    raise SystemExit(main())
