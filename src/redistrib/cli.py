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
from pathlib import Path
from typing import Sequence

from .analysis import AnalysisError, classify, parse_grid, profile_rule
from .axioms import (
    Counterexample,
    SampleConfig,
    UnknownAxiom,
    axiom_suite,
    expand_axiom_names,
)
from .core import Problem, ValidationError, make_problem
from .duality import check_self_dual, dual_closed_form
from .rules import (
    FULL,
    InvalidWeight,
    LF,
    NAFR,
    ParseError,
    PROP,
    RuleSpec,
    evaluate,
    format_rule,
    parse_rule,
    split_rule_list,
)

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


@dataclass(frozen=True)
class Dataset:
    """Parsed agent records in input order."""

    records: tuple[tuple[str, float, float], ...]
    source: str
    format: str


def _parse_record_value(raw: object, what: str, where: str) -> float:
    try:
        return float(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise DatasetError(f"{where}: {what} {raw!r} is not a number") from None


def load_dataset(path: str, fmt: str | None = None) -> Dataset:
    """Read a csv or json dataset of id, income, need records."""
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    records: list[tuple[str, float, float]] = []
    if fmt == "csv":
        rows = list(csv.reader(text.splitlines()))
        if not rows:
            raise DatasetError(f"{path}: empty file")
        header = [cell.strip().lower() for cell in rows[0]]
        if header != ["id", "income", "need"]:
            raise DatasetError(
                f"{path}: header must be id,income,need, got {','.join(header)!r}"
            )
        for k, row in enumerate(rows[1:], start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 3:
                raise DatasetError(f"{path} line {k}: expected 3 columns, got {len(row)}")
            where = f"{path} line {k}"
            records.append(
                (
                    row[0].strip(),
                    _parse_record_value(row[1], "income", where),
                    _parse_record_value(row[2], "need", where),
                )
            )
    elif fmt == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: invalid JSON ({exc})") from None
        agents = payload.get("agents") if isinstance(payload, dict) else None
        if not isinstance(agents, list):
            raise DatasetError(f"{path}: expected an object with an 'agents' list")
        for k, entry in enumerate(agents):
            if not isinstance(entry, dict) or not {"id", "income", "need"} <= set(entry):
                raise DatasetError(
                    f"{path} agents[{k}]: expected keys id, income, need"
                )
            where = f"{path} agents[{k}]"
            records.append(
                (
                    str(entry["id"]),
                    _parse_record_value(entry["income"], "income", where),
                    _parse_record_value(entry["need"], "need", where),
                )
            )
    else:
        raise DatasetError(f"unknown format {fmt!r}")
    seen: set[str] = set()
    for agent_id, _, _ in records:
        if agent_id in seen:
            raise DatasetError(f"{path}: duplicate agent id {agent_id!r}")
        seen.add(agent_id)
    return Dataset(tuple(records), path, fmt)


def dataset_problem(dataset: Dataset) -> Problem:
    return make_problem(
        tuple(r[0] for r in dataset.records),
        tuple(r[1] for r in dataset.records),
        tuple(r[2] for r in dataset.records),
    )


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


def _emit(report: dict, args: argparse.Namespace) -> None:
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote report to {args.output}", file=sys.stderr)


def _sample_config(args: argparse.Namespace) -> SampleConfig:
    return SampleConfig(seed=args.seed, trials=args.samples)


def _cmd_apply(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    dataset = load_dataset(args.input, args.format)
    problem = dataset_problem(dataset)
    allocation = evaluate(rule, problem)
    report = _base_report("apply", args)
    report["input"] = args.input
    report["agents"] = [
        {
            "id": str(agent),
            "income": income,
            "need": need,
            "allocation": value,
            "needs_coverage": (value / need) if need > 0 else None,
        }
        for agent, income, need, value in zip(
            problem.agents, problem.incomes, problem.needs, allocation.values
        )
    ]
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
    rules: list[RuleSpec] = []
    for chunk in args.rules:
        rules.extend(split_rule_list(chunk))
    specs = [format_rule(rule) for rule in rules]
    dataset = load_dataset(args.input, args.format)
    problem = dataset_problem(dataset)
    allocations = {
        spec: evaluate(rule, problem).values for spec, rule in zip(specs, rules)
    }
    report = _base_report("compare", args)
    report["rules"] = specs
    report["input"] = args.input
    report["agents"] = [
        {
            "id": str(agent),
            "income": income,
            "need": need,
            "allocations": {spec: allocations[spec][k] for spec in specs},
        }
        for k, (agent, income, need) in enumerate(
            zip(problem.agents, problem.incomes, problem.needs)
        )
    ]
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
    except (ParseError, UnknownAxiom, InvalidWeight) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (DatasetError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (AnalysisError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    return code


def run() -> None:
    raise SystemExit(main())
