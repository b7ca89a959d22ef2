"""Command line interface over income-and-need datasets.

Subcommands: apply, check, dual, extract, classify, compare. Each command
is its handler plus one row of the _COMMANDS table, which gives its help,
that handler and its option groups. Reports are JSON on stdout (or a file
via --output); human messages go to stderr.
Exit codes: 0 success, 1 axiom check failures, 2 parse errors, rules
whose payoffs do not allocate a dataset or a sampled problem (RuleError)
and an --output path that cannot be written, 3 dataset validation errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import BinaryIO, Callable, Iterable, Sequence, TextIO

import numpy as np

from .analysis import CATALOG_LABELS, classify, parse_grid, profile_rule
from .axioms import Counterexample, SampleConfig, axiom_suite, expand_axiom_names
from .core import DEFAULT_TOL, Problem, ValidationError, make_problem, row_sums
from .duality import check_self_dual, dual_closed_form
from .rules import RuleSpec, _excerpt, evaluate, format_rule, parse_rule, split_rule_list

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_DATA_ERROR = 3


class DatasetError(ValueError):
    """The input dataset is malformed or violates a domain rule."""


class OutputError(ValueError):
    """The report cannot be written to its --output path."""


# A dataset as read: its id, income and need columns.
_Columns = tuple[list[str], list[float], list[float]]


def _quote(value: object) -> str:
    """A dataset value for a message: its repr, cut short if long."""
    return _excerpt(repr(value))


def _json_quote(value: object) -> str:
    """A JSON dataset value for a message, spelled as JSON spells it, cut short if long."""
    return _excerpt(json.dumps(value))


def _is_number(value: object) -> bool:
    """Whether float() takes value and it is no boolean, which float() also takes."""
    if isinstance(value, bool):
        return False
    try:
        float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return False
    return True


def _record_error(
    income: object, need: object, where: str, quote: Callable[[object], str] = _quote
) -> DatasetError:
    """The error naming income if it is not a number, else need."""
    name, value = ("need", need) if _is_number(income) else ("income", income)
    return DatasetError(f"{where}: {name} {quote(value)} is not a number")


def _csv_row_error(row: list[str], where: str) -> DatasetError | None:
    """The error naming a row the fast path refused, or None if it is blank."""
    if not row or all(not cell.strip() for cell in row):
        return None
    if len(row) != 3:
        return DatasetError(f"{where}: expected 3 columns, got {len(row)}")
    return _record_error(row[1], row[2], where)


def _read_csv(handle: TextIO, path: str) -> _Columns:
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{path}: empty file")
    header = [cell.strip().lower() for cell in header]
    if header != ["id", "income", "need"]:
        raise DatasetError(
            f"{path}: header must be id,income,need, got {_quote(','.join(header))}"
        )
    ids: list[str] = []
    incomes: list[float] = []
    needs: list[float] = []
    for k, row in enumerate(reader, start=2):
        try:
            agent_id, income_text, need_text = row
            income, need = float(income_text), float(need_text)
        except ValueError:
            error = _csv_row_error(row, f"{path} line {k}")
            if error is None:
                continue
            raise error from None
        ids.append(agent_id.strip())
        incomes.append(income)
        needs.append(need)
    return ids, incomes, needs


# JSON types an id may have: a string, or a number read as its text. null,
# true, false, arrays and objects are refused, though str() takes them.
_JSON_ID_TYPES = frozenset((str, int, float))


def _json_entry_error(entry: object, where: str) -> DatasetError:
    """The error naming an entry the fast path refused."""
    if not isinstance(entry, dict) or not {"id", "income", "need"} <= set(entry):
        return DatasetError(f"{where}: expected keys id, income, need")
    if type(entry["id"]) not in _JSON_ID_TYPES:
        return DatasetError(f"{where}: id {_json_quote(entry['id'])} is not a string or a number")
    return _record_error(entry["income"], entry["need"], where, _json_quote)


def _read_json(handle: TextIO, path: str) -> _Columns:
    try:
        payload = json.load(handle)
    except ValueError as exc:
        raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise DatasetError(f"{path}: JSON nested too deeply") from None
    agents = payload.get("agents") if isinstance(payload, dict) else None
    if not isinstance(agents, list):
        raise DatasetError(f"{path}: expected an object with an 'agents' list")
    ids: list[str] = []
    incomes: list[float] = []
    needs: list[float] = []
    for k, entry in enumerate(agents):
        try:
            agent_id, income, need = entry["id"], entry["income"], entry["need"]
            # float() takes true and false, and str() takes any value.
            if (
                type(income) is bool
                or type(need) is bool
                or type(agent_id) not in _JSON_ID_TYPES
            ):
                raise TypeError
            agent_id, income, need = str(agent_id), float(income), float(need)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise _json_entry_error(entry, f"{path} agents[{k}]") from None
        ids.append(agent_id)
        incomes.append(income)
        needs.append(need)
    return ids, incomes, needs


def load_dataset(path: str, fmt: str | None = None) -> Problem:
    """Read a csv or json dataset of id, income, need records as a Problem.

    Rows go straight into an id, an income and a need column, csv rows as
    they are read; well-formed rows go through float(), and any other row
    gets the checks that name its line. A duplicate id is reported before
    the Problem's own checks run.
    """
    if fmt is None:
        fmt = "json" if path.lower().endswith(".json") else "csv"
    try:
        # utf-8-sig drops the byte order mark some editors write first.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            if fmt == "csv":
                ids, incomes, needs = _read_csv(handle, path)
            elif fmt == "json":
                ids, incomes, needs = _read_json(handle, path)
            else:
                raise DatasetError(f"unknown format {fmt!r}")
    except OSError as exc:
        raise DatasetError(f"cannot read {path}: {exc}") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DatasetError(f"{path}: {exc}") from None
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for agent_id in ids:
            if agent_id in seen:
                raise DatasetError(f"{path}: duplicate agent id {_quote(agent_id)}")
            seen.add(agent_id)
    return make_problem(ids, incomes, needs)


def _summary(values: np.ndarray) -> dict:
    """Total, mean, min and max of an allocation's values.

    min and max are the entries at np.argmin and np.argmax, which pick the
    first of a tie as Python's min and max do, so of +0.0 and -0.0 the
    first one is reported.
    """
    total = row_sums(values[None]).item()
    return {
        "total": total,
        "mean": total / len(values),
        "min": float(values[np.argmin(values)]),
        "max": float(values[np.argmax(values)]),
    }


def _json_safe(value):
    if isinstance(value, Problem):
        return {
            "ids": [str(a) for a in value.agents],
            "incomes": value.incomes.tolist(),
            "needs": value.needs.tolist(),
        }
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _counterexample_json(counterexample: Counterexample | None) -> dict | None:
    if counterexample is None:
        return None
    return {
        "instance": _json_safe(counterexample.instance),
        "expected": _json_safe(counterexample.expected),
        "observed": _json_safe(counterexample.observed),
        "deviation": counterexample.deviation,
        "threshold": counterexample.threshold,
    }


def _base_report(args: argparse.Namespace) -> dict:
    """The opening keys of a report, with a sampling command's seed and samples."""
    report: dict = {"schema_version": SCHEMA_VERSION, "command": args.command}
    if getattr(args, "rule", None) is not None:
        report["rule"] = args.rule.strip()
    if not args.no_timestamp:
        report["generated_at"] = datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    if "samples" in args:
        report["seed"] = args.seed
        report["samples"] = args.samples
    return report


_encode_str = json.encoder.encode_basestring_ascii
# Rows of a table formatted and joined into one string at a time.
_BLOCK_ROWS = 4096
# Bytes of the helper's rows read back at a time.
_COPY_BYTES = 1 << 18
# What os.fork() warns on Python 3.12+ when the process has other threads.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"

# A table column: the JSON texts of its rows [start, stop).
_Column = Callable[[int, int], Iterable[str]]
# A table's text: the text of its rows [start, stop).
_Rows = Callable[[int, int], str]


def _floats(values: np.ndarray) -> _Column:
    """A column of floats, each written as float.__repr__ writes it."""
    return lambda start, stop: map(float.__repr__, values[start:stop].tolist())


@dataclass(frozen=True)
class _Table:
    """A list of `rows` objects with the same keys, held as one column per key.

    A column gives the JSON texts of any run of rows, or is a nested _Table
    whose rows are the objects under that key.
    """

    rows: int
    columns: dict[str, _Column | _Table]


def _row_parts(table: _Table, depth: int) -> list[str | _Column]:
    """One row at indent level depth: its literal texts and columns, in order."""
    pad = "  " * (depth + 1)
    parts: list[str | _Column] = ["{"]
    for k, (key, column) in enumerate(table.columns.items()):
        parts.append(f"{',' if k else ''}\n{pad}{_encode_str(key)}: ")
        if isinstance(column, _Table):
            parts += _row_parts(column, depth + 1)
        else:
            parts.append(column)
    parts.append("\n" + "  " * depth + "}" if table.columns else "}")
    return parts


def _row_blocks(table: _Table) -> _Rows:
    """The text of the table's rows [start, stop), in json.dumps(indent=2) layout.

    A row is a run of k slots, literal texts and column texts in turn. A
    block's slots are filled with one slice assignment per literal and per
    column and joined once, so no per-row string is built.
    """
    slots: list[str | _Column] = []
    literal = "    "
    for part in _row_parts(table, 2):
        if isinstance(part, str):
            literal += part
        else:
            slots += [literal, part]
            literal = ""
    slots.append(literal + ",\n")
    last, k, n = literal + "\n", len(slots), table.rows

    def block(start: int, stop: int) -> str:
        rows = stop - start
        texts: list[str] = [""] * (rows * k)
        for j, slot in enumerate(slots):
            texts[j::k] = [slot] * rows if isinstance(slot, str) else slot(start, stop)
        if stop == n:
            texts[-1] = last
        return "".join(texts)

    return block


def _write_rows(write: Callable[[str], object], block: _Rows, start: int, stop: int) -> None:
    for first in range(start, stop, _BLOCK_ROWS):
        write(block(first, min(first + _BLOCK_ROWS, stop)))


def _helper_start(rows: int) -> int | None:
    """The first row a helper process formats, or None to format all rows here.

    A helper needs fork, a second CPU this process may run on and at least
    two blocks of rows; it takes the rows after the first block-aligned half.
    """
    if not hasattr(os, "fork") or rows < 2 * _BLOCK_ROWS:
        return None
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return None
    return rows // 2 // _BLOCK_ROWS * _BLOCK_ROWS


def _fork_rows(block: _Rows, start: int, stop: int) -> tuple[int, BinaryIO] | None:
    """A child process formatting rows [start, stop) into a temporary file.

    Returns its pid and the file, or None if either cannot be made. The
    child leaves only through os._exit: it runs no atexit handler and never
    flushes a buffer it copied from this process, such as sys.stdout's.
    """
    try:
        spool = tempfile.TemporaryFile()
    except OSError:
        return None
    with warnings.catch_warnings():
        # Python 3.12+ warns that fork may deadlock a child when the process
        # has other threads, such as numpy's BLAS pool. The child only
        # formats strings, with Python and numpy's elementwise loops (no
        # BLAS), and writes one file: it takes no lock those threads hold.
        warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:
            spool.close()
            return None
        if pid == 0:
            code = 1
            try:
                _write_rows(lambda text: spool.write(text.encode("ascii")), block, start, stop)
                spool.flush()
                code = 0
            finally:
                os._exit(code)
    return pid, spool


def _write_table(table: _Table, write: Callable[[str], object]) -> None:
    """Write the table as the value of a top-level key.

    A long table's rows after its first half are formatted by a helper
    process at the same time, then copied after this process's half; if
    the helper fails, they are formatted here, to the same bytes.
    """
    n = table.rows
    if n == 0:
        write("[]")
        return
    block = _row_blocks(table)
    write("[\n")
    split = _helper_start(n)
    helper = _fork_rows(block, split, n) if split is not None else None
    if helper is None:
        _write_rows(write, block, 0, n)
    else:
        pid, spool = helper
        with spool:
            try:
                _write_rows(write, block, 0, split)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                status = os.waitpid(pid, 0)[1]
            if status == 0:
                spool.seek(0)
                while chunk := spool.read(_COPY_BYTES):
                    write(chunk.decode("ascii"))
            else:
                _write_rows(write, block, split, n)
    write("  ]")


def _report_parts(report: dict) -> list[str | _Table]:
    """The report as json.dumps(report, indent=2) writes it, plus a newline.

    Top-level keys are spliced in that layout. Every value but a _Table is
    encoded here, by json.dumps with its lines shifted one level in (JSON
    strings never hold a raw newline), so a value JSON cannot hold raises
    before any byte is written. Tables, whose columns hold only finite
    values, are formatted as they are written.
    """
    parts: list[str | _Table] = []
    for k, (key, value) in enumerate(report.items()):
        head = ("{\n" if k == 0 else ",\n") + f"  {_encode_str(key)}: "
        if isinstance(value, _Table):
            parts += [head, value]
        else:
            text = json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")
            parts.append(head + text)
    parts.append("\n}\n")
    return parts


def _write_report(parts: list[str | _Table], handle: TextIO) -> None:
    for part in parts:
        if isinstance(part, _Table):
            _write_table(part, handle.write)
        else:
            handle.write(part)


def _silence_stdout() -> None:
    """Point stdout's file descriptor at the null device.

    What stdout still buffers then goes nowhere at exit, instead of failing
    a second time with an error of its own.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _emit(report: dict, args: argparse.Namespace) -> None:
    parts = _report_parts(report)
    if args.output == "-":
        try:
            _write_report(parts, sys.stdout)
            sys.stdout.flush()
        except OSError as exc:
            _silence_stdout()
            raise OutputError(f"cannot write <stdout>: {exc.strerror or exc}") from None
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                _write_report(parts, handle)
        except OSError as exc:
            message = exc.strerror or exc
            raise OutputError(f"cannot write {args.output}: {message}") from None
        print(f"wrote report to {args.output}", file=sys.stderr)


def _agent_columns(
    ids: Sequence[str], incomes: np.ndarray, needs: np.ndarray
) -> dict[str, _Column | _Table]:
    return {
        "id": lambda start, stop: map(_encode_str, ids[start:stop]),
        "income": _floats(incomes),
        "need": _floats(needs),
    }


def _coverage(values: np.ndarray, needs: np.ndarray) -> _Column:
    """Needs coverage texts, value / need per agent or null for a zero need.

    Coverage alone can overflow, so the whole column is divided once before
    it is returned: a report holding a non-finite value is then refused with
    json's own error before any byte of it is written. The texts divide a
    block of rows at a time, so the emit never holds a whole column; numpy
    divides as Python does, to the same bits.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coverage = values / needs
    bad = coverage[(needs > 0) & ~np.isfinite(coverage)]
    for text, flags in (("nan", np.isnan(bad)), ("inf", bad > 0), ("-inf", bad < 0)):
        if flags.any():
            raise ValueError(f"Out of range float values are not JSON compliant: {text}")

    def texts(start: int, stop: int) -> list[str]:
        need_block = needs[start:stop]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            quotient = values[start:stop] / need_block
        out = list(map(float.__repr__, quotient.tolist()))
        for k in np.flatnonzero(~(need_block > 0)).tolist():
            out[k] = "null"
        return out

    return texts


def _apply_rows(
    ids: Sequence[str],
    incomes: np.ndarray,
    needs: np.ndarray,
    values: np.ndarray,
) -> _Table:
    """Rows of id, income, need, allocation and needs coverage per agent."""
    columns = _agent_columns(ids, incomes, needs)
    columns["allocation"] = _floats(values)
    columns["needs_coverage"] = _coverage(values, needs)
    return _Table(len(ids), columns)


def _compare_rows(
    ids: Sequence[str],
    incomes: np.ndarray,
    needs: np.ndarray,
    allocations: dict[str, np.ndarray],
) -> _Table:
    """Rows of id, income, need and each rule's allocation per agent."""
    columns = _agent_columns(ids, incomes, needs)
    texts = {spec: _floats(values) for spec, values in allocations.items()}
    columns["allocations"] = _Table(len(ids), texts)
    return _Table(len(ids), columns)


def _cmd_apply(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    problem = load_dataset(args.input, args.format)
    allocation = evaluate(rule, problem)
    report = _base_report(args)
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
    reports = axiom_suite(rule, names, SampleConfig(args.seed, args.samples), args.tol)
    for item in reports:
        status = "pass" if item.passed else "FAIL"
        print(f"{item.axiom}: {status}", file=sys.stderr)
    report = _base_report(args)
    report["tolerance"] = args.tol
    report["axioms"] = [
        {
            "axiom": item.axiom,
            "passed": item.passed,
            "trials_run": item.trials_run,
            "counterexample": _counterexample_json(item.counterexample),
        }
        for item in reports
    ]
    all_passed = all(item.passed for item in reports)
    report["all_passed"] = all_passed
    return report, EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _cmd_dual(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    closed = dual_closed_form(rule)
    self_report = check_self_dual(rule, SampleConfig(args.seed, args.samples), args.tol)
    dual_rule = format_rule(closed) if closed is not None else None
    report = _base_report(args)
    report["dual_rule"] = dual_rule
    report["dual_label"] = CATALOG_LABELS.get(dual_rule)
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
    report = _base_report(args)
    report.update(vars(profile))  # grid, a_values and b_values
    return report, EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    rule = parse_rule(args.rule)
    grid = parse_grid(args.grid)
    result = classify(rule, grid, SampleConfig(args.seed, args.samples), args.tol)
    report = _base_report(args)
    report["label"] = result.label
    report["a_shape"] = result.a_shape
    report["a_value"] = result.a_value
    report["b_shape"] = result.b_shape
    report["b_value"] = result.b_value
    report["max_residual"] = result.max_residual
    report["profile"] = dict(vars(result.profile))
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
    report = _base_report(args)
    report["rules"] = specs
    report["input"] = args.input
    report["agents"] = _compare_rows(
        problem.agents, problem.incomes, problem.needs, allocations
    )
    report["summary"] = {spec: _summary(allocations[spec]) for spec in specs}
    return report, EXIT_OK


def _option(flag: str, **keywords) -> tuple[str, dict]:
    """An option as its flag and its add_argument keywords."""
    return flag, keywords


# Option groups, each declared once, in help order.
_RULE = (_option("--rule", required=True),)
_RULES = (
    _option("--rules", action="append", required=True, help="comma list of rule specs; repeatable"),
)
_DATASET = (_option("--input", required=True), _option("--format", choices=("csv", "json")))
_AXIOMS = (_option("--axioms", default="all", help="comma list of axiom names, or core, or all"),)
_GRID = (_option("--grid", default="-2:2:1", help="lo:hi:step, inclusive"),)
_SAMPLING = (
    _option("--seed", type=int, default=0),
    _option("--samples", type=int, default=200),
    _option("--tol", type=float, default=DEFAULT_TOL),
)
_COMMON = (
    _option("--output", default="-", help="report path, or - for stdout"),
    _option("--no-timestamp", action="store_true",
            help="omit the generated_at field for byte-stable output"),
)

# Each command by name, in help order: its help, its handler, and the options
# it takes before the common ones.
_COMMANDS = {
    "apply": ("allocate a dataset under one rule", _cmd_apply, _RULE + _DATASET),
    "check": ("run axiom checks against one rule", _cmd_check, _RULE + _AXIOMS + _SAMPLING),
    "dual": ("closed-form dual and self-duality check", _cmd_dual, _RULE + _SAMPLING),
    "extract": ("recover deviation weights on a grid", _cmd_extract, _RULE + _GRID),
    "classify": ("name the functional form of a rule", _cmd_classify, _RULE + _GRID + _SAMPLING),
    "compare": ("allocate one dataset under many rules", _cmd_compare, _RULES + _DATASET),
}

# The handler main calls for each command; perfbench's tracer wraps these entries.
_DISPATCH = {name: handler for name, (_, handler, _) in _COMMANDS.items()}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="redistrib",
        description="Evaluate and analyze redistribution rules on income-and-need data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag, keywords in options + _COMMON:
            command.add_argument(flag, **keywords)
    return parser


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
