"""Spans around calls into redistrib's modules, recorded from outside the program.

``Tracer.install`` replaces public functions (and the names the CLI looks
them up by) with timing wrappers; ``uninstall`` puts the originals back, so
untraced passes run the program unchanged. A span has a name, a start, an
end and a parent; spans of one operation share its op index.

Coarse spans (one per operation, commands, load, emit, evaluate, axiom
checks, self-duality, classify) are kept whole. Fine spans
(``make_problem``, the balance check, rule payoffs, ``extract_ab``) run
hundreds of thousands of times a pass, so they are folded into counts and
seconds on their nearest coarse ancestor and into per-layer totals instead
of being stored one by one.

Per-layer totals, per pass: ``calls``; ``s``, the time inside outermost
spans of the layer (a nested span of the same layer, such as a convex
rule's inner payoffs, is not counted twice) and ``outer_calls``, their
number; ``self_s``, time not covered by child spans; ``units`` (axiom
trials run); ``bytes`` (file sizes); and ``payoffs``, outermost rule
evaluations inside an axiom check.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

FINE = frozenset({"core.make_problem", "core.allocation", "rules.payoffs", "analysis.extract_ab"})
FIELDS = ("calls", "s", "outer_calls", "self_s", "units", "bytes", "payoffs")
CALLS, S, OUTER, SELF, UNITS, BYTES, PAYOFFS = range(len(FIELDS))


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.patches: list[tuple[object, str, object]] = []
        self.pass_index = 0
        self.op_index = 0
        self.totals: dict[str, list[float]] = {}
        # Frames are [totals, start, child_s, span or None, outermost, name].
        self._stack: list[list] = []
        self._coarse: list[dict] = []
        self._depth: dict[str, int] = {}
        self._axioms: list[list[float]] = []

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.totals = {}

    def pass_totals(self) -> dict[str, dict[str, float]]:
        return {name: dict(zip(FIELDS, row)) for name, row in self.totals.items()}

    def open(self, name: str) -> list:
        totals = self.totals.get(name)
        if totals is None:
            totals = self.totals[name] = [0.0] * len(FIELDS)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        span = None
        if name not in FINE:
            span = {
                "id": len(self.spans),
                "parent": self._coarse[-1]["id"] if self._coarse else None,
                "name": name,
                "op": self.op_index,
                "pass": self.pass_index,
                "fine": {},
            }
            self.spans.append(span)
            self._coarse.append(span)
            if name.startswith("axioms."):
                self._axioms.append(totals)
        frame = [totals, 0.0, 0.0, span, depth == 0, name]
        self._stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def close(self, frame: list, units: float = 0.0, size: float = 0.0) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        totals, start, child_s, span, outermost, name = frame
        duration = end - start
        self._depth[name] -= 1
        totals[CALLS] += 1
        totals[SELF] += duration - child_s
        totals[UNITS] += units
        totals[BYTES] += size
        if stack:
            stack[-1][2] += duration
        if span is not None:
            self._coarse.pop()
            if name.startswith("axioms."):
                self._axioms.pop()
            span.update(start=start, end=end, self_s=duration - child_s)
        if outermost:
            totals[S] += duration
            totals[OUTER] += 1
            if span is None:
                if name == "rules.payoffs" and self._axioms:
                    self._axioms[-1][PAYOFFS] += 1
                if self._coarse:
                    fine = self._coarse[-1]["fine"]
                    calls, seconds = fine.get(name, (0, 0.0))
                    fine[name] = (calls + 1, seconds + duration)

    def _wrap(self, name, fn, units=None, size=None):
        open_, close = self.open, self.close

        if isinstance(name, str) and units is None and size is None:

            @functools.wraps(fn)
            def plain(*args, **kwargs):
                frame = open_(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame)

            return plain

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(name(args) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(
                    frame,
                    units=units(result) if units and result is not None else 0.0,
                    size=size(args) if size else 0.0,
                )

        return traced

    def _patch(self, owner, attr, name, **kw) -> None:
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self.patches.append((owner, attr, original))
        _set(owner, attr, self._wrap(name, original, **kw))

    def install(self) -> None:
        """Wrap every layer boundary of the imported redistrib package."""
        from redistrib import analysis, axioms, cli, core, duality, rules

        def emitted_bytes(args):
            path = args[1].output
            return os.path.getsize(path) if path != "-" else 0

        self._patch(cli, "load_dataset", "cli.load_dataset",
                    size=lambda args: os.path.getsize(args[0]))
        self._patch(cli, "_emit", "cli.emit", size=emitted_bytes)
        for command in list(cli._DISPATCH):
            self._patch(cli._DISPATCH, command, "cli.command")
        for module in (core, cli, axioms, duality, analysis):
            self._patch(module, "make_problem", "core.make_problem")
        self._patch(rules, "Allocation", "core.allocation")
        for module in (rules, cli):
            self._patch(module, "evaluate", "rules.evaluate")
        for cls in rules.RuleSpec.__subclasses__():
            if "payoffs" in vars(cls):
                self._patch(cls, "payoffs", "rules.payoffs")
        self._patch(axioms, "check_axiom", lambda args: f"axioms.{args[0]}",
                    units=lambda report: report.trials_run)
        for module in (duality, cli):
            self._patch(module, "check_self_dual", "duality.check_self_dual")
        for module in (analysis, cli):
            self._patch(module, "classify", "analysis.classify")
        self._patch(analysis, "extract_ab", "analysis.extract_ab")

    def uninstall(self) -> None:
        while self.patches:
            _set(*self.patches.pop())


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)
