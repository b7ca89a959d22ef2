"""Sampled reports, byte for byte, against reports recorded before a change.

The files under data/golden are the --no-timestamp reports of check
--axioms all, classify and dual at --seed 7 --samples 300. They pin every
verdict, trial count, counterexample and float that sampling gives, so a
change to how trials are drawn, batched or screened that moves any of them
shows here. To record them again, run each command below with --output -.
"""

from pathlib import Path

import pytest

from redistrib.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

RULES = {
    "lf": "lf",
    "nafr": "nafr",
    # FAILs stability, so its report carries a shrunk counterexample.
    "afam": "afam:A=const:0.5",
    "dual_ab": "dual(ab:A=poly:0.2,0.1,-0.05,B=poly:0.1,0.3,0.02)",
}
COMMANDS = {"check": ["--axioms", "all"], "classify": [], "dual": []}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", RULES)
def test_report_matches_the_recorded_bytes(capsys, command, name):
    argv = [command, "--rule", RULES[name], *COMMANDS[command]]
    main(argv + ["--seed", "7", "--samples", "300", "--no-timestamp"])
    report = capsys.readouterr().out
    assert report == (GOLDEN / f"{command}-{name}.json").read_text(encoding="utf-8")
