"""Replay the benchmark's CLI catalogue in-process against its goldens.

Every `cli_cold` instance of bench/workloads.py is run through `cli.main`
with its fixture files written under a scratch working directory, and its
exit code and stdout are checked against bench/goldens.json.  Stdout is
compared by tolerance, as the benchmark compares it, not by hash: some
goldens print -0.0 where the code now prints 0.0, and some Stein values
moved in their last bits.
"""
import json
import sys
from pathlib import Path

import pytest

import thermocap.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

GOLDENS = json.loads((BENCH / "goldens.json").read_text())["families"]
CASES = [(fam, i) for fam in workloads.families("cli_cold") for i in range(fam.size)]


@pytest.mark.parametrize("fam, i", CASES, ids=[f"{fam.name}-{i}" for fam, i in CASES])
def test_cli_matches_its_golden(monkeypatch, tmp_path, capsys, fam, i):
    inst = workloads.instance(fam, i)
    gold = GOLDENS[fam.name][i]
    assert workloads.digest(inst) == gold["h"], "instance differs from the recorded catalogue"
    monkeypatch.chdir(tmp_path)
    workloads.write_fixtures(inst, tmp_path)
    assert cli.main(inst["argv"]) == gold["rc"]
    parsed = json.loads(capsys.readouterr().out)
    assert workloads.compare(parsed, gold["out"], workloads.SHORTEST_GRID) == []
