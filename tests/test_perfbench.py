"""The benchmark in `perfbench/` against this program, read-only.

- `perfbench/child.py` stamps the entry of each workload's compute function
  by replacing a module attribute; if the CLI bound that function at import
  time, the stamp would never be written and every call would fail.
- The golden digest of the alex workload's output is checked here too, so
  a change that alters one byte of the twisted orders fails in tier-1.
"""

import hashlib
import importlib.util
import json
import marshal
import subprocess
import sys
from pathlib import Path

import pytest

from scx.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _child(mode, result, argv):
    return subprocess.run(
        [sys.executable, str(BENCH / "child.py"), mode, str(result), "--",
         *argv], capture_output=True, text=True, cwd=BENCH.parent)


@pytest.mark.parametrize("argv", [
    ["nonproduct", "bundled:product_A1", "--max-degree", "2"],
    ["quotients", "bundled:product_T1", "--max-degree", "2"],
    ["alex", "bundled:trefoil", "--phi", "ab", "--rep", "trivial:1"]],
    ids=["nonproduct", "quotients", "alex"])
def test_child_reaches_compute_entry(tmp_path, argv):
    result = tmp_path / "result.bin"
    proc = _child("setup", result, argv)
    assert proc.returncode == 0, proc.stderr
    record = marshal.loads(result.read_bytes())
    assert isinstance(record["entry"], float)


def test_child_traces_thurston_bound(tmp_path):
    result = tmp_path / "result.bin"
    proc = _child("traced", result, ["alex", "bundled:trefoil", "--phi", "ab",
                                     "--rep", "trivial:1"])
    assert proc.returncode == 0, proc.stderr
    record = marshal.loads(result.read_bytes())
    assert isinstance(record["entry"], float)
    assert "alex.thurston_bound" in {span[2] for span in record["spans"]}


def test_alex_workload_golden_output(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    workload = json.loads((BENCH / "workloads.json").read_text())[
        "workloads"]["alex-trefoil-A5reg"]
    text, rep = inputs.alex_input(0)
    path = tmp_path / workload["input"]
    path.write_text(text)
    code = main([a.format(input=str(path), rep=rep) for a in workload["args"]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == workload["golden_sha256"]
