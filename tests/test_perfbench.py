"""The benchmark in `perfbench/` against this program, read-only.

- `perfbench/child.py` stamps the entry of each workload's compute function
  by replacing a module attribute; if the CLI bound that function at import
  time, the stamp would never be written and every call would fail.
- The golden digest of the alex workload's output is checked here too, so
  a change that alters one byte of the twisted orders fails in tier-1.
- The deterministic checks the benchmark makes on a traced call (counts
  and the span tree) run here on small inputs, so a change that breaks
  them fails in tier-1 rather than only in the benchmark.
- `inputs.py` also gives independent answers for `quotients` (Hall's counts)
  and the breadth-first image order that the regular representation uses.
"""

import hashlib
import importlib.util
import json
import marshal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from scx.algebra import QQ
from scx.cli import main
from scx.groups import (GroupPresentation, enumerate_quotients,
                        perm_from_cycles, permutation_matrix,
                        regular_representation)

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


@pytest.mark.parametrize("argv", [
    ["nonproduct", "bundled:product_A1", "--max-degree", "4"],
    ["nonproduct", "bundled:product_T1", "--max-degree", "3"],
    ["quotients", "bundled:product_T1", "--max-degree", "3"]],
    ids=["nonproduct-A1-d4", "nonproduct-T1-d3", "quotients-T1-d3"])
def test_traced_counts_are_consistent(tmp_path, argv):
    """The deterministic checks the benchmark makes on a traced call: the
    enumerator yields what the program counts, every betti call makes five
    rank calls, and every span hangs from the one `cli.main` span.
    Coverage depends on timing and is not checked here."""
    result = tmp_path / "result.bin"
    proc = _child("traced", result, argv)
    assert proc.returncode in (0, 2), proc.stderr
    spans = marshal.loads(result.read_bytes())["spans"]
    by_id = {sid: (parent, name) for sid, parent, name, *_ in spans}
    roots = [sid for sid, (parent, name) in by_id.items() if parent == 0]
    assert [by_id[sid][1] for sid in roots] == ["cli.main"]
    for sid in by_id:
        while by_id[sid][0] != 0:
            sid = by_id[sid][0]
        assert sid == roots[0]
    key = ("search.representations_tested:" if argv[0] == "nonproduct"
           else "total:")
    counted = [int(line.split(":", 1)[1]) for line in proc.stdout.splitlines()
               if line.startswith(key)]
    items = sum(1 for _, _, name, _, _, extra in spans
                if name == "groups.enumerate_quotients" and extra == ["item"])
    assert counted == [items]
    betti_calls = [sid for sid, (_, name) in by_id.items()
                   if name == "chain.betti"]
    ranks = [parent for parent, name in by_id.values()
             if name == "algebra.rank"]
    assert len(ranks) == 5 * len(betti_calls)
    per_betti = Counter(ranks)
    assert all(per_betti[sid] == 5 for sid in betti_calls)


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


def _inputs(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_quotient_counts_match_hall(capsys, monkeypatch):
    """Per-degree and transitive counts of `quotients` on the free group of
    rank 2 against the benchmark's independent formulas."""
    inputs = _inputs(monkeypatch)
    for flag, expected in (([], inputs.homs_free(2, 4)),
                           (["--transitive"], inputs.transitive_free(2, 4))):
        code = main(["quotients", "bundled:product_T1", "--max-degree", "4",
                     *flag])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        degrees = [int(line.split()[0].split("=")[1]) for line in lines[:-1]]
        assert {n: degrees.count(n) for n in expected} == expected
        assert len(degrees) == sum(expected.values())
        assert lines[-1] == f"total: {len(degrees)}"
        if flag:
            assert all(" transitive" in line for line in lines[:-1])


def test_regular_basis_is_the_benchmark_order(monkeypatch):
    """`FiniteQuotient.elements` is the breadth-first order the alex
    workload builds its --rep value on, so the action tables agree."""
    inputs = _inputs(monkeypatch)
    pres = GroupPresentation(("x", "y"), ())
    for q in enumerate_quotients(pres, 4):
        assert list(q.elements) == inputs.shortlex_elements(list(q.images))
        k, assigns = inputs.regular_perm_spec(pres.gens, q.images).split(":")[1:]
        cycles = dict(part.split("=") for part in assigns.split(","))
        for name, m in zip(pres.gens, regular_representation(q).mats):
            assert m == permutation_matrix(
                QQ, perm_from_cycles(cycles[name], int(k))), q.describe()
