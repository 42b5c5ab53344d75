"""The scx benchmark: time the `scx` CLI end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe      # prints BENCHMARK.json

One closed loop with one client: each call is the `scx` CLI in a fresh
interpreter (users pay import and parse on every call), started only after
the previous one exited.  With `--trace 0` the run repeats the workload for
S seconds, fills the rest with set-up probes (calls stopped at the entry of
the compute function), and reports wall time, set-up time and peak memory.
With `--trace 1` it alternates untraced and traced calls and reports the
per-layer numbers from the spans `child.py` records.  Every output is
checked against expectations computed in `inputs.py`; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import marshal
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SPEC = json.loads((HERE / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]

RUN_LIMIT_S = 170       # a run, whatever happens, ends before 180 s
MIN_PROBES = 3
MAX_PROBES = 40
SMALL_COLS = 36         # rank calls on at most this many columns are "small"
MIN_COVERAGE = 0.90     # self time below the root span / traced wall time
ROOT_SPAN = "cli.main"  # every span tree hangs from it
CHILD_ENV = {"SCX_THREADS": "1"}   # pinned: threads change the search's work

END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ("scxio", "groups", "chain", "algebra", "sutured", "alex", "cli")

PER_LAYER = (
    [("trace.wall_s", "s", "lower"), ("trace.overhead", "ratio", "lower"),
     ("trace.coverage", "ratio", "higher"), ("proc.cpu_s", "s", "lower")]
    + [(f"layer.{m}.self_s", "s", "lower") for m in LAYERS]
    + [("scxio.parse_scx.s", "s", "lower"), ("scxio.complex.s", "s", "lower"),
       ("algebra.rank.self_s", "s", "lower"),
       ("algebra.rank.calls", "count", "lower"),
       ("algebra.rank.empty_calls", "count", "lower"),
       ("algebra.rank.entries", "count", "lower"),
       ("algebra.rank.call_ms.p50", "ms", "lower"),
       ("algebra.rank.call_ms.p99", "ms", "lower")]
    + [(f"algebra.rank.{f}.{size}.{what}", unit, "lower")
       for f in ("q", "fp") for size in ("small", "large")
       for what, unit in (("calls", "count"), ("self_s", "s"),
                          ("entries", "count"))]
    + [("chain.specialize.self_s", "s", "lower"),
       ("chain.specialize.calls", "count", "lower"),
       ("chain.specialize.entries", "count", "lower"),
       ("chain.betti.calls", "count", "lower"),
       ("groups.eval_word.self_s", "s", "lower"),
       ("groups.eval_word.calls", "count", "lower"),
       ("groups.perm_group_order.self_s", "s", "lower"),
       ("groups.perm_group_order.calls", "count", "lower"),
       ("groups.enumerate.self_s", "s", "lower"),
       ("groups.enumerate.yielded", "count", "lower"),
       ("groups.regular_representation.self_s", "s", "lower"),
       ("groups.regular_representation.dim_sum", "count", "lower"),
       ("sutured.quotients_tested", "count", "lower"),
       ("sutured.per_quotient_ms.p50", "ms", "lower"),
       ("sutured.per_quotient_ms.p99", "ms", "lower"),
       ("algebra.diagonalize_laurent.self_s", "s", "lower"),
       ("algebra.diagonalize_laurent.calls", "count", "lower"),
       ("algebra.diagonalize_laurent.max_dim", "count", "lower"),
       ("algebra.pid_homology_order.self_s", "s", "lower")]
    + [(f"alex.twisted_alexander.d{i}_s", "s", "lower") for i in range(3)]
)


# ---------------------------------------------------------------------------
# one CLI call


class Call:
    """Result of one child process: timings, exit code, output, spans."""

    def __init__(self, mode, code, wall, setup, rss_mb, cpu_s, out, record):
        self.mode, self.code, self.wall, self.setup = mode, code, wall, setup
        self.rss_mb, self.cpu_s, self.out, self.record = rss_mb, cpu_s, out, record
        self.problem = None
        self.numbers = None     # per-layer numbers of a traced call


def call_scx(mode, argv, work: Path, timeout: float) -> Call:
    result_path = work / f"{mode}-result.bin"
    out_path = work / f"{mode}-stdout.txt"
    err_path = work / f"{mode}-stderr.txt"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(result_path),
           "--", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, **CHILD_ENV})
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    record = {}
    if result_path.exists():
        with open(result_path, "rb") as handle:
            record = marshal.load(handle)
    entry = record.get("entry")
    call = Call(mode, code, t1 - t0, None if entry is None else entry - t0,
                usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                out_path.read_text(errors="replace"), record)
    if entry is None:
        call.problem = (f"exit {code}, compute entry never reached: "
                        + err_path.read_text(errors="replace")[-300:])
    return call


# ---------------------------------------------------------------------------
# inputs and output checks


def prepare(name, seed, work: Path):
    """Write the seeded input; return the CLI arguments."""
    spec = WORKLOADS[name]
    rep = None
    if spec["kind"] == "alex":
        text, rep = inputs.alex_input(seed)
    else:
        text = inputs.product_input(spec["input"], seed)
    path = work / spec["input"]
    path.write_text(text)
    return [a.format(input=str(path), rep=rep) for a in spec["args"]]


def _lines_with(out, prefix):
    return [ln[len(prefix):].strip() for ln in out.splitlines()
            if ln.startswith(prefix)]


def _span_of_poly(text):
    """Highest minus lowest exponent of a printed Laurent polynomial."""
    exps = []
    for term in text.replace("- ", "+ ").split("+"):
        term = term.strip()
        if not term:
            continue
        if "t" not in term:
            exps.append(0)
        else:
            _, _, tail = term.partition("t")
            exps.append(int(tail[1:]) if tail.startswith("^") else 1)
    return max(exps) - min(exps)


def check_output(name, call: Call):
    """None when the output is right, else a one-line reason."""
    try:
        return _check_output(WORKLOADS[name], call)
    except (ValueError, IndexError) as e:
        return f"unparsable output: {e}"


def _check_output(spec, call: Call):
    """check_output for one workload record; may raise on garbled output."""
    kind, out = spec["kind"], call.out
    if kind == "nonproduct":
        expected = sum(inputs.homs_free(spec["free_rank"],
                                        spec["max_degree"]).values())
        if call.code != 2:
            return f"exit {call.code}, expected 2 (unknown)"
        if _lines_with(out, "verdict:") != ["unknown"]:
            return f"verdict {_lines_with(out, 'verdict:')}, expected unknown"
        tested = _lines_with(out, "search.representations_tested:")
        if tested != [str(expected)]:
            return f"representations_tested {tested}, expected {expected}"
        return None
    if kind == "quotients":
        homs = inputs.homs_free(spec["free_rank"], spec["max_degree"])
        transitive = inputs.transitive_free(spec["free_rank"],
                                            spec["max_degree"])
        if call.code != 0:
            return f"exit {call.code}, expected 0"
        seen, seen_tr = defaultdict(int), defaultdict(int)
        for line in out.splitlines():
            if line.startswith("degree="):
                words = line.split()
                n = int(words[0].split("=")[1])
                seen[n] += 1
                seen_tr[n] += words[2] == "transitive"
        if dict(seen) != homs or dict(seen_tr) != transitive:
            return (f"per-degree counts {dict(seen)} / transitive"
                    f" {dict(seen_tr)}, expected {homs} / {transitive}")
        if _lines_with(out, "total:") != [str(sum(homs.values()))]:
            return f"total {_lines_with(out, 'total:')}"
        return None
    if call.code != 0:
        return f"exit {call.code}, expected 0"
    if _lines_with(out, "norm lower bound:") != ["1"]:
        return f"norm bound {_lines_with(out, 'norm lower bound:')}, expected 1"
    degrees = [_span_of_poly(_lines_with(out, f"Delta_{i} =")[0])
               if _lines_with(out, f"Delta_{i} =") else None for i in range(3)]
    if degrees != [1, 61, 0]:
        return f"deg Delta_0..2 = {degrees}, expected [1, 61, 0]"
    digest = hashlib.sha256(out.encode()).hexdigest()
    if digest != spec["golden_sha256"]:
        return f"output digest {digest[:16]} differs from the golden one"
    return None


# ---------------------------------------------------------------------------
# spans -> per-layer numbers


def percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def layer_numbers(name, call: Call):
    """Per-layer numbers of one traced call, plus consistency problems."""
    spans = call.record["spans"]
    child_time = defaultdict(float)
    for sid, parent, _, t0, t1, _ in spans:
        child_time[parent] += t1 - t0
    calls, self_s, incl_s = defaultdict(int), defaultdict(float), defaultdict(float)
    rank_ms, items = [], []
    m = defaultdict(float)
    for sid, parent, sname, t0, t1, extra in spans:
        own = (t1 - t0) - child_time[sid]
        calls[sname] += 1
        self_s[sname] += own
        incl_s[sname] += t1 - t0
        m[f"layer.{sname.split('.')[0]}.self_s"] += own
        if sname == "algebra.rank":
            rows, cols, dom = extra
            field = "q" if dom == "Q" else "fp"
            size = "small" if cols <= SMALL_COLS else "large"
            m["algebra.rank.entries"] += rows * cols
            m["algebra.rank.empty_calls"] += rows == 0 or cols == 0
            m[f"algebra.rank.{field}.{size}.calls"] += 1
            m[f"algebra.rank.{field}.{size}.self_s"] += own
            m[f"algebra.rank.{field}.{size}.entries"] += rows * cols
            rank_ms.append((t1 - t0) * 1e3)
        elif sname == "chain.specialize":
            m["chain.specialize.entries"] += extra[0]
        elif sname == "groups.regular_representation":
            m["groups.regular_representation.dim_sum"] += extra[0]
        elif sname == "algebra.diagonalize_laurent":
            m["algebra.diagonalize_laurent.max_dim"] = max(
                m["algebra.diagonalize_laurent.max_dim"], extra[0])
        elif sname == "alex.twisted_alexander":
            m[f"alex.twisted_alexander.d{extra[0]}_s"] += t1 - t0
        elif sname == "groups.enumerate_quotients":
            items.append((t0, t1, extra[0] == "item"))
    for key in ("algebra.rank", "chain.specialize", "chain.betti",
                "groups.eval_word", "groups.perm_group_order",
                "groups.regular_representation",
                "algebra.diagonalize_laurent", "algebra.pid_homology_order"):
        m[f"{key}.self_s"] = self_s[key]
        m[f"{key}.calls"] = calls[key]
    m["scxio.parse_scx.s"] = incl_s["scxio.parse_scx"]
    m["scxio.complex.s"] = incl_s["scxio.ScxDocument.complex"]
    m["groups.enumerate.self_s"] = self_s["groups.enumerate_quotients"]
    m["algebra.rank.call_ms.p50"] = percentile(rank_ms, 50)
    m["algebra.rank.call_ms.p99"] = percentile(rank_ms, 99)
    items.sort()
    m["groups.enumerate.yielded"] = sum(1 for _, _, item in items if item)
    tested = _lines_with(call.out, "search.representations_tested:")
    m["sutured.quotients_tested"] = int(tested[0]) if tested else 0
    if calls["sutured.nonproduct_search"]:
        gaps = [(items[i + 1][0] - items[i][1]) * 1e3
                for i in range(len(items) - 1) if items[i][2]]
        m["sutured.per_quotient_ms.p50"] = percentile(gaps, 50)
        m["sutured.per_quotient_ms.p99"] = percentile(gaps, 99)
    # The root span's self time is whatever no wrapped function claimed,
    # so it does not count as covered.
    m["trace.coverage"] = (sum(self_s.values()) - self_s[ROOT_SPAN]) / call.wall

    problems = []
    expected = (m["sutured.quotients_tested"] if WORKLOADS[name]["kind"]
                == "nonproduct" else int((_lines_with(call.out, "total:")
                                          or ["0"])[0]))
    if m["groups.enumerate.yielded"] != expected:
        problems.append(f"enumerator yielded {m['groups.enumerate.yielded']},"
                        f" program counted {expected}")
    if calls["algebra.rank"] != 5 * calls["chain.betti"]:
        problems.append(f"{calls['algebra.rank']} rank calls for"
                        f" {calls['chain.betti']} betti calls, expected 5 each")
    if m["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"spans below {ROOT_SPAN} cover"
                        f" {m['trace.coverage']:.1%} of the traced wall time,"
                        f" below {MIN_COVERAGE:.0%}")
    return m, problems


# ---------------------------------------------------------------------------
# environment


def environment():
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "cpu": cpu, "child_env": CHILD_ENV,
            "loadavg_before": loadavg()}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as handle:
            return handle.read().split()[:3]
    except OSError:
        return None


# ---------------------------------------------------------------------------
# runs


def run(name, seed, seconds, trace):
    env = environment()
    compileall.compile_dir(str(SRC), quiet=1)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=HERE / ".work"))
    try:
        argv = prepare(name, seed, work)
        result = (traced_run if trace else timed_run)(name, argv, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = loadavg()
    print("env: " + json.dumps(env, sort_keys=True))
    return result


def _judge(name, call, calls, failures):
    calls.append(call)
    if call.problem is None:
        call.problem = (check_output(name, call) if call.mode != "setup"
                        else None if call.code == 0 else f"exit {call.code}")
    if call.problem:
        failures.append(f"{call.mode}: {call.problem}")


def timed_run(name, argv, work, seconds):
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    def fits(durations):
        return (time.monotonic() - start) + statistics.median(durations) <= seconds

    calls, failures = [], []
    full = []
    while not full or (fits([c.wall for c in full]) and left() > 0):
        _judge(name, call_scx("plain", argv, work, left()), calls, failures)
        full.append(calls[-1])
    probes = []
    while left() > 0 and (len(probes) < MIN_PROBES or (
            len(probes) < MAX_PROBES and fits([c.wall for c in probes]))):
        _judge(name, call_scx("setup", argv, work, left()), calls, failures)
        probes.append(calls[-1])

    walls = [c.wall for c in full]
    setups = [c.setup for c in calls if c.setup is not None]
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 \
        else (walls[0],) * 3
    print(f"{name}: {len(full)} timed calls, {len(probes)} set-up probes,"
          f" {len(failures)} failed of {len(calls)}")
    print(f"wall_s median {statistics.median(walls):.4f} q1 {q1:.4f}"
          f" q3 {q3:.4f} n {len(walls)}")
    print(f"setup_s median {statistics.median(setups):.4f} n {len(setups)}"
          if setups else "setup_s: no call reached the compute entry")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(c.rss_mb for c in full),
    }
    return calls, failures, metrics


def traced_run(name, argv, work, seconds):
    start = time.monotonic()

    def left():
        return RUN_LIMIT_S - (time.monotonic() - start)

    calls, failures = [], []
    pairs = []
    while not pairs or (left() > 0 and time.monotonic() - start
                        + statistics.median(a.wall + b.wall for a, b in pairs)
                        <= seconds):
        _judge(name, call_scx("plain", argv, work, left()), calls, failures)
        plain = calls[-1]
        _judge(name, call_scx("traced", argv, work, left()), calls, failures)
        traced = calls[-1]
        pairs.append((plain, traced))
        if traced.problem is None:
            traced.numbers, problems = layer_numbers(name, traced)
            if problems:
                traced.problem = "; ".join(problems)
                failures.append(f"traced: {traced.problem}")
    good = [t for _, t in pairs if t.numbers is not None]
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        values = [t.numbers.get(metric, 0) for t in good]
        value = statistics.median(values) if values else 0
        metrics[metric] = round(value) if unit == "count" else value
    metrics["trace.wall_s"] = statistics.median(t.wall for _, t in pairs)
    metrics["trace.overhead"] = statistics.median(
        t.wall / p.wall for p, t in pairs)
    metrics["proc.cpu_s"] = statistics.median(p.cpu_s for p, _ in pairs)
    print(f"{name}: {len(pairs)} untraced/traced pairs,"
          f" {len(failures)} problems")
    return calls, failures, metrics


# ---------------------------------------------------------------------------
# entry point


def describe():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "scx" / "cli.py").is_file():
        print(f"error: no scx sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 1
    calls, failures, metrics = run(args.workload, args.seed, args.seconds,
                                   args.trace)
    units = {n: u for n, u, *_ in END_TO_END + PER_LAYER}
    for problem in failures:
        print(f"FAILED {problem}")
    failed = sum(1 for c in calls if c.problem)
    print(f"fail_ratio {failed}/{len(calls)}")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
