"""Run one `scx` CLI call in this fresh interpreter.

    python3 perfbench/child.py plain|traced|setup RESULT -- <scx arguments>

Every mode stamps the first entry into the workload's compute function
(`nonproduct_search`, `enumerate_quotients` or `thurston_bound`) with
`time.monotonic()`, which on Linux reads one clock shared by all processes,
so the parent can subtract its own launch stamp.  `setup` writes the stamp
and exits right there, so set-up is sampled without paying for the
computation.  `traced` also wraps the functions listed in `TRACED` and
records one span per call: (id, parent id, name, start, end, extra).  Spans
stay in memory and are written to RESULT after the CLI returns, in marshal
format because it is the fastest to write.  Nothing under `src/` changes:
the wrappers replace every module-level binding of the original function,
because `from .x import y` copies `y` into each caller.
"""

from __future__ import annotations

import inspect
import marshal
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# subcommand -> (module, function) whose first entry ends set-up
ENTRY = {
    "nonproduct": ("scx.cli", "nonproduct_search"),
    "quotients": ("scx.cli", "enumerate_quotients"),
    "alex": ("scx.alex", "thurston_bound"),
}

# (module, qualified name) of every function given a span; the layer is the
# module's last component.  These are the entry points of each layer that
# the four workloads reach.  Hot leaf helpers (perm_mul, field arithmetic,
# Matrix methods) are left out: their cost lands in the caller's self time.
TRACED = [
    ("scx.scxio", "parse_scx"),
    ("scx.scxio", "ScxDocument.complex"),
    ("scx.groups", "enumerate_quotients"),
    ("scx.groups", "FiniteQuotient.describe"),
    ("scx.groups", "perm_group_order"),
    ("scx.groups", "regular_representation"),
    ("scx.groups", "eval_word"),
    ("scx.chain", "specialize"),
    ("scx.chain", "betti"),
    ("scx.algebra", "rank"),
    ("scx.algebra", "diagonalize_laurent"),
    ("scx.algebra", "pid_homology_order"),
    ("scx.sutured", "nonproduct_search"),
    ("scx.alex", "thurston_bound"),
    ("scx.alex", "twisted_alexander"),
    ("scx.cli", "main"),
]


def _extra(name, args, result):
    """Per-call sizes the parent turns into counts (entries, dims)."""
    if name == "algebra.rank":
        mat = args[0]
        return [mat.m, mat.n, mat.dom.name]
    if name == "chain.specialize":
        return [sum(m.m * m.n for m in result.mats.values())]
    if name == "groups.regular_representation":
        return [result.dim]
    if name == "algebra.diagonalize_laurent":
        return [max(args[0].m, args[0].n)]
    if name == "alex.twisted_alexander":
        return [args[3]]
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.next_id = 1

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.append([sid, parent, name, t0, t1,
                          _extra(name, args, result)])
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Span per next(): time inside the generator, not its consumer."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self.next_id
                self.next_id = sid + 1
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    spans.append([sid, parent, name, t0, clock(), ["stop"]])
                    return
                finally:
                    stack.pop()
                spans.append([sid, parent, name, t0, clock(), ["item"]])
                yield item

        return traced


def _resolve(module, qualname):
    obj = sys.modules[module]
    *owners, attr = qualname.split(".")
    for part in owners:
        obj = getattr(obj, part)
    return obj, attr


def install(tracer: Tracer):
    """Replace each target everywhere a scx module or class binds it."""
    replaced = {}
    for module, qualname in TRACED:
        owner, attr = _resolve(module, qualname)
        fn = owner.__dict__[attr]
        name = module.split(".")[-1] + "." + qualname
        if inspect.isgeneratorfunction(fn):
            replaced[fn] = tracer.wrap_generator(name, fn)
        else:
            replaced[fn] = tracer.wrap(name, fn)
        setattr(owner, attr, replaced[fn])
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "scx" or mod_name.startswith("scx."):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replaced:
                    setattr(mod, attr, replaced[value])


def main():
    mode, result_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("plain", "traced", "setup"):
        print("usage: child.py plain|traced|setup RESULT -- ARGS",
              file=sys.stderr)
        return 64
    sys.path.insert(0, str(SRC))
    import scx.cli
    entry_module, entry_name = ENTRY[argv[0]]
    if entry_module == "scx.alex" or mode == "traced":
        import scx.alex  # cmd_alex imports it at call time; bind it first
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
    module = sys.modules[entry_module]
    inner = getattr(module, entry_name)
    stamp = []

    def first_entry(*args, **kwargs):
        if not stamp:
            stamp.append(time.monotonic())
            if mode == "setup":
                _write(result_path, {"entry": stamp[0]})
                os._exit(0)
        return inner(*args, **kwargs)

    setattr(module, entry_name, first_entry)
    try:
        code = scx.cli.main(argv)
    finally:
        sys.stdout.flush()
    record = {"entry": stamp[0] if stamp else None}
    if tracer is not None:
        record["spans"] = tracer.spans
    _write(result_path, record)
    return code


def _write(path, record):
    with open(path, "wb") as handle:
        marshal.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
