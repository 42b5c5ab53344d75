"""Source-level guards: no check in the package relies on `assert`, every
annotation names something its module can see, every hook of the traced
benchmark names a function that exists, and importing the CLI loads what
the commands and the benchmark need and no more."""

import ast
import importlib
import inspect
import json
import subprocess
import sys
import typing
from functools import cached_property
from pathlib import Path

import scx

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_no_assert_in_package():
    """`python -O` strips `assert`, so package checks must raise instead."""
    found = []
    for path in sorted(Path(scx.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _annotated(module):
    """The module and each class and function it defines, with the methods,
    properties and class methods of each class."""
    yield module
    for obj in vars(module).values():
        if not ((inspect.isclass(obj) or inspect.isfunction(obj))
                and obj.__module__ == module.__name__):
            continue
        yield obj
        if inspect.isclass(obj):
            for member in vars(obj).values():
                if isinstance(member, (classmethod, staticmethod)):
                    yield member.__func__
                elif isinstance(member, property):
                    yield member.fget
                elif isinstance(member, cached_property):
                    yield member.func
                elif inspect.isfunction(member):
                    yield member


def test_annotations_resolve():
    """Annotations are strings under `from __future__ import annotations`,
    so a name used only in them can go unimported unseen until
    `typing.get_type_hints` evaluates it."""
    failed = []
    for path in sorted(Path(scx.__file__).parent.glob("*.py")):
        if path.stem == "__main__":     # importing it runs the CLI
            continue
        module = importlib.import_module(f"scx.{path.stem}")
        for obj in _annotated(module):
            try:
                typing.get_type_hints(obj)
            except NameError as e:
                failed.append(f"{path.stem}:"
                              f"{getattr(obj, '__qualname__', '')}: {e}")
    assert not failed, failed


def _child_constants():
    """TRACED and ENTRY of perfbench/child.py, read without running it."""
    tree = ast.parse(CHILD.read_text(), str(CHILD))
    out = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TRACED", "ENTRY")):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def test_benchmark_hooks_resolve():
    """A renamed scx function fails here, not first in a traced run."""
    consts = _child_constants()
    hooks = list(consts["TRACED"]) + list(consts["ENTRY"].values())
    assert len(hooks) > len(consts["ENTRY"])
    missing = []
    for module, qualname in hooks:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not (inspect.isfunction(obj)
                and obj.__module__.split(".")[0] == "scx"):
            missing.append(f"{module}:{qualname}")
    assert not missing, missing


def test_cli_import_footprint():
    """`import scx.cli, scx.alex` in an interpreter without site loads none
    of the start-up costs the commands do not need, and loads every module
    `perfbench/child.py` looks up in `sys.modules` before its entry stamp."""
    src = Path(scx.__file__).resolve().parent.parent
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]);"
            " import scx.cli, scx.alex; print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "importlib.resources"}
    traced = {module for module, _ in _child_constants()["TRACED"]}
    assert traced <= loaded, sorted(traced - loaded)
