"""Golden transcript of the command surface on the bundled corpus.

Each bundled input runs through a fixed list of commands in-process; the
transcript records every command's exit code, stdout and stderr, and the
document that `double` writes, with its temporary path replaced by `OUT`.
One more input, product_T1 with R+ moved onto the single vertex vp, has
Euler numbers that do not add up (2 chi(M) != chi(R-) + chi(R+)); `double`
must refuse it.  The test compares the transcript with
`tests/golden/transcript.txt` byte for byte.

Run as a script to print the transcript, which needs no pytest:

    PYTHONPATH=src python tests/test_transcript.py > tests/golden/transcript.txt
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from scx.cli import bundled_names, main

GOLDEN = Path(__file__).parent / "golden" / "transcript.txt"

COMMANDS = (
    ("check",),
    ("homology", "--rel", "R-"),
    ("certify-taut",),
    ("nonproduct", "--max-degree", "3"),
    ("bounds",),
    ("alex", "--phi", "ab"),
    ("alex", "--phi", "dual"),
    ("quotients", "--max-degree", "3"),
    ("double", "-o", "OUT"),
)

UNBALANCED = "unbalanced_T1"


def unbalanced_text() -> str:
    """product_T1 with `sub R+ = vp` and no `meta chi_rplus`: validate
    passes it, but chi(R-) + chi(R+) = -1 + 1 differs from 2 chi(M) = -2."""
    from importlib import resources
    text = (resources.files("scx.data") / "product_T1.scx").read_text()
    lines = []
    for line in text.splitlines():
        if line.startswith("meta chi_rplus"):
            continue
        lines.append("sub R+ = vp" if line.startswith("sub R+") else line)
    return "\n".join(lines) + "\n"


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception as e:  # recorded, so a crash shows as a diff
            code = f"uncaught {type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


def _block(title: str, text: str) -> list:
    return [f"--- {title}"] + text.splitlines()


def transcript() -> str:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [(n, f"bundled:{n}") for n in bundled_names()]
        unbalanced = Path(tmp) / f"{UNBALANCED}.scx"
        unbalanced.write_text(unbalanced_text())
        inputs.append((UNBALANCED, str(unbalanced)))
        written = str(Path(tmp) / "double.scx")
        for name, spec in inputs:
            for command in COMMANDS:
                argv = [command[0], spec] + [
                    written if a == "OUT" else a for a in command[1:]]
                code, out, err = _run(argv)
                lines.append(f"=== {name}: {' '.join(command)}")
                lines.append(f"exit: {code}")
                lines += _block("stdout", out.replace(written, "OUT"))
                lines += _block("stderr", err.replace(written, "OUT"))
                if command[0] == "double" and code == 0:
                    lines += _block("OUT", Path(written).read_text())
    return "\n".join(lines) + "\n"


def test_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(transcript())
