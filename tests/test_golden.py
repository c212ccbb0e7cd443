"""CLI output on every fixture, compared byte for byte with ``tests/golden/``.

Each golden file holds the exit code on its first line and the captured
standard output after it.  After a deliberate change of CLI output, rewrite
them with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from mixcuts.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"
POINT = str(FIXTURES / "point_example1.json")

COMMANDS = {
    "diagnose": ["diagnose", "{fixture}"],
    "separate": ["separate", "{fixture}", POINT],
    "verify-sufficiency": ["verify", "{fixture}", "--mode=sufficiency"],
    "verify-witness": ["verify", "{fixture}", "--mode=witness"],
    "verify-validity": ["verify", "{fixture}", "--mode=validity"],
    "twosided": ["twosided", "{fixture}"],
    "twosided-theta": ["twosided", "{fixture}", "--theta=2,1,3"],
}

CASES = [
    (fixture.stem, label)
    for fixture in sorted(FIXTURES.glob("*.json"))
    for label in COMMANDS
]


def render(stem: str, label: str) -> str:
    fixture = str(FIXTURES / f"{stem}.json")
    argv = [a.replace("{fixture}", fixture) for a in COMMANDS[label]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("stem,label", CASES)
def test_cli_output_matches_golden(stem, label):
    expected = (GOLDEN / f"{stem}.{label}.txt").read_text(encoding="utf-8")
    assert render(stem, label) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, label in CASES:
        (GOLDEN / f"{stem}.{label}.txt").write_text(render(stem, label), encoding="utf-8")
    sys.exit(0)
