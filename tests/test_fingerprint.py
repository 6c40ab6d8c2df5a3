"""The bit oracle: every printed number of qmeasure, hashed.

``tools/fingerprint.py`` hashes the numeric outputs of the package (see its
docstring); a change that moves any bit of any of them changes a line.  The
tool is loaded by path, without writing bytecode next to it, and its two
lines are pinned here.
"""

import importlib.util
import sys
from pathlib import Path

FINGERPRINT = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
LINES = (
    "b177b602b05374026ba46e4e743f922115e1d90db1207d142dde27d6a0b3f936",
    "c624d7000046c315d26b86a1566460291ff6f6592bbae08edaef1ed531bd42b6",
)


def test_fingerprint_is_pinned(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("qmeasure_fingerprint", FINGERPRINT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert fingerprint.lines() == LINES
