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
    "5f85b181487bc614061d7a6a2016346b1da11930ba70190244990163f4e645ea",
    "eea7cd472117d56b639c87621f98ce20f658adb5d2bc9f1e0032bd8af3ef90cd",
)


def test_fingerprint_is_pinned(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("qmeasure_fingerprint", FINGERPRINT)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    assert fingerprint.lines() == LINES
