"""The tolerance table is the one place a numerical threshold is written."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

from qmeasure import tolerances

PACKAGE = Path(tolerances.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"
NAMES = sorted(n for n in vars(tolerances) if n.isupper())
NEGATIVE_EXPONENT = re.compile(r"[eE]-\d")


def test_table_imports_nothing():
    tree = ast.parse(Path(tolerances.__file__).read_text(encoding="utf-8"))
    assert not [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "tolerances.py"), ids=lambda p: p.name
)
def test_no_threshold_literal_outside_the_table(path):
    """A number like 1e-9 in code is a threshold and belongs in the table.

    Docstrings and comments may mention values: they are not NUMBER tokens.
    """
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
    found = [
        f"line {tok.start[0]}: {tok.string}"
        for tok in tokens
        if tok.type == tokenize.NUMBER and NEGATIVE_EXPONENT.search(tok.string)
    ]
    assert not found, f"threshold literals in {path.name}: {found}"


@pytest.mark.parametrize("name", NAMES)
def test_every_threshold_is_used(name):
    users = [
        p.name
        for p in PACKAGE.glob("*.py")
        if p.name != "tolerances.py" and re.search(rf"\b{name}\b", p.read_text(encoding="utf-8"))
    ]
    assert users, f"{name} is read by no module"


@pytest.mark.parametrize("name", NAMES)
def test_every_threshold_is_documented(name):
    readme = README.read_text(encoding="utf-8")
    assert name in readme
    assert name in tolerances.__doc__
