"""Parser mutation oracle: seeded single mutations of the bundled scenario files.

Each mutation replaces one node of a document by a null, a bool, a string, a number,
a list or an object, deletes one key, or duplicates one list entry.  The parser must
answer every mutant with a ``Scenario``, a ``ParseError`` or a ``ValidationError``
and print no ``RuntimeWarning``; an accepted mutant must round-trip through
``to_dict``.
"""

import copy
import glob
import json
import math
import os
import warnings

import numpy as np

from qmeasure.errors import ParseError, ValidationError
from qmeasure.scenario import Scenario, scenario_from_dict

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")
MUTATIONS = 2000
# Replacement nodes: JSON scalars and containers, numbers at the edges of the float
# range, and the non-finite floats Python's json module reads.
REPLACEMENTS = (
    None, True, False, "", "0.5", "+", 0, 1, -1, 2, 0.5, -0.5, 1e-300, 1e308, -1e308, 10**400,
    math.inf, -math.inf, math.nan, [], [0.0], [0.0, 0.0], [[1.0, 0.0]], {}, {"+": 1.0},
)


def _documents() -> list[tuple[str, list[tuple]]]:
    """The text of each bundled file with the paths of its nodes."""
    files = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.json")))
    assert len(files) == 4
    documents = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        documents.append((text, _paths(json.loads(text))))
    return documents


def _paths(node, prefix=()) -> list[tuple]:
    """The path of every node below the root, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    found = []
    for key, child in items:
        found.append(prefix + (key,))
        found.extend(_paths(child, prefix + (key,)))
    return found


def _mutant(text: str, paths: list[tuple], rng: np.random.Generator) -> dict:
    """The document ``text`` with one node replaced, one key deleted or one list entry
    duplicated."""
    mutant = json.loads(text)
    *parent_path, key = paths[rng.integers(len(paths))]
    parent = mutant
    for step in parent_path:
        parent = parent[step]
    action = rng.integers(3)
    if action == 1 and isinstance(parent, dict):
        del parent[key]
    elif action == 2 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = copy.deepcopy(REPLACEMENTS[rng.integers(len(REPLACEMENTS))])
    return mutant


def _outcome(doc: dict):
    try:
        return scenario_from_dict(doc)
    except (ParseError, ValidationError) as exc:
        return exc


def test_every_mutant_is_a_scenario_or_a_named_error():
    rng = np.random.default_rng(20261019)
    documents = _documents()
    kinds = {Scenario: 0, ParseError: 0, ValidationError: 0}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in range(MUTATIONS):
            result = _outcome(_mutant(*documents[i % len(documents)], rng))
            kinds[type(result)] += 1
            if isinstance(result, Scenario):
                doc = result.to_dict()
                again = scenario_from_dict(doc)
                assert again.to_dict() == doc and again.digest() == result.digest()
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    # Every kind of answer occurs, so the oracle reaches past the first gates.
    assert min(kinds.values()) > 0, kinds
