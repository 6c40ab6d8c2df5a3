import sys
from collections import Counter

import numpy as np
import pytest

from qmeasure import operators
from qmeasure.operators import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
)


@pytest.fixture
def sx():
    return HermitianOperator(SIGMA_X)


@pytest.fixture
def sy():
    return HermitianOperator(SIGMA_Y)


@pytest.fixture
def sz():
    return HermitianOperator(SIGMA_Z)


@pytest.fixture
def ket0():
    return DensityOperator(np.diag([1.0, 0.0]))


@pytest.fixture
def ket1():
    return DensityOperator(np.diag([0.0, 1.0]))


@pytest.fixture
def ket_plus():
    return DensityOperator(np.full((2, 2), 0.5, dtype=complex))


@pytest.fixture
def max_mixed():
    return DensityOperator(np.eye(2) / 2)


@pytest.fixture
def gate_calls(monkeypatch) -> Counter:
    """Calls of the stacked gates ``hermitian_part`` and ``validated_states``, wrapped
    in every qmeasure module that imports them, and of ``np.linalg.qr`` and
    ``np.linalg.eigh``, counted by name from here on."""
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "qmeasure" or n.startswith("qmeasure.")]
    for name in ("hermitian_part", "validated_states"):
        fn = getattr(operators, name)
        for module in modules:
            if vars(module).get(name) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    for name in ("qr", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls
