import numpy as np
import pytest

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
