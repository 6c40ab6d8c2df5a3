"""Parameterized algebraic properties driven by hypothesis."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure.metrics import epsilon_sq_system, eta_sq_system
from qmeasure.operators import (
    SIGMA_Z,
    DensityOperator,
    HermitianOperator,
    expectation_and_variance,
    max_norm,
)
from qmeasure.quasiprob import weak_probe
from qmeasure.retrodiction import retrodictive_error
from qmeasure.scenario import theta_pom_instrument

SZ = HermitianOperator(SIGMA_Z)

angles = st.floats(min_value=0.0, max_value=np.pi, allow_nan=False)
strengths = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)
bloch = st.tuples(
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)
).filter(lambda r: r[0] ** 2 + r[1] ** 2 + r[2] ** 2 <= 1.0)


def bloch_state(r) -> DensityOperator:
    rx, ry, rz = r
    m = 0.5 * np.array([[1 + rz, rx - 1j * ry], [rx + 1j * ry, 1 - rz]])
    return DensityOperator(m)


@settings(max_examples=60, deadline=None)
@given(theta=angles)
def test_theta_pom_completeness(theta):
    inst = theta_pom_instrument(theta)
    total = sum(p.matrix for p in inst.pom())
    assert max_norm(total - np.eye(2)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(theta=angles)
def test_retrodictive_error_closed_form(theta):
    # 1e-7 tolerance: the variance sin^2(theta) underflows against the
    # second moment near theta = 0 and pi, where sqrt halves the precision.
    inst = theta_pom_instrument(theta)
    for label in ("+", "-"):
        assert abs(retrodictive_error(inst, label, SZ) - abs(np.sin(theta))) < 1e-7


@settings(max_examples=60, deadline=None)
@given(g=strengths)
def test_weak_probe_completeness(g):
    kraus, (n_plus, n_minus) = weak_probe(np.array([np.diag([1.0, 0.0])]), g)
    mp, mm = kraus[0]
    assert max_norm(mp.conj().T @ mp + mm.conj().T @ mm - np.eye(2)) < 1e-12
    recovered = n_plus * mp.conj().T @ mp + n_minus * mm.conj().T @ mm
    assert max_norm(recovered - np.diag([1.0, 0.0])) < 1e-8


@settings(max_examples=60, deadline=None)
@given(r=bloch)
def test_variance_bounds(r):
    rho = bloch_state(r)
    mean, var = expectation_and_variance(SZ, rho)
    assert -1.0 - 1e-12 <= mean <= 1.0 + 1e-12
    assert -1e-12 <= var <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(r=bloch, theta=st.floats(0.05, np.pi / 2 - 0.05))
def test_noise_and_disturbance_nonnegative(r, theta):
    rho = bloch_state(r)
    inst = theta_pom_instrument(theta)
    m = 1 / np.cos(theta)
    eps = epsilon_sq_system(inst, {"+": m, "-": -m}, SZ, rho).mean_squared
    assert abs(eps - np.tan(theta) ** 2) < 1e-9
    eta = eta_sq_system(inst, SZ, rho).mean_squared
    assert abs(eta) < 1e-10
