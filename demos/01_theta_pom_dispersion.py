"""A fuzzy qubit measurement: unbiased estimation and its price.

The two-outcome POM P_± = (1 ± cos(theta) sigma_z)/2 is a noisy reading of
sigma_z.  Assigning amplified values m_± = ±1/cos(theta) makes the mean
faithful for every state, but the amplification shows up as dispersion:
the mean-squared noise is tan^2(theta) regardless of the preparation.
Each outcome also has an intrinsic resolution |sin(theta)| -- the spread of
sigma_z under the state retrodicted from that outcome alone.
"""

import numpy as np

from qmeasure import (
    DensityOperator,
    HermitianOperator,
    epsilon_sq_system,
    retrodictive_error,
    unbiased_dispersion,
)
from qmeasure.operators import SIGMA_Z
from qmeasure.scenario import theta_pom_instrument

rng = np.random.default_rng(1)
sz = HermitianOperator(SIGMA_Z)

print(f"{'theta':>8} {'bias':>10} {'eps^2':>10} {'tan^2':>10} {'resolution':>11}")
for theta in (np.pi / 6, np.pi / 4, np.pi / 3, 1.2):
    inst = theta_pom_instrument(theta)
    m = 1 / np.cos(theta)
    values = {"+": m, "-": -m}

    # A random preparation: the numbers below do not depend on it.
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w = g @ g.conj().T
    rho = DensityOperator(w / np.real(np.trace(w)))

    eps = epsilon_sq_system(inst, values, sz, rho)
    bias, eps_sq = eps.delta, eps.mean_squared
    resolution = retrodictive_error(inst, "+", sz)
    print(
        f"{theta:8.4f} {bias:10.2e} {eps_sq:10.6f} {np.tan(theta) ** 2:10.6f} "
        f"{resolution:11.6f}"
    )
    assert abs(eps_sq - unbiased_dispersion(inst, values, sz, rho)) < 1e-10

print()
print("The noise equals the dispersion of the mean exactly: it measures the")
print("amplification of the assigned values, not a perturbation of the system.")
