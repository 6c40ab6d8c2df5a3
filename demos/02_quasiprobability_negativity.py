"""Joint error quasiprobabilities and where positivity fails.

The mean-squared noise can always be written as a squared difference
averaged over a joint table p~(a, k) = <Pi_a * P_k>.  When the estimated
observable fails to commute with the apparatus, that table is a genuine
quasiprobability: some cells go negative, and the conditioned versions are
weak values that escape [0, 1].
"""

import numpy as np

from qmeasure import (
    DensityOperator,
    HermitianOperator,
    conditional_weak_value,
    quasi_mean_squared_difference,
    tmh_error_distribution,
)
from qmeasure.metrics import epsilon_sq_system
from qmeasure.operators import SIGMA_X, SIGMA_Z, spectral_decompose
from qmeasure.scenario import theta_pom_instrument

theta = np.pi / 3
inst = theta_pom_instrument(theta)
values = {"+": 2.0, "-": -2.0}

# Co-diagonal case: estimating sigma_z with a z-diagonal POM stays classical.
rho = DensityOperator(np.array([[0.8, 0.4], [0.4, 0.2]]))
sz, sx = HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)

d = tmh_error_distribution(rho, sz, inst, values)
print("sigma_z vs z-diagonal POM (commuting):")
print(d.table)
print(f"  all entries >= 0: {bool(d.table.min() >= -1e-12)}")

# Non-commuting case: the same apparatus read against sigma_x goes negative.
d = tmh_error_distribution(rho, sx, inst, values)
print("\nsigma_x vs z-diagonal POM (non-commuting):")
print(d.table)
print(f"  most negative cell: {d.table.min():+.4f}")

# The table still reproduces the noise exactly.
direct = epsilon_sq_system(inst, values, sx, rho).mean_squared
print(f"  quasi mean-squared difference: {quasi_mean_squared_difference(d):.6f}")
print(f"  direct eps^2:                  {direct:.6f}")

# Conditioning on an outcome gives weak values, here outside [0, 1].
proj = spectral_decompose(sx).projectors[0]
for label in inst.labels:
    wv = conditional_weak_value(rho, proj, inst.pom_element(label))
    print(f"  weak value of Pi_+ given outcome {label!r}: {wv:+.4f}")
