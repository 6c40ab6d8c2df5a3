"""Measuring a quasiprobability in the lab, one probe strength at a time.

A tunable two-outcome probe of strength g, followed by the apparatus,
estimates each cell of the error quasiprobability after calibrating the
probe outcomes with values (1 ± 1/g)/2.  The estimate deviates from the
exact table by a factor 1 - sqrt(1 - g^2) ~ g^2/2, so halving the strength
quarters the error -- a log-log slope of 2.
"""

import numpy as np

from qmeasure import DensityOperator, load_scenario, weak_sweep
from qmeasure.quasiprob import tmh_error_distribution, weak_probe_error_distribution

scenario = load_scenario("scenarios/weak_probe.json")
g_list = [0.5, 0.2, 0.1, 0.05, 0.02, 0.01]

sweep = weak_sweep(scenario, g_list)
print(f"{'g':>6} {'max-norm error':>16} {'bound (1-sqrt(1-g^2))/2':>24}")
for row in sweep.rows:
    bound = (1 - np.sqrt(1 - row.g**2)) / 2
    print(f"{row.g:6.2f} {row.error_dist_maxnorm:16.3e} {bound:24.3e}")
print(f"\nfitted log-log slope: {sweep.error_slope:.3f} (expected 2)")

# At g = 1 the probe is projective and the calibrated table becomes the
# fully conditioned (and everywhere nonnegative) joint distribution.  With
# a preparation that makes the exact table negative, the difference shows:
s = scenario
rho = DensityOperator(np.array([[0.8, 0.4], [0.4, 0.2]]))
strong = weak_probe_error_distribution(rho, s.observable_A, s.apparatus, s.values_m, 1.0)
exact = tmh_error_distribution(rho, s.observable_A, s.apparatus, s.values_m)
print(f"\nexact table minimum:      {exact.table.min():+.4f}")
print(f"projective-probe minimum: {strong.table.min():+.4f}")
print("The negativity is only visible in the weak limit; a strong probe")
print("destroys the coherence that produced it.")
