"""Ten uncertainty relations, and the one product that is allowed to fail.

A projective sigma_z measurement estimates A = sigma_z with zero noise, yet
it disturbs B = sigma_x maximally.  The naive product eps_A * eta_B then
drops below the commutator bound C_AB -- there is no universal
noise-disturbance tradeoff of Heisenberg form.  The corrected relations
(Ozawa, Hall, Weston, Branciard) and the per-outcome Hofmann bounds all
survive, here and on thousands of random scenarios.
"""

from qmeasure import evaluate_all, load_scenario
from qmeasure.inequalities import (
    ScenarioContext,
    heisenberg_form_violation_search,
    random_sweep,
)

scenario = load_scenario("scenarios/cnot_projective.json")
ctx = ScenarioContext([scenario])
eps_a, eta_b, c_ab = ctx.eps_A[0], ctx.eta_B[0], ctx.c_ab[0]
print("projective sigma_z apparatus, B = sigma_x, rho = (1 + 0.8 sigma_y)/2:")
print(f"  eps_A = {eps_a:.3f}, eta_B = {eta_b:.3f}, C_AB = {c_ab:.3f}")
print(f"  naive product eps_A * eta_B - C_AB = {eps_a * eta_b - c_ab:+.3f}  (< 0!)")

print("\nthe corrected relations on the same scenario:")
for rid, rec in sorted(evaluate_all(scenario).items()):
    flag = "ok" if rec.satisfied else "VIOLATED"
    print(f"  {rid:13s} lhs {rec.lhs:9.4f} >= rhs {rec.rhs:9.4f}   {flag}")

print("\nrandom sweep (200 qubit + 60 qutrit scenarios), minimum margins:")
for dims, count in (([2], 200), ([3], 60)):
    sweep = random_sweep(dims, count, 99)
    for rid, margin in sorted(sweep.min_margins.items()):
        print(f"  d={dims[0]}  {rid:13s} {margin:+.3e}")

result = heisenberg_form_violation_search([2], 50, 7)
print(
    f"\nviolation search: best naive-product margin {result.margin:+.3f} "
    f"while the Ozawa margin stays at {result.ozawa_margin:+.3e}"
)
