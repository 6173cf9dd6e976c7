"""Summing the event-tree expansion order by order.

The extinction probability satisfies a Volterra integral equation whose
Picard iterates sum tree topologies with more and more branchings: the
first iterate is a bare death, the second allows one split whose two
subtrees die barely, and so on.  The iterates climb monotonically to
the closed form; the Riccati ODE integrated by RK4 gives a third route
to the same curve.

Run:  python demos/04_diagram_ladder.py
"""

import numpy as np

import heatfield as hf

alpha, gamma, tau_max = 0.5, 1.0, 5.0

closed_curve = None
print(f"alpha = beta = {alpha}, gamma = {gamma}: critical branching")
print("\nPicard iterates approaching the closed form (sup distance on [0, 5]):")
for order in (1, 2, 4, 8, 16, 30):
    curve = hf.one_point_picard(alpha, gamma, tau_max, order)
    if closed_curve is None:
        closed_curve = hf.one_point_closed_form(alpha, gamma, curve.nodes)
    gap = float(np.max(np.abs(curve.values - closed_curve)))
    print(f"  order {order:2d}: sup error {gap:.3e}")

print("\nthe three routes at selected times:")
ode = hf.one_point_ode(hf.FertilityDistribution.binary(alpha), gamma, 0.0, tau_max)
picard = hf.one_point_picard(alpha, gamma, tau_max, order=30)
print("  tau   closed      rk4         picard-30")
for tau in (0.5, 1.0, 2.0, 5.0):
    idx = int(round(tau / ode.step))
    print(
        f"  {tau:3}   {hf.one_point_closed_form(alpha, gamma, tau):.7f}"
        f"   {ode.values[idx]:.7f}   {picard.values[idx]:.7f}"
    )

print("\nat alpha = 1/2 the closed form is 1 - 2/(gamma*tau + 2), so A(2) is exactly",
      hf.one_point_closed_form(0.5, 1.0, 2.0))

print("\neventual extinction across the fertility range:")
print("  alpha  limit of A    alpha/(1-alpha) capped at 1")
for a in (0.1, 0.25, 0.4, 0.5, 0.75):
    tail = hf.one_point_closed_form(a, 1.0, 1e3)
    print(f"  {a:5}  {tail:.6f}      {hf.extinction_probability(a):.6f}")
