"""The dressed two-point field and its mass bookkeeping.

The clocked free propagator from the origin gets dressed by repeated
branchings of the surviving line; one forward march over a (t, x) grid
solves the resulting ladder equation in one spatial dimension.  Its
spatial integral must reproduce the mass curve solved independently on
a fine time grid, and with branching switched off (alpha = 1) the field
collapses to the bare clocked kernel.

Run:  python demos/05_two_point_field.py
"""

import numpy as np

import heatfield as hf

alpha, gamma = 0.5, 1.0
field = hf.two_point_picard(alpha, gamma, t_max=2.0, t_step=0.05, x_half_width=10.0, x_step=0.1)
print(f"grid: {field.values.shape[0]} time slices x {field.values.shape[1]} space nodes")
print(f"fixed-point residual: {hf.two_point_residual(field, alpha, gamma):.2e}\n")

print("field profile at selected times (values at x = 0, 1, 2):")
for t in (0.25, 0.5, 1.0, 2.0):
    j = int(round(t / field.t_step)) - 1
    mid = (field.values.shape[1] - 1) // 2
    row = field.values[j]
    print(f"  t = {t:4}:  {row[mid]:.5f}  {row[mid + 10]:.5f}  {row[mid + 20]:.5f}")

mass = hf.mass_curve(alpha, gamma, 2.0)
print("\nspatial integral of each slice vs independently solved mass curve:")
print("  t     slice mass   mass curve")
for t in (0.25, 0.5, 1.0, 2.0):
    j = int(round(t / field.t_step)) - 1
    print(f"  {t:4}  {field.spatial_mass()[j]:.7f}    {float(mass(t)):.7f}")

print("\nwith branching off (alpha = 1) the dressing disappears:")
bare = hf.two_point_picard(1.0, gamma, t_max=1.0, t_step=0.1, x_half_width=7.0, x_step=0.1)
from heatfield.kernels import retarded_propagator_heat

worst = 0.0
for j, t in enumerate(bare.times):
    for i, x in enumerate(bare.xs):
        worst = max(worst, abs(bare.values[j, i] - retarded_propagator_heat((0.0, 0.0), (t, x), gamma)))
print(f"  max |field - clocked kernel| = {worst}")
