"""Transition densities, the semigroup, and the clocked propagator.

A Brownian particle moves with Gaussian transition density p_t(x, y).
Applying the semigroup smears an initial profile; composing two short
steps equals one long step (the Markov property); and switching on an
exponential clock multiplies everything by exp(-gamma*t).

Run:  python demos/02_heat_kernels.py
"""

import math

import numpy as np

from heatfield import kernels

print("heat kernel values, d = 1:")
for t, dx in [(0.25, 0.0), (1.0, 0.0), (1.0, 1.0), (4.0, 2.0)]:
    print(f"  p_{t:<4}(0, {dx:3}) = {kernels.heat_kernel(t, 0.0, dx):.6f}")

print("\nkernel normalization (trapezoid over +-8 sqrt(t)):")
for t in (0.25, 1.0, 4.0):
    h = math.sqrt(t) / 8.0
    zs = np.arange(-64, 65) * h
    vals = kernels.heat_kernel(t, 0.0, zs[:, None])  # an (m, 1) array: one density per target point
    integral = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
    print(f"  t = {t:4}: integral = {integral:.10f}")

print("\nMarkov property, |int p_t p_s - p_(t+s)| by adaptive quadrature:")
for t, s, x, y in [(0.5, 0.5, 0.0, 0.0), (0.3, 0.7, 0.0, 1.0), (1.0, 1.0, -1.0, 1.0)]:
    print(f"  t={t}, s={s}, x={x}, y={y}:  residual = {kernels.ck_residual(t, s, x, y):.2e}")

print("\nsemigroup on a sampled bump (variance 0.1 spreads to 0.5 after t = 0.4):")
u = kernels.SampledFunction.sample(
    lambda x: np.exp(-x**2 / 0.2) / math.sqrt(0.2 * math.pi), -7.0, 0.01, 1401
)
out = kernels.apply_semigroup(u, 0.4)
for x in (0.0, 0.5, 1.0, 2.0):
    want = math.exp(-x**2 / 1.0) / math.sqrt(1.0 * math.pi)
    print(f"  (P_0.4 u)({x:3}) = {float(out(x)):.8f}   exact Gaussian: {want:.8f}")

print("\nretarded propagator = exp(-gamma*dt) * heat kernel, zero backwards in time:")
for dt in (-0.5, 0.0, 0.5, 1.0):
    val = kernels.retarded_propagator_heat((0.0, 0.0), (dt, 0.0), 1.0)
    print(f"  dt = {dt:4}:  {val:.6f}")

print("\nclock: probability that something happens within dtau (gamma = 1):")
for dtau in (0.0, math.log(2.0), 2.0):
    print(f"  dtau = {dtau:.4f}:  {kernels.event_probability(1.0, dtau):.6f}")
