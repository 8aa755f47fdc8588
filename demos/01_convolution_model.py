#!/usr/bin/env python3
"""Walkthrough: building a convolution model and querying its evaluators.

The model is mu * nu where mu has density exp(-V) for a confining potential V
and nu is the perturbing measure.  Everything downstream (drift rates, rate
tables, Monte Carlo checks) consumes the four evaluators shown here.
"""

import numpy as np

from wpconv import model as M

print("=" * 70)
print("CONVOLUTION MODELS: density, log-gradient, tilted moments, tails")
print("=" * 70)

# -- algebraic-tail well with a uniform perturbation ------------------------
pot = M.log_potential(2.0)            # V = c + 3 log(1+|x|), d = 1
nu = M.uniform_density(1.0)           # uniform on [-1, 1]
m = M.ConvolutionModel(pot, nu)

print(f"\npotential: {pot.name}, normalization constant c = {pot.c:.6f}")
print(f"source: {nu.name}, support radius R = {nu.support_radius}")
print(f"evaluation domain cutoff: {m.truncation_radius:.3g}")

print("\ndensity and log-density gradient:")
for x in [0.0, 1.5, 10.0, 200.0]:
    p = M.p_nu(m, x)
    v, g = M.v_nu_and_grad(m, x)
    print(f"  x = {x:7.1f}:  p = {p:.6e}   V_nu = {v:9.4f}   dV_nu = {g:+.6f}")

print("\ntilted-measure normalization (must be 1):")
for x in [0.0, 5.0, 80.0]:
    one = M.tilted_u_moment(m, x, lambda u: np.ones(np.shape(u)))
    print(f"  x = {x:5.1f}:  E[1 | nu_x] = {one:.12f}")

print("\ntails (the mu tail has the closed form (1+t)^-2 here):")
for t in [1.0, 10.0, 100.0, 1e4]:
    mu_t = M.measure_tail(m, t)
    print(f"  t = {t:8.1f}:  mu(|x| >= t) = {mu_t:.6e}   closed form "
          f"{(1.0 + t) ** -2:.6e}   nu-tail = {nu.tail(t):.3f}")

total = M.density_normalization(m)
print(f"\ntotal mass of the convolution density: {total:.9f}")

# -- discrete lattice source ------------------------------------------------
print("\n" + "-" * 70)
print("integer-lattice source with a sub-linear smooth well")
m31 = M.ConvolutionModel(M.smooth_well_potential(0.5), M.integer_lattice(1.0))
src = m31.source
print(f"atoms |i| <= {src.lattice[0]}, weights read from the closed form; "
      f"tracked truncation error {src.truncation_error:.2e}")
print(f"p(0)  = {M.p_nu(m31, 0.0):.10f}")
print(f"tail at 10 (exact series): {src.tail(10.0):.8f}")
print(f"total mass (grid + analytic complement): "
      f"{M.density_normalization(m31):.9f}")
