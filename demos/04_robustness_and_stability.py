#!/usr/bin/env python3
"""Walkthrough: the rate-function order is insensitive to the free parameter
sigma and to convolution with a compactly supported measure."""

import numpy as np

from wpconv import model as M
from wpconv import lyapunov as L
from wpconv import rates as R
from wpconv import presets as P

print("=" * 70)
print("ROBUSTNESS IN SIGMA AND STABILITY UNDER CONVOLUTION")
print("=" * 70)

m = P.make_model("example_3_3", p=2.0)
rg = np.geomspace(1e-2, 1e10, 2401)

runs = [(f"sigma={sig}", R.rate_tables(m, L.DriftConfig(case="cor_a", sigma=sig),
                                       r_grid=rg).alpha) for sig in (1.0, 2.0, 5.0)]
rep = R.compare_sigma(runs, s_window=(1e-6, 1e-2))
print("\nalpha ratios across sigma in {1, 2, 5} over four decades of s:")
for pair, info in rep["pairs"].items():
    print(f"  {pair}: ratio in [{info['ratio_min']:.4f}, "
          f"{info['ratio_max']:.4f}] (range factor {info['range_factor']:.3f})")
print(f"bounded within factor {rep['bound_factor']}: {rep['bounded']}")

print("\nstability: same potential with nu = delta_0 versus uniform(-1, 1)")
mu_model = M.ConvolutionModel(M.log_potential(2.0), M.point_mass(), name="base")
cfg = L.DriftConfig(case="cor_a", sigma=1.5)
res_mu = R.rate_tables(mu_model, cfg, r_grid=rg)
res_conv = R.rate_tables(m, cfg, r_grid=rg)
rep2 = R.compare_stability(mu_model, m, cfg, res_mu.alpha, res_conv.alpha)
print(f"  eta0 estimates at r = 1e2, 1e3, 1e4: "
      + ", ".join(f"{v:.4f}" for v in rep2["eta0_estimates"]))
print(f"  admissible sigma > {rep2['sigma_admissible_above']:.3f} "
      f"(using sigma = {rep2['sigma_used']})")
print(f"  alpha ratio range factor: {rep2['range_factor']:.3f} "
      f"(bounded: {rep2['bounded']})")

f_mu = R.fit_asymptotics(res_mu.alpha, fit_window=(1e-6, 1e-2))
f_cv = R.fit_asymptotics(res_conv.alpha, fit_window=(1e-6, 1e-2))
print(f"  fitted exponents: base {f_mu.exponent:.4f} vs convolved "
      f"{f_cv.exponent:.4f} (same order)")
