#!/usr/bin/env python3
"""Walkthrough: from drift rates to the rate function alpha, for all presets.

Expected small-s orders:

    example_3_1 (lattice, p=1)   alpha ~ s^-2         (power 2/p)
    example_3_2 (p=0.6)          alpha ~ [1+log(1+1/s)]^(4/3)
    example_3_3 (p=2)            alpha ~ s^-1         (power 2/p)
    example_3_4 (p=2)            log alpha ~ 1/s      (stretched exponential)
"""

import numpy as np

from wpconv import lyapunov as L
from wpconv import rates as R
from wpconv import presets as P

print("=" * 70)
print("RATE FUNCTIONS AND ASYMPTOTIC ORDERS")
print("=" * 70)

for name, theory in [
    ("example_3_3", "power, exponent 1.0"),
    ("example_3_2", "poly_log, exponent 1.333"),
    ("example_3_4", "stretched_exp, exponent 1.0"),
]:
    p = P.validate_preset(name)  # the preset's default p
    m = P.make_model(name)
    hints = P.rate_grid_hints(name)
    n = int(200 * np.log10(hints["r_max"] / hints["r_min"])) + 1
    rg = np.geomspace(hints["r_min"], hints["r_max"], n)
    res = R.rate_tables(m, P.default_drift_config(name), r_grid=rg)
    fit = R.fit_asymptotics(res.alpha, fit_window=hints["fit_window"])
    print(f"\n{name} (p = {p}):")
    print(f"  beta range [{res.beta.values.min():.2e}, "
          f"{res.beta.values.max():.2e}] over r in "
          f"[{res.beta.grid[0]:.1e}, {res.beta.grid[-1]:.1e}]")
    print(f"  fitted: family = {fit.family}, exponent = {fit.exponent:.4f}, "
          f"r^2 = {fit.r_squared:.5f}")
    print(f"  theory: {theory}")

# the discrete lattice goes through the equivalent continuous model
print("\nexample_3_1 (p = 1), via the density-comparison transfer:")
m31 = P.make_model("example_3_1")
comp = P.comparison_model("example_3_1")
rg = np.geomspace(1.0, 1e8, 1601)
res = R.rate_tables(m31, L.DriftConfig(case="a", sigma=1.0), r_grid=rg,
                    via_comparison=comp)
fit = R.fit_asymptotics(res.alpha_final, families=("power",))
lo, hi = res.comparison["ratio_lower"], res.comparison["ratio_upper"]
print(f"  measured density-ratio bounds: [{lo:.4f}, {hi:.4f}]")
print(f"  fitted power exponent = {fit.exponent:.4f} (theory 2/p = 2), "
      f"r^2 = {fit.r_squared:.5f}")

print("\ninverse round trip on the last table: "
      f"max beta(alpha(s)/c0)/s = "
      f"{np.max(res.beta.value_at(res.alpha.values / res.c0) / res.alpha.grid):.6f}"
      " (must be <= 1)")
