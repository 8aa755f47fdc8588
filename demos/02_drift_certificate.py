#!/usr/bin/env python3
"""Walkthrough: drift rates, the integral correction p_sigma, and numeric
certificates of L W / W <= -phi + b 1_ball for both Lyapunov constructions."""

import numpy as np

from wpconv import lyapunov as L
from wpconv import presets as P

print("=" * 70)
print("LYAPUNOV DRIFT CERTIFICATES")
print("=" * 70)

m = P.make_model("example_3_3", p=2.0)   # (1+p) log(1+|x|) well, uniform source

# automatic R0: smallest radius past which the drift quantity stays positive
cfg = L.resolve_r0(m, L.DriftConfig(case="cor_a", sigma=1.0))
print(f"\nauto-selected R0 = {cfg.R0:.4f} (windowed construction, R = 1)")

ss = np.geomspace(cfg.R0, 1e3, 7)
psi = L.eta_window_psi(m, ss)
print("\nwindowed drift rate psi(r) ~ (d+p)/r at large r:")
for s, v in zip(ss, psi):
    print(f"  r = {s:9.2f}:  psi = {v:.6f}   r*psi = {s * v:.4f}")

ps = L.p_sigma(lambda s: L.eta_window_psi(m, s), ss, cfg, m.d)
print("\nintegral correction p_sigma (grows ~ linearly here):")
for s, v in zip(ss, ps):
    print(f"  r = {s:9.2f}:  p_sigma = {v:10.4f}   p_sigma/r = {v / s:.4f}")

phi = L.phi_profile(m, cfg, s_max=1e4)
msk = phi.grid >= 1e2
slope = np.polyfit(np.log(phi.grid[msk]), np.log(phi.values[msk]), 1)[0]
print(f"\nphi = psi/((1+sigma) p_sigma): log-log slope {slope:.4f} "
      "(the inverse-square regime)")

print("\ncertificates on 200 radii in [R0, 10 R0]:")
for case, kw in (("a", {"sigma": 1.0}), ("b", {"delta": 0.75})):
    c = L.resolve_r0(m, L.DriftConfig(case=case, **kw))
    cert = L.drift_check(m, c, np.geomspace(c.R0, 10 * c.R0, 200))
    s = cert.summary()
    print(f"  case {case}: R0 = {s['R0']:.3f}  violations = "
          f"{s['violation_fraction']:g}  max excess = {s['max_violation']:.2e}")
    print(f"          b = {s['b']:.4f}  lambda_inv <= {s['lambda_inv_bound']:.4f}"
          f"  c0 = {s['c0']:.4f}  valid = {s['valid']}")

rep = L.check_conditions(m, cfg)
print(f"\ncondition report: psi > 0: {rep.psi_positive}, "
      f"exponential-case integrand > 0: {rep.case_b_positive}, "
      f"sigma-robustness bracket inf = {rep.robustness_inf:.4f}")
