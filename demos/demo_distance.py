"""Certified distance bounds between family members.

Lower bounds come from the monotone volume and lowest-action channels;
upper bounds from a two-leg path: a uniform scaling leg plus a
deformation leg bounded by the Gray-stability integral.  The worked
ellipsoid example reproduces the folding improvement over plain
inclusion.
"""

import math

import numpy as np

from lutzlab import distance, family, profile

model = family.FamilyModel(1.0, 1.0, n=2)

s1 = model.embed_point((0.0, math.log(0.04)))
s2 = model.embed_point((math.log(2.0), math.log(0.06)))
cert = distance.bound_certificate(s1, s2)
print(f"(k=1, l=0.04) vs (k=4, l=0.06):")
print(f"  lower = {cert.lower:.6f} (= ln 2, via {cert.lower_method})")
print(f"  upper = {cert.upper:.6f} (= ln 2 + ln(4/3), via "
      f"{cert.upper_method})")

# the deformation leg alone: moving l at fixed volume costs |ln(l2/l1)|
base = profile.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
fam_path = profile.TwistedPathFamily(base, 0.04, 0.06)
res = distance.gray_integral(fam_path, 0.04, 0.06)
print(f"\ndeformation integral u: 0.04 -> 0.06 = {res.value:.12f}")
print(f"ln(0.06/0.04)                        = {math.log(1.5):.12f}")
print(f"sup always at r = 1/4: {set(round(r, 6) for _, r in res.sup_locations)}")

# ellipsoid-vs-ball: inclusion gives ln 6, folding improves it
inclusion, folding = distance.folding_bounds(1.0, 3.0, 0.5, 0.4)
print(f"\nellipsoid E(1,3) vs ball B(1/2):")
print(f"  inclusion bound = {inclusion:.6f} (= ln 6)")
print(f"  folding bound   = {folding:.6f} (= ln(6 - 0.4))")

# the sandwich: d_inf <= lower <= upper <= 2 d_inf over a grid
a_vals = np.linspace(0.0, 0.18, 3)
b_vals = math.log(0.06) - 0.37 * np.arange(3)[::-1]
pts = [(float(a), float(b)) for a in a_vals for b in b_vals]
report = distance.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
print(f"\nsandwich over {len(report.rows)} pairs: all pass = "
      f"{report.all_passed}, worst slack = {report.worst_slack:.2e}")
report.to_csv("sandwich_demo.csv")
print("wrote sandwich_demo.csv")
