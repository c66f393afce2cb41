"""Reeb dynamics of the twisted tube: orbit tori, actions, and indices.

Tori {r = r0} are foliated by closed orbits when the slope ratio
h1'/(2 pi h2') is rational; the action minima sit at the zeros of h1,
and the Morse perturbation splits the first minimum torus into one
hyperbolic and one elliptic orbit.  The hyperbolic action is the lowest
certified action level of the form.
"""

import math

import numpy as np

from lutzlab import profile, reeb

params = profile.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01,
                             mu_minus=-1.0, mu_plus=1.0, u=0.05).solved()
pair = profile.build_mollified_path(params)

print("resonant tori with |p|, |q| <= 2:")
for fam in reeb.resonance_scan(pair, 2, grid=3000):
    tag = "continuum" if fam.continuum else ("MB" if fam.morse_bott else "--")
    print(f"  r0 = {fam.r0:.6f}  (p, q) = ({fam.p:+d}, {fam.q:+d})  "
          f"T = {fam.period:.6f}  [{tag}]")

r_plus, r_pp, a_plus, a_pp = reeb.action_minima(pair)
print(f"\naction minima: 2 pi |h2| = {a_plus:.6f} at r = {r_plus:.4f}, "
      f"{a_pp:.6f} at r = {r_pp:.4f}")

orbits = reeb.perturb(pair, params)
print(f"perturbed actions: hyperbolic {orbits.action_hyperbolic:.8f} "
      f"< elliptic {orbits.action_elliptic:.8f}")
print(f"hyperbolic orbit degree = {orbits.degree_hyperbolic}")

l = reeb.l_invariant(pair, params, ambient_floor_a=1.0)
print(f"certified lowest action level l = {l:.8f} "
      f"= (1 + delta2) u = {(1 + params.delta2) * params.u:.8f}")

# the index machinery on closed-form paths
ts = np.linspace(0.0, 1.0, 512)
shear = np.array([[[1.0, -t], [0.0, 1.0]] for t in ts])
loop = np.array([[[math.cos(2 * math.pi * t), -math.sin(2 * math.pi * t)],
                  [math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)]]
                 for t in ts])
print(f"\nindex of the unit shear path: {reeb.cz_sp2_path(shear, ts)}")
print(f"index of one full rotation loop: {reeb.cz_sp2_path(loop, ts)}")

# higher-dimensional open-book profile functions
ob = reeb.openbook_profiles(p0=0.5, eps_tilde=0.01)
print(f"\nopen book: g~(0) = {ob.g_tilde(0.0):.6f} (= -pi), "
      f"h(0) = {ob.h(0.0)}, h~(0) = {ob.h_tilde(0.0)}")
