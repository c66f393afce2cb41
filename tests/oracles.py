"""Independent oracles that only the tests call.

Each one recomputes by a second route a quantity that the package takes
in closed form or by an exact algorithm: the core-orbit index from the
integrated linearised flow, the hyperbolic action from the return time of
the integrated perturbed field, the Morse-Bott flag from a centred
difference of the slope ratio, tube volumes by Monte-Carlo, the
compensator's bump moments and volume change on a midpoint grid, the
ellipsoid-vs-ball inclusion bound from sampled conformal factors, and
barcodes on a second family of random DG-algebras.  Of these, only the ODE
oracle needs scipy.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp

from lutzlab import persistence as ps
from lutzlab import reeb
from lutzlab.errors import InvalidGeometry
from lutzlab.profile import TWO_PI


# --- reeb ------------------------------------------------------------------

def linearized_core_path(pair, k, n_steps=2048):
    """RK4 samples of the linearised return flow over the k-fold core cover.

    The transverse linearisation at the core is read off the angular rate
    of the field at a small probe radius (with Richardson extrapolation),
    assembled into the rotation generator, and integrated numerically.
    """
    period = abs(float(pair.h1.value(0.0)))

    def omega_at(rho):
        d = float(pair.wronskian(rho))
        return -float(pair.h1.deriv(rho)) / d

    r1, r2 = 1e-4, 5e-5
    w1, w2 = omega_at(r1), omega_at(r2)
    omega = (4.0 * w2 - w1) / 3.0  # h^2 Richardson
    a_mat = omega * np.array([[0.0, -1.0], [1.0, 0.0]])
    t_end = k * period
    dt = t_end / n_steps
    psi = np.eye(2)
    out = [psi.copy()]
    for _ in range(n_steps):
        k1 = a_mat @ psi
        k2 = a_mat @ (psi + 0.5 * dt * k1)
        k3 = a_mat @ (psi + 0.5 * dt * k2)
        k4 = a_mat @ (psi + dt * k3)
        psi = psi + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(psi.copy())
    return np.array(out), np.linspace(0.0, t_end, n_steps + 1)


def core_orbit_cz_oracle(pair, k):
    """Index of the k-fold core cover via the numerically integrated flow.

    Doubles the sampling density until two consecutive refinements agree.
    """
    prev = None
    n = 1024
    for _ in range(6):
        mats, ts = linearized_core_path(pair, k, n)
        idx = reeb.cz_sp2_path(mats, ts)
        if prev is not None and idx == prev:
            return idx
        prev = idx
        n *= 2
    return prev


def morse_bott_centred_difference(pair, r0, tol=1e-8, h=1e-6):
    """Morse-Bott flag of the torus at r0 from a centred difference, at
    step h, of h1'/h2' or its reciprocal, whichever denominator is safe on
    each side; a ratio that blows up counts as Morse-Bott."""
    def ratio(r):
        h1p = float(pair.h1.deriv(r))
        h2p = float(pair.h2.deriv(r))
        if abs(h2p) >= abs(h1p):
            return h1p / h2p if h2p != 0.0 else math.inf
        return h2p / h1p if h1p != 0.0 else math.inf

    lo, hi = ratio(r0 - h), ratio(r0 + h)
    if math.isinf(lo) or math.isinf(hi):
        return True
    return abs(hi - lo) / (2 * h) > tol


def perturbed_return_time(orbits, theta0=0.0, rtol=1e-11):
    """Integrate the perturbed field from a critical circle; phi-return time.

    Cross-checks the closed-form hyperbolic action when started at the
    minimum of mu (theta0 = 0).
    """
    def rhs(_t, y):
        return orbits.reeb_field(y[0], y[1], y[2])

    phi_rate = orbits.reeb_field(theta0, orbits.r_plus, 0.0)[2]
    t_guess = TWO_PI / abs(phi_rate)

    def phi_turn(t, y):
        return abs(y[2]) - TWO_PI

    phi_turn.terminal = True
    sol = solve_ivp(rhs, (0.0, 3.0 * t_guess),
                    [theta0, orbits.r_plus, 0.0], rtol=rtol, atol=1e-13,
                    events=phi_turn, dense_output=False, max_step=t_guess / 50)
    if not sol.t_events[0].size:
        raise InvalidGeometry("perturbed orbit did not close in phi")
    return float(sol.t_events[0][0])


# --- profile and family ----------------------------------------------------

def max_breakpoint_jump(profile):
    """Largest value mismatch of a `PiecewiseProfile` across its interior
    breakpoints."""
    worst = 0.0
    for i in range(1, len(profile.breakpoints) - 1):
        b = profile.breakpoints[i]
        left = profile.segments[i - 1].value(np.array([b]))[0]
        right = profile.segments[i].value(np.array([b]))[0]
        worst = max(worst, abs(left - right))
    return worst


def tube_volume_montecarlo(pair, n_samples=2_000_000, seed=0):
    """Monte-Carlo integral of the tube volume form (3-d)."""
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.0, pair.epsilon, n_samples)
    d = pair.wronskian(rs)
    return float(4.0 * math.pi ** 2 * pair.epsilon * np.mean(d))


# Cells per side of the compensator's midpoint re-integration.
MIDPOINT_GRID = 400


def _midpoint_grid(spec):
    """(bump, 2 r cell) at the midpoints of a `CompensatorSpec`'s g x g
    cell box, g = MIDPOINT_GRID, theta along rows and r along columns (the
    weight is one row)."""
    g = MIDPOINT_GRID
    ths = (np.arange(g) + 0.5) / g * spec.theta_extent
    rs = (np.arange(g) + 0.5) / g * spec.r_extent
    cell = (spec.theta_extent / g) * (spec.r_extent / g)
    return spec.bump(ths[:, None], rs[None, :]), 2.0 * rs[None, :] * cell


def grid_moments(spec, n):
    """G_j = 2 pi sum bump^j 2 r cell on the midpoint grid, j = 1..n: the
    oracle of `CompensatorSpec.moments`, whose `family._moment_sum` is the
    2-d midpoint re-integration of the volume change."""
    b, weight = _midpoint_grid(spec)
    out, bj = [], np.ones_like(b)
    for _ in range(n):
        bj = bj * b
        out.append(float(TWO_PI * np.sum(bj * weight)))
    return out


def delta_volume_grid(spec, amplitude, n):
    """2-d midpoint re-integration of a `CompensatorSpec`'s volume change
    under the multiplier 1 + amplitude * bump, density (1 + a bump)^n,
    summed cell by cell rather than through moments."""
    b, weight = _midpoint_grid(spec)
    dens = (1.0 + amplitude * b) ** n - 1.0
    return float(TWO_PI * np.sum(dens * weight))


# --- distance --------------------------------------------------------------

def ellipsoid_factor_grid(a, b, n_grid=2001):
    """The factor 1 / (2 pi (rho1/a + rho2/b)) relating the round sphere
    form to the boundary form of the ellipsoid E(a, b), sampled on a
    rho1-grid over [0, 1/2] with rho2 = 1/2 - rho1."""
    rho1 = np.linspace(0.0, 0.5, n_grid)
    return 1.0 / (TWO_PI * (rho1 / a + (0.5 - rho1) / b))


def inclusion_bound_grid(a1, a2, ball, n_grid=2001):
    """max(ln max f, -ln min f) of the sampled ratio f of the ellipsoid's
    and the ball's conformal factors: the dense-grid oracle of
    `distance.inclusion_bound`."""
    f = ellipsoid_factor_grid(a1, a2, n_grid) / ellipsoid_factor_grid(
        ball, ball, n_grid)
    return max(math.log(float(np.max(f))), -math.log(float(np.min(f))))


# --- persistence -----------------------------------------------------------

def random_chain_dga(rng, n_generators=4, action_cap=10.0, word_cap=4):
    """Random DGA with single-generator differential targets.

    Richer elimination patterns for oracle-equality coverage; truncated
    bar lengths are not bounded by the unit level here, so only barcode
    agreement may be asserted.
    """
    n = int(rng.integers(2, n_generators + 1))
    gens = []
    for i in range(n):
        gens.append(ps.Generator(
            name=f"g{i}", degree=int(rng.integers(0, 2)),
            action=float(np.round(rng.uniform(0.6, action_cap * 0.95), 3))))
    diff = {}
    closed = set(range(n))
    odd = [i for i, g in enumerate(gens) if g.degree == 1]
    if odd and rng.random() < 0.6:
        x = int(rng.choice(odd))
        diff[gens[x].name] = [(Fraction(int(rng.integers(1, 4))), [])]
        closed.discard(x)
    for i in range(n):
        if gens[i].name in diff or rng.random() < 0.4:
            continue
        # only earlier-processed generators stay closed for good
        targets = [j for j in closed
                   if j < i
                   and gens[j].action < gens[i].action - 1e-9
                   and gens[j].degree == (gens[i].degree + 1) % 2]
        if targets:
            j = int(rng.choice(targets))
            num = int(rng.integers(-3, 4)) or 1
            den = int(rng.integers(1, 4))
            diff[gens[i].name] = [(Fraction(num, den), [gens[j].name])]
            closed.discard(i)
    return ps.FilteredDGA(gens, diff, action_cap, word_cap)
