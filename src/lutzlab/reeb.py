"""Reeb dynamics of tube-model contact forms.

Conventions: theta has period one, phi has period 2*pi.  The Reeb field of
h1 d(theta) + h2 d(phi) is (h2'/D) d/d(theta) - (h1'/D) d/d(phi) with
D = h1 h2' - h1' h2, so a torus {r = r0} is foliated by closed orbits
whenever h1'/(2 pi h2') is rational p/q, with minimal period

    T = q D(r0)/h2'(r0) = 2 pi p D(r0)/h1'(r0),

sign(p) = sign(h1'), sign(q) = sign(h2').  Action equals period.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (InvalidGeometry, LutzLabError, NotSymplectic,
                     PreconditionFailed, SingularLocus)
from .numerics import brentq
from .profile import TWO_PI, ProfilePair, TwistParams

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# basic field and orbit bookkeeping
# ---------------------------------------------------------------------------

def reeb_field(pair: ProfilePair, r: float) -> tuple:
    """(theta_rate, phi_rate) = (h2'/D, -h1'/D) at radius r."""
    d = float(pair.wronskian(r))
    if abs(d) < 1e-12:
        raise SingularLocus(f"never-parallel determinant vanishes at r={r}")
    return float(pair.h2.deriv(r)) / d, -float(pair.h1.deriv(r)) / d


@dataclass(frozen=True)
class TorusOrbitFamily:
    r0: float
    p: int
    q: int
    period: float
    action: float
    morse_bott: bool
    continuum: bool = False
    period_crosscheck: Optional[float] = None  # relative gap of both formulas

    def csv_row(self) -> str:
        return (f"{self.r0:.17g},{self.p},{self.q},{self.period:.17g},"
                f"{self.action:.17g},{str(self.morse_bott).lower()}")


def _family_at(r0: float, p: int, q: int, d: float, h1p: float, h2p: float,
               morse_bott: bool, continuum: bool) -> TorusOrbitFamily:
    """The (p, q) family at r0, from D, h1' and h2' there."""
    t_q = q * d / h2p if (q != 0 and abs(h2p) > 1e-14) else None
    t_p = TWO_PI * p * d / h1p if (p != 0 and abs(h1p) > 1e-14) else None
    if t_q is None and t_p is None:
        raise InvalidGeometry(f"both period formulas degenerate at r={r0}")
    period = t_q if t_q is not None else t_p
    gap = None
    if t_q is not None and t_p is not None:
        gap = abs(t_q - t_p) / max(abs(t_q), abs(t_p))
    return TorusOrbitFamily(r0=r0, p=p, q=q, period=float(period),
                            action=float(period), morse_bott=morse_bott,
                            continuum=continuum, period_crosscheck=gap)


def morse_bott_check(pair: ProfilePair, r0: float, tol: float = 1e-8) -> bool:
    """Torus at r0 is Morse-Bott iff the slope ratio has nonzero derivative.

    The ratio is h1'/h2' where |h2'| >= |h1'| at r0, else its reciprocal,
    and its derivative is exact: (h1'' h2' - h1' h2'')/h2'^2 or the same
    with h1 and h2 swapped, from the segments' own derivatives.
    """
    return _ratio_moves(*(float(f(r0)) for f in (
        pair.h1.deriv, pair.h2.deriv, pair.h1.deriv2, pair.h2.deriv2)), tol)


def _ratio_moves(h1p, h2p, h1pp, h2pp, tol: float = 1e-8) -> bool:
    num, den, dnum, dden = ((h1p, h2p, h1pp, h2pp) if abs(h2p) >= abs(h1p)
                            else (h2p, h1p, h2pp, h1pp))
    if den == 0.0:
        return True  # both slopes vanish; the foliation degenerates
    return abs((dnum * den - num * dden) / den ** 2) > tol


def resonance_scan(pair: ProfilePair, pq_max: int,
                   grid: int = 4000) -> list:
    """All rational-slope tori with |p|, |q| <= pq_max.

    h1' and h2' are sampled once on the grid, shared by every (p, q).
    Roots of q h1' = 2 pi p h2' are bracketed by sign changes on the grid
    and polished by Brent to 1e-15; loci where the defining function
    vanishes over a span of the grid are reported once as a continuum
    family, each new torus from one evaluation of h1, h2 and their first
    two derivatives there.
    """
    if pq_max < 1:
        raise ValueError("pq_max must be at least 1")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    eps = pair.epsilon
    out = []

    def register(r0, p_unsigned, q_unsigned, continuum):
        h1p = float(pair.h1.deriv(r0))
        h2p = float(pair.h2.deriv(r0))
        if abs(h1p) < 1e-12 and abs(h2p) < 1e-12:
            return
        p = int(math.copysign(p_unsigned, h1p)) if p_unsigned else 0
        q = int(math.copysign(q_unsigned, h2p)) if q_unsigned else 0
        if any(f.continuum == continuum and abs(f.r0 - r0) < 1e-9
               and (f.p, f.q) == (p, q) for f in out):
            return
        d = float(pair.h1.value(r0)) * h2p - h1p * float(pair.h2.value(r0))
        morse_bott = not continuum and _ratio_moves(
            h1p, h2p, float(pair.h1.deriv2(r0)), float(pair.h2.deriv2(r0)))
        out.append(_family_at(r0, p, q, d, h1p, h2p, morse_bott, continuum))

    pairs = [(0, 1), (1, 0)]
    for q_un in range(1, pq_max + 1):
        for p_un in range(1, pq_max + 1):
            if math.gcd(p_un, q_un) == 1:
                pairs.append((p_un, q_un))

    lo_r, hi_r = 1e-6 * eps, eps * (1.0 - 1e-12)
    rs = np.linspace(lo_r, hi_r, grid)
    h1p = pair.h1.deriv(rs)
    h2p = pair.h2.deriv(rs)
    for p_un, q_un in pairs:
        for sp in ((1,) if p_un == 0 else (1, -1)):
            p_signed = sp * p_un

            def g(r):
                return (q_un * float(pair.h1.deriv(r))
                        - TWO_PI * p_signed * float(pair.h2.deriv(r)))

            gs = q_un * h1p - TWO_PI * p_signed * h2p
            # continuum: the defining function vanishes on a whole span
            flat = np.abs(gs) < 1e-13
            for a, b in _flat_spans(rs, flat):
                register(0.5 * (a + b), p_un, q_un, True)
            # zeroed flat samples bracket nothing; the polish is tight
            # because the period cross-check is first order in the root
            # residual
            for r0 in _polished_roots(g, rs, np.where(flat, 0.0, gs),
                                      1e-15):
                register(r0, p_un, q_un, False)
    out.sort(key=lambda f: (f.r0, f.p, f.q))
    return out


def _polished_roots(f: Callable[[float], float], xs: np.ndarray,
                    fs: np.ndarray, xtol: float) -> list:
    """Brent-polished roots of the scalar f, one per grid cell of xs whose
    samples fs change sign strictly."""
    cells = np.flatnonzero(fs[:-1] * fs[1:] < 0.0)
    return [brentq(f, xs[i], xs[i + 1], xtol=xtol) for i in cells]


def _flat_spans(rs, flat):
    spans = []
    start = None
    for i, fl in enumerate(flat):
        if fl and start is None:
            start = i
        elif not fl and start is not None:
            if i - start >= 3:
                spans.append((rs[start], rs[i - 1]))
            start = None
    if start is not None and len(flat) - start >= 3:
        spans.append((rs[start], rs[-1]))
    return spans


def orbit_scan_csv(families: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("r0,p,q,period,action,morse_bott\n")
        for fam in families:
            fh.write(fam.csv_row() + "\n")


# ---------------------------------------------------------------------------
# action minima
# ---------------------------------------------------------------------------

def action_minima(pair: ProfilePair) -> tuple:
    """(r_plus, r_plus_prime, action_plus, action_plus_prime).

    The action minima of the rotating-torus families sit at the zeros of
    h1, where the horizontal orbits have action 2 pi |h2|.  h1 must change
    sign exactly twice, and r+ < r+' are its two sign changes as
    `PiecewiseProfile.sign_changes` lists them: breakpoints, closed-form
    zeros of the arcs, or polynomial roots, so no pair of zeros hides
    between samples and no grid or root polish is involved.
    """
    if pair.winding_number() != 1:
        raise InvalidGeometry("action minima require a full-twist path")
    found = pair.h1.sign_changes()
    if len(found) != 2:
        raise InvalidGeometry(
            f"expected exactly two zeros of h1, found {len(found)}")
    r_plus, r_plus_prime = (float(r) for r in found)
    h2p, h2pp = _intercepts(pair, r_plus, r_plus_prime)
    return r_plus, r_plus_prime, TWO_PI * abs(h2p), TWO_PI * abs(h2pp)


def _intercepts(pair: ProfilePair, r_plus: float,
                r_plus_prime: float) -> tuple:
    """h2 at the two zeros of h1; the second action 2 pi |h2| must
    dominate the first."""
    h2p, h2pp = (float(v) for v in pair.h2.value([r_plus, r_plus_prime]))
    a_plus, a_prime = TWO_PI * abs(h2p), TWO_PI * abs(h2pp)
    if not a_plus < a_prime:
        raise InvalidGeometry(
            "second y-intercept must dominate: "
            f"2pi|h2(r+)| = {a_plus:.6g} >= {a_prime:.6g}")
    return h2p, h2pp


# ---------------------------------------------------------------------------
# Conley-Zehnder machinery
# ---------------------------------------------------------------------------

class Degenerate:
    """Marker for a degenerate cover; carries distance to the nearest integer."""

    def __init__(self, nearness: float):
        self.nearness = float(nearness)

    def __repr__(self):
        return f"Degenerate(nearness={self.nearness:.3g})"

    def __eq__(self, other):
        return isinstance(other, Degenerate)

    def __hash__(self):
        return hash("Degenerate")


def core_orbit_cz(pair: ProfilePair, k: int, tol: float = 1e-10):
    """Index of the k-fold cover of the core orbit in the coordinate frame.

    Returns 2*floor(-k h1''(0) / (2 pi h2''(0))) + 1, or Degenerate when
    the floor argument sits on an integer to within `tol`.
    """
    h1pp = float(pair.h1.deriv2(0.0))
    h2pp = float(pair.h2.deriv2(0.0))
    if h2pp == 0.0:
        raise InvalidGeometry("h2''(0) must not vanish")
    arg = -k * h1pp / (TWO_PI * h2pp)
    near = abs(arg - round(arg))
    if near <= tol:
        return Degenerate(near)
    return 2 * math.floor(arg) + 1


@dataclass(frozen=True)
class CoreOrbitInfo:
    period: float
    cz_by_cover: dict

    @staticmethod
    def compute(pair: ProfilePair, k_max: int) -> "CoreOrbitInfo":
        if k_max < 1:
            raise LutzLabError(f"k_max must be at least 1, got {k_max}")
        period = abs(float(pair.h1.value(0.0)))
        table = {k: core_orbit_cz(pair, k) for k in range(1, k_max + 1)}
        return CoreOrbitInfo(period=period, cz_by_cover=table)

    def to_json(self) -> str:
        rows = []
        for k, v in sorted(self.cz_by_cover.items()):
            if isinstance(v, Degenerate):
                rows.append({"cover": k, "degenerate": True,
                             "nearness": v.nearness})
            else:
                rows.append({"cover": k, "index": v})
        return json.dumps({"period": self.period, "covers": rows},
                          sort_keys=True)


def cz_sp2_path(samples, times=None, det_tol: float = 1e-9):
    """Robbin-Salamon index of a sampled path in Sp(2) starting at identity.

    Crossings of the eigenvalue-one stratum (trace = 2) contribute the
    signature of the symmetric generator S = -J dPsi/dt Psi^{-1} restricted
    to the kernel of Psi - I; endpoint crossings count half.  Transversal
    crossings are bracketed by sign changes of trace - 2; tangential ones
    (pure rotations) are caught by a second-difference test on the local
    minima of |trace - 2|.
    """
    mats = np.asarray(samples, dtype=float)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise ValueError("need a sequence of 2x2 matrices")
    n = mats.shape[0]
    if n < 3:
        raise ValueError("need at least three samples")
    if times is None:
        times = np.linspace(0.0, 1.0, n)
    dets = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
    drift = np.max(np.abs(dets - 1.0))
    if drift > det_tol:
        raise NotSymplectic(f"determinant drifts by {drift:.3g}")
    if np.max(np.abs(mats[0] - np.eye(2))) > 1e-9:
        raise ValueError("path must start at the identity")

    def gen(i):
        """Symmetrised S(t_i) = -J Psi' Psi^{-1} from one-sided/centred diffs."""
        if i == 0:
            dpsi = (mats[1] - mats[0]) / (times[1] - times[0])
        elif i == n - 1:
            dpsi = (mats[-1] - mats[-2]) / (times[-1] - times[-2])
        else:
            dpsi = (mats[i + 1] - mats[i - 1]) / (times[i + 1] - times[i - 1])
        s = -_J @ dpsi @ np.linalg.inv(mats[i])
        return 0.5 * (s + s.T)

    def signature(s):
        w = np.linalg.eigvalsh(s)
        thr = max(1e-9, 1e-6 * float(np.max(np.abs(w), initial=0.0)))
        return int(np.sum(w > thr)) - int(np.sum(w < -thr))

    step_mat = float(np.max(np.abs(mats[1:] - mats[:-1])))
    id_tol = max(3.0 * step_mat, 1e-9)

    def kernel_contribution(i, weight):
        m = mats[i]
        s = gen(i)
        if np.max(np.abs(m - np.eye(2))) < id_tol:
            return weight * signature(s)
        # one-dimensional kernel of m - I
        a, b = m[0, 0] - 1.0, m[0, 1]
        c, d = m[1, 0], m[1, 1] - 1.0
        v = np.array([b, -a]) if abs(a) + abs(b) >= abs(c) + abs(d) \
            else np.array([d, -c])
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return weight * signature(s)
        v = v / nv
        gamma = float(v @ s @ v)
        if abs(gamma) <= 1e-6 * max(1.0, float(np.linalg.norm(s))):
            return 0.0  # non-regular crossing (shear stratum): no count
        return weight * (1.0 if gamma > 0 else -1.0)

    g = np.trace(mats, axis1=1, axis2=2) - 2.0
    absg = np.abs(g)

    crossings = [0]  # the path starts at the identity
    # transversal crossings: sign changes of trace - 2
    i = 1
    while i < n - 1:
        if g[i] == 0.0 or g[i] * g[i + 1] < 0.0:
            crossings.append(i if absg[i] <= absg[i + 1] else i + 1)
            i += 2
            continue
        i += 1
    # tangential crossings: local minima of |g| consistent with a true zero
    for i in range(2, n - 2):
        if absg[i] <= absg[i - 1] and absg[i] <= absg[i + 1]:
            sec = abs(g[i + 1] - 2.0 * g[i] + g[i - 1])
            if sec > 0.0 and absg[i] <= max(sec / 4.0, 1e-12):
                crossings.append(i)
    if absg[-1] <= max((3.0 * step_mat) ** 2, 1e-10):
        crossings.append(n - 1)

    # cluster neighbouring indices into single crossing events
    events = []
    for idx in sorted(set(crossings)):
        if events and idx - events[-1][-1] <= 2:
            events[-1].append(idx)
        else:
            events.append([idx])

    total = 0.0
    for ev in events:
        has_start = ev[0] == 0
        has_end = ev[-1] == n - 1
        if has_start:
            total += kernel_contribution(0, 0.5)
        if has_end:
            total += kernel_contribution(n - 1, 0.5)
        if not has_start and not has_end:
            idx = min(ev, key=lambda j: absg[j])
            total += kernel_contribution(idx, 1.0)
    return _half_int(total)


def _half_int(x: float) -> float:
    v = round(2.0 * x) / 2.0
    return v + 0.0  # normalise -0.0


# ---------------------------------------------------------------------------
# Morse-Bott perturbation
# ---------------------------------------------------------------------------

def _bump_c2(s: np.ndarray) -> np.ndarray:
    """(1 - s^2)^3 on |s| <= 1, zero outside; C^2 at the support edge."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    val = np.where(inside, (1.0 - s ** 2) ** 3, 0.0)
    return val


def _bump_c2_deriv(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    return np.where(inside, -6.0 * s * (1.0 - s ** 2) ** 2, 0.0)


@dataclass(frozen=True)
class PerturbedOrbits:
    """The two isolated orbits left on the action-minimum torus."""
    action_hyperbolic: float
    action_elliptic: float
    r_plus: float
    degree_hyperbolic: int
    cz_hyperbolic: float          # from the shear path, before Morse data
    cz_elliptic_reported: int     # reported, not certified
    reeb_field: Callable = field(compare=False, repr=False, default=None)


def perturb(pair: ProfilePair, params: TwistParams) -> PerturbedOrbits:
    """Split the minimum-action torus into hyperbolic and elliptic orbits.

    The form is multiplied by 1 + delta*b(r)*mu(theta) with b a C^2 bump of
    support width eps0/2 centred at r_plus (b(r+)=1, b'(r+)=0) and mu a
    two-critical-point Morse function with values (mu_minus, mu_plus).
    Returns the actions, the degree bookkeeping of the hyperbolic orbit,
    and the perturbed Reeb field evaluator.
    The torus's return map is the shear [[1, -c t], [0, 1]], of index sign(c)/2
    (Robbin & Salamon, Topology 32, 1993); c = 0 or non-finite is refused.
    """
    params.validate()
    r_plus, _, a_plus, _ = action_minima(pair)
    delta = params.delta
    mu_mid = 0.5 * (params.mu_plus + params.mu_minus)
    mu_amp = 0.5 * (params.mu_plus - params.mu_minus)
    half_support = params.epsilon0 / 4.0

    def mu(theta):
        return mu_mid - mu_amp * np.cos(theta)   # min at theta=0, max at pi

    def mu_p(theta):
        return mu_amp * np.sin(theta)

    def b(r):
        return _bump_c2((np.asarray(r) - r_plus) / half_support)

    def b_p(r):
        return _bump_c2_deriv((np.asarray(r) - r_plus) / half_support) \
            / half_support

    def field_eval(theta, r, phi):
        h1 = float(pair.h1.value(r))
        h2 = float(pair.h2.value(r))
        h1p = float(pair.h1.deriv(r))
        h2p = float(pair.h2.deriv(r))
        d = h1 * h2p - h1p * h2
        mb = float(b(r))
        mbp = float(b_p(r))
        m = float(mu(theta))
        mp = float(mu_p(theta))
        denom = d * (1.0 + delta * mb * m) ** 2
        if abs(denom) < 1e-14:
            raise SingularLocus(f"perturbed determinant vanishes at r={r}")
        theta_dot = (h2p + delta * m * (mbp * h2 + mb * h2p)) / denom
        r_dot = -delta * mp * mb * h2 / denom
        phi_dot = -(h1p + delta * m * (mbp * h1 + mb * h1p)) / denom
        return theta_dot, r_dot, phi_dot

    a_h = a_plus * (1.0 + delta * params.mu_minus)
    a_e = a_plus * (1.0 + delta * params.mu_plus)

    h1p, h2p, h1pp, h2pp = (float(f(r_plus)) for f in (
        pair.h1.deriv, pair.h2.deriv, pair.h1.deriv2, pair.h2.deriv2))
    d2 = float(pair.wronskian(r_plus)) ** 2
    shear_rate = (h1p * h2pp - h1pp * h2p) / d2 if d2 else math.nan
    if shear_rate == 0.0 or not math.isfinite(shear_rate):
        raise InvalidGeometry(f"degenerate shear rate {shear_rate} at r+")
    mu_shear = math.copysign(0.5, shear_rate)
    # grading: index of the family member, shifted by Morse data, then the
    # degree formula with the disk trivialisation contributing 2
    cz_h = mu_shear - 0.5  # dim of the orbit circle / 2, Morse index 0
    cz_e = cz_h + 1.0
    degree_h = int(round(cz_h + (2 - 3) + 2))
    return PerturbedOrbits(action_hyperbolic=a_h, action_elliptic=a_e,
                           r_plus=r_plus, degree_hyperbolic=degree_h,
                           cz_hyperbolic=float(cz_h),
                           cz_elliptic_reported=int(round(cz_e)),
                           reeb_field=field_eval)


# ---------------------------------------------------------------------------
# l-invariant
# ---------------------------------------------------------------------------

def claction_check(pair: ProfilePair, params: TwistParams,
                   ambient_floor_a: float) -> dict:
    """The two inequalities certifying the minimum-action orbit.

    (i) 2 pi h2(r+) < A, and (ii) |h2(r+)(1 + delta mu_-)| < |h2(r+')|.
    """
    r_plus, r_pp, _, _ = action_minima(pair)
    return claction_at(pair, params, ambient_floor_a, r_plus, r_pp)


def claction_at(pair: ProfilePair, params: TwistParams,
                ambient_floor_a: float, r_plus: float,
                r_pp: float) -> dict:
    """`claction_check` at zeros r+ < r+' of h1 that are already certified:
    by `action_minima`, or once for every member of a family sharing h1.
    """
    h2p, h2pp_val = _intercepts(pair, r_plus, r_pp)
    a_plus = TWO_PI * abs(h2p)
    below_ambient = a_plus < ambient_floor_a
    below_second = (abs(h2p * (1.0 + params.delta * params.mu_minus))
                    < abs(h2pp_val))
    return {"below_ambient_floor": below_ambient,
            "below_second_intercept": below_second,
            "passed": below_ambient and below_second,
            "action_plus": a_plus}


def l_invariant(pair: ProfilePair, params: TwistParams,
                ambient_floor_a: float = math.inf) -> float:
    """Lowest action of a unit primitive: 2 pi h2(r+) (1 + delta mu_-).

    Requires the certification inequalities; raises PreconditionFailed
    otherwise.
    """
    check = claction_check(pair, params, ambient_floor_a)
    if not check["passed"]:
        raise PreconditionFailed(f"action certification failed: {check}")
    return check["action_plus"] * (1.0 + params.delta * params.mu_minus)


# ---------------------------------------------------------------------------
# higher-dimensional open-book profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpenBookProfiles:
    p0: float
    eps_tilde: float
    g_tilde: Callable = field(compare=False, repr=False, default=None)
    g: Callable = field(compare=False, repr=False, default=None)
    g_prime: Callable = field(compare=False, repr=False, default=None)
    h: Callable = field(compare=False, repr=False, default=None)
    h_tilde: Callable = field(compare=False, repr=False, default=None)


def openbook_profiles(p0: float, eps_tilde: float) -> OpenBookProfiles:
    """Monodromy profile functions for the negatively twisted open book.

    g_tilde rises from -pi at 0 to 0 at p0 and vanishes beyond;
    g = g_tilde + eps_tilde |p|; h = 1 + int_0^{|p|} s g'(s) ds;
    h_tilde = 1 - int_0^{|p|} g(s) ds, both in closed form as polynomials
    in |p| and s = min(|p|/p0, 1).
    """
    if not (0.0 < p0 < math.inf and 0.0 < eps_tilde < math.inf):
        raise ValueError(f"p0 = {p0!r} and eps_tilde = {eps_tilde!r} must "
                         "be finite and positive")

    def g_tilde(p):
        s = np.clip(np.abs(p) / p0, 0.0, 1.0)
        return -math.pi * (1.0 - s ** 2) ** 2

    def g_tilde_prime(p):
        s = np.abs(p) / p0
        return np.where(s < 1.0, 4.0 * math.pi * s * (1.0 - s ** 2) / p0, 0.0)

    def g(p):
        return g_tilde(p) + eps_tilde * np.abs(p)

    def g_prime(p):
        return g_tilde_prime(p) + eps_tilde

    def h(p):
        pa = abs(float(p))
        s = min(pa / p0, 1.0)
        return (1.0 + eps_tilde * pa ** 2 / 2.0
                + 4.0 * math.pi * p0 * (s ** 3 / 3.0 - s ** 5 / 5.0))

    def h_tilde(p):
        pa = abs(float(p))
        s = min(pa / p0, 1.0)
        return (1.0 - eps_tilde * pa ** 2 / 2.0
                + math.pi * p0 * (s - 2.0 * s ** 3 / 3.0 + s ** 5 / 5.0))

    return OpenBookProfiles(p0=p0, eps_tilde=eps_tilde, g_tilde=g_tilde,
                            g=g, g_prime=g_prime, h=h, h_tilde=h_tilde)
