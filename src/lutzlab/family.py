"""The two-parameter family of twisted forms and its volume bookkeeping.

A family point (a, b) with a = ln k^(1/n) and b = ln l is realised as the
form k^(1/n) * (h1 d(theta) + h2_u d(phi)) on the twisted tube, glued to a
fixed ambient model: a compensating tube around a second transverse knot
(where the bump multiplier 1 + nu absorbs volume changes) plus a black-box
reservoir carrying the remaining volume and the ambient action floor A.
Total volume is normalised to one at the base point (k, l) = (1, L0), so a
member's volume is exactly k and its lowest certified action is l.

Amplitudes live in the linear family of `profile.TwistedPathFamily`; the
admissible region is b < eps_bound = min(ln A, ln B) together with the
geometric floor l >= k^(1/n) * L0 (smaller targets need a thinner twist
region, i.e. a smaller epsilon0).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (DomainViolation, InfeasibleCompensation, InvalidGeometry,
                     PreconditionFailed, QuadratureFailure)
from .numerics import format_float, gauss_legendre
from . import reeb
from .profile import TWO_PI, TwistedPathFamily, ProfilePair, TwistParams


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _integrate_profile_product(pair: ProfilePair, n: int,
                               rtol: float = 1e-11) -> float:
    """int_0^eps h1^(n-2) D dr by Gauss-Legendre panels.

    Panel edges include every segment breakpoint and every mollified-table
    knot, so each panel integrand is a smooth closed form (polynomial or
    trigonometric product) and fixed-order panels are exact to rounding.
    """
    from .profile import TableSegment

    edges = set()
    for prof in (pair.h1, pair.h2):
        edges.update(float(b) for b in prof.breakpoints)
        for seg in prof.segments:
            if isinstance(seg, TableSegment):
                edges.update(float(r) for r in seg.rs)
    knots = np.array(sorted(edges))

    def scan(order):
        x, w = gauss_legendre(order)
        a = knots[:-1]
        b = knots[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        rs = mid[:, None] + half[:, None] * x[None, :]
        flat = rs.ravel()
        d = pair.wronskian(flat)
        if n > 2:
            d = pair.h1.value(flat) ** (n - 2) * d
        d = d.reshape(rs.shape)
        return float(np.sum(half * np.sum(w[None, :] * d, axis=1)))

    lo, hi = scan(12), scan(20)
    scale = max(abs(hi), 1.0)
    if abs(hi - lo) > 10 * rtol * scale:
        raise QuadratureFailure(
            f"tube volume panels disagree by {abs(hi - lo):.3g}")
    return hi


def tube_volume(pair: ProfilePair, n: int = 2) -> float:
    """4 pi^2 int_0^eps h1^(n-2) D(r) dr, with orientation bookkeeping.

    For n = 2 this is the integral of the tube's volume form over
    S^1 x D^2 (theta and phi both weighted 2 pi); for n >= 3 the geodesic
    factor of the binding is normalised to the same 2 pi, a convention
    absorbed by the family's volume normalisation.  The absolute value is
    returned; a negative determinant orientation only flips the sign.
    """
    val = 4.0 * math.pi ** 2 * _integrate_profile_product(pair, n)
    return abs(val)


def tube_volume_montecarlo(pair: ProfilePair, n_samples: int = 2_000_000,
                           seed: int = 0) -> float:
    """Monte-Carlo integral of the tube volume form (3-d), for cross-checks."""
    rng = np.random.default_rng(seed)
    rs = rng.uniform(0.0, pair.epsilon, n_samples)
    d = pair.wronskian(rs)
    return float(4.0 * math.pi ** 2 * pair.epsilon * np.mean(d))


def epsilon_bound(a_floor: float, b_floor: float) -> float:
    """min(ln A, ln B): the admissible ceiling for ln l."""
    if a_floor <= 0.0 or b_floor <= 0.0:
        raise ValueError("action floors must be positive")
    return min(math.log(a_floor), math.log(b_floor))


@dataclass(frozen=True)
class ParamDomain:
    eps: float

    def contains(self, point) -> bool:
        return point[1] < self.eps


# ---------------------------------------------------------------------------
# compensating bump
# ---------------------------------------------------------------------------

def _bump01(s: np.ndarray) -> np.ndarray:
    """C^2 bump on [0, 1] with unit peak: (4 s (1-s))^3."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    return np.where(inside, (4.0 * s * (1.0 - s)) ** 3, 0.0)


@dataclass(frozen=True)
class CompensatorSpec:
    """Volume-compensating bump in the second-knot tube.

    The multiplier is 1 + amplitude * B(theta, r) with B a product of C^2
    bumps supported in [0, theta_extent] x [0, r_extent] (phi-symmetric),
    inside a standard tube of radius `tube_radius`.
    """
    tube_radius: float = 0.14
    theta_extent: float = 0.14
    r_extent: float = 0.07
    amplitude: float = 0.0
    target_delta_volume: float = 0.0
    min_one_plus_nu: float = 1.0
    achieved_residual: float = 0.0

    def bump(self, theta, r):
        return (_bump01(np.asarray(theta) / self.theta_extent)
                * _bump01(np.asarray(r) / self.r_extent))

    def tube_volume(self) -> float:
        return 4.0 * math.pi ** 2 * self.tube_radius ** 2

    def moments(self, n: int) -> list:
        """M_j = int bump^j over the weighted box, j = 1..n."""
        x, w = gauss_legendre(96)
        st = 0.5 * (x + 1.0)
        wt = 0.5 * w
        bt = _bump01(st)
        br = _bump01(st)
        out = []
        for j in range(1, n + 1):
            mt = self.theta_extent * float(np.sum(wt * bt ** j))
            mr = self.r_extent ** 2 * float(np.sum(wt * 2.0 * st * br ** j))
            out.append(TWO_PI * mt * mr)
        return out

    def delta_volume(self, amplitude: float, n: int) -> float:
        """Volume change of the tube under the multiplier 1 + a*B, density
        scaling (1 + a*B)^n."""
        mom = self.moments(n)
        return sum(math.comb(n, j) * amplitude ** j * mom[j - 1]
                   for j in range(1, n + 1))

    def delta_volume_grid(self, amplitude: float, n: int,
                          grid: int = 400) -> float:
        """Independent 2-d midpoint re-integration of the volume change."""
        ths = (np.arange(grid) + 0.5) / grid * self.theta_extent
        rs = (np.arange(grid) + 0.5) / grid * self.r_extent
        th, rr = np.meshgrid(ths, rs, indexing="ij")
        b = self.bump(th, rr)
        dens = (1.0 + amplitude * b) ** n - 1.0
        cell = (self.theta_extent / grid) * (self.r_extent / grid)
        return float(TWO_PI * np.sum(dens * 2.0 * rr) * cell)


def compensator_solve(v0: float, tube: CompensatorSpec, floor_b: float,
                      n: int = 2) -> CompensatorSpec:
    """Amplitude making the tube volume change equal exactly -v0.

    Bisection on the closed-moment polynomial; infeasible when the needed
    amplitude drives min(1 + nu) below one half.  The result records
    min(1 + nu) and a residual from an independent re-integration.
    """
    if v0 >= tube.tube_volume():
        raise InfeasibleCompensation(
            f"cannot remove {v0:.3g} from a tube of volume "
            f"{tube.tube_volume():.3g}")
    target = -float(v0)
    if target == 0.0:
        return replace(tube, amplitude=0.0, target_delta_volume=0.0,
                       min_one_plus_nu=1.0, achieved_residual=0.0)

    lo, hi = -0.5, 0.5
    f_lo = tube.delta_volume(lo, n) - target
    while tube.delta_volume(hi, n) - target < 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise InfeasibleCompensation("compensation target unreachable")
    if f_lo > 0.0:
        raise InfeasibleCompensation(
            f"removing {v0:.3g} needs amplitude below -0.5 "
            "(min(1+nu) floor)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tube.delta_volume(mid, n) - target <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(hi)):
            break
    amp = 0.5 * (lo + hi)
    achieved = tube.delta_volume_grid(amp, n)
    resid = abs(achieved - target) / max(abs(target), 1e-30)
    if resid > 1e-6:
        raise QuadratureFailure(
            f"compensator re-integration off by {resid:.3g} relative")
    min_nu = 1.0 + min(amp, 0.0)  # bump peak is exactly one
    return replace(tube, amplitude=amp, target_delta_volume=-target,
                   min_one_plus_nu=min_nu,
                   achieved_residual=abs(tube.delta_volume(amp, n) - target))


# ---------------------------------------------------------------------------
# the family model
# ---------------------------------------------------------------------------

# Relative tolerances of a member's recomputed l-invariant and volume.
L_ROUND_TRIP = 1e-8
VOLUME_ROUND_TRIP = 1e-7


@dataclass(frozen=True)
class FamilyDefaults:
    """Fixed construction data shared by every member of one family."""
    twist: TwistParams = field(default_factory=lambda: TwistParams(
        epsilon0=0.01, delta0=1e-4, delta=0.01, mu_minus=-1.0, mu_plus=1.0,
        u=0.01))
    u_ref: float = 0.01
    tube_phys_radius: float = 0.01
    compensator: CompensatorSpec = field(default_factory=CompensatorSpec)

    @property
    def l_base(self) -> float:
        """L0: the l-invariant at the continuity amplitude, k = 1."""
        e0 = self.twist.epsilon0
        return (TWO_PI * self.twist.morse_factor * e0 ** 2
                / math.sin(TWO_PI * e0))


@dataclass
class FormSpec:
    """One member of the family, with its certification bookkeeping."""
    n: int
    k: float
    l: float
    a: float
    b: float
    u: float
    twist: TwistParams
    ambient_floor_a: float
    compensator_floor_b: float
    defaults: FamilyDefaults
    pair: ProfilePair = field(repr=False)
    family: TwistedPathFamily = field(repr=False)  # the family `pair` is from
    compensator: CompensatorSpec
    tube_volume_normalized: float
    reservoir_volume: float
    base_volume: float = 1.0
    certified: bool = False
    cert_flags: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        return self.k ** (1.0 / self.n)

    def scaled_pair(self) -> ProfilePair:
        if not hasattr(self, "_scaled_pair"):
            self._scaled_pair = self.pair.scaled(self.scale)
        return self._scaled_pair

    def l_invariant(self) -> float:
        """Recomputed lowest certified action of the scaled form."""
        return reeb.l_invariant(self.scaled_pair(), self.twist,
                                ambient_floor_a=self.scale
                                * self.ambient_floor_a)

    def total_volume(self) -> float:
        """Recomputed total volume: k times the normalised unit."""
        eps_p = self.defaults.tube_phys_radius
        v_tube = eps_p ** 2 * tube_volume(self.pair, self.n)
        v_k1 = (self.compensator.tube_volume()
                + self.compensator.delta_volume(self.compensator.amplitude,
                                                self.n))
        normalized = v_tube + v_k1 + self.reservoir_volume
        return self.k * normalized

    def to_json(self) -> str:
        d = {"n": self.n, "k": self.k, "l": self.l, "a": self.a, "b": self.b,
             "u": self.u, "ambient_floor_a": self.ambient_floor_a,
             "compensator_floor_b": self.compensator_floor_b,
             "base_volume": self.base_volume,
             "certified": self.certified, "cert_flags": self.cert_flags,
             "twist": self.twist.to_dict(),
             "compensator": {
                 "tube_radius": self.compensator.tube_radius,
                 "theta_extent": self.compensator.theta_extent,
                 "r_extent": self.compensator.r_extent,
                 "amplitude": self.compensator.amplitude,
                 "min_one_plus_nu": self.compensator.min_one_plus_nu}}
        return json.dumps(d, sort_keys=True)


class FamilyModel:
    """Shared geometry plus cached base volumes for embedding points."""

    def __init__(self, ambient_floor_a: float = 1.0,
                 compensator_floor_b: float = 1.0, n: int = 2,
                 defaults: Optional[FamilyDefaults] = None):
        self.n = int(n)
        self.ambient_floor_a = float(ambient_floor_a)
        self.compensator_floor_b = float(compensator_floor_b)
        self.defaults = defaults or FamilyDefaults()
        self.eps_bound = epsilon_bound(ambient_floor_a, compensator_floor_b)
        self.domain = ParamDomain(self.eps_bound)
        u_ref = self.defaults.u_ref
        base_pair = TwistedPathFamily(self.defaults.twist, u_ref,
                                      u_ref).pair(u_ref)
        eps_p = self.defaults.tube_phys_radius
        self.base_tube_volume = eps_p ** 2 * tube_volume(base_pair, self.n)
        v_k1 = self.defaults.compensator.tube_volume()
        self.reservoir_volume = 1.0 - self.base_tube_volume - v_k1
        if self.reservoir_volume <= 0.0:
            raise InvalidGeometry("model tubes exceed the unit total volume")

    def amplitude_for(self, k: float, l: float) -> float:
        """Invert l = k^(1/n) (1 + delta2) u for the member amplitude."""
        return (l * self.defaults.u_ref
                / (k ** (1.0 / self.n) * self.defaults.l_base))

    def embed_point(self, point, verify: bool = True) -> FormSpec:
        """Realise (a, b) = (ln k^(1/n), ln l) as a certified FormSpec."""
        a, b = float(point[0]), float(point[1])
        if not self.domain.contains((a, b)):
            raise DomainViolation(
                f"b = {b:.6g} is not below eps = {self.eps_bound:.6g}")
        k = math.exp(self.n * a)
        l = math.exp(b)
        u = self.amplitude_for(k, l)
        if u < self.defaults.u_ref * (1.0 - 1e-12):
            raise InvalidGeometry(
                f"target l = {l:.4g} at k = {k:.4g} sits below the "
                f"controllable floor k^(1/n) L0 = "
                f"{k ** (1.0 / self.n) * self.defaults.l_base:.4g}; "
                "a thinner twist region (smaller epsilon0) is required")
        family = TwistedPathFamily(self.defaults.twist, self.defaults.u_ref,
                                   max(u, self.defaults.u_ref))
        pair = family.pair(u)
        twist = replace(family.params, u=u)

        eps_p = self.defaults.tube_phys_radius
        v_tube = eps_p ** 2 * tube_volume(pair, self.n)
        v0 = v_tube - self.base_tube_volume
        comp = compensator_solve(v0, self.defaults.compensator,
                                 self.compensator_floor_b, self.n)

        spec = FormSpec(n=self.n, k=k, l=l, a=a, b=b, u=u, twist=twist,
                        ambient_floor_a=self.ambient_floor_a,
                        compensator_floor_b=self.compensator_floor_b,
                        defaults=self.defaults, pair=pair, family=family,
                        compensator=comp,
                        tube_volume_normalized=v_tube,
                        reservoir_volume=self.reservoir_volume)
        if verify:
            flags = {}
            l_re = spec.l_invariant()
            flags["l_round_trip"] = bool(abs(l_re - l) / l <= L_ROUND_TRIP)
            vol = spec.total_volume()
            flags["volume_round_trip"] = bool(
                abs(vol - k) / k <= VOLUME_ROUND_TRIP)
            cla = reeb.claction_check(spec.scaled_pair(), twist,
                                      spec.scale * self.ambient_floor_a)
            flags["claction"] = bool(cla["passed"])
            # pointwise compensator action certificate: the implied floor
            # must dominate this member's certified action level
            implied = comp.min_one_plus_nu * self.compensator_floor_b
            flags["compensator_floor_above_l"] = bool(implied > l)
            # the uniform, family-wide proxy; conservative and reported only
            flags["compensator_floor_uniform"] = bool(
                implied >= math.exp(self.eps_bound) - 1e-12)
            spec.cert_flags = flags
            spec.certified = (flags["l_round_trip"]
                              and flags["volume_round_trip"]
                              and flags["claction"]
                              and flags["compensator_floor_above_l"])
        return spec


def embed_point(point, ambient_floor_a: float = 1.0,
                compensator_floor_b: float = 1.0,
                twist_defaults: Optional[FamilyDefaults] = None,
                n: int = 2) -> FormSpec:
    """One-shot embedding; builds a fresh FamilyModel."""
    model = FamilyModel(ambient_floor_a, compensator_floor_b, n=n,
                        defaults=twist_defaults)
    return model.embed_point(point)


# ---------------------------------------------------------------------------
# scaling and systolic checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingReport:
    c: float
    n: int
    volume_ratio: float
    volume_expected: float
    l_ratio: float
    l_expected: float
    volume_ok: bool
    l_ok: bool

    @property
    def passed(self) -> bool:
        return self.volume_ok and self.l_ok


def scaling_check(spec: FormSpec, c: float, rtol: float = 1e-10
                  ) -> ScalingReport:
    """Recompute volume and l-invariant of the c-scaled form.

    Volume must scale by c^n and the l-invariant by c.
    """
    if c <= 0.0:
        raise ValueError("scale factor must be positive")
    base_vol = tube_volume(spec.pair, spec.n)
    scaled_vol = tube_volume(spec.pair.scaled(c), spec.n)
    v_ratio = scaled_vol / base_vol
    base_l = reeb.l_invariant(spec.pair, spec.twist)
    scaled_l = reeb.l_invariant(spec.pair.scaled(c), spec.twist)
    l_ratio = scaled_l / base_l
    v_exp = c ** spec.n
    return ScalingReport(
        c=c, n=spec.n, volume_ratio=v_ratio, volume_expected=v_exp,
        l_ratio=l_ratio, l_expected=c,
        volume_ok=abs(v_ratio - v_exp) / v_exp <= rtol,
        l_ok=abs(l_ratio - c) / c <= rtol)


def systolic_ratio(spec: FormSpec) -> float:
    """l^2 / k for a certified member (3-d convention)."""
    if not spec.certified:
        raise PreconditionFailed(
            "systolic ratio requires a certified FormSpec")
    return spec.l ** 2 / spec.k


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def sweep(model: FamilyModel, points) -> list:
    """Embed a list of (a, b) points; returns FormSpecs in input order."""
    return [model.embed_point(p) for p in points]


def sweep_csv(specs: list, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("a,b,k,l,volume,l_inv,sys_ratio,cert_flags\n")
        for s in specs:
            flags = ";".join(f"{k}={str(v).lower()}"
                             for k, v in sorted(s.cert_flags.items()))
            sys_r = systolic_ratio(s) if s.certified else math.nan
            fh.write(",".join([
                format_float(s.a), format_float(s.b), format_float(s.k),
                format_float(s.l), format_float(s.total_volume()),
                format_float(s.l_invariant()), format_float(sys_r),
                flags]) + "\n")
