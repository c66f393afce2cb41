"""Certified lower and upper bounds for the contact Banach-Mazur distance.

The distance itself is an infimum over embeddings and is not computable;
everything here is a certified one-sided bound.  Lower bounds come from
the volume and lowest-action monotonicity laws; upper bounds from the
two-leg scaling-plus-deformation path (whose deformation leg is
controlled by the Gray-stability integral) and from the ellipsoid-vs-ball
example, whose conformal-factor (inclusion) and folding bounds are closed
forms in the areas.

The distance is symmetric, and so is every bound of a pair of members:
`_legs` takes the volume channel, the action channel and the Gray leg
each as the log of the larger over the smaller of the members' values,
and `lower_bound`, `triangle_ub` and `bilipschitz_sweep` all read their
numbers from it, so a sweep row is bitwise the pair's certificate in
either order.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainViolation, PreconditionFailed, SingularLocus
from .numerics import adaptive_simpson, grid_sup
from .family import FamilyModel, FormSpec, contact_sign, epsilon_bound
from .profile import TwistedPathFamily, evaluate


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCertificate:
    lower: float
    upper: float
    lower_method: str = "none"
    upper_method: str = "none"
    witnesses: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lower < 0.0 or self.upper < 0.0:
            raise ValueError("bounds must be non-negative")
        if self.upper < self.lower - 1e-9:
            raise ValueError(
                f"certificate inconsistent: lower {self.lower} above "
                f"upper {self.upper}")

    def combined_with(self, other: "BoundCertificate") -> "BoundCertificate":
        lower, lm = ((self.lower, self.lower_method)
                     if self.lower >= other.lower
                     else (other.lower, other.lower_method))
        upper, um = ((self.upper, self.upper_method)
                     if self.upper <= other.upper
                     else (other.upper, other.upper_method))
        wit = dict(self.witnesses)
        wit.update(other.witnesses)
        return BoundCertificate(lower, upper, lm, um, wit)

    def to_json(self) -> str:
        return json.dumps({
            "lower": self.lower, "upper": self.upper,
            "lower_method": self.lower_method,
            "upper_method": self.upper_method,
            "witnesses": _jsonable(self.witnesses)}, sort_keys=True)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _require_certified(*specs: FormSpec):
    for s in specs:
        if not s.certified:
            raise PreconditionFailed(
                "bound certificates require certified family members")


def _legs(s1: FormSpec, s2: FormSpec) -> tuple:
    """(volume channel |ln(k1/k2)|/n, action channel |ln(l1/l2)|, Gray
    leg |ln(u1/u2)|) of a pair, each as ln(larger/smaller) so that it is
    the same float in either argument order."""
    vol, act, gray = (math.log(max(x, y) / min(x, y))
                      for x, y in ((s1.k, s2.k), (s1.l, s2.l), (s1.u, s2.u)))
    return vol / s1.n, act, gray


def lower_bound(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """max of the volume channel |ln(V1/V2)|/n and the action channel
    |ln(l1/l2)| from `_legs`; both quantities only grow under admissible
    interleavings, so each gives a genuine lower bound."""
    _require_certified(s1, s2)
    if s1.n != s2.n:
        raise PreconditionFailed("members live in different dimensions")
    vol_channel, l_channel, _ = _legs(s1, s2)
    lower = max(vol_channel, l_channel)
    method = "volume" if vol_channel >= l_channel else "l_invariant"
    if vol_channel == l_channel:
        method = "max"
    wit = {"volume_channel": vol_channel, "l_channel": l_channel,
           "volume_recomputed": (s1.total_volume(), s2.total_volume()),
           "l_recomputed": (s1.l_recomputed, s2.l_recomputed)}
    return BoundCertificate(lower=lower, upper=math.inf,
                            lower_method=method, upper_method="none",
                            witnesses=wit)


# ---------------------------------------------------------------------------
# the ellipsoid-vs-ball example
# ---------------------------------------------------------------------------

def inclusion_bound(a1: float, a2: float, ball: float) -> float:
    """max(ln max f, -ln min f) for the ratio f of the conformal factors of
    the ellipsoid E(a1, a2) and the ball of area `ball`, in closed form.

    In moment coordinates (rho1, rho2) with rho1 + rho2 = 1/2 on the unit
    sphere, the pullback multiplies the base form by
    1 / (2 pi (rho1/a + rho2/b)), so f = 1 / (2 ball (rho1/a1 +
    (1/2 - rho1)/a2)).  Its denominator is affine in rho1, so f is
    monotone on [0, 1/2] and takes its extremes a2/ball and a1/ball at the
    ends.
    """
    if min(a1, a2, ball) <= 0.0:
        raise ValueError("ellipsoid areas must be positive")
    return max(math.log(max(a1, a2) / ball), -math.log(min(a1, a2) / ball))


def folding_bounds(a1: float, a2: float, ball: float,
                   delta: float) -> tuple:
    """(inclusion_bound, folding_bound) for the ellipsoid-vs-ball pair.

    The inclusion bound is `inclusion_bound`, the conformal-factor bound.
    The folding bound is ln(a2/ball - delta): the folded ellipsoid fits in
    the (a2/ball - delta)-scaled ball for every delta below a2/2 - a1.
    When that scale would undercut the plain capacity quotient
    (a2 - delta)/ball (possible only for ball > 1) the larger, still valid
    scale is returned.
    """
    if not a2 > 2.0 * a1:
        raise PreconditionFailed("folding requires a2 > 2 a1")
    if not (0.0 < delta < a2 / 2.0 - a1):
        raise PreconditionFailed(
            f"delta must lie in (0, {a2 / 2.0 - a1}); got {delta}")
    inclusion = inclusion_bound(a1, a2, ball)
    scale = max(a2 / ball - delta, (a2 - delta) / ball)
    return inclusion, math.log(scale)


# ---------------------------------------------------------------------------
# the Gray-stability integral
# ---------------------------------------------------------------------------

# The leg quadrature's tolerance.
_GRAY_TOL = 1e-12


@dataclass(frozen=True)
class GrayResult:
    value: float
    sup_locations: tuple  # sampled (u, argmax r) pairs
    u_start: float
    u_end: float


class _GrayIntegrand:
    """sup_r |d(h2_u)/du * (-h1'/D_u)| with the affine-in-u structure.

    The two members at the leg's ends, which must differ, pin the affine
    data B = dh2/du and D_u = DA + u DB; the sup at each u is one vector
    expression on `profile.contact_radii(pair1, family.CONTACT_GRID)`,
    refined by `numerics.grid_sup`.

    Building it checks the leg's premise on those same radii:
    `family.contact_sign` at both end members, which also hands back their
    D, h2 and the shared h1', and per-radius monotonicity in u at the
    midpoint.
    """

    def __init__(self, family: TwistedPathFamily, u1: float, u2: float):
        self.pair1 = family.pair(u1)
        self.pair2 = family.pair(u2)
        self.u1, self.u2 = u1, u2
        ends = (self.pair1, self.pair2)
        _, self.rs, (d1, d2), self._h1p, (h2a, h2b), _ = contact_sign(
            ends, f"the ends u = {u1}, {u2} of the leg")
        # per-radius monotonicity of u -> h2_u (affine, so ordering suffices)
        h_mid = family.pair(0.5 * (u1 + u2)).h2.value(self.rs)
        if not bool(np.all(((h_mid - h2a) * (h2b - h_mid)) >= -1e-13)):
            raise SingularLocus("family is not monotone in u at some radius")
        self._B = (h2b - h2a) / (u2 - u1)
        self._DB = (d2 - d1) / (u2 - u1)
        self._DA = d1 - u1 * self._DB

    def _values(self, rs: np.ndarray, u: float) -> np.ndarray:
        """|B h1' / D_u| on a bracket of radii, from one stacked evaluation
        (`profile.evaluate`) of h1, h1' and each end's h2 and h2'."""
        h1v, h1p, h2av, h2ap, h2bv, h2bp = evaluate(
            [(self.pair1.h1, 0), (self.pair1.h1, 1), (self.pair1.h2, 0),
             (self.pair1.h2, 1), (self.pair2.h2, 0), (self.pair2.h2, 1)], rs)
        d1 = h1v * h2ap - h1p * h2av
        d2 = h1v * h2bp - h1p * h2bv
        b = (h2bv - h2av) / (self.u2 - self.u1)
        db = (d2 - d1) / (self.u2 - self.u1)
        den = (d1 - self.u1 * db) + u * db
        return np.abs(b * h1p / den)

    def den(self, u: float) -> np.ndarray:
        """D_u on `rs`, which must keep one sign away from zero."""
        den = self._DA + u * self._DB
        if float(np.min(np.abs(den))) < 1e-12 or \
                float(np.min(den)) * float(np.max(den)) < 0.0:
            raise SingularLocus(
                f"never-parallel determinant vanishes along the leg at "
                f"u = {u}")
        return den

    def sup(self, u: float) -> tuple:
        return grid_sup(lambda rs: self._values(rs, u), self.rs,
                        np.abs(self._B * self._h1p / self.den(u)))


def gray_integral(family: TwistedPathFamily, u_start: float,
                  u_end: float) -> GrayResult:
    """Integral over u in [u_start, u_end] of the sup of the deformation
    rate of the angle along `family`, h1 held fixed.

    Once `_GrayIntegrand` has checked the leg's premise, adaptive Simpson
    integrates the inner sup to absolute tolerance 1e-12.  `_legs` takes
    every Gray leg between members in closed form, as |ln(u1/u2)|, behind
    the model's `FamilyCertificate`; this is its oracle.
    """
    u_lo, u_hi = sorted((u_start, u_end))
    if u_hi == u_lo:
        return GrayResult(0.0, ((u_lo, math.nan),), u_start, u_end)
    integrand = _GrayIntegrand(family, u_start, u_end)
    locations = []

    def f(u):
        r_star, v = integrand.sup(u)
        locations.append((u, r_star))
        return v

    value = adaptive_simpson(f, u_lo, u_hi, tol=_GRAY_TOL)
    return GrayResult(value=value, sup_locations=tuple(locations),
                      u_start=u_start, u_end=u_end)


# ---------------------------------------------------------------------------
# two-leg upper bound and the sandwich sweep
# ---------------------------------------------------------------------------

def triangle_ub(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """Scaling leg plus deformation leg through (k_s, (k_s/k_b)^(1/n) l_b),
    scaling the member b of larger (k, l) down to the other's k_s.

    The scaling leg costs the volume channel |ln(k1/k2)|/n exactly; the
    deformation leg runs between the two amplitudes, which the
    intermediate point shares with b, and is worth the Gray leg
    |ln(u1/u2)| by the members' family certificate, whose margin must be
    nonnegative.  Both legs come from `_legs`, so the bound and its
    witnesses are the same in either argument order.  As l_mid <= l_b,
    the point is admissible.
    """
    _require_certified(s1, s2)
    if s1.n != s2.n:
        raise PreconditionFailed("members live in different dimensions")
    if s1.certificate is not s2.certificate:
        raise PreconditionFailed(
            "a deformation leg needs members of one amplitude family")
    a_leg, _, gray_val = _legs(s1, s2)
    small, big = sorted((s1, s2), key=lambda s: (s.k, s.l))
    l_mid = (small.k / big.k) ** (1.0 / s1.n) * big.l
    if math.log(l_mid) >= epsilon_bound(s1.ambient_floor_a,
                                        s1.compensator_floor_b):
        raise DomainViolation(
            f"intermediate point l = {l_mid:.6g} leaves the admissible "
            "half-plane")
    margin = s1.certificate.gray_margin()
    wit = {"scaling_leg": a_leg, "gray_leg": gray_val,
           "intermediate_l": l_mid, "margin": margin}
    return BoundCertificate(lower=0.0, upper=a_leg + gray_val,
                            lower_method="none", upper_method="gray_path",
                            witnesses=wit)


def bound_certificate(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """Combined two-sided certificate for a pair of members; identical
    members get (0, 0) through the same checks as any other pair."""
    return lower_bound(s1, s2).combined_with(triangle_ub(s1, s2))


@dataclass(frozen=True)
class SweepRow:
    a1: float
    b1: float
    a2: float
    b2: float
    dinf: float
    lower: float
    upper: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class SweepReport:
    rows: tuple
    worst_slack: float
    all_passed: bool

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("a1,b1,a2,b2,dinf,lower,upper,slack,pass\n")
            for r in self.rows:
                *values, passed = astuple(r)
                fh.write(",".join([f"{v:.17g}" for v in values]
                                  + [str(passed).lower()]) + "\n")


def bilipschitz_sweep(points, ambient_floor_a: float = 1.0,
                      compensator_floor_b: float = 1.0,
                      n: int = 2,
                      model: Optional[FamilyModel] = None) -> SweepReport:
    """Sandwich check over every unordered pair of grid points.

    Asserts d_inf <= lower <= upper <= 2 d_inf with numerical slacks of
    1e-12, 1e-9 and 1e-6 on the three links, and reports the worst slack
    across the grid.  Rows come in pair order.  Every member lives in the
    model's one amplitude family, whose certificate covers [u_ref, U_CAP]
    once per model, so each pair's Gray leg is |ln(u1/u2)| as long as its
    margin is nonnegative.  A row's lower and upper are read from `_legs`
    as `lower_bound` and `triangle_ub` read them, so they equal the pair's
    `bound_certificate` bitwise in either order; the witnesses those
    certificates carry are not built.  Fewer than two points give no pair
    to certify and raise PreconditionFailed.
    """
    points = list(points)
    if len(points) < 2:
        raise PreconditionFailed(
            f"the sandwich needs at least two points, got {len(points)}")
    if model is None:
        model = FamilyModel(ambient_floor_a, compensator_floor_b, n=n)
    elif (model.ambient_floor_a, model.compensator_floor_b, model.n) != (
            float(ambient_floor_a), float(compensator_floor_b), int(n)):
        raise PreconditionFailed(
            f"model has floors ({model.ambient_floor_a}, "
            f"{model.compensator_floor_b}) and n = {model.n}; the sweep "
            f"was asked for ({ambient_floor_a}, {compensator_floor_b}) and "
            f"n = {n}")
    model.certificate.gray_margin()
    specs = [model.embed_point(p) for p in points]
    _require_certified(*specs)
    rows = []
    for i, s1 in enumerate(specs):
        for s2 in specs[i + 1:]:
            dinf = max(abs(s1.a - s2.a), abs(s1.b - s2.b))
            vol, act, gray = _legs(s1, s2)
            low, up = max(vol, act), vol + gray
            ok = (dinf <= low + 1e-12 and low <= up + 1e-9
                  and up <= 2.0 * dinf + 1e-6)
            slack = max(dinf - low, low - up, up - 2.0 * dinf)
            rows.append(SweepRow(a1=s1.a, b1=s1.b, a2=s2.a, b2=s2.b,
                                 dinf=dinf, lower=low, upper=up,
                                 slack=slack, passed=ok))
    worst = max((r.slack for r in rows), default=-math.inf)
    return SweepReport(rows=tuple(rows), worst_slack=worst,
                       all_passed=all(r.passed for r in rows))
