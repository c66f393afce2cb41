"""Certified lower and upper bounds for the contact Banach-Mazur distance.

The distance itself is an infimum over embeddings and is not computable;
everything here is a certified one-sided bound.  Lower bounds come from
the volume and lowest-action monotonicity laws; upper bounds from
conformal factors, the two-leg scaling-plus-deformation path (whose
deformation leg is controlled by the Gray-stability integral), and the
explicit ellipsoid folding example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainViolation, PreconditionFailed, SingularLocus
from .numerics import adaptive_simpson, format_float
from .family import FamilyModel, FormSpec
from .profile import TWO_PI, TwistedPathFamily, check_contact_condition


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


def _channels(s1: FormSpec, s2: FormSpec) -> tuple:
    """(volume channel |ln(V1/V2)|/n, action channel |ln(l1/l2)|)."""
    return abs(math.log(s1.k / s2.k)) / s1.n, abs(math.log(s1.l / s2.l))


def lower_bound(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """max of the volume channel |ln(V1/V2)|/n and the action channel
    |ln(l1/l2)|; both quantities only grow under admissible interleavings,
    so each gives a genuine lower bound."""
    _require_certified(s1, s2)
    if s1.n != s2.n:
        raise PreconditionFailed("members live in different dimensions")
    vol_channel, l_channel = _channels(s1, s2)
    lower = max(vol_channel, l_channel)
    method = "volume" if vol_channel >= l_channel else "l_invariant"
    if vol_channel == l_channel:
        method = "max"
    wit = {"volume_channel": vol_channel, "l_channel": l_channel,
           "volume_recomputed": (s1.total_volume(), s2.total_volume()),
           "l_recomputed": (s1.l_invariant(), s2.l_invariant())}
    return BoundCertificate(lower=lower, upper=math.inf,
                            lower_method=method, upper_method="none",
                            witnesses=wit)


# ---------------------------------------------------------------------------
# conformal factors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConformalSample:
    """Positive samples of a conformal factor over a labelled grid."""
    values: np.ndarray
    grid: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float))
        object.__setattr__(self, "grid", np.asarray(self.grid, dtype=float))
        if self.values.size == 0:
            raise ValueError("conformal sample must be nonempty")
        if np.any(self.values <= 0.0):
            raise ValueError("conformal factors must be positive")

    def ratio(self, other: "ConformalSample") -> "ConformalSample":
        if self.values.shape != other.values.shape or \
                not np.allclose(self.grid, other.grid, atol=0.0):
            raise ValueError("ratio needs samples over the same grid")
        return ConformalSample(self.values / other.values, self.grid,
                               label=f"({self.label})/({other.label})")


def ub_conformal(f: ConformalSample) -> float:
    """max(ln max f, -ln min f): the interleaving constant of the graphs."""
    return max(math.log(float(np.max(f.values))),
               -math.log(float(np.min(f.values))))


def d_cf(f: ConformalSample) -> float:
    """max |ln f|, the conformal-factor distance along the identity map.

    No optimisation over the contactomorphism group is attempted, so this
    is an upper bound for the group infimum.
    """
    logs = np.log(f.values)
    return float(np.max(np.abs(logs)))


def ellipsoid_conformal_factor(a: float, b: float,
                               n_grid: int = 2001) -> ConformalSample:
    """Factor relating the round sphere form to the ellipsoid-boundary form.

    In moment coordinates (rho1, rho2) with rho1 + rho2 = 1/2 on the unit
    sphere, the pullback multiplies the base form by
    1 / (2 pi (rho1/a + rho2/b)); sampled over a rho1-grid on [0, 1/2].
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("ellipsoid areas must be positive")
    rho1 = np.linspace(0.0, 0.5, n_grid)
    rho2 = 0.5 - rho1
    f = 1.0 / (TWO_PI * (rho1 / a + rho2 / b))
    return ConformalSample(f, rho1, label=f"E({a},{b})")


def folding_bounds(a1: float, a2: float, ball: float,
                   delta: float) -> tuple:
    """(inclusion_bound, folding_bound) for the ellipsoid-vs-ball pair.

    The inclusion bound is the conformal-factor bound of the ratio sample.
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
    f_e = ellipsoid_conformal_factor(a1, a2)
    f_b = ellipsoid_conformal_factor(ball, ball)
    inclusion = ub_conformal(f_e.ratio(f_b))
    scale = max(a2 / ball - delta, (a2 - delta) / ball)
    return inclusion, math.log(scale)


# ---------------------------------------------------------------------------
# the Gray-stability integral
# ---------------------------------------------------------------------------

# Radius grid of the Gray sup scan, and amplitudes checked along a leg.
_R_GRID = 2048
_U_GRID = 9


@dataclass
class GrayPathSpec:
    """Deformation leg through the amplitude family, h1 held fixed."""
    family: TwistedPathFamily
    u_start: float
    u_end: float


@dataclass(frozen=True)
class GrayResult:
    value: float
    sup_locations: tuple  # sampled (u, argmax r) pairs
    u_start: float
    u_end: float


class _GrayIntegrand:
    """sup_r |d(h2_u)/du * (-h1'/D_u)| with the affine-in-u structure.

    Two family members pin the affine data B = dh2/du and D_u = DA + u DB;
    grid evaluation is then a single vector expression per u, refined by
    golden search around the grid argmax.
    """

    def __init__(self, spec: GrayPathSpec):
        fam = spec.family
        u1 = max(spec.u_start, fam.u_ref)
        u2 = max(spec.u_end, fam.u_ref)
        if u2 == u1:
            u2 = u1 * (1.0 + 1e-6) + 1e-12
        self.pair1 = fam.pair(u1)
        self.pair2 = fam.pair(u2)
        self.u1, self.u2 = u1, u2
        eps = self.pair1.epsilon
        self.rs = np.linspace(1e-9, eps * (1.0 - 1e-12), _R_GRID)
        self._h1p = self.pair1.h1.deriv(self.rs)
        h2a = self.pair1.h2.value(self.rs)
        h2b = self.pair2.h2.value(self.rs)
        self._B = (h2b - h2a) / (u2 - u1)
        d1 = self.pair1.wronskian(self.rs)
        d2 = self.pair2.wronskian(self.rs)
        self._DB = (d2 - d1) / (u2 - u1)
        self._DA = d1 - u1 * self._DB

    def _values(self, rs: np.ndarray, u: float) -> np.ndarray:
        """|B h1' / D_u| on a bracket of radii.

        Each profile is evaluated through its own segment when the bracket
        lies inside that segment's span, else piecewise.
        """
        mid = float(rs[len(rs) // 2])

        def local(prof):
            seg, lo, hi = prof.segment_span(mid)
            return seg if lo <= rs[0] and rs[-1] <= hi else prof
        h1 = local(self.pair1.h1)
        h2a, h2b = local(self.pair1.h2), local(self.pair2.h2)
        h1v, h1p = h1.value(rs), h1.deriv(rs)
        h2av, h2bv = h2a.value(rs), h2b.value(rs)
        d1 = h1v * h2a.deriv(rs) - h1p * h2av
        d2 = h1v * h2b.deriv(rs) - h1p * h2bv
        b = (h2bv - h2av) / (self.u2 - self.u1)
        db = (d2 - d1) / (self.u2 - self.u1)
        den = (d1 - self.u1 * db) + u * db
        return np.abs(b * h1p / den)

    def sup(self, u: float) -> tuple:
        den = self._DA + u * self._DB
        if float(np.min(np.abs(den))) < 1e-12 or \
                float(np.min(den)) * float(np.max(den)) < 0.0:
            raise SingularLocus(
                f"never-parallel determinant vanishes along the leg at "
                f"u = {u}")
        vals = np.abs(self._B * self._h1p / den)
        i = int(np.argmax(vals))
        lo = self.rs[max(i - 1, 0)]
        hi = self.rs[min(i + 1, len(self.rs) - 1)]
        best_r, best_v = float(self.rs[i]), float(vals[i])
        # four rounds of 33-point bracket shrinking: width drops 16x each
        for _ in range(4):
            rs = np.linspace(lo, hi, 33)
            vv = self._values(rs, u)
            j = int(np.argmax(vv))
            if vv[j] > best_v:
                best_r, best_v = float(rs[j]), float(vv[j])
            lo = rs[max(j - 1, 0)]
            hi = rs[min(j + 1, 32)]
        return best_r, best_v


def gray_integral(spec: GrayPathSpec, tol: float = 1e-12) -> GrayResult:
    """Integral over u of the sup of the deformation rate of the angle.

    Checks the contact condition and per-radius monotonicity in u on the
    coarse u-grid first, then runs adaptive quadrature of the inner sup.
    """
    u_lo, u_hi = sorted((spec.u_start, spec.u_end))
    if u_hi == u_lo:
        return GrayResult(0.0, ((u_lo, math.nan),), spec.u_start, spec.u_end)
    integrand = _GrayIntegrand(spec)

    us = np.linspace(u_lo, u_hi, _U_GRID)
    for u in us:
        report = check_contact_condition(spec.family.pair(float(u)),
                                         grid_size=2000)
        if not report.passed:
            raise SingularLocus(
                f"contact condition fails at u = {u}: {report}")
    # per-radius monotonicity of u -> h2_u (affine, so ordering suffices)
    probe = np.linspace(0.01, integrand.pair1.epsilon * 0.99, 257)
    h_lo = spec.family.pair(u_lo).h2.value(probe)
    h_mid = spec.family.pair(0.5 * (u_lo + u_hi)).h2.value(probe)
    h_hi = spec.family.pair(u_hi).h2.value(probe)
    between = ((h_mid - h_lo) * (h_hi - h_mid)) >= -1e-13
    if not bool(np.all(between)):
        raise SingularLocus("family is not monotone in u at some radius")

    locations = []

    def f(u):
        r_star, v = integrand.sup(u)
        locations.append((u, r_star))
        return v

    value = adaptive_simpson(f, u_lo, u_hi, tol=tol)
    return GrayResult(value=value, sup_locations=tuple(locations),
                      u_start=spec.u_start, u_end=spec.u_end)


# ---------------------------------------------------------------------------
# two-leg upper bound and the sandwich sweep
# ---------------------------------------------------------------------------

def _gray_leg(s1: FormSpec, s2: FormSpec) -> GrayResult:
    """Gray integral from s1's amplitude to s2's, in the upper member's
    family (the family whose depth covers both amplitudes)."""
    upper = s1 if s1.u >= s2.u else s2
    return gray_integral(GrayPathSpec(upper.family, s1.u, s2.u))


def triangle_ub(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """Scaling leg plus deformation leg through (k2, (k2/k1)^(1/n) l1).

    The scaling leg costs |ln k2^(1/n) - ln k1^(1/n)| exactly; the
    deformation leg is bounded by the Gray integral between the two
    amplitudes, which share the intermediate point's value.
    """
    _require_certified(s1, s2)
    if s1.n != s2.n:
        raise PreconditionFailed("members live in different dimensions")
    n = s1.n
    a_leg = abs(math.log(s2.k) - math.log(s1.k)) / n
    l_mid = (s2.k / s1.k) ** (1.0 / n) * s1.l
    eps_bound = min(math.log(s1.ambient_floor_a),
                    math.log(s1.compensator_floor_b))
    if math.log(l_mid) >= eps_bound:
        raise DomainViolation(
            f"intermediate point l = {l_mid:.6g} leaves the admissible "
            "half-plane")
    u_mid, u2 = s1.u, s2.u  # scaling preserves the member amplitude
    if abs(u_mid - u2) < 1e-15:
        gray_val = 0.0
        locations = ()
    else:
        res = _gray_leg(s1, s2)
        gray_val = res.value
        locations = res.sup_locations
    upper = a_leg + gray_val
    wit = {"scaling_leg": a_leg, "gray_leg": gray_val,
           "intermediate_l": l_mid,
           "sup_radii": [r for _, r in locations[:5]]}
    return BoundCertificate(lower=0.0, upper=upper, lower_method="none",
                            upper_method="gray_path", witnesses=wit)


def bound_certificate(s1: FormSpec, s2: FormSpec) -> BoundCertificate:
    """Combined two-sided certificate for a pair of members."""
    if s1 is s2 or (s1.k == s2.k and s1.l == s2.l and s1.n == s2.n):
        return BoundCertificate(0.0, 0.0, "max", "gray_path",
                                {"identical": True})
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
                fh.write(",".join([
                    format_float(r.a1), format_float(r.b1),
                    format_float(r.a2), format_float(r.b2),
                    format_float(r.dinf), format_float(r.lower),
                    format_float(r.upper), format_float(r.slack),
                    str(r.passed).lower()]) + "\n")


def bilipschitz_sweep(points, ambient_floor_a: float = 1.0,
                      compensator_floor_b: float = 1.0,
                      n: int = 2,
                      model: Optional[FamilyModel] = None) -> SweepReport:
    """Sandwich check over every unordered pair of grid points.

    Asserts d_inf <= lower <= upper <= 2 d_inf (the two interior links get
    a 1e-9 numerical slack, the outer one 1e-6) and reports the worst
    slack across the grid.  Rows come in pair order; each Gray leg is
    integrated once per amplitude pair.
    """
    if model is None:
        model = FamilyModel(ambient_floor_a, compensator_floor_b, n=n)
    specs = [model.embed_point(p) for p in points]
    _require_certified(*specs)
    legs = {}
    rows = []
    for i, s1 in enumerate(specs):
        for s2 in specs[i + 1:]:
            lo, hi = sorted((s1, s2), key=lambda s: s.u)
            key = (lo.u, hi.u)
            if key not in legs:
                legs[key] = (0.0 if hi.u - lo.u < 1e-15
                             else _gray_leg(lo, hi).value)
            dinf = max(abs(s1.a - s2.a), abs(s1.b - s2.b))
            low = max(_channels(s1, s2))
            up = abs(s1.a - s2.a) + legs[key]
            ok = (dinf <= low + 1e-12 and low <= up + 1e-9
                  and up <= 2.0 * dinf + 1e-6)
            slack = max(dinf - low, low - up, up - 2.0 * dinf)
            rows.append(SweepRow(a1=s1.a, b1=s1.b, a2=s2.a, b2=s2.b,
                                 dinf=dinf, lower=low, upper=up,
                                 slack=slack, passed=ok))
    worst = max((r.slack for r in rows), default=-math.inf)
    return SweepReport(rows=tuple(rows), worst_slack=worst,
                       all_passed=all(r.passed for r in rows))
