"""Radial profile pairs (h1, h2) for tube-model contact forms.

A tube form on S^1 x D^2 is h1(r) d(theta) + h2(r) d(phi) with both
profiles functions of the radius alone.  The radial coordinate here is
normalised so that the trigonometric arcs of the twisted path have period
one (zeros of h1 at r = 1/4 and r = 3/4); any physical tube radius enters
only as a scale factor in volume bookkeeping, never in the profiles.

The twisted path built by `build_twisted_path` is:

    h1:  1                     on [0, eps0]
         (1+d1) cos(2 pi r)    on (eps0, 3/4]
         cubic rise to 1       on (3/4, 7/8]
         1                     on (7/8, 1]

    h2:  r^2                                      on [0, eps0]
         (1+d2) u sin(2 pi r) / (2 pi (1+dm))     on (eps0, 1/2]
         cubic dip to the second y-intercept      on (1/2, 3/4]
         cubic rise back to r^2                   on (3/4, 15/16]
         r^2                                      on (15/16, 1]

with dm = delta * mu_minus.  The corrections d1, d2 are solved so the raw
path is continuous at eps0; the kink there is removed by `mollify`, which
blends each profile with its truncated-Gaussian convolution on a small
window around eps0.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import InvalidGeometry, QuadratureFailure
from .numerics import format_float, gl_panel_nodes, grid_argmax_refined

TWO_PI = 2.0 * math.pi

# Junction radii of the twisted path, in the normalised coordinate.
R_PLUS = 0.25            # first zero of h1; the action minimum lives here
R_PLUS_PRIME = 0.75      # second zero of h1
R_H1_FLAT = 0.875        # h1 is identically 1 beyond this radius
R_RETURN = 0.9375        # h2 is exactly r^2 beyond this radius


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------

class PolySegment:
    """Polynomial in (r - a) with closed-form derivatives."""

    kind = "poly"

    def __init__(self, a: float, coeffs):
        self.a = float(a)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def value(self, r):
        x = np.asarray(r, dtype=float) - self.a
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def deriv(self, r):
        x = np.asarray(r, dtype=float) - self.a
        c = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(x, c)

    def deriv2(self, r):
        x = np.asarray(r, dtype=float) - self.a
        c = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(x, c)

    def scaled(self, c: float) -> "PolySegment":
        return PolySegment(self.a, self.coeffs * c)


class TrigSegment:
    """amp * cos(2 pi r) or amp * sin(2 pi r), period fixed at one."""

    kind = "trig"

    def __init__(self, func: str, amp: float):
        if func not in ("cos", "sin"):
            raise ValueError(f"unknown trig segment '{func}'")
        self.func = func
        self.amp = float(amp)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        f = np.cos if self.func == "cos" else np.sin
        return self.amp * f(TWO_PI * r)

    def deriv(self, r):
        r = np.asarray(r, dtype=float)
        if self.func == "cos":
            return -self.amp * TWO_PI * np.sin(TWO_PI * r)
        return self.amp * TWO_PI * np.cos(TWO_PI * r)

    def deriv2(self, r):
        return -(TWO_PI ** 2) * self.value(r)

    def scaled(self, c: float) -> "TrigSegment":
        return TrigSegment(self.func, self.amp * c)


class TableSegment:
    """Dense mollified samples with cubic interpolation.

    Derivatives come from the interpolant (numerically differentiated
    samples), unlike the closed forms carried by the other segment kinds.
    """

    kind = "table"

    def __init__(self, rs, vals):
        self.rs = np.asarray(rs, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self._spline = CubicSpline(self.rs, self.vals)
        self._d1 = self._spline.derivative(1)
        self._d2 = self._spline.derivative(2)
        self.deriv_samples = self._d1(self.rs)

    def value(self, r):
        return self._spline(np.asarray(r, dtype=float))

    def deriv(self, r):
        return self._d1(np.asarray(r, dtype=float))

    def deriv2(self, r):
        return self._d2(np.asarray(r, dtype=float))

    def scaled(self, c: float) -> "TableSegment":
        return TableSegment(self.rs, self.vals * c)


def hermite_segment(a: float, b: float, fa: float, fb: float,
                    dfa: float, dfb: float) -> PolySegment:
    """Cubic matching values and first derivatives at both interval ends."""
    h = b - a
    c0 = fa
    c1 = dfa
    c2 = (3.0 * (fb - fa) / h - 2.0 * dfa - dfb) / h
    c3 = (2.0 * (fa - fb) / h + dfa + dfb) / (h * h)
    return PolySegment(a, (c0, c1, c2, c3))


# ---------------------------------------------------------------------------
# piecewise profile
# ---------------------------------------------------------------------------

class PiecewiseProfile:
    """One radial profile on [0, eps] as a list of analytic segments."""

    def __init__(self, breakpoints, segments):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.segments = list(segments)
        if len(self.segments) != len(self.breakpoints) - 1:
            raise ValueError("need one segment per breakpoint interval")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def eps(self) -> float:
        return float(self.breakpoints[-1])

    def _segment_index(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints[1:-1], r, side="left")
        return np.clip(idx, 0, len(self.segments) - 1)

    def _eval(self, r, method: str):
        r = np.asarray(r, dtype=float)
        scalar = (r.ndim == 0)
        rf = np.atleast_1d(r)
        out = np.empty_like(rf)
        idx = self._segment_index(rf)
        for i, seg in enumerate(self.segments):
            mask = idx == i
            if np.any(mask):
                out[mask] = getattr(seg, method)(rf[mask])
        return float(out[0]) if scalar else out

    def value(self, r):
        return self._eval(r, "value")

    def deriv(self, r):
        return self._eval(r, "deriv")

    def deriv2(self, r):
        return self._eval(r, "deriv2")

    def segment_span(self, r: float) -> tuple:
        """(segment, lo, hi) of the piece containing r; direct evaluation on
        the returned segment is valid only inside [lo, hi]."""
        idx = int(np.clip(np.searchsorted(self.breakpoints[1:-1], r,
                                          side="left"),
                          0, len(self.segments) - 1))
        return (self.segments[idx], float(self.breakpoints[idx]),
                float(self.breakpoints[idx + 1]))

    def scaled(self, c: float) -> "PiecewiseProfile":
        return PiecewiseProfile(self.breakpoints,
                                [s.scaled(c) for s in self.segments])

    def max_breakpoint_jump(self) -> float:
        """Largest value mismatch across interior breakpoints."""
        worst = 0.0
        for i in range(1, len(self.breakpoints) - 1):
            b = self.breakpoints[i]
            left = self.segments[i - 1].value(np.array([b]))[0]
            right = self.segments[i].value(np.array([b]))[0]
            worst = max(worst, abs(left - right))
        return worst


@dataclass(frozen=True)
class ExtensionSpec:
    """Shape of the path on the far half of the tube.

    `h2_depth` is the magnitude of h2 at the second zero of h1; it must
    exceed |h2(r=1/4)| and stay fixed across an amplitude family.  None
    means twice |h2(1/4)| for the amplitude at hand.
    """
    h2_depth: Optional[float] = None

    def to_dict(self) -> dict:
        return {"h2_depth": self.h2_depth}

    @staticmethod
    def from_dict(d: dict) -> "ExtensionSpec":
        return ExtensionSpec(h2_depth=d.get("h2_depth"))


@dataclass(frozen=True)
class TwistParams:
    """Scalar parameters of the twisted tube construction."""
    epsilon: float = 1.0
    epsilon0: float = 0.05
    delta0: float = 0.0005
    delta: float = 0.01
    mu_minus: float = -1.0
    mu_plus: float = 1.0
    u: float = 0.05
    delta1: Optional[float] = None
    delta2: Optional[float] = None
    extension: ExtensionSpec = field(default_factory=ExtensionSpec)

    def validate(self) -> None:
        if not (0.0 < self.delta0 < self.epsilon0 < self.epsilon):
            raise InvalidGeometry("need 0 < delta0 < epsilon0 < epsilon")
        if not (0.0 <= self.delta < 1.0):
            raise InvalidGeometry("perturbation size delta must lie in [0, 1)")
        if self.mu_minus >= self.mu_plus:
            raise InvalidGeometry("mu_minus must be below mu_plus")
        if 1.0 + self.delta * self.mu_minus <= 0.0:
            raise InvalidGeometry("1 + delta*mu_minus must stay positive")
        if self.u <= 0.0:
            raise InvalidGeometry("twist amplitude u must be positive")

    @property
    def morse_factor(self) -> float:
        """1 + delta*mu(theta_-), the action multiplier of the low orbit."""
        return 1.0 + self.delta * self.mu_minus

    def solved(self) -> "TwistParams":
        """Return a copy with delta1, delta2 solved for path continuity."""
        d1, d2 = solve_continuity_params(self.epsilon0, self.u, self.delta,
                                         self.mu_minus)
        return replace(self, delta1=d1, delta2=d2)

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon, "epsilon0": self.epsilon0,
            "delta0": self.delta0, "delta": self.delta,
            "mu_minus": self.mu_minus, "mu_plus": self.mu_plus,
            "u": self.u, "delta1": self.delta1, "delta2": self.delta2,
            "extension": self.extension.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TwistParams":
        ext = ExtensionSpec.from_dict(d.get("extension", {}))
        return TwistParams(
            epsilon=d.get("epsilon", 1.0), epsilon0=d["epsilon0"],
            delta0=d["delta0"], delta=d.get("delta", 0.0),
            mu_minus=d.get("mu_minus", -1.0), mu_plus=d.get("mu_plus", 1.0),
            u=d["u"], delta1=d.get("delta1"), delta2=d.get("delta2"),
            extension=ext)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "TwistParams":
        return TwistParams.from_dict(json.loads(s))


@dataclass(frozen=True)
class SmoothingWindow:
    """Truncated-Gaussian mollification window around `center`.

    The main kernel has sigma = half_width / 5 and support exactly
    [-half_width, half_width]; the blend weight is 1 on the inner half of
    the window and 0 at its endpoints, so the smoothed profile agrees with
    the raw one there.
    """
    center: float
    half_width: float
    n_table: int = 4096

    @property
    def sigma(self) -> float:
        return self.half_width / 5.0

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    def kernel(self, y: np.ndarray) -> np.ndarray:
        """Unit-mass truncated Gaussian on [-half_width, half_width]."""
        s = self.sigma
        mass = s * math.sqrt(2.0 * math.pi) * math.erf(
            self.half_width / (s * math.sqrt(2.0)))
        out = np.exp(-0.5 * (y / s) ** 2) / mass
        return np.where(np.abs(y) <= self.half_width, out, 0.0)

    def blend_weight(self, r: np.ndarray) -> np.ndarray:
        """Smooth weight: 1 on |x|<=1/2, 0 at |x|>=7/8 (x in window units)."""
        x = np.abs((np.asarray(r, dtype=float) - self.center) / self.half_width)
        s = np.clip((7.0 / 8.0 - x) / (3.0 / 8.0), 0.0, 1.0)
        return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


class ProfilePair:
    """The pair (h1, h2) defining h1 d(theta) + h2 d(phi) on the tube."""

    def __init__(self, h1: PiecewiseProfile, h2: PiecewiseProfile,
                 epsilon: float):
        self.h1 = h1
        self.h2 = h2
        self.epsilon = float(epsilon)

    def wronskian(self, r):
        """D(r) = h1 h2' - h1' h2, the never-parallel determinant."""
        return (self.h1.value(r) * self.h2.deriv(r)
                - self.h1.deriv(r) * self.h2.value(r))

    def scaled(self, c: float) -> "ProfilePair":
        if c <= 0.0:
            raise InvalidGeometry("form scale must be positive")
        return ProfilePair(self.h1.scaled(c), self.h2.scaled(c), self.epsilon)

    def winding_number(self) -> int:
        """Turns of r -> (h1, h2) around the origin over [0, eps].

        Unwraps the path angle on a grid refined until two consecutive
        densities agree; the angle step per grid cell must stay well below
        pi even through the fast rotation at the small-radius passages.
        """
        def turns(n):
            rs = np.linspace(0.0, self.epsilon, n)
            h1 = self.h1.value(rs)
            h2 = self.h2.value(rs)
            rho2 = h1 * h1 + h2 * h2
            if np.min(rho2) < 1e-30:
                raise InvalidGeometry("path passes through the origin")
            psi = np.unwrap(np.arctan2(h2, h1))
            dmax = float(np.max(np.abs(np.diff(psi))))
            total = psi[-1] - psi[0]
            principal = (math.atan2(h2[-1], h1[-1])
                         - math.atan2(h2[0], h1[0]))
            return int(round((total - principal) / TWO_PI)), dmax

        n = 1 << 17
        w, dmax = turns(n)
        while dmax > 0.5:
            n *= 4
            if n > (1 << 24):
                raise InvalidGeometry("path rotation too fast to resolve")
            w, dmax = turns(n)
        w2, _ = turns(2 * n + 1)
        if w2 != w:
            raise InvalidGeometry("winding number did not stabilise")
        return w

    def sample_csv(self, path: str, n: int = 2001) -> None:
        """Write 'r,h1,h2,h1p,h2p,D' samples."""
        rs = np.linspace(0.0, self.epsilon, n)
        h1 = self.h1.value(rs)
        h2 = self.h2.value(rs)
        h1p = self.h1.deriv(rs)
        h2p = self.h2.deriv(rs)
        D = h1 * h2p - h1p * h2
        with open(path, "w", newline="") as fh:
            fh.write("r,h1,h2,h1p,h2p,D\n")
            for row in zip(rs, h1, h2, h1p, h2p, D):
                fh.write(",".join(format_float(v) for v in row) + "\n")


def standard_cap_pair(epsilon: float = 1.0) -> ProfilePair:
    """The untwisted tube pair (1, r^2) on [0, epsilon]."""
    bps = [0.0, epsilon]
    h1 = PiecewiseProfile(bps, [PolySegment(0.0, (1.0,))])
    h2 = PiecewiseProfile(bps, [PolySegment(0.0, (0.0, 0.0, 1.0))])
    return ProfilePair(h1, h2, epsilon)


# ---------------------------------------------------------------------------
# continuity solve and path construction
# ---------------------------------------------------------------------------

def solve_continuity_params(epsilon0: float, u: float, delta: float,
                            mu_minus: float) -> tuple:
    """Corrections (delta1, delta2) making the raw path continuous at eps0.

    delta1 solves (1+delta1) cos(2 pi eps0) = 1 and delta2 solves
    eps0^2 = (1+delta2) u sin(2 pi eps0) / (2 pi (1+delta*mu_minus)).
    Both residuals vanish to rounding by construction.
    """
    if not (0.0 < epsilon0 < 0.25):
        raise InvalidGeometry("epsilon0 must lie in (0, 1/4)")
    if u <= 0.0:
        raise InvalidGeometry("amplitude u must be positive")
    morse = 1.0 + delta * mu_minus
    if morse <= 0.0:
        raise InvalidGeometry("1 + delta*mu_minus must stay positive")
    delta1 = 1.0 / math.cos(TWO_PI * epsilon0) - 1.0
    one_plus_d2 = (TWO_PI * morse * epsilon0 ** 2
                   / (u * math.sin(TWO_PI * epsilon0)))
    delta2 = one_plus_d2 - 1.0
    if one_plus_d2 <= 0.0:
        raise InvalidGeometry(
            f"continuity forces 1+delta2 = {one_plus_d2:.3g} <= 0; "
            "h2 would not stay positive on the arc")
    if not (-0.5 < delta2 < 0.5):
        warnings.warn(
            f"continuity correction delta2 = {delta2:.4g} is large "
            "(outside (-0.5, 0.5)); the arc is far from the unit-amplitude "
            "regime", stacklevel=2)
    return delta1, delta2


def arc_amplitude(params: TwistParams) -> float:
    """Amplitude of the sine arc: h2 = amp * sin(2 pi r) on the arc region."""
    if params.delta2 is None:
        raise InvalidGeometry("delta2 not solved; call params.solved() first")
    return ((1.0 + params.delta2) * params.u
            / (TWO_PI * params.morse_factor))


def build_twisted_path(params: TwistParams) -> ProfilePair:
    """Assemble the raw twisted path for solved TwistParams.

    The result is continuous everywhere except possibly at eps0 (exactly
    continuous there when delta1, delta2 solve the continuity equations
    for this u); `mollify` smooths that junction.  The extension past the
    arc region is a chain of monotone cubics through the third and fourth
    quadrants, returning to (1, r^2) near the tube boundary.
    """
    params.validate()
    if params.delta1 is None or params.delta2 is None:
        raise InvalidGeometry("delta1/delta2 not solved; "
                              "use TwistParams.solved()")
    if params.epsilon != 1.0:
        raise InvalidGeometry("the normalised construction uses epsilon = 1")
    eps0 = params.epsilon0
    if eps0 >= R_PLUS:
        raise InvalidGeometry("epsilon0 must sit below the quarter radius")

    amp1 = 1.0 + params.delta1
    amp2 = arc_amplitude(params)
    depth = params.extension.h2_depth
    if depth is None:
        depth = 2.0 * amp2  # twice |h2(1/4)|
    if depth <= amp2:
        raise InvalidGeometry(
            "second y-intercept magnitude must exceed |h2(1/4)|")

    # h1: cap, cosine arc through both zeros, rise to 1, flat.
    h1 = PiecewiseProfile(
        [0.0, eps0, R_PLUS_PRIME, R_H1_FLAT, 1.0],
        [PolySegment(0.0, (1.0,)),
         TrigSegment("cos", amp1),
         hermite_segment(R_PLUS_PRIME, R_H1_FLAT, 0.0, 1.0,
                         TWO_PI * amp1, 0.0),
         PolySegment(R_H1_FLAT, (1.0,))])

    # h2: cap, sine arc, dip to -depth, rise back to r^2.
    slope_half = -TWO_PI * amp2            # d/dr of the arc at r = 1/2
    mid_val = -0.25 * depth
    mid_slope = 6.0 * depth                # secant slope of the second piece
    v_ret = R_RETURN ** 2
    h2 = PiecewiseProfile(
        [0.0, eps0, 0.5, R_PLUS_PRIME, R_H1_FLAT, R_RETURN, 1.0],
        [PolySegment(0.0, (0.0, 0.0, 1.0)),
         TrigSegment("sin", amp2),
         hermite_segment(0.5, R_PLUS_PRIME, 0.0, -depth, slope_half, 0.0),
         hermite_segment(R_PLUS_PRIME, R_H1_FLAT, -depth, mid_val,
                         0.0, mid_slope),
         hermite_segment(R_H1_FLAT, R_RETURN, mid_val, v_ret,
                         mid_slope, 2.0 * R_RETURN),
         PolySegment(0.0, (0.0, 0.0, 1.0))])

    return ProfilePair(h1, h2, params.epsilon)


# ---------------------------------------------------------------------------
# contact condition
# ---------------------------------------------------------------------------

# |D/r| must stay above this on the grid for the contact check to pass.
CONTACT_PASS = 1e-8


@dataclass(frozen=True)
class ContactReport:
    min_abs_d_over_r: float
    argmin_r: float
    sign: int              # +1, -1, or 0 when the determinant changes sign
    passed: bool
    grid_size: int

    def to_dict(self) -> dict:
        return {"min_abs_d_over_r": self.min_abs_d_over_r,
                "argmin_r": self.argmin_r, "sign": self.sign,
                "passed": self.passed, "grid_size": self.grid_size}


def wronskian(pair: ProfilePair, r):
    """Never-parallel determinant D(r) = h1 h2' - h1' h2."""
    return pair.wronskian(r)


def check_contact_condition(pair: ProfilePair,
                            grid_size: int = 10000) -> ContactReport:
    """Scan |D(r)/r| on (0, eps]; dividing by r absorbs the forced zero at 0."""
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    rs = np.linspace(0.0, pair.epsilon, grid_size + 1)[1:]
    d = pair.wronskian(rs) / rs
    i = int(np.argmin(np.abs(d)))
    all_pos = bool(np.all(d > 0))
    all_neg = bool(np.all(d < 0))
    sign = 1 if all_pos else (-1 if all_neg else 0)
    min_abs = float(np.abs(d[i]))
    return ContactReport(min_abs_d_over_r=min_abs, argmin_r=float(rs[i]),
                         sign=sign, passed=min_abs > CONTACT_PASS,
                         grid_size=grid_size)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_GL_ORDER = 40


def _convolve_against_kernel(profile: PiecewiseProfile,
                             window: SmoothingWindow,
                             rs: np.ndarray, order: int) -> np.ndarray:
    """(f * g)(rs) with the kernel support split at profile breakpoints.

    Each panel integrand is smooth, so fixed-order Gauss-Legendre per panel
    is accurate to rounding.
    """
    d = window.half_width
    cuts = [b for b in profile.breakpoints
            if window.lo - d < b < window.hi + d]
    edges = sorted(set([float(rs[0] - d)] + cuts + [float(rs[-1] + d)]))
    out = np.zeros_like(rs)
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        a = np.maximum(rs - d, lo_e)
        b = np.minimum(rs + d, hi_e)
        valid = b > a
        if not np.any(valid):
            continue
        a = np.where(valid, a, rs)
        b = np.where(valid, b, rs)
        nodes, weights = gl_panel_nodes(a, b, order)
        vals = profile.value(nodes.ravel()).reshape(nodes.shape)
        kern = window.kernel(rs[:, None] - nodes)
        out += np.where(valid, np.sum(weights * vals * kern, axis=1), 0.0)
    return out


def _blend(profile: PiecewiseProfile, window: SmoothingWindow) -> tuple:
    """(rs, (1 - w) raw + w conv) on the window's table grid.

    A doubled-order recomputation on a subsample guards the quadrature.
    """
    rs = np.linspace(window.lo, window.hi, window.n_table)
    conv = _convolve_against_kernel(profile, window, rs, _GL_ORDER)
    step = max(window.n_table // 64, 1)
    conv_hi = _convolve_against_kernel(profile, window, rs[::step],
                                       2 * _GL_ORDER)
    err = np.max(np.abs(conv[::step] - conv_hi))
    scale = max(1.0, float(np.max(np.abs(conv))))
    if err > 1e-11 * scale:
        raise QuadratureFailure(
            f"convolution panels disagree by {err:.3g} on the window")
    w = window.blend_weight(rs)
    return rs, (1.0 - w) * profile.value(rs) + w * conv


def _splice_window(profile: PiecewiseProfile, window: SmoothingWindow,
                   table: TableSegment) -> PiecewiseProfile:
    """`profile` with `table` in place of its pieces on the window."""
    new_bps = [b for b in profile.breakpoints
               if b < window.lo - 1e-15 or b > window.hi + 1e-15]
    bps = sorted(set(new_bps + [window.lo, window.hi]))
    src = list(profile.breakpoints)
    segments = []
    for lo_b, hi_b in zip(bps[:-1], bps[1:]):
        if abs(lo_b - window.lo) < 1e-15 and abs(hi_b - window.hi) < 1e-15:
            segments.append(table)
            continue
        owner = None
        mid = 0.5 * (lo_b + hi_b)
        for j in range(len(profile.segments)):
            if src[j] - 1e-15 <= mid <= src[j + 1] + 1e-15:
                owner = profile.segments[j]
                break
        if owner is None:
            raise InvalidGeometry("window does not sit inside the profile")
        segments.append(owner)
    return PiecewiseProfile(bps, segments)


def _mollify_profile(profile: PiecewiseProfile,
                     window: SmoothingWindow) -> PiecewiseProfile:
    return _splice_window(profile, window,
                          TableSegment(*_blend(profile, window)))


def mollify(pair: ProfilePair, window: SmoothingWindow) -> ProfilePair:
    """Replace both profiles on the window by truncated-Gaussian blends.

    Outside the window the pair is returned unchanged; at the window
    endpoints the blend weight vanishes so the table matches the raw
    profiles exactly.
    """
    if not (0.0 < window.lo and window.hi < pair.epsilon / 2.0):
        raise InvalidGeometry("smoothing window must sit inside (0, eps/2)")
    return ProfilePair(_mollify_profile(pair.h1, window),
                       _mollify_profile(pair.h2, window),
                       pair.epsilon)


def default_window(params: TwistParams) -> SmoothingWindow:
    return SmoothingWindow(center=params.epsilon0, half_width=params.delta0)


def verify_smoothing_bound(pair_smoothed: ProfilePair, u: float,
                           window: Optional[SmoothingWindow] = None) -> tuple:
    """Check sup |{-H1'}/D| <= 1/u over the mollified window.

    Returns (max_ratio, passed).  The window is recovered from the table
    segment when not given.
    """
    if window is None:
        tables = [s for s in pair_smoothed.h1.segments
                  if isinstance(s, TableSegment)]
        if not tables:
            raise InvalidGeometry("pair carries no mollified window")
        lo, hi = tables[0].rs[0], tables[0].rs[-1]
    else:
        lo, hi = window.lo, window.hi

    def ratio(rs: np.ndarray) -> np.ndarray:
        d = pair_smoothed.wronskian(rs)
        return np.abs(-pair_smoothed.h1.deriv(rs) / d)

    _, max_ratio = grid_argmax_refined(ratio, lo, hi, 4096)
    return max_ratio, max_ratio <= 1.0 / u


# ---------------------------------------------------------------------------
# linear-in-amplitude path families
# ---------------------------------------------------------------------------

class TwistedPathFamily:
    """Amplitude family u -> mollified twisted pair with h1 fixed.

    delta1, delta2 are solved once at `u_ref`; the raw junction at eps0 is
    then exactly continuous for u = u_ref and jumps upward for u > u_ref,
    which the mollifier bridges while keeping the contact condition (a
    downward jump would force the smoothed path to rotate backwards, so
    amplitudes below u_ref are rejected).  Every h2 ingredient is affine in
    u, so members assemble cheaply and d(h2)/du is exact.
    """

    def __init__(self, base: TwistParams, u_ref: float, u_max: float):
        if u_max < u_ref:
            raise InvalidGeometry("u_max must be at least u_ref")
        self.params = replace(base, u=u_ref).solved()
        self.u_ref = float(u_ref)
        self.u_max = float(u_max)
        self.amp_per_u = ((1.0 + self.params.delta2)
                          / (TWO_PI * self.params.morse_factor))
        depth = 2.0 * self.amp_per_u * self.u_max
        self.params = replace(self.params,
                              extension=ExtensionSpec(h2_depth=depth))
        self.window = default_window(self.params)
        self._h1_moll = None
        self._h2_tables = None

    def _ensure_tables(self):
        if self._h1_moll is not None:
            return
        pair0 = build_twisted_path(replace(self.params, u=self.u_ref))
        self._h1_moll = _mollify_profile(pair0.h1, self.window)

        # h2 on the window neighbourhood splits as cap + u * (unit arc);
        # mollification is linear, so two tables cover every member.
        eps0 = self.params.epsilon0
        cap = PiecewiseProfile([0.0, eps0, 0.5],
                               [PolySegment(0.0, (0.0, 0.0, 1.0)),
                                PolySegment(0.0, (0.0,))])
        unit_arc = PiecewiseProfile([0.0, eps0, 0.5],
                                    [PolySegment(0.0, (0.0,)),
                                     TrigSegment("sin", self.amp_per_u)])
        rs, t_cap = _blend(cap, self.window)
        _, t_arc = _blend(unit_arc, self.window)
        self._h2_tables = (rs, t_cap, t_arc)

    def pair(self, u: float) -> ProfilePair:
        """Mollified member at amplitude u (requires u >= u_ref)."""
        if u < self.u_ref - 1e-12:
            raise InvalidGeometry(
                f"amplitude {u} below the family reference {self.u_ref}; "
                "the junction bridge would violate the contact condition")
        self._ensure_tables()
        raw = build_twisted_path(replace(self.params, u=u))
        rs, t_cap, t_arc = self._h2_tables
        h2 = _splice_window(raw.h2, self.window,
                            TableSegment(rs, t_cap + u * t_arc))
        return ProfilePair(self._h1_moll, h2, self.params.epsilon)


def build_mollified_path(params: TwistParams) -> ProfilePair:
    """Solved, assembled, and smoothed in one call."""
    solved = params if params.delta1 is not None else params.solved()
    return mollify(build_twisted_path(solved), default_window(solved))
