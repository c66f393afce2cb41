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
window around eps0, as three Chebyshev pieces (`ChebSegment`).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.chebyshev import (chebder, chebpts1, chebroots, chebval,
                                        chebvander)

from .errors import InvalidGeometry, LutzLabError, QuadratureFailure
from .numerics import gl_panel_nodes, grid_sup

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

    def __init__(self, a: float, coeffs):
        self.a = float(a)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def value(self, r):
        x = np.asarray(r, dtype=float) - self.a
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    @cached_property
    def _d1(self) -> np.ndarray:
        return np.polynomial.polynomial.polyder(self.coeffs)

    @cached_property
    def _d2(self) -> np.ndarray:
        return np.polynomial.polynomial.polyder(self.coeffs, 2)

    def deriv(self, r):
        x = np.asarray(r, dtype=float) - self.a
        return np.polynomial.polynomial.polyval(x, self._d1)

    def deriv2(self, r):
        x = np.asarray(r, dtype=float) - self.a
        return np.polynomial.polynomial.polyval(x, self._d2)

    def scaled(self, c: float) -> "PolySegment":
        return PolySegment(self.a, self.coeffs * c)

    def plus(self, other: "PolySegment", c: float) -> "PolySegment":
        """self + c other, for `other` in powers of the same (r - a); the
        shorter coefficient array counts as zero-padded at the top."""
        a, b = self.coeffs, c * other.coeffs
        if len(a) < len(b):
            a, b = b, a
        coeffs = a.copy()
        coeffs[:len(b)] += b
        return PolySegment(self.a, coeffs)

    def zero_candidates(self, lo: float, hi: float) -> np.ndarray:
        """Real parts of all roots that fall inside the open (lo, hi).

        Every sign change on (lo, hi) is a real root, so the list holds all
        of them, each to the rounding of the companion-matrix eigenvalues
        (bounded by their condition number, not certified).  Complex roots
        are kept by their real part: a multiple root may come out as a
        nearly real pair, and it still leaves a cut next to it.  An
        identically zero polynomial has no candidates.  Never raises.
        """
        x = np.polynomial.polynomial.polyroots(self.coeffs).real + self.a
        return x[(x > lo) & (x < hi)]


class TrigSegment:
    """amp * cos(2 pi r) or amp * sin(2 pi r), period fixed at one."""

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

    def plus(self, other: "TrigSegment", c: float) -> "TrigSegment":
        """self + c other, for `other` of the same function."""
        return TrigSegment(self.func, self.amp + c * other.amp)

    def zero_candidates(self, lo: float, hi: float) -> np.ndarray:
        """The zeros inside the open (lo, hi), in closed form.

        sin(2 pi r) vanishes at k/2 and cos(2 pi r) at 1/4 + k/2, so the
        list is exact.  The rounded arc may change sign a few ulps away
        from these points; the cut there still separates its two signs.
        Never raises.
        """
        offset = 0.0 if self.func == "sin" else 0.25
        k = np.arange(math.ceil(2.0 * (lo - offset)),
                      math.floor(2.0 * (hi - offset)) + 1)
        x = offset + 0.5 * k
        return x[(x > lo) & (x < hi)]


class ChebSegment:
    """Chebyshev series sum_k c_k T_k(t) in t = (2r - lo - hi)/(hi - lo) on
    [lo, hi] (Trefethen, *Approximation Theory and Approximation Practice*,
    2013); derivatives are the series' own, through `chebder`."""

    def __init__(self, lo: float, hi: float, coeffs):
        self.lo = float(lo)
        self.hi = float(hi)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def _t(self, r):
        r = np.asarray(r, dtype=float)
        return (2.0 * r - (self.lo + self.hi)) / (self.hi - self.lo)

    @cached_property
    def _d1(self) -> np.ndarray:
        return chebder(self.coeffs, scl=2.0 / (self.hi - self.lo))

    @cached_property
    def _d2(self) -> np.ndarray:
        return chebder(self._d1, scl=2.0 / (self.hi - self.lo))

    def value(self, r):
        return chebval(self._t(r), self.coeffs)

    def deriv(self, r):
        return chebval(self._t(r), self._d1)

    def deriv2(self, r):
        return chebval(self._t(r), self._d2)

    def scaled(self, c: float) -> "ChebSegment":
        return ChebSegment(self.lo, self.hi, self.coeffs * c)

    def plus(self, other: "ChebSegment", c: float) -> "ChebSegment":
        """self + c other, for `other` of the same span and degree."""
        return ChebSegment(self.lo, self.hi, self.coeffs + c * other.coeffs)

    def zero_candidates(self, lo: float, hi: float) -> np.ndarray:
        """Real parts of the series' roots inside the open (lo, hi).

        None when |c_0| > sum_(k>=1) |c_k|, which proves the segment free
        of zeros since |T_k| <= 1; else the colleague matrix's eigenvalues
        (`chebroots`) within 1e-3 of the real axis in t, to their rounding:
        a multiple root may come out as a nearly real pair, while rounding
        in the tail puts spurious roots about 1 off the axis.  Never raises.
        """
        c = self.coeffs
        if abs(c[0]) > np.sum(np.abs(c[1:])):
            return np.empty(0)
        t = chebroots(c)
        x = self.lo + 0.5 * (t.real[np.abs(t.imag) < 1e-3] + 1.0) * (
            self.hi - self.lo)
        return x[(x > lo) & (x < hi)]


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

    @cached_property
    def cuts(self) -> np.ndarray:
        """Sorted breakpoints and zero candidates of all segments, read-only.

        Between two consecutive cuts the profile keeps one sign, so the
        sign at any interior point is the sign of the whole interval.
        """
        bps = self.breakpoints
        cands = [seg.zero_candidates(lo, hi) for seg, lo, hi
                 in zip(self.segments, bps[:-1], bps[1:])]
        cuts = np.unique(np.concatenate([bps] + cands))
        cuts.flags.writeable = False
        return cuts

    def sign_changes(self) -> np.ndarray:
        """Cuts at which the profile changes sign strictly.

        Each returned radius is a breakpoint or a zero candidate, so it sits
        within the rounding of a true zero; a zero of even multiplicity is
        not a sign change and is not returned.
        """
        cuts = self.cuts
        s = np.sign(self.value(0.5 * (cuts[:-1] + cuts[1:])))
        return cuts[1:-1][s[:-1] * s[1:] < 0.0]

    def segment_span(self, r: float) -> tuple:
        """(segment, lo, hi) of the piece containing r; direct evaluation on
        the returned segment is valid only inside [lo, hi]."""
        idx = int(self._segment_index(r))
        return (self.segments[idx], float(self.breakpoints[idx]),
                float(self.breakpoints[idx + 1]))

    def scaled(self, c: float) -> "PiecewiseProfile":
        return PiecewiseProfile(self.breakpoints,
                                [s.scaled(c) for s in self.segments])


def evaluate(terms, r) -> list:
    """[`profile.value`, `deriv` or `deriv2` at r for each (profile, order)
    of `terms`, order 0, 1 or 2], bit for bit, on a 1-D array of radii.

    r is split once at each term's breakpoints (sorted first if it is not,
    and every result scattered back to its order); a radius on a breakpoint
    goes left, as in `PiecewiseProfile._segment_index`.  Polynomial and
    trigonometric segments are evaluated on their slice.  All Chebyshev
    series on one span and slice, of any term, take one Clenshaw recurrence
    (`_clenshaw`).
    """
    r = np.asarray(r, dtype=float)
    if r.ndim != 1:
        raise ValueError("evaluate takes a 1-D array of radii")
    perm = None
    if not np.all(r[:-1] <= r[1:]):
        perm = np.argsort(r, kind="stable")
        r = r[perm]
    outs = [np.empty_like(r) for _ in terms]
    stacks = {}  # (lo, hi, start, stop) -> [(out, coefficients)]
    for out, (profile, order) in zip(outs, terms):
        ends = np.searchsorted(r, profile.breakpoints[1:-1],
                               side="right").tolist()
        for seg, start, stop in zip(profile.segments, [0] + ends,
                                    ends + [len(r)]):
            if start == stop:
                continue
            if isinstance(seg, ChebSegment):
                coeffs = getattr(seg, ("coeffs", "_d1", "_d2")[order])
                stacks.setdefault((seg.lo, seg.hi, start, stop), []).append(
                    (out, coeffs))
            else:
                method = ("value", "deriv", "deriv2")[order]
                out[start:stop] = getattr(seg, method)(r[start:stop])
    for (lo, hi, start, stop), series in stacks.items():
        t = (2.0 * r[start:stop] - (lo + hi)) / (hi - lo)
        for (out, _), v in zip(series, _clenshaw([c for _, c in series], t)):
            out[start:stop] = v
    if perm is not None:
        for out in outs:
            out[perm] = out.copy()
    return outs


def _clenshaw(series: list, t: np.ndarray) -> np.ndarray:
    """Rows `chebval(t, c)` for each c of `series` by one recurrence, in
    `chebval`'s operation order: the shorter series are zero-padded at the
    top, which changes no bit at a finite t."""
    size = max(3, max(len(c) for c in series))
    c = np.zeros((size, len(series), 1))
    for j, s in enumerate(series):
        c[:len(s), j, 0] = s
    x2 = 2 * t
    c0, c1 = c[-2], c[-1]
    for i in range(3, size + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * t


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
        if not self.u > 0.0:
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

    def knots(self) -> np.ndarray:
        """Sorted distinct breakpoints of both profiles: between two of them
        each profile is one closed-form segment."""
        return np.union1d(self.h1.breakpoints, self.h2.breakpoints)

    def winding_number(self) -> int:
        """Turns of r -> (h1, h2) around the origin over [0, eps].

        No sampling grid: [0, eps] is cut at both profiles' breakpoints and
        zero candidates (`PiecewiseProfile.cuts`), so each profile keeps one
        sign between two cuts and one midpoint evaluation gives that
        interval's quadrant.  The winding number is the signed count of
        crossings of the negative h1-axis (argument principle): quadrant
        2 -> 3 counts +1, 3 -> 2 counts -1, and a touch of the axis without
        crossing counts 0.  The count is exact once every sign change lies
        on a cut, which holds up to the rounding of the zero candidates.
        An endpoint on the axis counts on the side of its adjacent interval.

        Raises InvalidGeometry("path passes through the origin") when
        h1^2 + h2^2 < 1e-30 at a cut, or when h1 and h2 both change sign
        at the same cut.
        """
        cuts = np.union1d(self.h1.cuts, self.h2.cuts)
        # each profile once, on the cuts followed by their midpoints
        rs = np.concatenate([cuts, 0.5 * (cuts[:-1] + cuts[1:])])
        v1, v2 = evaluate([(self.h1, 0), (self.h2, 0)], rs)
        h1, h2 = v1[:len(cuts)], v2[:len(cuts)]
        if np.min(h1 * h1 + h2 * h2) < 1e-30:
            raise InvalidGeometry("path passes through the origin")
        s1 = np.sign(v1[len(cuts):])
        s2 = np.sign(v2[len(cuts):])
        if np.any((s1[:-1] != s1[1:]) & (s2[:-1] != s2[1:])):
            raise InvalidGeometry("path passes through the origin")
        # each cut with h1 < 0 on both sides adds half the drop of sign(h2):
        # +1 from quadrant 2 to 3, -1 back; an interval on which h2 vanishes
        # identically splits one crossing into two halves
        on_axis = (s1[:-1] < 0.0) & (s1[1:] < 0.0)
        return int(np.sum(s2[:-1][on_axis] - s2[1:][on_axis])) // 2

    def sample_csv(self, path: str, n: int = 2001) -> None:
        """Write 'r,h1,h2,h1p,h2p,D' samples at n >= 2 radii spanning
        [0, epsilon]."""
        if n < 2:
            raise LutzLabError(f"samples must be at least 2, got {n}")
        rs = np.linspace(0.0, self.epsilon, n)
        h1 = self.h1.value(rs)
        h2 = self.h2.value(rs)
        h1p = self.h1.deriv(rs)
        h2p = self.h2.deriv(rs)
        D = h1 * h2p - h1p * h2
        with open(path, "w", newline="") as fh:
            fh.write("r,h1,h2,h1p,h2p,D\n")
            for row in zip(rs, h1, h2, h1p, h2p, D):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row)


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
    if not u > 0.0:
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

# |D/r| must stay above this on the radii for the contact check to pass.
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


def contact_radii(pair: ProfilePair, grid_size: int) -> np.ndarray:
    """The radii every sampled check of D takes: `grid_size` uniform steps
    of (0, eps] joined with the pair's knots (`ProfilePair.knots`) but 0
    and with both profiles' `window_radii`, so no segment goes unsampled,
    however narrow."""
    knots = pair.knots()
    return np.union1d(np.linspace(0.0, pair.epsilon, grid_size + 1)[1:],
                      np.concatenate([knots[knots > 0.0],
                                      window_radii(pair.h1),
                                      window_radii(pair.h2)]))


def contact_report(rs: np.ndarray, d_over_r: np.ndarray,
                   grid_size: int) -> ContactReport:
    """The contact check of D/r sampled on `contact_radii(pair, grid_size)`:
    it passes when D/r keeps one sign and |D/r| > CONTACT_PASS."""
    i = int(np.argmin(np.abs(d_over_r)))
    all_pos = bool(np.all(d_over_r > 0))
    all_neg = bool(np.all(d_over_r < 0))
    sign = 1 if all_pos else (-1 if all_neg else 0)
    min_abs = float(np.abs(d_over_r[i]))
    return ContactReport(min_abs_d_over_r=min_abs, argmin_r=float(rs[i]),
                         sign=sign,
                         passed=sign != 0 and min_abs > CONTACT_PASS,
                         grid_size=grid_size)


def check_contact_condition(pair: ProfilePair,
                            grid_size: int = 10000) -> ContactReport:
    """Scan D(r)/r on `contact_radii(pair, grid_size)` (`contact_report`);
    dividing by r absorbs the forced zero at 0.  The report's `grid_size`
    counts the uniform steps only, not the knots joined to them."""
    if grid_size < 1000:
        raise ValueError("grid_size must be at least 1000")
    rs = contact_radii(pair, grid_size)
    return contact_report(rs, pair.wronskian(rs) / rs, grid_size)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_GL_ORDER = 40

# The blend's analytic pieces in window units x = (r - center)/half_width,
# each interpolated at the first-kind Chebyshev points of its degree: w is
# a quintic on the outer two and 1 on the middle one, and the kernel's
# ends cross no breakpoint for |x| < 1.  On |x| >= 7/8, w = 0 and the raw
# profile stays.  The last two coefficients of a piece may reach
# _CHEB_TAIL of its largest.
_BLEND_PIECES = ((-7.0 / 8.0, -0.5), (-0.5, 0.5), (0.5, 7.0 / 8.0))
CHEB_DEGREES = (24, 40, 24)
_CHEB_TAIL = 1e-13

# Uniform radii across a mollification window at which the sampled checks
# of D (`contact_radii`) and of the smoothing bound look.
WINDOW_SAMPLES = 4096


@lru_cache(maxsize=16)
def _cheb_nodes(degree: int) -> tuple:
    """(first-kind Chebyshev points, their Vandermonde matrix) of a piece of
    `degree`, read-only: every blend of that degree interpolates on them."""
    t = chebpts1(degree + 1)
    vander = chebvander(t, degree)
    t.flags.writeable = vander.flags.writeable = False
    return t, vander


def _blend(window: SmoothingWindow, *profiles: PiecewiseProfile) -> list:
    """[the ChebSegment pieces of (1 - w) f + w (f * g) for each profile f],
    every profile convolved by one quadrature rule at the pieces' nodes.

    (f * g)(r) = int f(r - y) g(y) dy is integrated in the kernel offset
    y, so the kernel's steep flanks see nodes free of the rounding of r - y.
    The kernel support is split into panels at the profiles' breakpoints,
    so each panel lies inside one segment of every profile and its
    integrand is smooth: fixed-order Gauss-Legendre per panel is accurate
    to rounding.  The nodes, weights and kernel values of a panel are built
    once and shared by all profiles.  A doubled-order recomputation guards
    each profile's quadrature, and the tail of each piece's coefficients
    its degree.
    """
    if not window.half_width > 0.0:
        raise InvalidGeometry("smoothing window needs half_width > 0")
    d = window.half_width
    cuts = sorted(set(float(b) for p in profiles for b in p.breakpoints
                      if window.lo - d < b < window.hi + d))
    spans = [(window.center + xa * d, window.center + xb * d)
             for xa, xb in _BLEND_PIECES]
    ts, vanders = zip(*(_cheb_nodes(deg) for deg in CHEB_DEGREES))
    rs = np.concatenate([lo + 0.5 * (t + 1.0) * (hi - lo)
                         for (lo, hi), t in zip(spans, ts)])

    def convolve(order: int) -> list:
        """f * g at rs for each profile, by Gauss-Legendre of `order`."""
        edges = sorted(set([float(rs[0] - d)] + cuts + [float(rs[-1] + d)]))
        outs = [np.zeros_like(rs) for _ in profiles]
        for lo_e, hi_e in zip(edges[:-1], edges[1:]):
            a = np.maximum(rs - hi_e, -d)
            b = np.minimum(rs - lo_e, d)
            valid = b > a
            if not np.any(valid):
                continue
            a = np.where(valid, a, 0.0)
            b = np.where(valid, b, 0.0)
            ys, weights = gl_panel_nodes(a, b, order)
            kern = window.kernel(ys)
            for profile, out in zip(profiles, outs):
                # the nodes of an empty row may leave the panel; `valid`
                # drops whatever the segment returns there
                seg = profile.segment_span(0.5 * (lo_e + hi_e))[0]
                vals = seg.value(rs[:, None] - ys)
                out += np.where(valid, np.sum(weights * vals * kern, axis=1),
                                0.0)
        return outs

    w = window.blend_weight(rs)
    blends = []
    for profile, conv, conv_hi in zip(profiles, convolve(_GL_ORDER),
                                      convolve(2 * _GL_ORDER)):
        err = np.max(np.abs(conv - conv_hi))
        scale = max(1.0, float(np.max(np.abs(conv))))
        if err > 1e-11 * scale:
            raise QuadratureFailure(
                f"convolution panels disagree by {err:.3g} on the window")
        vals = np.split((1.0 - w) * profile.value(rs) + w * conv,
                        np.cumsum([len(t) for t in ts])[:-1])
        pieces = []
        for (lo, hi), t, vander, v in zip(spans, ts, vanders, vals):
            # the interpolant through the values at the nodes, step for
            # step as `chebinterpolate` computes it, of the values less
            # their mean, so the rounding of T_k scales with their spread
            mean = float(np.mean(v))
            c = np.dot(vander.T, v - mean)
            c[0] /= len(t)
            c[1:] /= 0.5 * len(t)
            c[0] += mean
            tail = float(np.max(np.abs(c[-2:])))
            if tail > _CHEB_TAIL * float(np.max(np.abs(c))):
                raise QuadratureFailure(
                    f"Chebyshev tail {tail:.3g} on [{lo}, {hi}] exceeds "
                    f"{_CHEB_TAIL:g} of the piece's largest coefficient")
            pieces.append(ChebSegment(lo, hi, c))
        blends.append(pieces)
    return blends


def _splice_window(profile: PiecewiseProfile,
                   pieces: list) -> PiecewiseProfile:
    """`profile` with the consecutive `pieces` in place on their span; its
    breakpoints within 1e-15 of the span go."""
    lo, hi = pieces[0].lo, pieces[-1].hi
    if not profile.breakpoints[0] <= lo < hi <= profile.eps:
        raise InvalidGeometry("window does not sit inside the profile")
    bps = sorted(set([b for b in profile.breakpoints
                      if b < lo - 1e-15 or b > hi + 1e-15]
                     + [p.lo for p in pieces] + [hi]))
    by_lo = {p.lo: p for p in pieces}
    edges = np.array(bps)
    idx = profile._segment_index(0.5 * (edges[:-1] + edges[1:]))
    return PiecewiseProfile(bps, [
        by_lo.get(a) or profile.segments[i] for a, i in zip(bps[:-1], idx)])


def window_radii(profile: PiecewiseProfile) -> np.ndarray:
    """`WINDOW_SAMPLES` uniform radii across the mollification window whose
    Chebyshev pieces `profile` carries (their span is its middle 7/8);
    none when it carries none."""
    pieces = [s for s in profile.segments if isinstance(s, ChebSegment)]
    if not pieces:
        return np.empty(0)
    lo, hi = pieces[0].lo, pieces[-1].hi
    mid, half = 0.5 * (lo + hi), (hi - lo) * (4.0 / 7.0)
    return np.linspace(mid - half, mid + half, WINDOW_SAMPLES)


def mollify(pair: ProfilePair, window: SmoothingWindow) -> ProfilePair:
    """Replace both profiles on the window by truncated-Gaussian blends.

    Outside the middle 7/8 of the window, where the blend weight vanishes,
    the pair is returned unchanged.
    """
    if not (0.0 < window.lo and window.hi < pair.epsilon / 2.0):
        raise InvalidGeometry("smoothing window must sit inside (0, eps/2)")
    p1, p2 = _blend(window, pair.h1, pair.h2)
    return ProfilePair(_splice_window(pair.h1, p1),
                       _splice_window(pair.h2, p2), pair.epsilon)


def default_window(params: TwistParams) -> SmoothingWindow:
    return SmoothingWindow(center=params.epsilon0, half_width=params.delta0)


def verify_smoothing_bound(pair_smoothed: ProfilePair, u: float) -> tuple:
    """Check sup |{-H1'}/D| <= 1/u over the mollified window.

    Returns (max_ratio, passed).  The sup is refined from h1's
    `window_radii`, each set of radii taking one stacked evaluation
    (`evaluate`) of h1, h1', h2 and h2'.
    """
    rs = window_radii(pair_smoothed.h1)
    if not len(rs):
        raise InvalidGeometry("pair carries no mollified window")

    def ratio(rs: np.ndarray) -> np.ndarray:
        h1v, h1p, h2v, h2p = evaluate(
            [(pair_smoothed.h1, 0), (pair_smoothed.h1, 1),
             (pair_smoothed.h2, 0), (pair_smoothed.h2, 1)], rs)
        return np.abs(-h1p / (h1v * h2p - h1p * h2v))

    _, max_ratio = grid_sup(ratio, rs, ratio(rs))
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
    amplitudes below u_ref are rejected).  The extension depth is fixed by
    `u_max`, so amplitudes above it are rejected too.  Every h2 ingredient
    is affine in u, so the family holds h2 as two mollified profiles on
    shared breakpoints: `A`, the u-free part, and `B` = dh2/du, the unit
    arc and the dip's slope at r = 1/2 (mollifying is linear).
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

        raw = build_twisted_path(self.params)
        bps, segs = raw.h2.breakpoints, raw.h2.segments
        a_raw = PiecewiseProfile(bps, [
            segs[0], TrigSegment("sin", 0.0),
            hermite_segment(0.5, R_PLUS_PRIME, 0.0, -depth, 0.0, 0.0),
            *segs[3:]])
        b_raw = PiecewiseProfile(bps, [
            PolySegment(0.0, (0.0,)), TrigSegment("sin", self.amp_per_u),
            hermite_segment(0.5, R_PLUS_PRIME, 0.0, 0.0,
                            -TWO_PI * self.amp_per_u, 0.0),
            *(PolySegment(s.a, (0.0,)) for s in segs[3:])])
        p_h1, p_a, p_b = _blend(self.window, raw.h1, a_raw, b_raw)
        self._h1_moll = _splice_window(raw.h1, p_h1)
        self.A = _splice_window(a_raw, p_a)
        self.B = _splice_window(b_raw, p_b)

    def pair(self, u: float) -> ProfilePair:
        """The member (h1, A + u B) at u_ref <= u <= u_max."""
        if not (self.u_ref - 1e-12 <= u <= self.u_max + 1e-12):
            raise InvalidGeometry(
                f"amplitude {u} lies outside the family's "
                f"[{self.u_ref}, {self.u_max}]: below the reference the "
                "junction bridge would violate the contact condition, and "
                "the extension depth is sized for amplitudes up to the cap")
        h2 = PiecewiseProfile(self.A.breakpoints, [
            a.plus(b, u) for a, b in zip(self.A.segments, self.B.segments)])
        return ProfilePair(self._h1_moll, h2, self.params.epsilon)


def build_mollified_path(params: TwistParams) -> ProfilePair:
    """Solved, assembled, and smoothed in one call."""
    solved = params if params.delta1 is not None else params.solved()
    return mollify(build_twisted_path(solved), default_window(solved))
