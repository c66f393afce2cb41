"""The two-parameter family of twisted forms and its volume bookkeeping.

A family point (a, b) with a = ln k^(1/n) and b = ln l is realised as the
form k^(1/n) * (h1 d(theta) + h2_u d(phi)) on the twisted tube, glued to a
fixed ambient model: a compensating tube around a second transverse knot
(where the bump multiplier 1 + nu absorbs volume changes) plus a black-box
reservoir carrying the remaining volume and the ambient action floor A.
Total volume is normalised to one at the base point (k, l) = (1, L0), so a
member's volume is exactly k and its lowest certified action is l.

Every member of one model lives in the model's single amplitude family, a
`profile.TwistedPathFamily` spanning [u_ref, U_CAP], so the Gray
deformation leg between two members starts and ends at the members
themselves.  In that family h1 is one profile and h2 = A + u B by
construction, so `certify_family` checks once, from the members at u_ref
and U_CAP, what every member shares: contact with one sign, one full
twist, the zeros r+ < r+' of h1, the tube volume (affine in u) and the
Gray domination margin, which reads B = dh2/du off the family; contact
and margin on one set of radii, `profile.contact_radii`.  The ends share
h1 and their knots (`contact_sign` refuses them otherwise), so the
certificate takes one stacked evaluation (`profile.evaluate`) per set of
radii: h1, h1' and each end's h2 and h2' on the contact radii, with B
there too, and on the tube-volume nodes, which hold both Gauss-Legendre
orders.  Every Chebyshev series of one window piece then takes one
Clenshaw recurrence per set of radii.
A member is then embedded in closed form from that certificate, its
compensator solved on bump moments that are Beta integrals
(`CompensatorSpec.moments`); `tube_volume` and `FormSpec.l_invariant`
recompute the member from scratch and serve as oracles.  The admissible
region is b < eps_bound = min(ln A, ln B) together with the geometric
floor l >= k^(1/n) * L0 (smaller targets need a thinner twist region,
i.e. a smaller epsilon0) and the amplitude cap u <= U_CAP.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (DomainViolation, InfeasibleCompensation, InvalidGeometry,
                     PreconditionFailed, QuadratureFailure, SingularLocus)
from .numerics import gl_panel_nodes
from . import reeb
from .profile import (TWO_PI, ProfilePair, TwistedPathFamily, TwistParams,
                      contact_radii, contact_report, evaluate)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------

def _integrate_profile_products(pairs, n: int) -> tuple:
    """int_0^eps h1^(n-2) D dr of each pair, by Gauss-Legendre panels.

    The pairs share h1 and their knots (`ProfilePair.knots`), the panel
    edges, so on each panel both profiles are one closed form: a
    polynomial, an arc, or a Chebyshev piece of a mollified window, whose
    coefficients decay to rounding by its degree.  Every panel takes order
    20, guarded by order 12: their disagreements must sum to at most 1e-10
    of each integral.  Both orders' nodes form one array, on which h1, h1'
    and each pair's h2 and h2' take one stacked evaluation
    (`profile.evaluate`).
    """
    knots = pairs[0].knots()
    (r12, w12), (r20, w20) = (gl_panel_nodes(knots[:-1], knots[1:], order)
                              for order in (12, 20))
    nodes = np.concatenate([r12.ravel(), r20.ravel()])
    h1 = pairs[0].h1
    h1v, h1p, *h2s = evaluate(
        [(h1, 0), (h1, 1)] + [(p.h2, k) for p in pairs for k in (0, 1)],
        nodes)
    out = []
    for h2v, h2p in zip(h2s[::2], h2s[1::2]):
        d = h1v * h2p - h1p * h2v
        if n > 2:
            d = h1v ** (n - 2) * d
        lo = float(np.sum(w12 * d[:r12.size].reshape(r12.shape)))
        total = float(np.sum(w20 * d[r12.size:].reshape(r20.shape)))
        err = abs(total - lo)
        if err > 1e-10 * max(abs(total), 1.0):
            raise QuadratureFailure(
                f"tube volume panels disagree by {err:.3g}")
        out.append(total)
    return tuple(out)


def _integrate_profile_product(pair: ProfilePair, n: int) -> float:
    """`_integrate_profile_products` of the one pair."""
    return _integrate_profile_products((pair,), n)[0]


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


def epsilon_bound(a_floor: float, b_floor: float) -> float:
    """min(ln A, ln B): the admissible ceiling for ln l."""
    if a_floor <= 0.0 or b_floor <= 0.0:
        raise ValueError("action floors must be positive")
    return min(math.log(a_floor), math.log(b_floor))


@dataclass(frozen=True)
class ParamDomain:
    eps: float

    def contains(self, point) -> bool:
        """A finite (a, b) with b below eps."""
        return (math.isfinite(point[0]) and math.isfinite(point[1])
                and point[1] < self.eps)


# ---------------------------------------------------------------------------
# compensating bump
# ---------------------------------------------------------------------------

def _bump01(s: np.ndarray) -> np.ndarray:
    """C^2 bump on [0, 1] with unit peak: (4 s (1-s))^3."""
    s = np.asarray(s, dtype=float)
    inside = (s > 0.0) & (s < 1.0)
    return np.where(inside, (4.0 * s * (1.0 - s)) ** 3, 0.0)


def _bump_integral(m: int) -> float:
    """I(m) = int_0^1 (4 s (1-s))^m ds = 4^m (m!)^2 / (2m+1)!, the Beta
    integral 4^m B(m+1, m+1), correctly rounded by the integer true
    division.  By the symmetry s -> 1-s, int_0^1 2 s (4 s (1-s))^m ds is
    I(m) as well."""
    return 4 ** m * math.factorial(m) ** 2 / math.factorial(2 * m + 1)


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
        """M_j = 2 pi int bump^j 2 r dr d(theta) over the box, j = 1..n,
        in closed form: bump^j is (4 s (1-s))^(3j) in each variable, so
        M_j = 2 pi theta_extent I(3j) r_extent^2 I(3j) (`_bump_integral`)."""
        out = []
        for j in range(1, n + 1):
            i = _bump_integral(3 * j)
            out.append(TWO_PI * (self.theta_extent * i)
                       * (self.r_extent ** 2 * i))
        return out

    def delta_volume(self, amplitude: float, n: int) -> float:
        """Volume change of the tube under the multiplier 1 + a*B, density
        scaling (1 + a*B)^n."""
        return _moment_sum(self.moments(n), amplitude)


def _moment_sum(mom, amplitude: float) -> float:
    """sum_j C(n, j) a^j M_j for the moments M_1..M_n, summed from 0 in
    order of j."""
    n = len(mom)
    total = 0
    for j, m in enumerate(mom, 1):
        total += math.comb(n, j) * amplitude ** j * m
    return total


def compensator_solve(v0: float, tube: CompensatorSpec,
                      n: int = 2) -> CompensatorSpec:
    """Amplitude making the tube volume change equal exactly -v0.

    Bisection on the moment polynomial of `CompensatorSpec.delta_volume`,
    on the closed-form moments; infeasible when the needed amplitude
    drives min(1 + nu) below one half.  The result records min(1 + nu)
    and the residual |delta_volume(amplitude) + v0| on the same moments;
    the midpoint-grid re-integration is a test oracle
    (`tests/oracles.py`).
    """
    if v0 >= tube.tube_volume():
        raise InfeasibleCompensation(
            f"cannot remove {v0:.3g} from a tube of volume "
            f"{tube.tube_volume():.3g}")
    target = -float(v0)
    if target == 0.0:
        return replace(tube, amplitude=0.0, target_delta_volume=0.0,
                       min_one_plus_nu=1.0, achieved_residual=0.0)

    mom = tube.moments(n)

    def delta_volume(amplitude):
        return _moment_sum(mom, amplitude)

    lo, hi = -0.5, 0.5
    f_lo = delta_volume(lo) - target
    while delta_volume(hi) - target < 0.0:
        hi *= 2.0
        if hi > 64.0:
            raise InfeasibleCompensation("compensation target unreachable")
    if f_lo > 0.0:
        raise InfeasibleCompensation(
            f"removing {v0:.3g} needs amplitude below -0.5 "
            "(min(1+nu) floor)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if delta_volume(mid) - target <= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-16 * max(1.0, abs(hi)):
            break
    amp = 0.5 * (lo + hi)
    min_nu = 1.0 + min(amp, 0.0)  # bump peak is exactly one
    return replace(tube, amplitude=amp, target_delta_volume=-target,
                   min_one_plus_nu=min_nu,
                   achieved_residual=abs(delta_volume(amp) - target))


# ---------------------------------------------------------------------------
# the family certificate
# ---------------------------------------------------------------------------

# Uniform steps of `contact_radii` for the family's contact check, its
# Gray margin and the Gray oracle's sup grid.
CONTACT_GRID = 2048
GRAY_METHOD = ("two-end affine bound u |B h1'| <= |D_u| on the contact "
               "radii; twist arc in closed form")


def contact_sign(pairs, where: str, extra=()) -> tuple:
    """(sign, rs, ds, h1p, h2s, values): the one nonzero sign of D with
    which every pair passes the contact check (`contact_report`) on
    rs = `contact_radii(pairs[0], CONTACT_GRID)`, and, on rs, D of each
    pair, h1', h2 of each pair and the values of each `extra` profile.

    The members of one family share h1 and their knots, so rs samples
    every pair's segments; a pair that does not raises InvalidGeometry.
    h1, h1', each pair's h2 and h2' and the `extra` profiles take one
    stacked evaluation (`profile.evaluate`), and D = h1 h2' - h1' h2 is
    formed from them in the order of `ProfilePair.wronskian`.  D/r is
    affine in the amplitude, so two such members keep that sign at every
    amplitude between them, at the checked radii (a sign change across r
    is a zero of D between samples)."""
    first = pairs[0]
    knots = first.knots()
    for p in pairs[1:]:
        if p.h1 is not first.h1:
            raise InvalidGeometry("the members of one family must share h1")
        if not np.array_equal(p.knots(), knots):
            raise InvalidGeometry(
                f"the members at {where} do not share their knots")
    rs = contact_radii(first, CONTACT_GRID)
    h1v, h1p, *vals = evaluate(
        [(first.h1, 0), (first.h1, 1)]
        + [(p.h2, k) for p in pairs for k in (0, 1)]
        + [(e, 0) for e in extra], rs)
    m = 2 * len(pairs)
    h2s = vals[:m:2]
    ds = [h1v * h2p - h1p * h2 for h2, h2p in zip(h2s, vals[1:m:2])]
    checks = [contact_report(rs, d / rs, CONTACT_GRID) for d in ds]
    sign = checks[0].sign
    if not (sign != 0 and all(c.passed and c.sign == sign for c in checks)):
        raise SingularLocus(f"contact condition fails at {where}: {checks}")
    return sign, rs, ds, h1p, h2s, vals[m:]


@dataclass(frozen=True)
class FamilyCertificate:
    """What every member of an amplitude family on [u_lo, u_hi] shares,
    certified once from its two end members by `certify_family`."""
    u_lo: float
    u_hi: float
    contact_sign: int
    r_plus: float        # the zeros r+ < r+' of the shared h1
    r_plus_prime: float
    volumes: tuple       # signed 4 pi^2 int h1^(n-2) D at u_lo and u_hi
    margin: float        # least 1 - u f off the twist arc, by GRAY_METHOD

    def tube_volume(self, u: float) -> float:
        """`tube_volume` of the member at u, interpolated between the ends:
        the integral is affine in u and keeps one sign on the range."""
        v_lo, v_hi = self.volumes
        t = (u - self.u_lo) / (self.u_hi - self.u_lo)
        return abs(v_lo + t * (v_hi - v_lo))

    def gray_margin(self) -> float:
        """The margin, which must be nonnegative: then a Gray leg between
        any two amplitudes of the range is worth |ln(u2/u1)|."""
        if self.margin < 0.0:
            raise PreconditionFailed(
                f"the Gray rate exceeds 1/u off the twist arc (margin "
                f"{self.margin:.3g}); no closed-form leg on "
                f"[{self.u_lo}, {self.u_hi}]")
        return self.margin

    def to_dict(self) -> dict:
        return {"u_range": [self.u_lo, self.u_hi],
                "contact_sign": self.contact_sign, "margin": self.margin,
                "method": GRAY_METHOD}


def certify_family(family: TwistedPathFamily, u_lo: float, u_hi: float,
                   n: int) -> FamilyCertificate:
    """Certify every member on [u_lo, u_hi] from the members at the ends.

    The members share one h1, and h2 = A + u B is affine in u by
    construction (`TwistedPathFamily.pair`).  Hence, for every u in range:
    - D_u = D_A + u D_B, so contact with one sign at both ends (on
      `contact_radii(p_lo, CONTACT_GRID)`) holds at u, and the path,
      which winds once at both ends and is never parallel on the way,
      winds once at u;
    - the zeros r+ < r+' of h1, read once by `reeb.action_minima` off the
      exact zero set, are the member's;
    - int h1^(n-2) D_u is affine in u, so two endpoint quadratures give
      the member's tube volume, provided they have one sign; both ends
      take one set of panel nodes and one stacked evaluation there
      (`_integrate_profile_products`);
    - the Gray rate f = |B h1' / D_u| has u f <= 1 wherever
      u |B h1'| <= |D_u| holds at both ends (both sides are affine while
      D_u keeps its sign), which is checked on the same radii, with the
      family's B and the ends' h1' and D that `contact_sign` evaluated
      there in one stacked call, off the twist arc (window.hi, 1/2].  On
      the arc both profiles are trigonometric and f = sin^2(2 pi r)/u
      exactly.  The least 1 - u f is the margin; a negative one is
      recorded, and `FamilyCertificate.gray_margin` refuses it.
    The ends must share h1 and their knots, which `contact_sign` checks.
    """
    if not u_lo < u_hi:
        raise InvalidGeometry(
            f"a family certificate needs two amplitudes u_lo < u_hi, got "
            f"[{u_lo}, {u_hi}]")
    ends = p_lo, p_hi = family.pair(u_lo), family.pair(u_hi)
    sign, rs, ds, h1p, _, (b,) = contact_sign(
        ends, f"the ends u = {u_lo}, {u_hi} of the family", (family.B,))
    r_plus, r_pp, _, _ = reeb.action_minima(p_lo)  # winds once at u_lo
    if p_hi.winding_number() != 1:
        raise InvalidGeometry(
            f"the member at u = {u_hi} is not a full-twist path")

    volumes = tuple(4.0 * math.pi ** 2 * v
                    for v in _integrate_profile_products(ends, n))
    if not volumes[0] * volumes[1] > 0.0:
        raise InvalidGeometry(
            f"the tube volume integral changes sign on [{u_lo}, {u_hi}]: "
            f"{volumes}")

    # on the radii on which `contact_sign` just passed both ends
    off_arc = (rs <= family.window.hi) | (rs > 0.5)
    rate = np.abs(b * h1p)
    margin = min(float(np.min((1.0 - u * rate / np.abs(d))[off_arc]))
                 for u, d in zip((u_lo, u_hi), ds))
    return FamilyCertificate(u_lo=u_lo, u_hi=u_hi, contact_sign=sign,
                             r_plus=r_plus, r_plus_prime=r_pp,
                             volumes=volumes, margin=margin)


# ---------------------------------------------------------------------------
# the family model
# ---------------------------------------------------------------------------

# Relative tolerances of a member's recomputed l-invariant and volume.
L_ROUND_TRIP = 1e-8
VOLUME_ROUND_TRIP = 1e-7

# Largest member amplitude of a model; the extension depth of the model's
# one family is sized for it.  It sits just above u = 0.146, the largest
# amplitude whose compensator is feasible (n = 2, unit floors) when each
# member is sized for its own amplitude instead.
U_CAP = 0.15


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
    # the certificate of the model family `pair` is from
    certificate: FamilyCertificate = field(repr=False)
    compensator: CompensatorSpec
    tube_volume_normalized: float
    reservoir_volume: float
    base_volume: float = 1.0
    certified: bool = False
    cert_flags: dict = field(default_factory=dict)
    l_recomputed: float = math.nan  # the l-invariant embedding verified

    @property
    def scale(self) -> float:
        return self.k ** (1.0 / self.n)

    def scaled_pair(self) -> ProfilePair:
        return self.pair.scaled(self.scale)

    def l_invariant(self) -> float:
        """Lowest certified action of the scaled form, recomputed from
        scratch (`reeb.l_invariant` on the refitted scaled pair): the
        oracle of `l_recomputed`."""
        return reeb.l_invariant(self.scaled_pair(), self.twist,
                                ambient_floor_a=self.scale
                                * self.ambient_floor_a)

    def total_volume(self) -> float:
        """Total volume: k times the normalised unit."""
        v_k1 = (self.compensator.tube_volume()
                + self.compensator.delta_volume(self.compensator.amplitude,
                                                self.n))
        normalized = self.tube_volume_normalized + v_k1 + self.reservoir_volume
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
    """Shared geometry, the one amplitude family every member is built
    from, its certificate over [u_ref, U_CAP] and the base volumes for
    embedding points."""

    def __init__(self, ambient_floor_a: float = 1.0,
                 compensator_floor_b: float = 1.0, n: int = 2,
                 defaults: Optional[FamilyDefaults] = None):
        self.n = int(n)
        if self.n < 2:
            raise InvalidGeometry(f"dimension n must be at least 2, got {n}")
        self.ambient_floor_a = float(ambient_floor_a)
        self.compensator_floor_b = float(compensator_floor_b)
        self.defaults = defaults or FamilyDefaults()
        self.eps_bound = epsilon_bound(ambient_floor_a, compensator_floor_b)
        self.domain = ParamDomain(self.eps_bound)
        self.family = TwistedPathFamily(self.defaults.twist,
                                        self.defaults.u_ref, U_CAP)
        self.certificate = certify_family(self.family, self.defaults.u_ref,
                                          U_CAP, self.n)
        eps_p = self.defaults.tube_phys_radius
        self.base_tube_volume = eps_p ** 2 * self.certificate.tube_volume(
            self.defaults.u_ref)
        comp = self.defaults.compensator
        self.reservoir_volume = (1.0 - self.base_tube_volume
                                 - comp.tube_volume())
        if self.reservoir_volume <= 0.0:
            raise InvalidGeometry("model tubes exceed the unit total volume")

    def amplitude_for(self, k: float, l: float) -> float:
        """Invert l = k^(1/n) (1 + delta2) u for the member amplitude."""
        return (l * self.defaults.u_ref
                / (k ** (1.0 / self.n) * self.defaults.l_base))

    def embed_point(self, point) -> FormSpec:
        """Realise (a, b) = (ln k^(1/n), ln l) as a certified FormSpec.

        The member is read off the model's certificate, with no quadrature
        and no root search: its tube volume is interpolated between the end
        volumes, the compensator is solved on closed-form bump moments
        (`CompensatorSpec.moments`), and the action inequalities are
        checked on the member's own h2 at the shared zeros r+ < r+' of h1,
        giving
        l_recomputed = k^(1/n) 2 pi |h2_u(r+)| (1 + delta mu_-).
        """
        a, b = float(point[0]), float(point[1])
        if not self.domain.contains((a, b)):
            raise DomainViolation(
                f"b = {b:.6g} is not below eps = {self.eps_bound:.6g}"
                if math.isfinite(a) and math.isfinite(b)
                else f"(a, b) = ({a:.6g}, {b:.6g}) is not a finite point")
        k = math.exp(self.n * a)
        l = math.exp(b)
        u = self.amplitude_for(k, l)
        if u < self.defaults.u_ref * (1.0 - 1e-12):
            raise InvalidGeometry(
                f"target l = {l:.4g} at k = {k:.4g} sits below the "
                f"controllable floor k^(1/n) L0 = "
                f"{k ** (1.0 / self.n) * self.defaults.l_base:.4g}; "
                "a thinner twist region (smaller epsilon0) is required")
        if u > U_CAP:
            raise DomainViolation(
                f"target l = {l:.4g} at k = {k:.4g} needs amplitude "
                f"{u:.4g}, above the model's cap U_CAP = {U_CAP}")
        pair = self.family.pair(u)
        twist = replace(self.family.params, u=u)
        cert = self.certificate

        eps_p = self.defaults.tube_phys_radius
        v_tube = eps_p ** 2 * cert.tube_volume(u)
        v0 = v_tube - self.base_tube_volume
        comp = compensator_solve(v0, self.defaults.compensator, self.n)

        spec = FormSpec(n=self.n, k=k, l=l, a=a, b=b, u=u, twist=twist,
                        ambient_floor_a=self.ambient_floor_a,
                        compensator_floor_b=self.compensator_floor_b,
                        defaults=self.defaults, pair=pair, certificate=cert,
                        compensator=comp,
                        tube_volume_normalized=v_tube,
                        reservoir_volume=self.reservoir_volume)
        # both inequalities are invariant under the scaling by k^(1/n)
        check = reeb.claction_at(pair, twist, self.ambient_floor_a,
                                 cert.r_plus, cert.r_plus_prime)
        if not check["passed"]:
            raise PreconditionFailed(f"action certification failed: {check}")
        spec.l_recomputed = (spec.scale * check["action_plus"]
                             * (1.0 + twist.delta * twist.mu_minus))
        flags = {}
        flags["l_round_trip"] = bool(
            abs(spec.l_recomputed - l) / l <= L_ROUND_TRIP)
        vol = spec.total_volume()
        flags["volume_round_trip"] = bool(
            abs(vol - k) / k <= VOLUME_ROUND_TRIP)
        # the action certificate passed, or PreconditionFailed was raised
        flags["claction"] = True
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
            values = (s.a, s.b, s.k, s.l, s.total_volume(), s.l_recomputed,
                      sys_r)
            fh.write("".join(f"{v:.17g}," for v in values) + flags + "\n")
