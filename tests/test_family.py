import math
from fractions import Fraction

import numpy as np
import pytest

from lutzlab import distance as dist
from lutzlab import family as fam
from lutzlab import profile as prof
from lutzlab import reeb
from lutzlab.errors import (DomainViolation, InfeasibleCompensation,
                            InvalidGeometry, PreconditionFailed,
                            QuadratureFailure)
from lutzlab.numerics import gl_panel_nodes
from lutzlab.profile import TWO_PI

import oracles

FOUR_PI2 = 4.0 * math.pi ** 2


# --- epsilon bound ----------------------------------------------------------

def test_epsilon_bound_values():
    assert fam.epsilon_bound(1.2, 0.9) == pytest.approx(math.log(0.9))
    assert fam.epsilon_bound(1.0, 1.0) == 0.0
    assert fam.epsilon_bound(math.e, math.e ** 2) == pytest.approx(1.0)


def test_param_domain():
    dom = fam.ParamDomain(0.0)
    assert dom.contains((5.0, -0.1)) and not dom.contains((0.0, 0.0))


# --- tube volume ------------------------------------------------------------

def test_tube_volume_cap_closed_form(cap_pair):
    v = fam.tube_volume(cap_pair)
    assert v == pytest.approx(FOUR_PI2, rel=1e-13)
    half = prof.standard_cap_pair(0.5)
    assert fam.tube_volume(half) == pytest.approx(FOUR_PI2 * 0.25, rel=1e-13)


def test_tube_volume_scaling_law(cap_pair, smooth_pair):
    for pair in (cap_pair, smooth_pair):
        v1 = fam.tube_volume(pair)
        assert fam.tube_volume(pair.scaled(2.0)) == pytest.approx(
            4.0 * v1, rel=1e-12)
        assert fam.tube_volume(pair, n=3) * 8.0 == pytest.approx(
            fam.tube_volume(pair.scaled(2.0), n=3), rel=1e-12)


def test_panel_knots_match_set_construction(smooth_pair, cap_pair, model):
    for pair in (smooth_pair, cap_pair, model.family.pair(0.1)):
        edges = set()
        for p in (pair.h1, pair.h2):
            edges.update(float(b) for b in p.breakpoints)
        want = np.array(sorted(edges))
        got = pair.knots()
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_tube_volume_montecarlo_crosscheck(smooth_pair):
    v = fam.tube_volume(smooth_pair)
    mc = oracles.tube_volume_montecarlo(smooth_pair, 20_000_000, seed=0)
    assert abs(mc - v) / v < 1e-3


def _reference_profile_product(pair, n):
    """int_0^eps h1^(n-2) D dr with Gauss-Legendre order 40 on every panel
    between the pair's knots, checked against order 30: the oracle of
    `_integrate_profile_product`, which takes order 20, also on the
    degree-40 Chebyshev pieces of a mollified window."""
    knots = pair.knots()
    vals = []
    for order in (30, 40):
        rs, weights = gl_panel_nodes(knots[:-1], knots[1:], order)
        flat = rs.ravel()
        d = pair.wronskian(flat)
        if n > 2:
            d = pair.h1.value(flat) ** (n - 2) * d
        vals.append(float(np.sum(weights * d.reshape(rs.shape))))
    assert abs(vals[1] - vals[0]) <= 1e-10 * max(abs(vals[1]), 1.0)
    return vals[1]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_profile_product_matches_all_panel_oracle(n, model, cap_pair,
                                                  raw_pair, smooth_pair):
    # family members at both ends of the model's range and between them,
    # the README's mollified pair, and the untwisted cap and a raw path,
    # the last two with no window
    pairs = [model.family.pair(u)
             for u in (model.defaults.u_ref, 0.05, fam.U_CAP)]
    for pair in pairs + [smooth_pair, cap_pair, raw_pair]:
        want = _reference_profile_product(pair, n)
        got = fam._integrate_profile_product(pair, n)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_volume_guard_fires_off_the_tables():
    # h1 = 1, h2 = r^2 + r^40 on the one panel [0, 1]: orders 12 and 20
    # disagree on the degree-39 integrand
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0,))])
    coeffs = np.zeros(41)
    coeffs[[2, 40]] = 1.0
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, coeffs)])
    with pytest.raises(QuadratureFailure, match="disagree"):
        fam._integrate_profile_product(prof.ProfilePair(h1, h2, 1.0), 2)


def test_tube_volume_orientation():
    # reversed-orientation pair: the volume is still the positive magnitude
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0,))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.0, 0.0, -1.0))])
    vol = fam.tube_volume(prof.ProfilePair(h1, h2, 1.0))
    assert vol == pytest.approx(FOUR_PI2, rel=1e-13)


def _certificate_per_end(family, u_lo, u_hi, n):
    """(sign, r+, r+', volumes, margin) of `certify_family` the way it once
    took them: D of each end by `ProfilePair.wronskian` and each end's
    volume integral by one quadrature per Gauss-Legendre order; the oracle
    of the shared evaluations."""
    ends = p_lo, p_hi = family.pair(u_lo), family.pair(u_hi)
    rs = prof.contact_radii(p_lo, fam.CONTACT_GRID)
    ds = [p.wronskian(rs) for p in ends]
    (sign,) = {prof.contact_report(rs, d / rs, fam.CONTACT_GRID).sign
               for d in ds}
    r_plus, r_pp, _, _ = reeb.action_minima(p_lo)

    def volume(pair):
        knots = pair.knots()

        def scan(order):
            rs, weights = gl_panel_nodes(knots[:-1], knots[1:], order)
            flat = rs.ravel()
            d = pair.wronskian(flat)
            if n > 2:
                d = pair.h1.value(flat) ** (n - 2) * d
            return float(np.sum(weights * d.reshape(rs.shape)))
        lo, total = scan(12), scan(20)
        assert abs(total - lo) <= 1e-10 * max(abs(total), 1.0)
        return 4.0 * math.pi ** 2 * total

    off_arc = (rs <= family.window.hi) | (rs > 0.5)
    rate = np.abs(family.B.value(rs) * p_lo.h1.deriv(rs))
    margin = min(float(np.min((1.0 - u * rate / np.abs(d))[off_arc]))
                 for u, d in zip((u_lo, u_hi), ds))
    return sign, r_plus, r_pp, tuple(volume(p) for p in ends), margin


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("which", ["model", "gray"])
def test_certificate_equals_the_per_end_oracle(which, n, gray_family):
    # evaluating each profile once per radius set changes no bit of the
    # certificate, nor of what `contact_sign` hands the Gray oracle
    if which == "model":
        defaults = fam.FamilyDefaults()
        family = prof.TwistedPathFamily(defaults.twist, defaults.u_ref,
                                        fam.U_CAP)
        u_lo, u_hi = defaults.u_ref, fam.U_CAP
    else:
        family, u_lo, u_hi = gray_family, 0.04, 0.06
    cert = fam.certify_family(family, u_lo, u_hi, n)
    got = (cert.contact_sign, cert.r_plus, cert.r_plus_prime, cert.volumes,
           cert.margin)
    assert got == _certificate_per_end(family, u_lo, u_hi, n)
    ends = [family.pair(u) for u in (u_lo, u_hi)]
    _, rs, ds, h1p, h2s, (b,) = fam.contact_sign(ends, "the ends",
                                                 (family.B,))
    assert np.array_equal(h1p, ends[0].h1.deriv(rs))
    for p, d, h2 in zip(ends, ds, h2s):
        assert np.array_equal(d, p.wronskian(rs))
        assert np.array_equal(h2, p.h2.value(rs))
    assert np.array_equal(b, family.B.value(rs))
    # one pair takes the same path: `tube_volume` is the oracle's volume
    for p, v in zip(ends, cert.volumes):
        assert fam.tube_volume(p, n) == abs(v)


def test_model_build_evaluates_each_profile_once_per_radius_set(monkeypatch):
    # one `profile.evaluate` call per radius set takes every series the
    # certificate reads there: h1 and each end's h2, by value and first
    # derivative, on the contact radii and on the tube-volume nodes (both
    # Gauss-Legendre orders), and B's values on the contact radii; a shared
    # h1 is not evaluated again for the second end, and no h2 at a third
    # amplitude, nor any profile by its own methods on a radius set
    defaults = fam.FamilyDefaults()
    ref = prof.TwistedPathFamily(defaults.twist, defaults.u_ref,
                                 fam.U_CAP).pair(defaults.u_ref)
    knots = ref.knots()
    radius_sets = {
        "contact": prof.contact_radii(ref, fam.CONTACT_GRID),
        "volume": np.concatenate([
            gl_panel_nodes(knots[:-1], knots[1:], order)[0].ravel()
            for order in (12, 20)])}

    def names(r):
        rf = np.atleast_1d(np.asarray(r, dtype=float))
        return [name for name, radii in radius_sets.items()
                if np.all(np.isin(radii, rf))] or [None]
    # (profile, method, radius set or None) of each term evaluated while
    # certifying, the radius sets of each call, and the radius sets of the
    # profiles' own methods; all three hold the profiles alive
    seen, calls, direct, certifying = [], [], [], []
    real_evaluate = prof.evaluate

    def recording_evaluate(terms, r):
        if certifying:
            calls.extend(names(r))
            seen.extend((profile, ("value", "deriv", "deriv2")[order], name)
                        for profile, order in terms for name in names(r))
        return real_evaluate(terms, r)
    monkeypatch.setattr(prof, "evaluate", recording_evaluate)
    monkeypatch.setattr(fam, "evaluate", recording_evaluate)
    for method in ("value", "deriv", "deriv2"):
        real = getattr(prof.PiecewiseProfile, method)

        def recording(self, r, method=method, real=real):
            if certifying:
                direct.extend((self, method, name) for name in names(r))
            return real(self, r)
        monkeypatch.setattr(prof.PiecewiseProfile, method, recording)
    members = []  # (u, pair)
    real_pair, real_certify = prof.TwistedPathFamily.pair, fam.certify_family

    def recording_pair(self, u):
        members.append((u, real_pair(self, u)))
        return members[-1][1]

    def recording_certify(*args):
        certifying.append(True)
        return real_certify(*args)
    monkeypatch.setattr(prof.TwistedPathFamily, "pair", recording_pair)
    monkeypatch.setattr(fam, "certify_family", recording_certify)
    model = fam.FamilyModel(1.0, 1.0, n=3)
    assert sorted(u for u, _ in members) == [defaults.u_ref, fam.U_CAP]
    label = {id(p.h2): f"h2({u})" for u, p in members}
    label[id(members[0][1].h1)] = "h1"
    label[id(model.family.B)] = "B"
    # every profile evaluated is h1, B or an end's h2
    assert {id(p) for p, _, _ in seen + direct} <= set(label)
    # one call per radius set, and no profile's own method sees one
    assert sorted(name for name in calls if name) == ["contact", "volume"]
    assert all(name is None for _, _, name in direct)
    counts = {}
    for profile, method, name in seen:
        key = (label[id(profile)], method, name)
        counts[key] = counts.get(key, 0) + 1
    assert max(n for (_, _, name), n in counts.items() if name) == 1
    # h1 and the two ends' h2, by both methods, on both sets; B's values
    # on the contact radii
    assert {k for k in counts if k[2]} == {
        (p, method, name) for p in ("h1", f"h2({defaults.u_ref})",
                                    f"h2({fam.U_CAP})")
        for method in ("value", "deriv")
        for name in radius_sets} | {("B", "value", "contact")}


def _with_extra_knot(profile, r):
    """`profile` with a breakpoint added at r: the same function, cut in
    two on the piece holding r."""
    bps = list(profile.breakpoints)
    i = int(np.searchsorted(bps, r)) - 1
    return prof.PiecewiseProfile(
        bps[:i + 1] + [r] + bps[i + 1:],
        profile.segments[:i + 1] + profile.segments[i:])


class _ExtraKnotAtCap(prof.TwistedPathFamily):
    """A family whose member at u_max carries an extra knot in h2."""

    def pair(self, u):
        p = super().pair(u)
        if u < self.u_max:
            return p
        return prof.ProfilePair(p.h1, _with_extra_knot(p.h2, 0.6),
                                p.epsilon)


def test_members_must_share_their_knots(gray_family):
    # the ends are sampled on the first end's contact radii and one set of
    # volume panels: an end with an extra knot would be sampled on the
    # wrong radii, and is refused
    lo, hi = gray_family.pair(0.04), gray_family.pair(0.06)
    odd = prof.ProfilePair(hi.h1, _with_extra_knot(hi.h2, 0.6), hi.epsilon)
    assert np.array_equal(odd.h2.value(np.linspace(0.0, 1.0, 101)),
                          hi.h2.value(np.linspace(0.0, 1.0, 101)))
    with pytest.raises(InvalidGeometry, match="share their knots"):
        fam.contact_sign([lo, odd], "the ends")
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    with pytest.raises(InvalidGeometry, match="share their knots"):
        fam.certify_family(_ExtraKnotAtCap(base, 0.04, 0.06), 0.04, 0.06, 2)


# --- compensator ------------------------------------------------------------

def comp_with_volume(target_volume=0.2):
    radius = math.sqrt(target_volume / FOUR_PI2)
    return fam.CompensatorSpec(tube_radius=radius, theta_extent=5.0,
                               r_extent=0.9 * radius)


def test_compensator_zero_target():
    spec = fam.compensator_solve(0.0, comp_with_volume())
    assert spec.amplitude == 0.0 and spec.min_one_plus_nu == 1.0


def test_compensator_small_removal():
    tube = comp_with_volume(0.2)
    assert tube.tube_volume() == pytest.approx(0.2, rel=1e-12)
    spec = fam.compensator_solve(0.01, tube)
    assert spec.amplitude < 0.0
    assert spec.min_one_plus_nu >= 0.5
    # the midpoint-grid re-integration agrees to 1e-6 relative
    achieved = oracles.delta_volume_grid(spec, spec.amplitude, 2)
    assert abs(achieved + 0.01) / 0.01 < 1e-6
    assert spec.achieved_residual < 1e-8 * 0.01 + 1e-14


def test_compensator_addition():
    spec = fam.compensator_solve(-0.01, comp_with_volume(0.2))
    assert spec.amplitude > 0.0 and spec.min_one_plus_nu == 1.0


def test_compensator_infeasible():
    with pytest.raises(InfeasibleCompensation):
        fam.compensator_solve(0.19, comp_with_volume(0.2))


def test_compensator_computes_moments_once(monkeypatch):
    calls = []
    moments = fam.CompensatorSpec.moments

    def counted(self, n):
        calls.append(n)
        return moments(self, n)
    monkeypatch.setattr(fam.CompensatorSpec, "moments", counted)
    tube = comp_with_volume(0.2)
    for n in (2, 3):
        calls.clear()
        spec = fam.compensator_solve(0.01, tube, n=n)
        fam.compensator_solve(0.02, tube, n=n)
        # once per solve, not once per bisection step
        assert calls == [n, n]
        # the solve's moment sum is delta_volume's, bit for bit
        assert spec.achieved_residual == abs(
            tube.delta_volume(spec.amplitude, n) + 0.01)


def test_moment_sum_is_the_binomial_sum():
    # C(n, j) a^j M_j in this product order, summed from zero
    mom = fam.CompensatorSpec().moments(4)
    for n in (1, 2, 3, 4):
        for amp in (-0.37, 1e-3, 0.5, 3.0):
            want = 0
            for j in range(1, n + 1):
                want += math.comb(n, j) * amp ** j * mom[j - 1]
            assert fam._moment_sum(mom[:n], amp) == want


def test_moments_are_the_beta_integrals():
    # M_j = 2 pi theta_ext I(3j) r_ext^2 I(3j), I(m) = 4^m (m!)^2 / (2m+1)!,
    # against the exact product of the float inputs
    for tube in (fam.CompensatorSpec(), comp_with_volume(0.2)):
        for n in range(2, 9):
            for j, m in enumerate(tube.moments(n), 1):
                k = 3 * j
                beta = Fraction(4 ** k * math.factorial(k) ** 2,
                                math.factorial(2 * k + 1))
                exact = (Fraction(TWO_PI) * Fraction(tube.theta_extent)
                         * Fraction(tube.r_extent) ** 2 * beta ** 2)
                assert abs(Fraction(m) - exact) <= 2 * Fraction(
                    math.ulp(float(exact)))


def test_delta_volume_matches_the_midpoint_grid():
    for tube in (fam.CompensatorSpec(), comp_with_volume(0.2)):
        for n in (2, 3, 4):
            for amp in (-0.4, -0.03, 0.01, 0.5, 2.0):
                grid = oracles.delta_volume_grid(tube, amp, n)
                assert tube.delta_volume(amp, n) == pytest.approx(
                    grid, rel=1e-9, abs=0.0)


def test_compensator_bump_support():
    tube = comp_with_volume()
    assert tube.bump(0.0, 0.0) == 0.0
    assert tube.bump(tube.theta_extent / 2, tube.r_extent / 2) == 1.0
    assert tube.bump(tube.theta_extent * 1.1, tube.r_extent / 2) == 0.0


# --- embedding --------------------------------------------------------------

def test_embed_base_point(model, base_b):
    spec = model.embed_point((0.0, base_b))
    assert spec.k == pytest.approx(1.0)
    assert spec.u == pytest.approx(model.defaults.u_ref, rel=1e-12)
    assert spec.compensator.amplitude == pytest.approx(0.0, abs=1e-12)
    assert spec.certified
    assert spec.total_volume() == pytest.approx(1.0, rel=1e-9)


def test_embed_volume_is_k(model):
    spec = model.embed_point((math.log(2.0), math.log(0.05)))
    assert spec.k == pytest.approx(4.0)
    assert spec.total_volume() == pytest.approx(4.0, rel=1e-7)


def _counting(calls, key, fn):
    def counted(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return counted


def test_embed_computes_each_verified_quantity_once(monkeypatch):
    # the model certifies its family once, with one quadrature holding both
    # end members' volume integrals (the signed integrals `tube_volume`
    # takes the modulus of) and one action_minima; members read that
    # certificate and recompute none of it
    calls = dict.fromkeys(("tube_volume", "quadratures", "minima", "l"), 0)
    real_volume = fam.tube_volume
    for owner, attr, key in ((fam, "_integrate_profile_products",
                              "quadratures"),
                             (fam, "tube_volume", "tube_volume"),
                             (reeb, "action_minima", "minima"),
                             (reeb, "l_invariant", "l")):
        monkeypatch.setattr(owner, attr,
                            _counting(calls, key, getattr(owner, attr)))
    model = fam.FamilyModel(1.0, 1.0, n=2)
    built = {"tube_volume": 0, "quadratures": 1, "minima": 1, "l": 0}
    assert calls == built
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((0.1, math.log(0.05)))
    assert calls == built
    wit = dist.lower_bound(s1, s2).witnesses
    assert calls == built
    assert wit["l_recomputed"] == (s1.l_recomputed, s2.l_recomputed)
    monkeypatch.undo()
    for s in (s1, s2):
        # the stored values are the closed forms; they agree with the
        # from-scratch oracles to rounding, no longer bit for bit
        assert s.l_recomputed == pytest.approx(s.l_invariant(), rel=1e-12,
                                               abs=0.0)
        eps_p = s.defaults.tube_phys_radius
        assert s.tube_volume_normalized == pytest.approx(
            eps_p ** 2 * real_volume(s.pair, s.n), rel=1e-14, abs=0.0)


def test_embed_round_trip_grid(model):
    # l and volume round-trip across a 10x10 grid of admissible points
    a_vals = np.linspace(0.0, 0.5 * math.log(4.0), 10)
    b_vals = np.linspace(math.log(0.021), math.log(0.06), 10)
    worst_l = worst_v = 0.0
    for a in a_vals:
        for b in b_vals:
            s = model.embed_point((float(a), float(b)))
            worst_l = max(worst_l, abs(s.l_invariant() - s.l) / s.l)
            worst_v = max(worst_v, abs(s.total_volume() - s.k) / s.k)
    assert worst_l < 1e-8
    assert worst_v < 1e-7


def test_embed_winds_once(monkeypatch):
    # the full twist is counted once at each end of the model's family;
    # every member between them is a homotopy of never-parallel paths
    calls = []
    winding = prof.ProfilePair.winding_number

    def counted(pair):
        calls.append(pair)
        return winding(pair)

    monkeypatch.setattr(prof.ProfilePair, "winding_number", counted)
    model = fam.FamilyModel(1.0, 1.0, n=2)
    assert len(calls) == 2
    spec = model.embed_point((0.07, math.log(0.045)))
    assert spec.certified
    assert len(calls) == 2


def _oracle_errors(model, spec):
    """Relative errors of the closed-form volume, l-invariant and
    moment-form midpoint check against their recomputations."""
    eps_p = spec.defaults.tube_phys_radius
    volume = eps_p ** 2 * fam.tube_volume(spec.pair, spec.n)
    amp = spec.compensator.amplitude
    tube = model.defaults.compensator
    grid = oracles.delta_volume_grid(tube, amp, spec.n)
    return (abs(spec.tube_volume_normalized - volume) / volume,
            abs(spec.l_recomputed - spec.l_invariant()) / spec.l,
            abs(fam._moment_sum(oracles.grid_moments(tube, spec.n), amp)
                - grid)
            / max(abs(grid), 1e-300))


def test_closed_form_members_match_the_oracles(model):
    # the round-trip grid's 100 members at n = 2, and a few at n = 3
    a_vals = np.linspace(0.0, 0.5 * math.log(4.0), 10)
    b_vals = np.linspace(math.log(0.021), math.log(0.06), 10)
    cases = [(model, (float(a), float(b))) for a in a_vals for b in b_vals]
    model3 = fam.FamilyModel(1.0, 1.0, n=3)
    cases += [(model3, p) for p in ((0.0, math.log(0.03)),
                                    (0.1, math.log(0.05)),
                                    (-0.3, math.log(0.045)))]
    for m, p in cases:
        vol, l_inv, grid = _oracle_errors(m, m.embed_point(p))
        assert vol <= 1e-14
        assert l_inv <= 1e-12
        assert grid <= 1e-12


def test_member_failing_its_own_action_inequality_is_rejected():
    # with an ambient floor of 0.05, l = 0.0499 at k = 1 needs the action
    # 2 pi |h2(r+)| = l / (1 + delta mu_-) = 0.0504 > 0.05: the member's
    # own inequality fails, as it does for the from-scratch l-invariant
    model = fam.FamilyModel(0.05, 1.0, n=2)
    bad = (0.0, math.log(0.0499))
    with pytest.raises(PreconditionFailed, match="action certification"):
        model.embed_point(bad)
    assert model.embed_point((0.0, math.log(0.049))).certified


def test_model_needs_dimension_two_or_more():
    for n in (1, 0, -2):
        with pytest.raises(InvalidGeometry):
            fam.FamilyModel(1.0, 1.0, n=n)


def test_embed_domain_violation(model):
    with pytest.raises(DomainViolation):
        model.embed_point((0.0, 0.1))


@pytest.mark.parametrize("point", [(math.nan, -3.2), (0.0, math.nan),
                                   (math.inf, -3.2), (-math.inf, -3.2),
                                   (0.0, -math.inf)])
def test_embed_rejects_a_non_finite_point(model, point):
    assert not model.domain.contains(point)
    with pytest.raises(DomainViolation, match="not a finite point"):
        model.embed_point(point)


def test_embed_below_floor_rejected(model):
    with pytest.raises(InvalidGeometry):
        model.embed_point((math.log(4.0) / 2, math.log(0.005)))


def test_embed_amplitude_cap(model):
    # (-1, ln 0.06) needs u = 0.165, above the cap of the model's family
    assert model.amplitude_for(math.exp(-2.0), 0.06) > fam.U_CAP
    with pytest.raises(DomainViolation):
        model.embed_point((-1.0, math.log(0.06)))
    # the point at amplitude 0.149, just below the cap, certifies
    b = math.log(0.149 * math.exp(-1.0) * model.defaults.l_base
                 / model.defaults.u_ref)
    spec = model.embed_point((-1.0, b))
    assert spec.u == pytest.approx(0.149, rel=1e-12)
    assert spec.certified


def test_members_share_one_family(model):
    # a Gray leg runs in the model's one family, so every member carries the
    # model's certificate and is that family's member at its amplitude
    specs = [model.embed_point(p) for p in
             ((0.0, math.log(0.03)), (0.1, math.log(0.05)),
              (0.0, math.log(0.06)))]
    assert all(s.certificate is model.certificate for s in specs)
    rs = np.linspace(0.0, 1.0, 4001)
    for s in specs:
        rebuilt = model.family.pair(s.u)
        for got, want in ((rebuilt.h1, s.pair.h1), (rebuilt.h2, s.pair.h2)):
            assert np.max(np.abs(got.value(rs) - want.value(rs))) <= 1e-15


def test_compensation_neutrality(model):
    # moving l at fixed k leaves the total volume at k
    vols = [model.embed_point((0.1, math.log(l))).total_volume()
            for l in (0.03, 0.045, 0.06)]
    k = math.exp(2 * 0.1)
    assert max(abs(v - k) / k for v in vols) < 1e-7


def test_compensator_floor_certificate(model):
    spec = model.embed_point((0.0, math.log(0.06)))
    implied = spec.compensator.min_one_plus_nu * spec.compensator_floor_b
    assert spec.cert_flags["compensator_floor_above_l"]
    assert implied > spec.l
    # the family-uniform proxy is conservative: reported, not required
    assert "compensator_floor_uniform" in spec.cert_flags


def test_formspec_json(model, base_b):
    import json
    spec = model.embed_point((0.0, base_b))
    doc = json.loads(spec.to_json())
    assert doc["k"] == pytest.approx(1.0)
    assert doc["certified"] is True
    assert "twist" in doc and "compensator" in doc


# --- scaling and systolic ratio ---------------------------------------------

@pytest.mark.parametrize("c", [0.5, 2.0, math.e])
def test_scaling_check_n2(model, c):
    spec = model.embed_point((0.05, math.log(0.04)))
    rep = fam.scaling_check(spec, c)
    assert rep.passed
    assert abs(rep.volume_ratio - c ** 2) / c ** 2 < 1e-9
    assert abs(rep.l_ratio - c) / c < 1e-9


def test_scaling_check_n3():
    model3 = fam.FamilyModel(1.0, 1.0, n=3)
    spec = model3.embed_point((0.05, math.log(0.04)))
    rep = fam.scaling_check(spec, 2.0)
    assert rep.passed and rep.volume_expected == 8.0
    assert abs(rep.volume_ratio - 8.0) / 8.0 < 1e-9


def test_systolic_ratio(model):
    spec = model.embed_point((math.log(4.0) / 2, math.log(0.02)))
    assert fam.systolic_ratio(spec) == pytest.approx(0.02 ** 2 / 4.0,
                                                     rel=1e-12)
    spec_base = model.embed_point((0.0, math.log(model.defaults.l_base)))
    assert fam.systolic_ratio(spec_base) == pytest.approx(
        model.defaults.l_base ** 2, rel=1e-12)


def test_systolic_ratio_requires_certificate(model, base_b):
    spec = model.embed_point((0.0, base_b))
    spec.certified = False
    with pytest.raises(PreconditionFailed):
        fam.systolic_ratio(spec)


# --- sweep csv ---------------------------------------------------------------

def test_sweep_csv(tmp_path, model):
    pts = [(0.0, math.log(0.03)), (0.2, math.log(0.05))]
    specs = fam.sweep(model, pts)
    out = tmp_path / "sweep.csv"
    fam.sweep_csv(specs, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,k,l,volume,l_inv,sys_ratio,cert_flags"
    assert len(lines) == 3
    assert "claction=true" in lines[1]
