import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebinterpolate, chebpts1, chebval

from lutzlab import profile as prof
from lutzlab.errors import InvalidGeometry, QuadratureFailure
from lutzlab.numerics import gl_panel_nodes

import oracles

TWO_PI = 2.0 * math.pi


# --- continuity solve -------------------------------------------------------

def test_solve_continuity_residuals():
    d1, d2 = prof.solve_continuity_params(0.05, 0.05, 0.0, -1.0)
    # frozen from the closed-form solve; residuals pin the values exactly
    assert d1 == pytest.approx(0.051462224238267185, abs=1e-15)
    assert d2 == pytest.approx(0.016640738463052030, abs=1e-14)
    r1 = (1 + d1) * math.cos(TWO_PI * 0.05) - 1.0
    r2 = 0.05 ** 2 - (1 + d2) * 0.05 * math.sin(TWO_PI * 0.05) / TWO_PI
    assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_solve_continuity_small_epsilon_limit():
    # with u proportional to eps0, delta1 -> 0 as eps0 -> 0
    for eps0 in (1e-3, 1e-5, 1e-7):
        d1, _ = prof.solve_continuity_params(eps0, eps0, 0.0, -1.0)
        assert abs(d1) < 30 * eps0 ** 2
    d1, _ = prof.solve_continuity_params(1e-7, 1e-7, 0.0, -1.0)
    assert abs(d1) < 1e-12


def test_solve_continuity_large_u_warns_not_errors():
    with pytest.warns(UserWarning):
        _, d2 = prof.solve_continuity_params(0.05, 5.0, 0.0, -1.0)
    assert -1.0 < d2 < -0.9  # h2 still positive, barely


def test_solve_continuity_invalid_geometry():
    with pytest.raises(InvalidGeometry):
        prof.solve_continuity_params(0.05, 0.05, 0.9, -2.0)
    with pytest.raises(InvalidGeometry):
        prof.solve_continuity_params(0.3, 0.05, 0.0, -1.0)


@pytest.mark.parametrize("u", [0.0, -0.05, math.nan])
def test_amplitude_must_be_positive(u):
    # NaN fails `u > 0` as it fails `u <= 0`, so only the first refuses it
    with pytest.raises(InvalidGeometry, match="must be positive"):
        prof.solve_continuity_params(0.05, u, 0.0, -1.0)
    with pytest.raises(InvalidGeometry, match="must be positive"):
        prof.TwistParams(u=u).validate()


# --- raw path ---------------------------------------------------------------

def test_cap_values(raw_pair):
    assert raw_pair.h1.value(0.0) == 1.0
    assert raw_pair.h2.value(0.0) == 0.0


def test_first_h1_zero_and_h2_critical_coincide(raw_pair):
    from scipy.optimize import brentq
    r_zero = brentq(lambda r: float(raw_pair.h1.value(r)), 0.1, 0.4,
                    xtol=1e-14)
    r_crit = brentq(lambda r: float(raw_pair.h2.deriv(r)), 0.1, 0.4,
                    xtol=1e-14)
    assert r_zero == pytest.approx(0.25, abs=1e-12)
    assert r_crit == pytest.approx(0.25, abs=1e-12)


def test_winding_numbers(raw_pair, cap_pair):
    assert raw_pair.winding_number() == 1
    assert cap_pair.winding_number() == 0


# --- winding number ---------------------------------------------------------

def _grid_winding(pair):
    """Oracle: unwrap the path angle on a 2^17-point grid, refined up to 2^24
    points until the angle step per cell stays below 0.5 and a (2n+1)-point
    grid agrees.  Sampled, so it can miss a loop narrower than a cell."""
    def turns(n):
        rs = np.linspace(0.0, pair.epsilon, n)
        h1 = pair.h1.value(rs)
        h2 = pair.h2.value(rs)
        if np.min(h1 * h1 + h2 * h2) < 1e-30:
            raise InvalidGeometry("path passes through the origin")
        psi = np.unwrap(np.arctan2(h2, h1))
        dmax = float(np.max(np.abs(np.diff(psi))))
        total = psi[-1] - psi[0]
        principal = math.atan2(h2[-1], h1[-1]) - math.atan2(h2[0], h1[0])
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


def _one_piece(seg, eps=1.0):
    return prof.PiecewiseProfile([0.0, eps], [seg])


def test_segment_zero_candidates():
    cos = prof.TrigSegment("cos", 2.0)
    sin = prof.TrigSegment("sin", 0.3)
    assert list(cos.zero_candidates(0.05, 0.75)) == [0.25]
    assert list(cos.zero_candidates(0.0, 1.0)) == [0.25, 0.75]
    assert list(sin.zero_candidates(0.0, 1.0)) == [0.5]
    assert list(sin.zero_candidates(0.5, 1.0)) == []   # open interval
    # x^3 - x in x = r - 1/2: roots at r = -1/2, 1/2, 3/2
    cubic = prof.PolySegment(0.5, (0.0, -1.0, 0.0, 1.0))
    assert np.allclose(cubic.zero_candidates(0.4, 2.0), [0.5, 1.5],
                       atol=1e-15)
    assert len(prof.PolySegment(0.0, (1.0,)).zero_candidates(0.0, 1.0)) == 0
    # a Chebyshev piece through a sine: one candidate at the crossing, none
    # elsewhere; on [0.3, 0.45] its constant term dominates, so none at all
    def sine_piece(lo, hi):
        return prof.ChebSegment(lo, hi, chebinterpolate(
            lambda t: np.sin(TWO_PI * (lo + 0.5 * (t + 1.0) * (hi - lo))), 30))
    piece = sine_piece(0.3, 0.7)
    rs = np.linspace(0.3, 0.7, 101)
    assert np.max(np.abs(piece.value(rs) - np.sin(TWO_PI * rs))) < 1e-13
    cands = piece.zero_candidates(0.3, 0.7)
    assert len(cands) >= 1 and np.max(np.abs(cands - 0.5)) < 1e-12
    assert len(piece.zero_candidates(0.3, 0.45)) == 0
    assert len(sine_piece(0.3, 0.45).zero_candidates(0.3, 0.45)) == 0
    # second derivatives read one cached coefficient array, bit-identical
    # to the series rebuilt on every call
    xs = np.linspace(0.3, 0.7, 41)
    rebuilt = {
        cubic: np.polynomial.polynomial.polyval(
            xs - 0.5, np.polynomial.polynomial.polyder(cubic.coeffs, 2)),
        piece: np.polynomial.chebyshev.chebval(
            piece._t(xs), np.polynomial.chebyshev.chebder(
                piece._d1, scl=2.0 / (piece.hi - piece.lo)))}
    for seg, expected in rebuilt.items():
        assert np.array_equal(seg.deriv2(xs), expected)
        assert seg._d2 is seg._d2


@pytest.mark.parametrize("u", ["u_ref", 0.05, "U_CAP"])
def test_winding_matches_grid_oracle(raw_pair, smooth_pair, cap_pair,
                                     model, u):
    from lutzlab.family import U_CAP
    amp = {"u_ref": model.defaults.u_ref, "U_CAP": U_CAP}.get(u, u)
    member = model.family.pair(amp)
    pairs = [member.scaled(0.8), member.scaled(1.3)]
    if u == "u_ref":
        pairs += [raw_pair, smooth_pair, cap_pair]
    for pair in pairs:
        assert pair.winding_number() == _grid_winding(pair)


def test_winding_counts_a_loop_between_grid_points(cap_pair, looped_cap_pair,
                                                   splice_linear):
    assert looped_cap_pair.winding_number() == 1
    assert _grid_winding(looped_cap_pair) == 0
    # the same square run clockwise passes the negative h1-axis from
    # quadrant 3 to quadrant 2
    t = 0.6000003 + 1e-7 * np.arange(5)
    backwards = prof.ProfilePair(
        splice_linear(cap_pair.h1, t, [1.0, 1.0, -1.0, -1.0, 1.0]),
        splice_linear(cap_pair.h2, t,
                      [t[0] ** 2, -1.0, -1.0, 1.0, t[4] ** 2]), 1.0)
    assert backwards.winding_number() == -1


def test_winding_touch_of_the_cut_counts_zero():
    # h2 = (r - 0.3)^2 (r + 1) = 0.09 - 0.51 r + 0.4 r^2 + r^3: a double
    # zero at 0.3, where h1 = -1, so the path touches the negative h1-axis
    # and turns back
    h1 = _one_piece(prof.PolySegment(0.0, (-1.0,)))
    for sign in (1.0, -1.0):
        coeffs = sign * np.array([0.09, -0.51, 0.4, 1.0])
        pair = prof.ProfilePair(h1, _one_piece(prof.PolySegment(0.0, coeffs)),
                                1.0)
        assert pair.winding_number() == 0
        assert _grid_winding(pair) == 0


def test_winding_through_the_origin_raises():
    # continuous: h1 = cos(2 pi r) and h2 = r - 1/4 vanish together
    through = prof.ProfilePair(
        _one_piece(prof.TrigSegment("cos", 1.0)),
        _one_piece(prof.PolySegment(0.25, (0.0, 1.0))), 1.0)
    # a jump from quadrant 1 to quadrant 3 at one breakpoint
    bps = [0.0, 0.5, 1.0]
    jump = prof.ProfilePair(
        prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0,)),
                                    prof.PolySegment(0.0, (-1.0,))]),
        prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0,)),
                                    prof.PolySegment(0.0, (-1.0,))]), 1.0)
    for pair in (through, jump):
        with pytest.raises(InvalidGeometry, match="origin"):
            pair.winding_number()


def test_winding_zero_on_a_breakpoint_counts_once(raw_pair):
    # h2 crosses zero exactly at the breakpoint r = 1/2 where h1 < 0
    bps = [0.0, 0.5, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (-1.0,))] * 2)
    for sign, turns in ((1.0, 1), (-1.0, -1)):
        h2 = prof.PiecewiseProfile(
            bps, [prof.PolySegment(0.0, (0.5 * sign, -sign)),
                  prof.PolySegment(0.5, (0.0, -sign))])
        pair = prof.ProfilePair(h1, h2, 1.0)
        assert pair.winding_number() == turns == _grid_winding(pair)
    # the README path: the arc ends at amp sin(pi) ~ 1e-16 amp, the dip
    # cubic starts at 0.0, and only the breakpoint cuts there
    assert list(raw_pair.h2.sign_changes()).count(0.5) == 1


def test_cuts_are_found_once_per_profile_and_read_only(solved_params,
                                                       monkeypatch):
    # each profile of the README path has one trigonometric arc
    arcs = []
    real = prof.TrigSegment.zero_candidates

    def counted(self, lo, hi):
        arcs.append(self)
        return real(self, lo, hi)
    monkeypatch.setattr(prof.TrigSegment, "zero_candidates", counted)
    pair = prof.build_twisted_path(solved_params)
    for _ in range(2):
        assert pair.winding_number() == 1
        pair.h1.sign_changes()
    assert len(arcs) == 2
    with pytest.raises(ValueError, match="read-only"):
        pair.h1.cuts[0] = 1.0


def test_breakpoint_continuity(raw_pair, smooth_pair):
    for pair in (raw_pair, smooth_pair):
        assert oracles.max_breakpoint_jump(pair.h1) < 1e-10
        assert oracles.max_breakpoint_jump(pair.h2) < 1e-10


def test_closed_form_derivatives_match_finite_differences(raw_pair):
    # centered differences at step 1e-5, away from breakpoints and the kink
    h = 1e-5
    for prof_fn in (raw_pair.h1, raw_pair.h2):
        for r in (0.02, 0.2, 0.4, 0.6, 0.8, 0.97):
            fd = (prof_fn.value(r + h) - prof_fn.value(r - h)) / (2 * h)
            d = prof_fn.deriv(r)
            if abs(d) > 1e-12:
                assert abs(fd - d) / abs(d) < 1e-6


def test_extension_requires_dominant_second_intercept(solved_params):
    from dataclasses import replace
    amp = prof.arc_amplitude(solved_params)
    bad = replace(solved_params,
                  extension=prof.ExtensionSpec(h2_depth=0.5 * amp))
    with pytest.raises(InvalidGeometry):
        prof.build_twisted_path(bad)


# --- wronskian --------------------------------------------------------------

def test_wronskian_cap(cap_pair):
    assert cap_pair.wronskian(0.1) == pytest.approx(0.2, abs=1e-14)
    assert cap_pair.wronskian(0.0) == 0.0


def test_wronskian_constant_on_arc(raw_pair, solved_params):
    p = solved_params
    expected = (p.u * (1 + p.delta1) * (1 + p.delta2) / p.morse_factor)
    rs = np.linspace(p.epsilon0 + 0.01, 0.49, 40)
    d = raw_pair.wronskian(rs)
    assert np.max(np.abs(d - expected)) < 1e-12


def test_d_over_r_extends_to_two_at_zero(cap_pair):
    rs = np.array([1e-9, 1e-6, 1e-3])
    assert np.allclose(cap_pair.wronskian(rs) / rs, 2.0, atol=1e-9)


# --- contact condition ------------------------------------------------------

def test_contact_cap(cap_pair):
    report = prof.check_contact_condition(cap_pair, 2000)
    assert report.passed and report.sign == 1
    assert report.min_abs_d_over_r == pytest.approx(2.0, rel=1e-12)


def test_contact_built_path(smooth_pair):
    report = prof.check_contact_condition(smooth_pair, 2000)
    assert report.passed and report.sign == 1


def test_contact_degenerate_pair_fails():
    # h2 proportional to h1 makes the determinant vanish identically
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0, 0.0, 1.0))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.25, 0.0, 0.25))])
    report = prof.check_contact_condition(prof.ProfilePair(h1, h2, 1.0), 2000)
    assert not report.passed


def test_contact_grid_size_floor(cap_pair):
    with pytest.raises(ValueError):
        prof.check_contact_condition(cap_pair, 500)


# --- mollification ----------------------------------------------------------

def test_erf_normalisation_sanity():
    assert math.erf(0.0) == 0.0
    assert math.erf(10.0) == pytest.approx(1.0, abs=1e-15)


def test_kernel_unit_mass(solved_params):
    w = prof.default_window(solved_params)
    ys = np.linspace(-w.half_width, w.half_width, 200001)
    mass = np.trapezoid(w.kernel(ys), ys)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_mollify_preserves_constants(solved_params):
    w = prof.default_window(solved_params)
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.7,))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.0, 0.0, 1.0))])
    sm = prof.mollify(prof.ProfilePair(h1, h2, 1.0), w)
    rs = np.linspace(w.lo, w.hi, 500)
    assert np.max(np.abs(sm.h1.value(rs) - 0.7)) < 1e-10


def test_mollify_agreement(raw_pair, smooth_pair, solved_params):
    w = prof.default_window(solved_params)
    # exact outside the window and at its endpoints
    for r in (w.lo, w.hi, 0.01, 0.2, 0.6, 0.95):
        assert abs(smooth_pair.h1.value(r) - raw_pair.h1.value(r)) < 1e-10
        assert abs(smooth_pair.h2.value(r) - raw_pair.h2.value(r)) < 1e-8


def test_mollify_idempotent_on_smooth_pair(cap_pair, solved_params):
    w = prof.default_window(solved_params)
    once = prof.mollify(cap_pair, w)
    rs = np.linspace(w.lo, w.hi, 500)
    assert np.max(np.abs(once.h2.value(rs)
                         - cap_pair.h2.value(rs))) < 1e-6


def _cap_and_unit_arc(fam):
    """h2 near the window at u = 0 (the r^2 cap) and its u-coefficient (the
    unit arc), on [0, eps0, 1/2]."""
    eps0 = fam.params.epsilon0
    cap = prof.PiecewiseProfile([0.0, eps0, 0.5],
                                [prof.PolySegment(0.0, (0.0, 0.0, 1.0)),
                                 prof.PolySegment(0.0, (0.0,))])
    unit_arc = prof.PiecewiseProfile([0.0, eps0, 0.5],
                                     [prof.PolySegment(0.0, (0.0,)),
                                      prof.TrigSegment("sin", fam.amp_per_u)])
    return cap, unit_arc


def _spliced_member_h2(fam, u):
    """The member's h2 as the raw path at u with the window pieces
    c + u a spliced in, c and a the blends of the cap and the unit arc."""
    _, cap, arc = prof._blend(fam.window, prof.build_twisted_path(
        fam.params).h1, *_cap_and_unit_arc(fam))
    raw = prof.build_twisted_path(replace(fam.params, u=u))
    return prof._splice_window(raw.h2, [
        prof.ChebSegment(c.lo, c.hi, c.coeffs + u * a.coeffs)
        for c, a in zip(cap, arc)])


def test_family_pair_matches_mollified_member():
    # the family's A + u B sits exactly where mollify would put the
    # member's own blend, and agrees with the raw member at u with its
    # window pieces spliced in
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    fam = prof.TwistedPathFamily(base, 0.04, 0.06)
    w = fam.window
    rs = np.concatenate([np.linspace(0.0, 1.0, 2001),
                         np.linspace(w.lo, w.hi, 2001)])
    for u in (fam.u_ref, 0.05, fam.u_max):
        got = fam.pair(u)
        want = prof.mollify(
            prof.build_twisted_path(replace(fam.params, u=u)), w)
        for g, m in ((got.h1, want.h1), (got.h2, want.h2)):
            assert np.array_equal(g.breakpoints, m.breakpoints)
            assert np.max(np.abs(g.value(rs) - m.value(rs))) <= 1e-15
        assert np.max(np.abs(got.h2.deriv(rs) - want.h2.deriv(rs))) <= 1e-10
    model = prof.TwistedPathFamily(prof.TwistParams(
        epsilon0=0.01, delta0=1e-4, delta=0.01, u=0.01), 0.01, 0.15)
    rng, w = np.random.default_rng(5), model.window
    rs = np.concatenate([rng.uniform(0.0, 1.0, 500),
                         rng.uniform(w.lo, w.hi, 500)])
    for u in (0.01, 0.05, 0.15):
        got, want = model.pair(u).h2, _spliced_member_h2(model, u)
        assert np.array_equal(got.breakpoints, want.breakpoints)
        scale = np.max(np.abs(want.value(rs)))
        err = np.max(np.abs(got.value(rs) - want.value(rs)))
        assert err <= 4.0 * np.spacing(scale)


@pytest.mark.parametrize("u", [0.01, 0.05, 0.15])
def test_member_sums_match_the_polyadd_construction(model, u):
    # `PolySegment.plus` pads the shorter coefficient array where `polyadd`
    # trims trailing zeros: the member's values and cuts are the same
    family = model.family
    got = family.pair(u).h2
    want = prof.PiecewiseProfile(family.A.breakpoints, [
        prof.PolySegment(a.a, np.polynomial.polynomial.polyadd(
            a.coeffs, u * b.coeffs))
        if isinstance(a, prof.PolySegment) else a.plus(b, u)
        for a, b in zip(family.A.segments, family.B.segments)])
    rs = np.random.default_rng(7).uniform(0.0, 1.0, 1000)
    for method in ("value", "deriv", "deriv2"):
        assert np.array_equal(getattr(got, method)(rs),
                              getattr(want, method)(rs))
    assert np.array_equal(got.cuts, want.cuts)


def test_family_pair_rejects_amplitudes_above_cap():
    # the extension depth is sized for u_max, so members above it are refused
    # with the same 1e-12 slack as the floor at u_ref
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    fam = prof.TwistedPathFamily(base, 0.04, 0.06)
    fam.pair(fam.u_max + 5e-13)
    for u in (fam.u_max + 1e-9, 2.0 * fam.u_max, math.inf, math.nan):
        with pytest.raises(InvalidGeometry):
            fam.pair(u)


def test_mollified_second_differences_bounded(smooth_pair):
    h = 1e-4
    rs = np.linspace(0.0495 + 2 * h, 0.0505 - 2 * h, 101)
    for fn in (smooth_pair.h1, smooth_pair.h2):
        second = (fn.value(rs + h) - 2 * fn.value(rs) + fn.value(rs - h)) \
            / h ** 2
        assert np.max(np.abs(second)) < 1e5  # no jump-induced blow-up


def test_table_derivatives_match_first_differences(smooth_pair):
    # step scaled to the window: the slope itself turns over ~1e-4, so a
    # coarser step would measure genuine curvature, not the window pieces'
    # error
    h = 1e-6
    rs = np.linspace(0.0496, 0.0504, 33)
    for fn in (smooth_pair.h1, smooth_pair.h2):
        fd = (fn.value(rs + h / 2) - fn.value(rs - h / 2)) / h
        d = fn.deriv(rs)
        scale = np.maximum(np.abs(d), 1e-3)
        assert np.max(np.abs(fd - d) / scale) < 1e-4


def test_mollify_window_must_sit_low(raw_pair):
    with pytest.raises(InvalidGeometry):
        prof.mollify(raw_pair, prof.SmoothingWindow(0.7, 0.001))


@pytest.mark.parametrize("center", [-0.0005, 1.0, 2.0])
def test_splice_window_must_sit_inside_the_profile(raw_pair, center):
    # a window across either end, or past the profile, is refused
    window = prof.SmoothingWindow(center, 0.001)
    edges = [center + x * window.half_width for x in (-7 / 8, -0.5, 0.5,
                                                      7 / 8)]
    pieces = [prof.ChebSegment(lo, hi, np.zeros(8))
              for lo, hi in zip(edges[:-1], edges[1:])]
    with pytest.raises(InvalidGeometry, match="does not sit inside"):
        prof._splice_window(raw_pair.h1, pieces)


def _convolve_against_kernel(profile, window, rs, order, method="value"):
    """Oracle: (f * g)(rs) for one profile on its own panels, split at its
    breakpoints, in the kernel offset y = r - x, and evaluated through
    `PiecewiseProfile.value` (or, with method="deriv", (f' * g)(rs))."""
    d = window.half_width
    cuts = [b for b in profile.breakpoints
            if window.lo - d < b < window.hi + d]
    edges = sorted(set([float(rs[0] - d)] + cuts + [float(rs[-1] + d)]))
    out = np.zeros_like(rs)
    for lo_e, hi_e in zip(edges[:-1], edges[1:]):
        a = np.maximum(rs - hi_e, -d)
        b = np.minimum(rs - lo_e, d)
        valid = b > a
        if not np.any(valid):
            continue
        a = np.where(valid, a, 0.0)
        b = np.where(valid, b, 0.0)
        ys, weights = gl_panel_nodes(a, b, order)
        xs = rs[:, None] - ys
        vals = getattr(profile, method)(xs.ravel()).reshape(xs.shape)
        out += np.where(valid, np.sum(weights * vals * window.kernel(ys),
                                      axis=1), 0.0)
    return out


def _window_spans(window):
    """The window's three Chebyshev pieces as (lo, hi, degree)."""
    edges = [window.center + x * window.half_width
             for x in (-7 / 8, -0.5, 0.5, 7 / 8)]
    return list(zip(edges[:-1], edges[1:], prof.CHEB_DEGREES))


def _oracle_blend(profile, window, rs):
    conv = _convolve_against_kernel(profile, window, rs, prof._GL_ORDER)
    w = window.blend_weight(rs)
    return (1.0 - w) * profile.value(rs) + w * conv


def _oracle_coefficients(profile, window):
    """Each window piece's interpolant of the blend at its Chebyshev
    points, by `chebinterpolate` of the values less their mean; the blend
    is sampled at every piece's points at once, as `mollify` does."""
    spans = _window_spans(window)
    ts = [chebpts1(deg + 1) for _, _, deg in spans]
    rs = np.concatenate([lo + 0.5 * (t + 1.0) * (hi - lo)
                         for (lo, hi, _), t in zip(spans, ts)])
    vals = np.split(_oracle_blend(profile, window, rs),
                    np.cumsum([len(t) for t in ts])[:-1])
    out = []
    for (_, _, deg), v in zip(spans, vals):
        mean = float(np.mean(v))
        # chebinterpolate samples at chebpts1(deg + 1), where v was taken
        c = chebinterpolate(lambda t: v - mean, deg)
        c[0] += mean
        out.append(c)
    return out


def _pieces(profile):
    return [s for s in profile.segments if isinstance(s, prof.ChebSegment)]


def test_mollify_tables_match_per_profile_oracle(raw_pair, smooth_pair,
                                                 solved_params):
    # bit for bit: the shared rule at all nodes at once is the per-profile
    # rule at each piece's nodes
    w = prof.default_window(solved_params)
    for raw, smooth in ((raw_pair.h1, smooth_pair.h1),
                        (raw_pair.h2, smooth_pair.h2)):
        pieces = _pieces(smooth)
        assert [(p.lo, p.hi, len(p.coeffs) - 1) for p in pieces] \
            == _window_spans(w)
        for piece, want in zip(pieces, _oracle_coefficients(raw, w)):
            assert np.array_equal(piece.coeffs, want)


def test_family_tables_match_per_profile_oracle():
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    fam = prof.TwistedPathFamily(base, 0.04, 0.06)
    w = fam.window
    cap, unit_arc = _cap_and_unit_arc(fam)
    h1 = prof.build_twisted_path(fam.params).h1
    for pieces, raw in ((_pieces(fam.pair(0.05).h1), h1),
                        (_pieces(fam.A), cap), (_pieces(fam.B), unit_arc)):
        for piece, want in zip(pieces, _oracle_coefficients(raw, w)):
            assert np.array_equal(piece.coeffs, want)


def _oracle_slopes(profile, window, rs):
    """d/dr of (1 - w) f + w (f * g) = (1 - w) f' + w (f' * g)
    + w' ((f * g) - f), with f' * g by quadrature; f is continuous, so
    (f * g)' = f' * g."""
    conv = _convolve_against_kernel(profile, window, rs, prof._GL_ORDER)
    dconv = _convolve_against_kernel(profile, window, rs, prof._GL_ORDER,
                                     "deriv")
    w = window.blend_weight(rs)
    y = (rs - window.center) / window.half_width
    s = np.clip((7.0 / 8.0 - np.abs(y)) / (3.0 / 8.0), 0.0, 1.0)
    dw = -30.0 * s ** 2 * (1.0 - s) ** 2 * np.sign(y) / (
        3.0 / 8.0 * window.half_width)
    return ((1.0 - w) * profile.deriv(rs) + w * dconv
            + dw * (conv - profile.value(rs)))


def test_table_reproduces_its_values_at_the_knots(raw_pair, smooth_pair,
                                                  solved_params):
    # each piece, and the profile that carries it, takes the blend's values
    # at the piece's Chebyshev points to rounding, and the profile stays
    # continuous across the pieces' ends, where the raw segments resume
    w = prof.default_window(solved_params)
    for raw, smooth in ((raw_pair.h1, smooth_pair.h1),
                        (raw_pair.h2, smooth_pair.h2)):
        for piece, (lo, hi, deg) in zip(_pieces(smooth), _window_spans(w)):
            rs = lo + 0.5 * (chebpts1(deg + 1) + 1.0) * (hi - lo)
            want = _oracle_blend(raw, w, rs)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(piece.value(rs) - want)) <= 4e-15 * scale
            assert np.array_equal(smooth.value(rs), piece.value(rs))
        segs, bps = smooth.segments, smooth.breakpoints
        for i in range(1, len(bps) - 1):
            if w.lo < bps[i] < w.hi:
                right = segs[i].value(bps[i])
                jump = segs[i - 1].value(bps[i]) - right
                assert abs(jump) <= 4e-15 * abs(right)


# the README window, and the model family's default window at its
# reference amplitude, where the raw h2 is continuous too
_SLOPE_WINDOWS = {
    "readme": prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01,
                               u=0.05),
    "family": prof.TwistParams(epsilon0=0.01, delta0=1e-4, delta=0.01,
                               u=0.01),
}


@pytest.mark.parametrize("name", sorted(_SLOPE_WINDOWS))
def test_window_slopes_match_quadrature_oracle(name):
    # the pieces' slopes are their series' exact derivatives, against
    # f' * g by quadrature on 201 radii per piece
    params = _SLOPE_WINDOWS[name].solved()
    raw = prof.build_twisted_path(params)
    w = prof.default_window(params)
    smooth = prof.mollify(raw, w)
    for f, fs in ((raw.h1, smooth.h1), (raw.h2, smooth.h2)):
        rs = np.concatenate([np.linspace(p.lo, p.hi, 201)
                             for p in _pieces(fs)])
        want = _oracle_slopes(f, w, rs)
        err = np.max(np.abs(fs.deriv(rs) - want))
        assert err <= 2e-7 * np.max(np.abs(want))


def test_family_table_coefficients_are_affine_in_u():
    # blending is linear, so a member's h2 pieces are A's plus u times B's,
    # which its own blend reproduces to rounding
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    fam = prof.TwistedPathFamily(base, 0.04, 0.06)
    for u in (fam.u_ref, 0.05, fam.u_max):
        member = _pieces(fam.pair(u).h2)
        own = _pieces(prof.mollify(
            prof.build_twisted_path(replace(fam.params, u=u)), fam.window).h2)
        for m, o, cap, arc in zip(member, own, _pieces(fam.A),
                                  _pieces(fam.B)):
            assert np.array_equal(m.coeffs, cap.coeffs + u * arc.coeffs)
            scale = np.max(np.abs(o.coeffs))
            assert np.max(np.abs(m.coeffs - o.coeffs)) <= 1e-14 * scale


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = prof.SmoothingWindow.kernel

    def counted(self, y):
        calls.append(y.shape)
        return kernel(self, y)
    monkeypatch.setattr(prof.SmoothingWindow, "kernel", counted)
    return calls


def test_one_rule_per_window(raw_pair, solved_params, monkeypatch):
    # two panels (split at eps0) at each of the two orders, shared by every
    # profile blended on the window
    calls = _count_kernel_calls(monkeypatch)
    prof.mollify(raw_pair, prof.default_window(solved_params))
    assert len(calls) == 4
    calls.clear()
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    prof.TwistedPathFamily(base, 0.04, 0.06)
    assert len(calls) == 4


def test_mollify_quadrature_guard(raw_pair, solved_params, monkeypatch):
    monkeypatch.setattr(prof, "_GL_ORDER", 3)
    with pytest.raises(QuadratureFailure):
        prof.mollify(raw_pair, prof.default_window(solved_params))


@pytest.mark.parametrize("degrees", [(24, 12, 24), (8, 40, 24)])
def test_chebyshev_tail_guard(raw_pair, solved_params, monkeypatch, degrees):
    # a degree too low for its piece leaves a tail far above rounding
    monkeypatch.setattr(prof, "CHEB_DEGREES", degrees)
    with pytest.raises(QuadratureFailure, match="Chebyshev tail"):
        prof.mollify(raw_pair, prof.default_window(solved_params))


@pytest.mark.parametrize("window", [prof.SmoothingWindow(0.05, 0.0),
                                    prof.SmoothingWindow(0.05, -0.0005)],
                         ids=["zero_width", "negative_width"])
def test_mollify_degenerate_window_fails_fast(raw_pair, window, monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    with pytest.raises(InvalidGeometry):
        prof.mollify(raw_pair, window)
    assert calls == []


# --- smoothing bound --------------------------------------------------------

def test_smoothing_bound_decade_sweep():
    eps0, u = 0.05, 0.02
    ratios = []
    for frac in (1e-2, 1e-3, 1e-4):
        with pytest.warns(UserWarning):  # delta2 is large at this small u
            params = prof.TwistParams(epsilon0=eps0, delta0=frac * eps0,
                                      delta=0.01, u=u).solved()
        sm = prof.build_mollified_path(params)
        ratio, ok = prof.verify_smoothing_bound(sm, u)
        ratios.append(ratio)
        assert ok  # 1/u = 50 dominates the whole sweep at this amplitude
    assert ratios[0] > ratios[1] > ratios[2]


def test_smoothing_bound_flat_region_is_free(cap_pair, solved_params):
    # h1' vanishes identically, so the ratio is zero wherever D is not
    w = prof.default_window(solved_params)
    sm = prof.mollify(cap_pair, w)
    ratio, ok = prof.verify_smoothing_bound(sm, 0.05)
    assert ok and ratio < 1e-6  # zero up to the pieces' rounding


def _golden_window_sup(pair, lo, hi, n=4096, tol=1e-12):
    """The earlier smoothing-bound refiner: grid argmax, then golden-section
    search on the two cells around it, kept if it beats the grid."""
    def ratio(rs):
        return np.abs(-pair.h1.deriv(rs) / pair.wronskian(rs))

    def scalar(r):
        return float(ratio(np.array([r]))[0])

    rs = np.linspace(lo, hi, n)
    vals = ratio(rs)
    i = int(np.argmax(vals))
    a, b = rs[max(i - 1, 0)], rs[min(i + 1, n - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = scalar(c), scalar(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = scalar(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = scalar(d)
    fx = scalar(0.5 * (a + b))
    return float(vals[i]) if vals[i] > fx else fx


def test_smoothing_bound_matches_golden_refinement(solved_params):
    # the README profile's window, then criterion 8's three windows
    cases = [(solved_params, 0.05)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta2 is large at this amplitude
        for frac in (1e-2, 1e-3, 1e-4):
            cases.append((prof.TwistParams(
                epsilon0=0.05, delta0=frac * 0.05, delta=0.01,
                u=0.026).solved(), 0.026))
    for params, u in cases:
        sm = prof.build_mollified_path(params)
        w = prof.default_window(params)
        ratio, ok = prof.verify_smoothing_bound(sm, u)
        want = _golden_window_sup(sm, w.lo, w.hi)
        assert abs(ratio - want) <= 1e-14 * want
        assert ok == (ratio <= 1.0 / u)


# --- serialization ----------------------------------------------------------

def test_twist_params_json_round_trip(solved_params):
    back = prof.TwistParams.from_json(solved_params.to_json())
    assert back == solved_params
    doc = json.loads(solved_params.to_json())
    for key in ("epsilon", "epsilon0", "delta0", "delta", "mu_minus",
                "mu_plus", "u", "extension"):
        assert key in doc


def test_profile_csv(tmp_path, smooth_pair):
    out = tmp_path / "p.csv"
    smooth_pair.sample_csv(str(out), n=101)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,h1,h2,h1p,h2p,D"
    assert len(lines) == 102
    row = lines[1].split(",")
    assert float(row[1]) == 1.0 and float(row[2]) == 0.0


def test_scaled_pair_segments(raw_pair):
    doubled = raw_pair.scaled(2.0)
    rs = np.linspace(0.0, 1.0, 97)
    assert np.allclose(doubled.h1.value(rs), 2 * raw_pair.h1.value(rs),
                       atol=1e-14)
    assert np.allclose(doubled.wronskian(rs), 4 * raw_pair.wronskian(rs),
                       atol=1e-14)


# --- stacked evaluation -----------------------------------------------------

# (epsilon0, delta0, u) of the dynamics benchmark's profile pool
POOL_PROFILES = [(0.05, 0.0005, 0.05), (0.04, 0.0005, 0.04),
                 (0.06, 0.0005, 0.06), (0.05, 0.0004, 0.045),
                 (0.045, 0.0005, 0.045), (0.055, 0.0005, 0.055)]


def _evaluate_groups(model, smooth_pair, cap_pair):
    """[(name, pair, profiles)]: the profiles evaluated together, and the
    pair whose radii they are evaluated on."""
    family = model.family
    lo, hi = (family.pair(u) for u in (model.defaults.u_ref, 0.15))
    groups = [("readme", smooth_pair, [smooth_pair.h1, smooth_pair.h2]),
              ("cap", cap_pair, [cap_pair.h1, cap_pair.h2]),
              ("family", lo, [lo.h1, lo.h2, hi.h2, family.A, family.B])]
    for e0, d0, u in POOL_PROFILES:
        p = prof.build_mollified_path(
            prof.TwistParams(epsilon0=e0, delta0=d0, u=u))
        groups.append((f"pool {e0} {d0} {u}", p, [p.h1, p.h2]))
    return groups


def _evaluate_radii(pair, profiles):
    """{name: radii} of every radius set `evaluate` must take."""
    knots = pair.knots()
    nodes = np.concatenate([
        gl_panel_nodes(knots[:-1], knots[1:], order)[0].ravel()
        for order in (12, 20)])
    bps = np.unique(np.concatenate([p.breakpoints for p in profiles]))
    return {"contact": prof.contact_radii(pair, 2048),
            "nodes": nodes,
            "breakpoints": bps, "breakpoints reversed": bps[::-1].copy(),
            "outside": np.array([-0.3, -1e-9, pair.epsilon + 1e-9,
                                 pair.epsilon + 0.5, -0.3]),
            "one": np.array([0.0101]), "empty": np.empty(0)}


def test_evaluate_matches_each_profile_bit_for_bit(model, smooth_pair,
                                                   cap_pair):
    # all orders of every profile of a group in one call, on each radius set
    methods = ("value", "deriv", "deriv2")
    for name, pair, profiles in _evaluate_groups(model, smooth_pair,
                                                 cap_pair):
        terms = [(p, order) for p in profiles for order in range(3)]
        for radii_name, rs in _evaluate_radii(pair, profiles).items():
            got = prof.evaluate(terms, rs)
            assert len(got) == len(terms)
            for (p, order), g in zip(terms, got):
                want = getattr(p, methods[order])(rs)
                assert g.shape == want.shape, (name, radii_name)
                assert np.array_equal(g, want), (name, radii_name, order)
    # the certificate's node array is unsorted: it takes the scatter path
    nodes = _evaluate_radii(smooth_pair, [smooth_pair.h1])["nodes"]
    assert np.any(np.diff(nodes) < 0.0)


def test_evaluate_stacks_series_of_different_lengths():
    # Chebyshev series of 1 to 41 terms on one span take one recurrence,
    # each zero-padded at the top; every order is `chebval`'s float
    rng = np.random.default_rng(11)
    lo, hi = 0.2, 0.6
    profiles = [prof.PiecewiseProfile(
        [0.0, lo, hi, 1.0],
        [prof.PolySegment(0.0, (1.0, 2.0)),
         prof.ChebSegment(lo, hi, rng.standard_normal(size)),
         prof.TrigSegment("sin", 0.5)]) for size in (1, 2, 3, 7, 24, 41)]
    rs = np.concatenate([rng.uniform(0.0, 1.0, 500), [lo, hi]])
    terms = [(p, order) for p in profiles for order in range(3)]
    inside = (rs > lo) & (rs <= hi)
    t = (2.0 * rs[inside] - (lo + hi)) / (hi - lo)
    for (p, order), got in zip(terms, prof.evaluate(terms, rs)):
        seg = p.segments[1]
        coeffs = (seg.coeffs, seg._d1, seg._d2)[order]
        assert np.array_equal(got[inside], chebval(t, coeffs))
        assert np.array_equal(
            got, getattr(p, ("value", "deriv", "deriv2")[order])(rs))


def test_evaluate_needs_one_dimensional_radii(smooth_pair):
    with pytest.raises(ValueError, match="1-D"):
        prof.evaluate([(smooth_pair.h1, 0)], np.zeros((2, 2)))
