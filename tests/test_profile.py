import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lutzlab import profile as prof
from lutzlab.errors import InvalidGeometry

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


def test_breakpoint_continuity(raw_pair, smooth_pair):
    for pair in (raw_pair, smooth_pair):
        assert pair.h1.max_breakpoint_jump() < 1e-10
        assert pair.h2.max_breakpoint_jump() < 1e-10


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
    assert prof.wronskian(cap_pair, 0.1) == pytest.approx(0.2, abs=1e-14)
    assert prof.wronskian(cap_pair, 0.0) == 0.0


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


def test_family_pair_matches_mollified_member():
    # the family splices its affine-in-u table into the raw member exactly
    # where mollify would put the member's own blend
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


def test_mollified_second_differences_bounded(smooth_pair):
    h = 1e-4
    rs = np.linspace(0.0495 + 2 * h, 0.0505 - 2 * h, 101)
    for fn in (smooth_pair.h1, smooth_pair.h2):
        second = (fn.value(rs + h) - 2 * fn.value(rs) + fn.value(rs - h)) \
            / h ** 2
        assert np.max(np.abs(second)) < 1e5  # no jump-induced blow-up


def test_table_derivatives_match_first_differences(smooth_pair):
    # step scaled to the window: the slope itself turns over ~1e-4, so a
    # coarser step would measure genuine curvature, not table error
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
    ratio, ok = prof.verify_smoothing_bound(sm, 0.05, window=w)
    assert ok and ratio < 1e-6  # zero up to table interpolation noise


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
