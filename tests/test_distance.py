import math

import numpy as np
import pytest

from lutzlab import distance as dist
from lutzlab import profile as prof
from lutzlab.errors import DomainViolation, PreconditionFailed


@pytest.fixture(scope="module")
def gray_family():
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    return prof.TwistedPathFamily(base, 0.04, 0.06)


# --- conformal machinery -----------------------------------------------------

def test_ub_conformal_constant():
    f = dist.ConformalSample(np.full(7, 3.0), np.arange(7))
    assert dist.ub_conformal(f) == pytest.approx(math.log(3.0))
    g = dist.ConformalSample(np.ones(7), np.arange(7))
    assert dist.ub_conformal(g) == 0.0


def test_ub_conformal_asymmetric_range():
    f = dist.ConformalSample(np.array([0.25, 1.0, 2.0]), np.arange(3))
    # max(ln 2, -ln 0.25) = ln 4
    assert dist.ub_conformal(f) == pytest.approx(math.log(4.0))


def test_d_cf_values():
    f = dist.ConformalSample(np.array([2.0, 4.0, 6.0]), np.arange(3))
    assert dist.d_cf(f) == pytest.approx(math.log(6.0))
    g = dist.ConformalSample(np.array([0.5, 1.0, 2.0]), np.arange(3))
    assert dist.d_cf(g) == pytest.approx(math.log(2.0))
    one = dist.ConformalSample(np.ones(3), np.arange(3))
    assert dist.d_cf(one) == 0.0


def test_ub_equals_dcf_for_constants():
    for c in (0.3, 1.0, 5.0):
        f = dist.ConformalSample(np.full(5, c), np.arange(5))
        assert dist.ub_conformal(f) == pytest.approx(abs(math.log(c)))
        assert dist.d_cf(f) == pytest.approx(abs(math.log(c)))


def test_conformal_sample_validation():
    with pytest.raises(ValueError):
        dist.ConformalSample(np.array([1.0, -2.0]), np.arange(2))
    with pytest.raises(ValueError):
        dist.ConformalSample(np.array([]), np.array([]))


# --- ellipsoids and folding --------------------------------------------------

def test_ellipsoid_factor_round_ball_constant():
    f = dist.ellipsoid_conformal_factor(0.5, 0.5)
    assert np.allclose(f.values, 1.0 / (2 * math.pi), atol=1e-15)


def test_ellipsoid_factor_range():
    f = dist.ellipsoid_conformal_factor(1.0, 3.0)
    assert float(np.min(f.values)) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert float(np.max(f.values)) == pytest.approx(3.0 / math.pi, rel=1e-12)


def test_ellipsoid_ratio_ln6():
    f_e = dist.ellipsoid_conformal_factor(1.0, 3.0)
    f_b = dist.ellipsoid_conformal_factor(0.5, 0.5)
    ratio = f_e.ratio(f_b)
    assert float(np.min(ratio.values)) == pytest.approx(2.0, rel=1e-12)
    assert float(np.max(ratio.values)) == pytest.approx(6.0, rel=1e-12)
    assert dist.ub_conformal(ratio) == pytest.approx(math.log(6.0), abs=1e-9)


def test_folding_bounds_values():
    inclusion, folding = dist.folding_bounds(1.0, 3.0, 0.5, 0.4)
    assert inclusion == pytest.approx(math.log(6.0), abs=1e-12)
    assert folding == pytest.approx(math.log(5.6), abs=1e-12)


def test_folding_bound_continuity_at_zero():
    vals = [dist.folding_bounds(1.0, 3.0, 0.5, d)[1]
            for d in (1e-3, 1e-5, 1e-7)]
    for v, d in zip(vals, (1e-3, 1e-5, 1e-7)):
        assert v == pytest.approx(math.log(6.0 - d), abs=1e-12)


def test_folding_requires_embedding_hypothesis():
    with pytest.raises(PreconditionFailed):
        dist.folding_bounds(1.0, 1.5, 0.5, 0.1)
    with pytest.raises(PreconditionFailed):
        dist.folding_bounds(1.0, 3.0, 0.5, 0.6)


# --- gray integral -----------------------------------------------------------

def test_gray_integral_equality(gray_family):
    res = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.04, 0.06))
    assert res.value == pytest.approx(math.log(1.5), rel=1e-6)
    for _, r in res.sup_locations:
        assert abs(r - 0.25) < 1e-3


def test_gray_integral_zero_leg(gray_family):
    res = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.05, 0.05))
    assert res.value == 0.0


def test_gray_integral_orientation_free(gray_family):
    fwd = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.04, 0.06))
    bwd = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.06, 0.04))
    assert fwd.value == pytest.approx(bwd.value, abs=1e-12)


def test_gray_integral_additive(gray_family):
    whole = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.04, 0.06))
    left = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.04, 0.052))
    right = dist.gray_integral(dist.GrayPathSpec(gray_family, 0.052, 0.06))
    assert abs(left.value + right.value - whole.value) < 1e-8


def test_gray_du_affine(gray_family):
    # members are affine in u: h2 at three amplitudes is collinear
    window = gray_family.window
    rs = np.concatenate([np.linspace(0.01, 0.99, 197),
                         np.linspace(window.lo, window.hi, 41)])
    us = (0.04, 0.045, 0.06)
    h_a, h_b, h_c = (gray_family.pair(u).h2.value(rs) for u in us)
    slope_ab = (h_b - h_a) / (us[1] - us[0])
    slope_ac = (h_c - h_a) / (us[2] - us[0])
    assert np.max(np.abs(slope_ab - slope_ac)) < 1e-9


def test_gray_values_straddling_breakpoints(gray_family):
    # brackets across h2's joint at 1/2 and the h1/h2 joint at 3/4 take the
    # piecewise route for the profiles whose segment does not cover them
    integrand = dist._GrayIntegrand(
        dist.GrayPathSpec(gray_family, 0.04, 0.06))
    p1, p2 = integrand.pair1, integrand.pair2
    du = integrand.u2 - integrand.u1
    for joint in (0.5, 0.75):
        rs = np.linspace(joint - 1e-3, joint + 1e-3, 33)
        _, lo, hi = p1.h2.segment_span(float(rs[16]))
        assert not (lo <= rs[0] and rs[-1] <= hi)
        for u in (0.04, 0.05, 0.06):
            b = (p2.h2.value(rs) - p1.h2.value(rs)) / du
            d1, d2 = p1.wronskian(rs), p2.wronskian(rs)
            db = (d2 - d1) / du
            den = (d1 - integrand.u1 * db) + u * db
            want = np.abs(b * p1.h1.deriv(rs) / den)
            got = integrand._values(rs, u)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


# --- certificates ------------------------------------------------------------

def test_lower_bound_example(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((math.log(2.0), math.log(0.06)))
    cert = dist.lower_bound(s1, s2)
    assert cert.lower == pytest.approx(math.log(2.0), abs=1e-12)
    assert cert.lower_method == "volume"
    assert dist.lower_bound(s2, s1).lower == pytest.approx(cert.lower,
                                                           abs=1e-12)


def test_lower_bound_identical(model):
    s = model.embed_point((0.1, math.log(0.04)))
    assert dist.lower_bound(s, s).lower == 0.0


def test_lower_bound_scaling_pair_both_channels(model):
    s1 = model.embed_point((0.0, math.log(0.02)))
    s2 = model.embed_point((math.log(1.5), math.log(0.03)))
    cert = dist.lower_bound(s1, s2)
    assert cert.lower == pytest.approx(math.log(1.5), abs=1e-12)
    assert cert.witnesses["volume_channel"] == pytest.approx(
        cert.witnesses["l_channel"], abs=1e-12)


def test_lower_bound_needs_certificates(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((0.1, math.log(0.05)))
    s2.certified = False
    with pytest.raises(PreconditionFailed):
        dist.lower_bound(s1, s2)


def test_triangle_ub_example(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((math.log(2.0), math.log(0.06)))
    cert = dist.triangle_ub(s1, s2)
    expected = math.log(2.0) + abs(math.log(0.08 / 0.06))
    assert cert.upper == pytest.approx(expected, rel=1e-9)


def test_triangle_ub_pure_scaling(model):
    s1 = model.embed_point((0.0, math.log(0.02)))
    s2 = model.embed_point((math.log(1.5), math.log(0.03)))
    cert = dist.triangle_ub(s1, s2)
    assert cert.upper == pytest.approx(math.log(1.5), abs=1e-10)
    assert cert.witnesses["gray_leg"] == pytest.approx(0.0, abs=1e-12)


def test_triangle_ub_domain_violation():
    from lutzlab.family import FamilyModel
    tight = FamilyModel(0.05, 0.05, n=2)
    # the intermediate point scales l1 by (k2/k1)^(1/2) = 1.7, leaving the
    # admissible half-plane b < ln(0.05)
    s_a = tight.embed_point((0.0, math.log(0.03)))
    s_b = tight.embed_point((math.log(1.7), math.log(0.02)))
    with pytest.raises(DomainViolation):
        dist.triangle_ub(s_a, s_b)


def test_certificate_sanity_and_json(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((0.3, math.log(0.05)))
    cert = dist.bound_certificate(s1, s2)
    assert 0.0 <= cert.lower <= cert.upper
    doc = cert.to_json()
    assert "lower" in doc and "upper" in doc


def test_certificate_symmetry(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((0.3, math.log(0.05)))
    c12 = dist.bound_certificate(s1, s2)
    c21 = dist.bound_certificate(s2, s1)
    assert abs(c12.lower - c21.lower) < 1e-12
    assert abs(c12.upper - c21.upper) < 1e-12


# --- sandwich sweep ----------------------------------------------------------

def test_bilipschitz_sweep_small(model):
    a_vals = np.linspace(0.0, 0.18, 2)
    b_vals = math.log(0.06) - 0.37 * np.arange(2)[::-1]
    pts = [(float(a), float(b)) for a in a_vals for b in b_vals]
    rep = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    assert rep.all_passed
    assert rep.worst_slack < 1e-9
    # equal-volume pairs have a single active channel: lower = |db|,
    # and the two-leg bound collapses to the deformation leg
    for row in rep.rows:
        if row.a1 == row.a2:
            assert row.lower == pytest.approx(abs(row.b1 - row.b2),
                                              abs=1e-12)
            assert row.upper == pytest.approx(row.lower, abs=1e-9)


def test_sweep_csv_format(tmp_path, model):
    pts = [(0.0, math.log(0.05)), (0.1, math.log(0.05))]
    rep = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    out = tmp_path / "sw.csv"
    rep.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a1,b1,a2,b2,dinf,lower,upper,slack,pass"
    assert lines[1].endswith("true")
