import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebinterpolate

from lutzlab import distance as dist
from lutzlab import family as fam
from lutzlab import profile as prof
from lutzlab.errors import InvalidGeometry, PreconditionFailed, SingularLocus
from lutzlab.family import U_CAP, FamilyDefaults

import oracles


# --- the conformal-factor (inclusion) bound ----------------------------------

def test_ub_conformal_constant():
    # E(a, a) against a ball is a constant factor a / ball
    assert dist.inclusion_bound(1.5, 1.5, 0.5) == pytest.approx(math.log(3.0))
    assert dist.inclusion_bound(0.5, 0.5, 0.5) == 0.0


def test_ub_conformal_asymmetric_range():
    # the ratio runs over [0.25, 2]: max(ln 2, -ln 0.25) = ln 4
    assert dist.inclusion_bound(0.25, 2.0, 1.0) == pytest.approx(
        math.log(4.0))
    assert oracles.inclusion_bound_grid(0.25, 2.0, 1.0) == pytest.approx(
        math.log(4.0))


def test_ub_conformal_values():
    # max |ln f| over the ratio's range, in either order of the axes
    for a1, a2, ball, want in ((2.0, 6.0, 1.0, math.log(6.0)),
                               (0.5, 2.0, 1.0, math.log(2.0)),
                               (2.0, 0.5, 1.0, math.log(2.0)),
                               (1.0, 1.0, 1.0, 0.0)):
        assert dist.inclusion_bound(a1, a2, ball) == pytest.approx(want)


def test_ub_equals_dcf_for_constants():
    # for a constant factor c the bound is d_cf = |ln c|, below and above 1
    for c in (0.3, 1.0, 5.0):
        assert dist.inclusion_bound(c, c, 1.0) == pytest.approx(
            abs(math.log(c)))


def test_conformal_sample_validation():
    for areas in ((1.0, -2.0, 1.0), (0.0, 3.0, 0.5), (1.0, 3.0, 0.0),
                  (1.0, 3.0, -0.5)):
        with pytest.raises(ValueError, match="positive"):
            dist.inclusion_bound(*areas)
    # folding's preconditions are checked before the areas
    with pytest.raises(ValueError, match="positive"):
        dist.folding_bounds(0.0, 3.0, 0.5, 0.4)
    with pytest.raises(ValueError, match="positive"):
        dist.folding_bounds(1.0, 3.0, -0.5, 0.4)
    with pytest.raises(PreconditionFailed):
        dist.folding_bounds(-1.0, -3.0, 0.5, 0.1)


# --- ellipsoids and folding --------------------------------------------------

def test_ellipsoid_factor_round_ball_constant():
    f = oracles.ellipsoid_factor_grid(0.5, 0.5)
    assert np.allclose(f, 1.0 / (2 * math.pi), atol=1e-15)
    assert dist.inclusion_bound(0.5, 0.5, 0.5) == 0.0


def test_ellipsoid_factor_range():
    # the sampled factor takes its extremes a1/pi and a2/pi at the ends of
    # [0, 1/2], where the closed form reads them
    f = oracles.ellipsoid_factor_grid(1.0, 3.0)
    assert float(np.min(f)) == pytest.approx(1.0 / math.pi, rel=1e-12)
    assert float(np.max(f)) == pytest.approx(3.0 / math.pi, rel=1e-12)
    assert float(f[-1]) == float(np.min(f)) and float(f[0]) == float(np.max(f))


def test_ellipsoid_ratio_ln6():
    ratio = (oracles.ellipsoid_factor_grid(1.0, 3.0)
             / oracles.ellipsoid_factor_grid(0.5, 0.5))
    assert float(np.min(ratio)) == pytest.approx(2.0, rel=1e-12)
    assert float(np.max(ratio)) == pytest.approx(6.0, rel=1e-12)
    assert dist.inclusion_bound(1.0, 3.0, 0.5) == pytest.approx(
        math.log(6.0), abs=1e-9)


def test_inclusion_bound_matches_the_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a1 = float(rng.uniform(0.05, 5.0))
        a2 = float(rng.uniform(2.0 * a1, 10.0 * a1))
        ball = float(rng.uniform(0.05, 5.0))
        want = oracles.inclusion_bound_grid(a1, a2, ball)
        assert dist.inclusion_bound(a1, a2, ball) == pytest.approx(
            want, rel=1e-14, abs=0.0)
        inclusion, _ = dist.folding_bounds(a1, a2, ball,
                                           0.5 * (a2 / 2.0 - a1))
        assert inclusion == dist.inclusion_bound(a1, a2, ball)


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
    res = dist.gray_integral(gray_family, 0.04, 0.06)
    assert res.value == pytest.approx(math.log(1.5), rel=1e-6)
    for _, r in res.sup_locations:
        assert abs(r - 0.25) < 1e-3


def test_gray_integral_zero_leg(gray_family):
    res = dist.gray_integral(gray_family, 0.05, 0.05)
    assert res.value == 0.0


def test_gray_integral_orientation_free(gray_family):
    fwd = dist.gray_integral(gray_family, 0.04, 0.06)
    bwd = dist.gray_integral(gray_family, 0.06, 0.04)
    assert fwd.value == pytest.approx(bwd.value, abs=1e-12)


def test_gray_integral_additive(gray_family):
    whole = dist.gray_integral(gray_family, 0.04, 0.06)
    left = dist.gray_integral(gray_family, 0.04, 0.052)
    right = dist.gray_integral(gray_family, 0.052, 0.06)
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
    # brackets across h2's joint at 1/2 and the h1/h2 joint at 3/4 are split
    # at each profile's breakpoints inside the one stacked evaluation, which
    # is bit for bit the per-profile route
    integrand = dist._GrayIntegrand(gray_family, 0.04, 0.06)
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
            assert np.array_equal(got, want)


def test_gray_zero_leg_needs_no_room_above(gray_family):
    # a leg of zero length is worth 0 without building a member, even in a
    # family that admits no amplitude above u_ref
    flat = prof.TwistedPathFamily(gray_family.params, 0.04, 0.04)
    res = dist.gray_integral(flat, 0.04, 0.04)
    assert res.value == 0.0


def test_gray_leg_work_counts(gray_family, monkeypatch):
    # one leg builds its two end members and the monotonicity probe's
    # midpoint, and checks contact at the two ends only
    calls = {"pair": 0, "contact": 0}
    real_pair = prof.TwistedPathFamily.pair
    real_check = fam.contact_report

    def counting_pair(self, u):
        calls["pair"] += 1
        return real_pair(self, u)

    def counting_check(rs, d_over_r, grid_size):
        calls["contact"] += 1
        return real_check(rs, d_over_r, grid_size)

    monkeypatch.setattr(prof.TwistedPathFamily, "pair", counting_pair)
    monkeypatch.setattr(fam, "contact_report", counting_check)
    dist.gray_integral(gray_family, 0.04, 0.06)
    assert calls == {"pair": 3, "contact": 2}


def test_gray_leg_needs_one_contact_sign_at_both_ends(gray_family,
                                                      monkeypatch):
    # an end whose determinant changes sign across r, or two ends of
    # opposite sign, leave a zero of D somewhere on the leg: the oracle and
    # the family certificate behind the closed-form legs both refuse it
    real_check = fam.contact_report
    legs = (lambda: dist.gray_integral(gray_family, 0.04, 0.06),
            lambda: fam.certify_family(gray_family, 0.04, 0.06, 2))
    for leg in legs:
        for signs in ((0, 1), (1, 0), (1, -1), (-1, 1)):
            reported = iter(signs)

            def patched(rs, d_over_r, grid_size):
                return replace(real_check(rs, d_over_r, grid_size),
                               sign=next(reported))

            monkeypatch.setattr(fam, "contact_report", patched)
            with pytest.raises(SingularLocus):
                leg()


def test_gray_leg_must_start_inside_the_family(gray_family):
    with pytest.raises(InvalidGeometry):
        dist.gray_integral(gray_family, 0.039, 0.06)


# --- the closed-form legs and their domination certificate ------------------

class _Deformed(prof.TwistedPathFamily):
    """The model's amplitude family with k (u - U_C) phi added to h2 on the
    piece of h2 that contains `at`, or across all three Chebyshev pieces
    when `at` lies in the mollification window: A gains -k U_C phi and
    B = dh2/du gains k phi there, so the members and the certificate's B
    see one deformation, while members within 1e-8 of U_C keep D within a
    few percent."""

    U_C = 0.05

    def __init__(self, at, k):
        super().__init__(FamilyDefaults().twist, 0.01, U_CAP)
        self.at = at
        self.A = self._plus_phi(self.A, -k * self.U_C)
        self.B = self._plus_phi(self.B, k)

    def _plus_phi(self, profile, c):
        segs = list(profile.segments)
        seg, _, _ = profile.segment_span(self.at)
        if isinstance(seg, prof.ChebSegment):
            # sin^2(pi (r - lo)/(hi - lo)) across the pieces' span [lo, hi],
            # in each piece's own degree: unit peak, flat at both ends
            pieces = [s for s in segs if isinstance(s, prof.ChebSegment)]
            lo, hi = pieces[0].lo, pieces[-1].hi
            for piece in pieces:
                def phi(t, piece=piece):
                    r = piece.lo + 0.5 * (t + 1.0) * (piece.hi - piece.lo)
                    return np.sin(np.pi * (r - lo) / (hi - lo)) ** 2
                segs[segs.index(piece)] = prof.ChebSegment(
                    piece.lo, piece.hi, piece.coeffs + c * chebinterpolate(
                        phi, len(piece.coeffs) - 1))
        else:  # 256 x^2 (1/4 - x)^2 on [1/2, 3/4], x = r - 1/2: unit peak
            bump = (0.0, 0.0, 16.0, -128.0, 256.0)
            segs[segs.index(seg)] = prof.PolySegment(
                seg.a, np.polynomial.polynomial.polyadd(
                    seg.coeffs, c * np.array(bump)))
        return prof.PiecewiseProfile(profile.breakpoints, segs)


@pytest.mark.parametrize("at, k, u, region", [
    (0.01, 1e-4, 0.01, (0.0099, 0.0101)),  # D/r < 0 on part of the window
    (0.6, 50.0, 0.15, (0.5, 0.75)),        # D changes sign on the dip
])
def test_contact_check_rejects_a_sign_change_of_d(at, k, u, region):
    # the window holds one of the 2000 uniform radii, and the dip's zeros
    # of D fall between them; the knots and the sign both count
    pair = _Deformed(at, k).pair(u)
    report = prof.check_contact_condition(pair, 2000)
    assert report.sign == 0 and not report.passed
    assert region[0] < report.argmin_r < region[1]
    with pytest.raises(SingularLocus, match="contact condition fails"):
        fam.contact_sign([pair], f"u = {u}")


def _max_uf(family, u_lo, u_hi, rs):
    """max of u f over the fine radii `rs` at both ends."""
    p1, p2 = family.pair(u_lo), family.pair(u_hi)
    b = (p2.h2.value(rs) - p1.h2.value(rs)) / (u_hi - u_lo)
    return max(float(np.max(u * np.abs(b * p.h1.deriv(rs) / p.wronskian(rs))))
               for u, p in ((u_lo, p1), (u_hi, p2)))


@pytest.mark.parametrize("at, k, region", [
    (0.01, 60.0, (0.0099, 0.0101)),   # the mollification window
    (0.6, 50.0, (0.5, 0.75)),         # the dip of h2 past the twist arc
])
def test_domination_rejects_a_deformed_family(at, k, region):
    # u f > 1 only inside `region`: the family certificate records a
    # negative margin, which closed-form legs refuse, and the oracle, whose
    # radii include the window knots, sees the excess
    fam_d = _Deformed(at, k)
    u_lo, u_hi = fam_d.U_C - 1e-8, fam_d.U_C + 1e-8
    lo, hi = region
    inside = np.linspace(lo, hi, 20001)[1:]
    outside = np.concatenate([np.linspace(1e-6, lo, 20001),
                              np.linspace(hi, 0.999, 200001)[1:]])
    off_arc = (outside <= fam_d.window.hi) | (outside > 0.5)
    assert _max_uf(fam_d, u_lo, u_hi, inside) > 1.5
    assert _max_uf(fam_d, u_lo, u_hi, outside[off_arc]) < 0.3
    cert = fam.certify_family(fam_d, u_lo, u_hi, 2)
    assert cert.margin < 0.0
    with pytest.raises(PreconditionFailed):
        cert.gray_margin()
    oracle = dist.gray_integral(fam_d, u_lo, u_hi).value
    assert oracle > 1.5 * math.log(u_hi / u_lo)


@pytest.mark.parametrize("at, k", [(0.01, 1e-6), (0.6, 1.0)])
def test_certificate_accepts_an_affine_deformation(at, k):
    assert fam.certify_family(_Deformed(at, k), 0.01, U_CAP, 2).margin > 0.0


def test_domination_margin_on_the_model(model):
    cert = model.certificate
    assert (cert.u_lo, cert.u_hi) == (0.01, U_CAP)
    assert cert.contact_sign == 1
    assert cert.gray_margin() == cert.margin
    assert cert.margin == pytest.approx(0.93, abs=0.005)
    # a range of one amplitude pins no B = dh2/du, and builds no member
    with pytest.raises(InvalidGeometry):
        fam.certify_family(None, 0.05, 0.05, 2)


def test_triangle_ub_margin_comes_from_the_model_ends(model):
    # these amplitudes differ by rounding only, so a margin taken from the
    # two members would rest on a difference quotient of noise
    s1 = model.embed_point((0.0, math.log(0.02)))
    s2 = model.embed_point((math.log(1.5), math.log(0.03)))
    assert 0.0 < abs(s2.u - s1.u) < 1e-15
    cert = dist.triangle_ub(s1, s2)
    assert cert.witnesses["margin"] == model.certificate.margin
    assert cert.witnesses["margin"] == pytest.approx(0.930, abs=5e-4)


def test_oracle_agrees_with_the_closed_form_legs(model):
    # every adjacent leg of criterion 5's grid and of the README 5x5 grid
    grids = (
        [(float(a), float(b)) for a in np.linspace(0.0, 0.18, 5)
         for b in math.log(0.06) - 0.37 * np.arange(5)[::-1]],
        [(float(a), float(b)) for a in np.linspace(0.0, 0.18, 5)
         for b in np.linspace(-4.30, -2.82, 5)])
    for pts in grids:
        us = sorted({model.amplitude_for(math.exp(2.0 * a), math.exp(b))
                     for a, b in pts})
        assert len(us) == 25
        for u1, u2 in zip(us, us[1:]):
            res = dist.gray_integral(model.family, u1, u2)
            assert abs(res.value - math.log(u2 / u1)) <= 1e-14


def test_closed_form_legs_refuse_a_negative_margin(model, monkeypatch):
    pts = [(0.0, math.log(0.05)), (0.1, math.log(0.04))]
    monkeypatch.setattr(model, "certificate",
                        replace(model.certificate, margin=-0.01))
    with pytest.raises(PreconditionFailed, match="margin"):
        dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    s1, s2 = (model.embed_point(p) for p in pts)
    with pytest.raises(PreconditionFailed, match="margin"):
        dist.triangle_ub(s1, s2)


def test_sweep_and_triangle_run_no_quadrature(model, monkeypatch):
    a_vals = np.linspace(0.0, 0.18, 5)
    b_vals = math.log(0.06) - 0.37 * np.arange(5)[::-1]
    pts = [(float(a), float(b)) for a in a_vals for b in b_vals]
    specs = {p: model.embed_point(p) for p in pts}
    calls = {"pair": 0, "contact": 0}
    real_pair = prof.TwistedPathFamily.pair
    real_check = fam.contact_report

    def count(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a closed-form leg ran a quadrature")

    monkeypatch.setattr(model, "embed_point", lambda p: specs[p])
    monkeypatch.setattr(dist, "gray_integral", no_quadrature)
    monkeypatch.setattr(dist, "adaptive_simpson", no_quadrature)
    monkeypatch.setattr(prof.TwistedPathFamily, "pair",
                        count("pair", real_pair))
    monkeypatch.setattr(fam, "contact_report",
                        count("contact", real_check))
    # the model certified its whole amplitude range when it was built
    rep = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    assert rep.all_passed and len(rep.rows) == 300
    assert calls == {"pair": 0, "contact": 0}
    cert = dist.triangle_ub(specs[pts[0]], specs[pts[-1]])
    assert calls == {"pair": 0, "contact": 0}
    assert cert.witnesses["margin"] == model.certificate.margin
    assert cert.witnesses["gray_leg"] == abs(
        math.log(specs[pts[-1]].u / specs[pts[0]].u))


# --- certificates ------------------------------------------------------------

def test_lower_bound_example(model):
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = model.embed_point((math.log(2.0), math.log(0.06)))
    cert = dist.lower_bound(s1, s2)
    assert cert.lower == pytest.approx(math.log(2.0), abs=1e-12)
    assert cert.lower_method == "volume"
    assert dist.lower_bound(s2, s1).lower == cert.lower


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


def test_triangle_ub_certifies_both_orders():
    from lutzlab.family import FamilyModel
    tight = FamilyModel(0.05, 0.05, n=2)
    # scaling s_a up to k_b would multiply l_a by (k_b/k_a)^(1/2) = 1.7 and
    # leave the admissible half-plane b < ln(0.05) at l = 0.051; the path
    # scales s_b down instead, to l = 0.02 / 1.7, in either order
    s_a = tight.embed_point((0.0, math.log(0.03)))
    s_b = tight.embed_point((math.log(1.7), math.log(0.02)))
    ab, ba = dist.triangle_ub(s_a, s_b), dist.triangle_ub(s_b, s_a)
    for cert in (ab, ba):
        assert cert.witnesses["intermediate_l"] == pytest.approx(0.02 / 1.7,
                                                                 rel=1e-14)
    assert ab.witnesses["scaling_leg"] == ba.witnesses["scaling_leg"]
    assert ab.upper == ba.upper
    assert ab.upper == pytest.approx(1.4667216102325049, rel=1e-15)


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
    assert c12.lower == c21.lower
    assert c12.upper == c21.upper


def test_certificate_of_identical_members(model):
    s = model.embed_point((0.1, math.log(0.04)))
    cert = dist.bound_certificate(s, s)
    assert (cert.lower, cert.upper) == (0.0, 0.0)
    uncertified = replace(s, certified=False)
    with pytest.raises(PreconditionFailed):
        dist.bound_certificate(uncertified, uncertified)


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
    # every row is the pair's own certificate
    specs = {p: model.embed_point(p) for p in pts}
    for row in rep.rows:
        direct = dist.triangle_ub(specs[(row.a1, row.b1)],
                                  specs[(row.a2, row.b2)])
        assert row.upper == direct.upper


def test_sweep_rows_are_the_pair_certificates(model):
    # the README 5x5 grid: a row's bounds are bitwise those of
    # bound_certificate, whichever member comes first
    pts = [(float(a), float(b)) for a in np.linspace(0.0, 0.18, 5)
           for b in np.linspace(-4.30, -2.82, 5)]
    rep = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    specs = {p: model.embed_point(p) for p in pts}
    assert len(rep.rows) == 300
    for row in rep.rows:
        s1, s2 = specs[(row.a1, row.b1)], specs[(row.a2, row.b2)]
        for cert in (dist.bound_certificate(s1, s2),
                     dist.bound_certificate(s2, s1)):
            assert (row.lower, row.upper) == (cert.lower, cert.upper)


def test_bilipschitz_sweep_rejects_mismatched_model(model):
    pts = [(0.0, math.log(0.05)), (0.1, math.log(0.05))]
    for floors, n in (((0.5, 1.0), 2), ((1.0, 0.5), 2), ((1.0, 1.0), 3)):
        with pytest.raises(PreconditionFailed):
            dist.bilipschitz_sweep(pts, *floors, n=n, model=model)


def test_bilipschitz_sweep_needs_two_points(model, monkeypatch):
    def no_embedding(*args, **kwargs):
        raise AssertionError("embedded a member before the point check")

    monkeypatch.setattr(model, "embed_point", no_embedding)
    for pts in ([], [(0.0, math.log(0.05))]):
        with pytest.raises(PreconditionFailed):
            dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)


def test_triangle_ub_needs_one_family(model):
    from lutzlab.family import FamilyModel
    other = FamilyModel(1.0, 1.0, n=2)
    s1 = model.embed_point((0.0, math.log(0.04)))
    s2 = other.embed_point((0.1, math.log(0.05)))
    with pytest.raises(PreconditionFailed):
        dist.triangle_ub(s1, s2)


def test_sweep_csv_format(tmp_path, model):
    pts = [(0.0, math.log(0.05)), (0.1, math.log(0.05))]
    rep = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    out = tmp_path / "sw.csv"
    rep.to_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a1,b1,a2,b2,dinf,lower,upper,slack,pass"
    assert lines[1].endswith("true")
