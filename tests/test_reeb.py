import math

import numpy as np
import pytest
from scipy.optimize import brentq

from lutzlab import numerics
from lutzlab import profile as prof
from lutzlab import reeb
from lutzlab.errors import (InvalidGeometry, NotSymplectic,
                            PreconditionFailed, SingularLocus)

import oracles

TWO_PI = 2.0 * math.pi


def quadratic_cap(a, c=1.0, eps=0.3):
    """h1 = 1 + a r^2, h2 = c r^2 on [0, eps]."""
    bps = [0.0, eps]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0, 0.0, a))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.0, 0.0, c))])
    return prof.ProfilePair(h1, h2, eps)


# --- field ------------------------------------------------------------------

def test_reeb_field_cap(cap_pair):
    tr, pr = reeb.reeb_field(cap_pair, 0.3)
    assert tr == pytest.approx(1.0, abs=1e-14)
    assert pr == pytest.approx(0.0, abs=1e-14)


def test_reeb_field_at_quarter(smooth_pair):
    tr, pr = reeb.reeb_field(smooth_pair, 0.25)
    d = float(smooth_pair.wronskian(0.25))
    assert tr == pytest.approx(0.0, abs=1e-12)
    assert pr == pytest.approx(-float(smooth_pair.h1.deriv(0.25)) / d,
                               rel=1e-14)


def test_reeb_field_normalisation(smooth_pair):
    for r in np.linspace(0.01, 0.99, 29):
        tr, pr = reeb.reeb_field(smooth_pair, float(r))
        lhs = (smooth_pair.h1.value(r) * tr + smooth_pair.h2.value(r) * pr)
        assert abs(lhs - 1.0) < 1e-10


def test_reeb_field_singular_locus():
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0, 0.0, 1.0))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.5, 0.0, 0.5))])
    degenerate = prof.ProfilePair(h1, h2, 1.0)
    with pytest.raises(SingularLocus):
        reeb.reeb_field(degenerate, 0.3)


# --- resonance scan ---------------------------------------------------------

def test_scan_finds_quarter_family(smooth_pair):
    fams = reeb.resonance_scan(smooth_pair, 1, grid=3000)
    q0 = [f for f in fams if f.q == 0 and abs(f.r0 - 0.25) < 1e-6]
    assert len(q0) == 1
    fam = q0[0]
    assert fam.p == -1  # h1' < 0 through the first zero
    expected = TWO_PI * abs(float(smooth_pair.h2.value(0.25)))
    assert fam.period == pytest.approx(expected, rel=1e-12)
    assert fam.period > 0 and fam.morse_bott


def test_scan_period_crosschecks(smooth_pair):
    fams = reeb.resonance_scan(smooth_pair, 3, grid=3000)
    checked = 0
    for f in fams:
        assert f.period > 0
        if f.period_crosscheck is not None:
            assert f.period_crosscheck < 1e-9
            checked += 1
    assert checked >= 5


def test_scan_subset_property(smooth_pair):
    keys = lambda fams: {(round(f.r0, 8), f.p, f.q) for f in fams}
    f1 = keys(reeb.resonance_scan(smooth_pair, 1, grid=3000))
    f3 = keys(reeb.resonance_scan(smooth_pair, 3, grid=3000))
    assert f1 <= f3


def test_scan_cap_continuum(cap_pair):
    fams = reeb.resonance_scan(cap_pair, 1, grid=2000)
    assert len(fams) == 1
    fam = fams[0]
    assert fam.continuum and fam.p == 0 and fam.q == 1
    assert fam.period == pytest.approx(1.0, abs=1e-12)
    assert not fam.morse_bott


def test_orbit_csv(tmp_path, smooth_pair):
    fams = reeb.resonance_scan(smooth_pair, 1, grid=2000)
    out = tmp_path / "orbits.csv"
    reeb.orbit_scan_csv(fams, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r0,p,q,period,action,morse_bott"
    assert len(lines) == len(fams) + 1


def test_scan_needs_a_cell(smooth_pair):
    with pytest.raises(ValueError):
        reeb.resonance_scan(smooth_pair, 1, grid=1)
    with pytest.raises(ValueError):
        reeb.resonance_scan(smooth_pair, 0)


def scalar_scan(pair, pq_max, grid):
    """Reference scan: one scalar profile call per grid point and a Brent
    polish per strict sign change between two non-flat samples; each
    torus's period from `pair.wronskian` and its flag from the centred
    difference."""
    families = []

    def register(r0, p_un, q_un, continuum):
        h1p, h2p = float(pair.h1.deriv(r0)), float(pair.h2.deriv(r0))
        if abs(h1p) < 1e-12 and abs(h2p) < 1e-12:
            return
        p = int(math.copysign(p_un, h1p)) if p_un else 0
        q = int(math.copysign(q_un, h2p)) if q_un else 0
        for f in families:
            if (f.continuum == continuum and abs(f.r0 - r0) < 1e-9
                    and (f.p, f.q) == (p, q)):
                return
        mb = (not continuum
              and oracles.morse_bott_centred_difference(pair, r0))
        d = float(pair.wronskian(r0))
        t_q = q * d / h2p if q and abs(h2p) > 1e-14 else None
        t_p = TWO_PI * p * d / h1p if p and abs(h1p) > 1e-14 else None
        period = t_q if t_q is not None else t_p
        families.append(reeb.TorusOrbitFamily(
            r0=r0, p=p, q=q, period=period, action=period, morse_bott=mb,
            continuum=continuum))

    pqs = [(0, 1), (1, 0)] + [(p, q) for q in range(1, pq_max + 1)
                              for p in range(1, pq_max + 1)
                              if math.gcd(p, q) == 1]
    rs = np.linspace(1e-6 * pair.epsilon, pair.epsilon * (1.0 - 1e-12),
                     grid)
    for p_un, q_un in pqs:
        for p_signed in ((0,) if p_un == 0 else (p_un, -p_un)):
            def g(r):
                return (q_un * float(pair.h1.deriv(r))
                        - TWO_PI * p_signed * float(pair.h2.deriv(r)))

            gs = [g(r) for r in rs]
            flat = [abs(v) < 1e-13 for v in gs]
            for a, b in reeb._flat_spans(rs, np.array(flat)):
                register(0.5 * (a + b), p_un, q_un, True)
            for i in range(grid - 1):
                if not (flat[i] or flat[i + 1]) and gs[i] * gs[i + 1] < 0.0:
                    register(brentq(g, rs[i], rs[i + 1], xtol=1e-15),
                             p_un, q_un, False)
    families.sort(key=lambda f: (f.r0, f.p, f.q))
    return families


@pytest.mark.parametrize("name", ["smooth_pair", "cap_pair"])
def test_scan_matches_scalar_reference(name, request):
    pair = request.getfixturevalue(name)
    key = lambda fams: [(f.r0, f.p, f.q, f.period, f.morse_bott,
                         f.continuum) for f in fams]
    fams = reeb.resonance_scan(pair, 2, grid=2000)
    assert fams
    assert key(fams) == key(scalar_scan(pair, 2, 2000))


# (epsilon0, delta0, u) of the README profile and the dynamics benchmark's
# profile pool
SCAN_PROFILES = [(0.05, 0.0005, 0.05), (0.04, 0.0005, 0.04),
                 (0.06, 0.0005, 0.06), (0.05, 0.0004, 0.045),
                 (0.045, 0.0005, 0.045), (0.055, 0.0005, 0.055)]


def test_scan_polish_is_scipy_brentq(monkeypatch):
    # numerics' Brent port returns scipy's float on every bracket the scan
    # polishes, so no orbit moves with the port
    assert reeb.brentq is numerics.brentq
    polished = []

    def both(f, a, b, xtol):
        got = numerics.brentq(f, a, b, xtol)
        assert got == brentq(f, a, b, xtol=xtol), (a, b)
        polished.append(got)
        return got
    monkeypatch.setattr(reeb, "brentq", both)
    for e0, d0, u in SCAN_PROFILES:
        pair = prof.build_mollified_path(
            prof.TwistParams(epsilon0=e0, delta0=d0, u=u))
        reeb.resonance_scan(pair, 3)
    assert len(polished) == 6 * 33      # 33 brackets per profile


# --- action minima ----------------------------------------------------------

def test_action_minima_matches_scalar_reference(smooth_pair):
    # Brent on the sign changes of a 4000-point grid, polished to 1e-12,
    # against the exact zero set
    h1 = lambda r: float(smooth_pair.h1.value(r))
    xs = np.linspace(1e-9, smooth_pair.epsilon * (1 - 1e-12), 4000)
    fs = [h1(x) for x in xs]
    zeros = [brentq(h1, xs[i], xs[i + 1], xtol=1e-12)
             for i in range(len(xs) - 1) if fs[i] * fs[i + 1] < 0.0]
    actions = [TWO_PI * abs(float(smooth_pair.h2.value(r))) for r in zeros]
    got = reeb.action_minima(smooth_pair)
    assert got[:2] == pytest.approx(zeros, rel=0.0, abs=2e-12)
    assert got[2:] == pytest.approx(actions, rel=1e-12, abs=0.0)


def test_action_minima_closed_form(smooth_pair, solved_params):
    r_plus, r_pp, a_plus, a_pp = reeb.action_minima(smooth_pair)
    assert r_plus == pytest.approx(0.25, abs=1e-9)
    assert r_pp == pytest.approx(0.75, abs=1e-9)
    closed = (1 + solved_params.delta2) * solved_params.u \
        / solved_params.morse_factor
    assert a_plus == pytest.approx(closed, rel=1e-9)
    assert a_pp == pytest.approx(2 * a_plus, rel=1e-9)


def test_action_minima_counts_zeros_between_grid_points(smooth_pair,
                                                        splice_linear):
    # a dip of h1 below zero and back inside one cell of the 4000-point
    # grid; h2 > 0 there, so the path still winds once
    xs = np.linspace(1e-9, smooth_pair.epsilon * (1 - 1e-12), 4000)
    knots = xs[400] + (xs[401] - xs[400]) * np.array([0.2, 0.4, 0.6, 0.8])
    h1 = smooth_pair.h1
    dipped = prof.ProfilePair(
        splice_linear(h1, knots, [float(h1.value(knots[0])), -0.05, -0.05,
                                  float(h1.value(knots[3]))]),
        smooth_pair.h2, smooth_pair.epsilon)
    assert dipped.winding_number() == 1
    assert len(dipped.h1.sign_changes()) == 4
    fs = dipped.h1.value(xs)
    assert np.count_nonzero(fs[:-1] * fs[1:] < 0.0) == 2  # the grid scan
    with pytest.raises(InvalidGeometry, match="found 4"):
        reeb.action_minima(dipped)


def test_action_minima_are_the_exact_zeros_of_h1(looped_cap_pair):
    # the loop winds once and both zeros of h1 sit in one cell of a
    # 4000-point grid, where no grid bracket could separate them; they are
    # the two sign changes of h1's exact zero set
    zeros = looped_cap_pair.h1.sign_changes()
    assert zeros == pytest.approx([0.60000035, 0.60000055], rel=0.0,
                                  abs=1e-15)
    r_plus, r_pp, a_plus, a_pp = reeb.action_minima(looped_cap_pair)
    assert (r_plus, r_pp) == tuple(zeros)
    assert (a_plus, a_pp) == (
        TWO_PI * abs(float(looped_cap_pair.h2.value(r_plus))),
        TWO_PI * abs(float(looped_cap_pair.h2.value(r_pp))))


def test_action_minima_untwisted_rejected(cap_pair):
    with pytest.raises(InvalidGeometry):
        reeb.action_minima(cap_pair)


def test_action_minima_needs_dominant_second_intercept():
    # equal-depth intercepts: (cos, 0.1 sin) winds once but has no ordering
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.TrigSegment("cos", 1.0)])
    h2 = prof.PiecewiseProfile(bps, [prof.TrigSegment("sin", 0.1)])
    with pytest.raises(InvalidGeometry):
        reeb.action_minima(prof.ProfilePair(h1, h2, 1.0))


# --- Morse-Bott -------------------------------------------------------------

def test_morse_bott_ellipse(smooth_pair):
    assert reeb.morse_bott_check(smooth_pair, 0.25)


def test_morse_bott_cap_false(cap_pair):
    assert not reeb.morse_bott_check(cap_pair, 0.3)


def test_morse_bott_constant_ratio_false():
    pair = quadratic_cap(1.0, 1.0)  # h1' / h2' = 1 identically
    assert not reeb.morse_bott_check(pair, 0.2)


def test_morse_bott_exact_flag_matches_centred_difference(smooth_pair,
                                                          cap_pair):
    # every torus the scans flag, and radii of both fixtures, where the
    # cap's constant slope ratio gives the false case
    checked, flags = 0, set()
    for e0, d0, u in SCAN_PROFILES:
        pair = prof.build_mollified_path(
            prof.TwistParams(epsilon0=e0, delta0=d0, u=u))
        for fam in reeb.resonance_scan(pair, 2):
            if not fam.continuum:
                assert fam.morse_bott == oracles.morse_bott_centred_difference(
                    pair, fam.r0), (e0, d0, u, fam)
                checked += 1
    assert checked == 90
    for pair in (smooth_pair, cap_pair):
        for r0 in np.linspace(0.05, 0.95, 19):
            flag = reeb.morse_bott_check(pair, float(r0))
            assert flag == oracles.morse_bott_centred_difference(
                pair, float(r0)), r0
            flags.add(flag)
    assert flags == {True, False}


def test_registered_torus_costs_six_scalar_evaluations(smooth_pair,
                                                      monkeypatch):
    # outside the Brent polish, every candidate root reads h1' and h2' for
    # its signs, and each new non-continuum torus reads h1, h2 and their
    # second derivatives there once more: six evaluations in all
    calls, counting = [], [True]
    for method in ("value", "deriv", "deriv2"):
        orig = getattr(prof.PiecewiseProfile, method)

        def counted(self, r, orig=orig, method=method):
            if counting[0] and np.ndim(r) == 0:
                calls.append((method, float(r)))
            return orig(self, r)
        monkeypatch.setattr(prof.PiecewiseProfile, method, counted)

    def uncounted_brentq(f, a, b, xtol):
        counting[0] = False
        try:
            return numerics.brentq(f, a, b, xtol)
        finally:
            counting[0] = True
    monkeypatch.setattr(reeb, "brentq", uncounted_brentq)
    fams = reeb.resonance_scan(smooth_pair, 2, grid=2000)
    tori = [f for f in fams if not f.continuum]
    assert len(tori) >= 5
    for fam in tori:
        at_r0 = [m for m, r in calls if r == fam.r0]
        assert at_r0.count("value") == at_r0.count("deriv2") == 2, fam
        # a second candidate at the same radius pays its two signs only
        assert at_r0.count("deriv") in (2, 4), fam
    methods = [m for m, _ in calls]
    assert methods.count("value") == 2 * len(fams)
    assert methods.count("deriv2") == 2 * len(tori)


# --- core-orbit index -------------------------------------------------------

def test_core_cz_formula_values():
    pair = quadratic_cap(-0.6 * math.pi)
    assert reeb.core_orbit_cz(pair, 1) == 1   # floor argument 0.3
    assert reeb.core_orbit_cz(pair, 4) == 3   # floor argument 1.2


def test_core_cz_degenerate_flat_cap(smooth_pair):
    # h1 is constant near zero, so every cover is degenerate
    for k in (1, 2, 5):
        assert isinstance(reeb.core_orbit_cz(smooth_pair, k),
                          reeb.Degenerate)


def test_core_cz_oracle_agreement():
    rng = np.random.default_rng(7)
    done = 0
    while done < 5:
        a = float(rng.uniform(-3.0, 3.0))
        frac_ok = all(
            0.12 < (-k * a / math.pi / 2.0) % 1.0 < 0.88 for k in (1, 2, 3))
        if not frac_ok:
            continue
        pair = quadratic_cap(a)
        for k in (1, 2, 3):
            assert reeb.core_orbit_cz(pair, k) \
                == oracles.core_orbit_cz_oracle(pair, k)
        done += 1


def test_core_info_json(smooth_pair):
    info = reeb.CoreOrbitInfo.compute(smooth_pair, 2)
    assert info.period == 1.0
    assert "degenerate" in info.to_json()


# --- symplectic path index --------------------------------------------------

def _rotation_path(total_angle, n=512):
    ts = np.linspace(0.0, 1.0, n)
    return np.array([[[np.cos(total_angle * t), -np.sin(total_angle * t)],
                      [np.sin(total_angle * t), np.cos(total_angle * t)]]
                     for t in ts]), ts


def _shear_path(c, n=512):
    ts = np.linspace(0.0, 1.0, n)
    return np.array([[[1.0, -c * t], [0.0, 1.0]] for t in ts]), ts


def test_cz_path_shear_half():
    assert reeb.cz_sp2_path(*_shear_path(1.0)) == 0.5
    # the shear property sign(c)/2 that `perturb` takes in closed form
    for c in (3.7, -2.1, 1e-3, -50.0):
        assert reeb.cz_sp2_path(*_shear_path(c)) == math.copysign(0.5, c)


def test_cz_path_identity_zero():
    ts = np.linspace(0.0, 1.0, 128)
    ident = np.array([np.eye(2)] * 128)
    assert reeb.cz_sp2_path(ident, ts) == 0.0


def test_cz_path_full_loop_two():
    mats, ts = _rotation_path(TWO_PI)
    assert reeb.cz_sp2_path(mats, ts) == 2.0


@pytest.mark.parametrize("turns,expected", [
    (0.3, 1), (0.7, 1), (1.2, 3), (2.7, 5), (-0.4, -1), (-1.3, -3)])
def test_cz_path_rotations(turns, expected):
    mats, ts = _rotation_path(turns * TWO_PI)
    assert reeb.cz_sp2_path(mats, ts) == expected


def test_cz_path_not_symplectic():
    ts = np.linspace(0.0, 1.0, 64)
    mats = np.array([[[1.0 + 0.1 * t, 0.0], [0.0, 1.0]] for t in ts])
    with pytest.raises(NotSymplectic):
        reeb.cz_sp2_path(mats, ts)


# --- perturbation -----------------------------------------------------------

def test_perturb_actions(smooth_pair, solved_params):
    orbits = reeb.perturb(smooth_pair, solved_params)
    h2p = abs(float(smooth_pair.h2.value(orbits.r_plus)))
    assert orbits.action_hyperbolic == pytest.approx(
        TWO_PI * h2p * (1 - solved_params.delta), rel=1e-12)
    assert orbits.action_elliptic == pytest.approx(
        TWO_PI * h2p * (1 + solved_params.delta), rel=1e-12)
    # lowest-action ordering: hyperbolic < elliptic < second intercept
    _, _, _, a_second = reeb.action_minima(smooth_pair)
    assert orbits.action_hyperbolic < orbits.action_elliptic < a_second
    assert orbits.degree_hyperbolic == 1
    assert orbits.cz_elliptic_reported == 1


def _shear_rate(pair, r):
    h1p, h2p = float(pair.h1.deriv(r)), float(pair.h2.deriv(r))
    h1pp, h2pp = float(pair.h1.deriv2(r)), float(pair.h2.deriv2(r))
    return (h1p * h2pp - h1pp * h2p) / float(pair.wronskian(r)) ** 2


def _h2_bent_at_quarter(pair, k):
    """`pair` with h2 on [0.24, 0.26] replaced by its tangent line at
    r = 1/4 plus k (r - 1/4)^2: k > 0 turns the shear at r+ = 1/4 over."""
    h2 = pair.h2
    seg, lo, _ = h2.segment_span(0.24)
    bps = list(h2.breakpoints)
    i = bps.index(lo)
    quad = prof.PolySegment(0.25, (float(h2.value(0.25)),
                                   float(h2.deriv(0.25)), k))
    return prof.ProfilePair(pair.h1, prof.PiecewiseProfile(
        bps[:i + 1] + [0.24, 0.26] + bps[i + 1:],
        h2.segments[:i] + [seg, quad, seg] + h2.segments[i + 1:]),
        pair.epsilon)


def test_perturb_shear_index_matches_path_engine(smooth_pair,
                                                 solved_params):
    # the closed-form index sign(c)/2 against the Robbin-Salamon engine on
    # the shear [[1, -c t], [0, 1]] at r+ of each scan profile, whose c
    # is positive, and of the README pair bent to either sign
    cases = []
    for e0, d0, u in SCAN_PROFILES:
        params = prof.TwistParams(epsilon0=e0, delta0=d0, u=u).solved()
        cases.append((prof.build_mollified_path(params), params))
    cases += [(_h2_bent_at_quarter(smooth_pair, k), solved_params)
              for k in (1.0, -1.0)]
    signs = []
    for pair, params in cases:
        c = _shear_rate(pair, reeb.action_minima(pair)[0])
        engine = reeb.cz_sp2_path(*_shear_path(c))
        assert engine == math.copysign(0.5, c)
        assert reeb.perturb(pair, params).cz_hyperbolic == engine - 0.5
        signs.append(math.copysign(1.0, c))
    assert signs == [1.0] * 6 + [-1.0, 1.0]


def test_perturb_refuses_a_zero_shear_rate(smooth_pair, solved_params,
                                           splice_linear):
    # h1 and h2 linear around r+ = 1/4: h1'' = h2'' = 0 there, so the
    # return map does not shear
    knots = np.array([0.24, 0.26])
    flat = prof.ProfilePair(*(
        splice_linear(h, knots, [float(v) for v in h.value(knots)])
        for h in (smooth_pair.h1, smooth_pair.h2)), smooth_pair.epsilon)
    assert reeb.action_minima(flat)[0] == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(InvalidGeometry, match="shear"):
        reeb.perturb(flat, solved_params)


def test_perturb_delta_zero_limit(smooth_pair, solved_params):
    from dataclasses import replace
    p0 = replace(solved_params, delta=0.0)
    orbits = reeb.perturb(smooth_pair, p0)
    base = TWO_PI * abs(float(smooth_pair.h2.value(orbits.r_plus)))
    assert orbits.action_hyperbolic == pytest.approx(base, rel=1e-12)
    assert orbits.action_elliptic == pytest.approx(base, rel=1e-12)


def test_perturb_field_critical_circle(smooth_pair, solved_params):
    orbits = reeb.perturb(smooth_pair, solved_params)
    for theta in (0.0, math.pi):  # both Morse critical points
        _, r_dot, _ = orbits.reeb_field(theta, orbits.r_plus, 0.0)
        assert abs(r_dot) < 1e-14


def test_perturb_field_is_reeb_field(smooth_pair, solved_params):
    # alpha(R) = 1 and dalpha(R, .) = 0, checked by finite differences
    orbits = reeb.perturb(smooth_pair, solved_params)
    delta = solved_params.delta
    mu_mid = 0.5 * (solved_params.mu_plus + solved_params.mu_minus)
    mu_amp = 0.5 * (solved_params.mu_plus - solved_params.mu_minus)
    half = solved_params.epsilon0 / 4.0
    r_plus = orbits.r_plus

    def factor(theta, r):
        s = (r - r_plus) / half
        b = (1 - s * s) ** 3 if abs(s) < 1 else 0.0
        return 1.0 + delta * b * (mu_mid - mu_amp * math.cos(theta))

    def alpha(theta, r):
        f = factor(theta, r)
        return (f * float(smooth_pair.h1.value(r)),
                f * float(smooth_pair.h2.value(r)))

    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(12):
        theta = float(rng.uniform(0, TWO_PI))
        r = float(rng.uniform(r_plus - half * 0.8, r_plus + half * 0.8))
        td, rd, pd = orbits.reeb_field(theta, r, 0.0)
        a_th, a_ph = alpha(theta, r)
        assert abs(a_th * td + a_ph * pd - 1.0) < 1e-8
        # kernel conditions: i_R dalpha = 0 component-wise, with
        # dalpha = A dr^dtheta + B dr^dphi + C dtheta^dphi
        da_th_dr = (alpha(theta, r + h)[0] - alpha(theta, r - h)[0]) / (2 * h)
        da_ph_dr = (alpha(theta, r + h)[1] - alpha(theta, r - h)[1]) / (2 * h)
        da_ph_dth = (alpha(theta + h, r)[1] - alpha(theta - h, r)[1]) / (2 * h)
        comp_dr = -da_th_dr * td - da_ph_dr * pd
        comp_dth = da_th_dr * rd - da_ph_dth * pd
        comp_dph = da_ph_dr * rd + da_ph_dth * td
        assert abs(comp_dr) < 1e-7
        assert abs(comp_dth) < 1e-7
        assert abs(comp_dph) < 1e-7


def test_perturbed_return_time(smooth_pair, solved_params):
    orbits = reeb.perturb(smooth_pair, solved_params)
    t = oracles.perturbed_return_time(orbits)
    assert t == pytest.approx(orbits.action_hyperbolic, rel=1e-9)


# --- l-invariant ------------------------------------------------------------

def test_l_invariant_value(smooth_pair, solved_params):
    l = reeb.l_invariant(smooth_pair, solved_params, ambient_floor_a=1.0)
    assert l == pytest.approx((1 + solved_params.delta2) * solved_params.u,
                              rel=1e-9)


def test_l_invariant_scaling(smooth_pair, solved_params):
    l1 = reeb.l_invariant(smooth_pair, solved_params)
    for c in (0.5, 2.0, 7.3):
        lc = reeb.l_invariant(smooth_pair.scaled(c), solved_params)
        assert lc == pytest.approx(c * l1, rel=1e-12)


def test_l_invariant_delta_zero(smooth_pair, solved_params):
    from dataclasses import replace
    p0 = replace(solved_params, delta=0.0)
    l = reeb.l_invariant(smooth_pair, p0)
    assert l == pytest.approx(
        TWO_PI * abs(float(smooth_pair.h2.value(0.25))), rel=1e-9)


def test_l_invariant_needs_certificate(smooth_pair, solved_params):
    with pytest.raises(PreconditionFailed):
        reeb.l_invariant(smooth_pair, solved_params, ambient_floor_a=0.01)


def test_claction_check(smooth_pair, solved_params):
    good = reeb.claction_check(smooth_pair, solved_params, 1.0)
    assert good["passed"] and good["below_ambient_floor"] \
        and good["below_second_intercept"]
    low_floor = reeb.claction_check(smooth_pair, solved_params, 0.01)
    assert not low_floor["passed"] and not low_floor["below_ambient_floor"]


def test_claction_large_delta_fails_second_inequality():
    # equal intercept magnitudes with a hand-built pair: the margin
    # |h2(r+)|(1+delta*mu) < |h2(r+')| collapses as delta*mu -> 0+ fails
    params = prof.TwistParams(epsilon0=0.05, delta0=5e-4, delta=0.0,
                              u=0.05).solved()
    from dataclasses import replace
    amp = prof.arc_amplitude(params)
    shallow = replace(params,
                      extension=prof.ExtensionSpec(h2_depth=1.0005 * amp))
    pair = prof.build_twisted_path(shallow)
    # delta = 0: need |h2(r+)| < |h2(r+')| with barely-larger depth: passes
    assert reeb.claction_check(pair, shallow, 1.0)["passed"]
    # but a Morse factor above the depth ratio breaks it
    bumped = replace(shallow, delta=0.01, mu_minus=1.0, mu_plus=2.0)
    assert not reeb.claction_check(pair, bumped, 1.0)["passed"]


# --- open book profiles -----------------------------------------------------

def test_openbook_endpoint_values():
    ob = reeb.openbook_profiles(0.5, 0.01)
    assert ob.g_tilde(0.0) == pytest.approx(-math.pi, abs=1e-15)
    assert ob.h(0.0) == 1.0
    assert ob.h_tilde(0.0) == 1.0


def test_openbook_ftc_identity():
    ob = reeb.openbook_profiles(0.5, 0.01)
    h = 1e-6
    for p in np.linspace(0.05, 1.2, 9):
        fd = (ob.h(p + h) - ob.h(p - h)) / (2 * h)
        assert abs(fd - p * ob.g_prime(p)) < 1e-7


def test_openbook_beyond_support():
    ob = reeb.openbook_profiles(0.5, 0.01)
    for p in (0.6, 1.0):
        assert ob.g(p) == pytest.approx(0.01 * p, abs=1e-15)
        assert ob.g_prime(p) == pytest.approx(0.01, abs=1e-15)
    # h = const + eps_tilde p^2 / 2 beyond the twist region
    c = ob.h(0.5) - 0.01 * 0.5 ** 2 / 2
    for p in (0.7, 1.1):
        assert ob.h(p) == pytest.approx(c + 0.01 * p ** 2 / 2, abs=1e-9)


def test_openbook_closed_forms_match_simpson():
    ob = reeb.openbook_profiles(0.5, 0.01)
    ps = [0.0, 0.5, -0.5, 0.7, -1.1] + list(np.linspace(0.0, 1.2, 49))
    for p in ps:
        pa = abs(p)
        h = 1.0 + numerics.adaptive_simpson(
            lambda s: s * float(ob.g_prime(s)), 0.0, pa, tol=1e-12)
        h_tilde = 1.0 - numerics.adaptive_simpson(
            lambda s: float(ob.g(s)), 0.0, pa, tol=1e-12)
        assert abs(ob.h(p) - h) <= 1e-12, p
        assert abs(ob.h_tilde(p) - h_tilde) <= 1e-12, p


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_openbook_refuses_bad_parameters(bad):
    for args in ((bad, 0.01), (0.5, bad)):
        with pytest.raises(ValueError, match="finite and positive"):
            reeb.openbook_profiles(*args)


def test_openbook_monotone_g_tilde():
    ob = reeb.openbook_profiles(0.4, 0.02)
    ps = np.linspace(0.0, 0.4, 41)
    vals = ob.g_tilde(ps)
    assert np.all(np.diff(vals) >= -1e-12)
