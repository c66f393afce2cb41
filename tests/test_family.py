import math

import numpy as np
import pytest

from lutzlab import family as fam
from lutzlab import profile as prof
from lutzlab import reeb
from lutzlab.errors import (DomainViolation, InfeasibleCompensation,
                            InvalidGeometry, PreconditionFailed)

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


def test_tube_volume_montecarlo_crosscheck(smooth_pair):
    v = fam.tube_volume(smooth_pair)
    mc = fam.tube_volume_montecarlo(smooth_pair, 20_000_000, seed=0)
    assert abs(mc - v) / v < 1e-3


def test_tube_volume_orientation():
    # reversed-orientation pair: the volume is still the positive magnitude
    bps = [0.0, 1.0]
    h1 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (1.0,))])
    h2 = prof.PiecewiseProfile(bps, [prof.PolySegment(0.0, (0.0, 0.0, -1.0))])
    vol = fam.tube_volume(prof.ProfilePair(h1, h2, 1.0))
    assert vol == pytest.approx(FOUR_PI2, rel=1e-13)


# --- compensator ------------------------------------------------------------

def comp_with_volume(target_volume=0.2):
    radius = math.sqrt(target_volume / FOUR_PI2)
    return fam.CompensatorSpec(tube_radius=radius, theta_extent=5.0,
                               r_extent=0.9 * radius)


def test_compensator_zero_target():
    spec = fam.compensator_solve(0.0, comp_with_volume(), 1.0)
    assert spec.amplitude == 0.0 and spec.min_one_plus_nu == 1.0


def test_compensator_small_removal():
    tube = comp_with_volume(0.2)
    assert tube.tube_volume() == pytest.approx(0.2, rel=1e-12)
    spec = fam.compensator_solve(0.01, tube, 1.0)
    assert spec.amplitude < 0.0
    assert spec.min_one_plus_nu >= 0.5
    # independent re-integration agrees to 1e-8 relative
    achieved = spec.delta_volume_grid(spec.amplitude, 2)
    assert abs(achieved + 0.01) / 0.01 < 1e-6
    assert spec.achieved_residual < 1e-8 * 0.01 + 1e-14


def test_compensator_addition():
    spec = fam.compensator_solve(-0.01, comp_with_volume(0.2), 1.0)
    assert spec.amplitude > 0.0 and spec.min_one_plus_nu == 1.0


def test_compensator_infeasible():
    with pytest.raises(InfeasibleCompensation):
        fam.compensator_solve(0.19, comp_with_volume(0.2), 1.0)


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


def test_embed_domain_violation(model):
    with pytest.raises(DomainViolation):
        model.embed_point((0.0, 0.1))


def test_embed_below_floor_rejected(model):
    with pytest.raises(InvalidGeometry):
        model.embed_point((math.log(4.0) / 2, math.log(0.005)))


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
