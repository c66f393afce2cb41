"""End-to-end acceptance suite.

Each test exercises one headline property at its stated tolerance and
prints a single PASS line (run with -s to see them).  Budgets are wall
clocks on a single core.
"""

import math
import time
import warnings

import numpy as np
import pytest

from lutzlab import distance as dist
from lutzlab import family as fam
from lutzlab import persistence as ps
from lutzlab import profile as prof
from lutzlab import reeb

import oracles

TWO_PI = 2.0 * math.pi


def _report(name, detail, elapsed=None):
    clock = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"PASS {name}: {detail}{clock}")


@pytest.fixture(scope="module")
def model():
    return fam.FamilyModel(1.0, 1.0, n=2)


def test_criterion_01_contact_condition():
    t0 = time.time()
    params = prof.TwistParams(epsilon0=0.05, delta0=0.05 / 100, delta=0.01,
                              mu_minus=-1.0, mu_plus=1.0, u=0.05).solved()
    pair = prof.build_mollified_path(params)
    report = prof.check_contact_condition(pair, grid_size=10000)
    elapsed = time.time() - t0
    assert report.min_abs_d_over_r > 1e-6
    assert report.passed and report.sign == 1
    assert elapsed < 1.0
    _report("criterion 1 (contact condition)",
            f"min |D/r| = {report.min_abs_d_over_r:.6f} on 1e4 grid",
            elapsed)


def test_criterion_02_l_invariant_round_trip(model):
    t0 = time.time()
    worst = 0.0
    for l in (0.02, 0.04, 0.06):
        for k in (1.0, 2.0, 4.0):
            spec = model.embed_point((math.log(k) / 2.0, math.log(l)))
            worst = max(worst, abs(spec.l_invariant() - l) / l)
    elapsed = time.time() - t0
    assert worst <= 1e-6
    assert elapsed < 5.0
    _report("criterion 2 (l-invariant round trip)",
            f"worst relative error {worst:.2e} over 9 points", elapsed)


def test_criterion_03_scaling_laws(model):
    t0 = time.time()
    spec2 = model.embed_point((0.05, math.log(0.04)))
    model3 = fam.FamilyModel(1.0, 1.0, n=3)
    spec3 = model3.embed_point((0.05, math.log(0.04)))
    worst = 0.0
    for c in (0.5, 2.0, math.e):
        r2 = fam.scaling_check(spec2, c, rtol=1e-9)
        r3 = fam.scaling_check(spec3, c, rtol=1e-9)
        assert r2.passed and r3.passed
        worst = max(worst,
                    abs(r2.volume_ratio - c ** 2) / c ** 2,
                    abs(r3.volume_ratio - c ** 3) / c ** 3,
                    abs(r2.l_ratio - c) / c, abs(r3.l_ratio - c) / c)
    _report("criterion 3 (scaling laws)",
            f"worst relative deviation {worst:.2e} for C in {{1/2, 2, e}}, "
            "n in {2, 3}", time.time() - t0)


def test_criterion_04_gray_integral_equality():
    t0 = time.time()
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    family = prof.TwistedPathFamily(base, 0.04, 0.06)
    res = dist.gray_integral(family, 0.04, 0.06)
    elapsed = time.time() - t0
    rel = abs(res.value - math.log(1.5)) / math.log(1.5)
    assert rel <= 1e-4
    for _, r_star in res.sup_locations:
        assert abs(r_star - 0.25) <= 1e-3
    assert elapsed < 30.0
    _report("criterion 4 (deformation-leg integral)",
            f"value {res.value:.12f} vs ln(3/2), rel err {rel:.2e}; "
            "argmax pinned at r = 1/4", elapsed)


def test_criterion_05_bilipschitz_sandwich(model):
    t0 = time.time()
    # 5x5 grid: the b-spacing dominates twice the a-span so the chain's
    # final constant-2 step applies to every anti-correlated pair
    a_vals = np.linspace(0.0, 0.18, 5)
    b_vals = math.log(0.06) - 0.37 * np.arange(5)[::-1]
    pts = [(float(a), float(b)) for a in a_vals for b in b_vals]
    report = dist.bilipschitz_sweep(pts, 1.0, 1.0, model=model)
    elapsed = time.time() - t0
    assert len(report.rows) == 300
    for row in report.rows:
        assert row.dinf <= row.lower + 1e-12
        assert row.lower <= row.upper + 1e-9
        assert row.upper <= 2.0 * row.dinf + 1e-6
    assert report.all_passed
    assert elapsed < 300.0
    _report("criterion 5 (bi-Lipschitz sandwich)",
            f"300 pairs, worst slack {report.worst_slack:.2e}", elapsed)


def test_criterion_06_ellipsoid_and_folding_bounds():
    inclusion, folding = dist.folding_bounds(1.0, 3.0, 0.5, 0.4)
    assert abs(inclusion - math.log(6.0)) <= 1e-9
    assert abs(folding - math.log(5.6)) <= 1e-12
    _report("criterion 6 (ellipsoid bounds)",
            f"inclusion {inclusion:.12f} = ln 6, "
            f"folding {folding:.12f} = ln 5.6")


def test_criterion_07_cz_consistency():
    t0 = time.time()
    ts = np.linspace(0.0, 1.0, 1024)
    shear = np.array([[[1.0, -t], [0.0, 1.0]] for t in ts])
    assert reeb.cz_sp2_path(shear, ts) == 0.5

    def quadratic_cap(a):
        bps = [0.0, 0.3]
        h1 = prof.PiecewiseProfile(bps,
                                   [prof.PolySegment(0.0, (1.0, 0.0, a))])
        h2 = prof.PiecewiseProfile(bps,
                                   [prof.PolySegment(0.0, (0.0, 0.0, 1.0))])
        return prof.ProfilePair(h1, h2, 0.3)

    rng = np.random.default_rng(2024)
    done = 0
    while done < 5:
        a = float(rng.uniform(-3.0, 3.0))
        if not all(0.1 < (-k * a / TWO_PI * 2.0) % 1.0 < 0.9
                   for k in (1, 2, 3)):
            continue
        pair = quadratic_cap(a)
        for k in (1, 2, 3):
            formula = reeb.core_orbit_cz(pair, k)
            oracle = oracles.core_orbit_cz_oracle(pair, k)
            assert formula == oracle, (a, k, formula, oracle)
        done += 1
    _report("criterion 7 (index consistency)",
            "unit shear = 1/2 exactly; 5 random caps x k in {1,2,3} match "
            "the flow oracle", time.time() - t0)


def test_criterion_08_mollifier_bound_sweep():
    t0 = time.time()
    eps0, u = 0.05, 0.026
    ratios = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # delta2 is large at this amplitude
        for frac in (1e-2, 1e-3, 1e-4):
            params = prof.TwistParams(epsilon0=eps0, delta0=frac * eps0,
                                      delta=0.01, mu_minus=-1.0,
                                      mu_plus=1.0, u=u).solved()
            smooth = prof.build_mollified_path(params)
            ratio, _ = prof.verify_smoothing_bound(smooth, u)
            ratios.append(ratio)
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] <= 1.0 / u
    _report("criterion 8 (mollifier bound)",
            "sup |-H1'/D| = " + " > ".join(f"{r:.4f}" for r in ratios)
            + f"; below 1/u = {1.0 / u:.4f} at the smallest window",
            time.time() - t0)


def test_criterion_09_persistence_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20240801)
    finite_cases = 0
    for _ in range(50):
        dga = ps.random_admissible_dga(rng, n_generators=4,
                                       action_cap=10.0, word_cap=4)
        bars = ps.barcode(dga)
        oracle = ps.brute_force_oracle(dga)
        assert bars.bars == oracle.bars
        level = ps.unit_vanishing_level(dga)
        assert bars.unit_bar().death == level
        finite = bars.finite_bars()
        if not math.isinf(level):
            finite_cases += 1
            assert finite, "a finite unit level forces finite bars"
            longest = max(b.length for b in finite)
            assert abs(longest - level) < 1e-12
            for bar in finite:
                assert bar.death <= level + bar.birth + 1e-12
    elapsed = time.time() - t0
    assert finite_cases >= 10
    assert elapsed < 120.0
    _report("criterion 9 (persistence oracle)",
            f"50 random DGAs bit-identical to the dense oracle; "
            f"{finite_cases} with finite unit level obey the product bound",
            elapsed)


def test_criterion_10_certificate_pseudometric(model):
    t0 = time.time()
    rng = np.random.default_rng(99)
    pool = []
    for _ in range(8):
        a = float(rng.uniform(0.0, 0.3))
        b = float(rng.uniform(math.log(0.022), math.log(0.06)))
        try:
            pool.append(model.embed_point((a, b)))
        except Exception:
            continue
    assert len(pool) >= 5
    cache = {}

    def upper(s1, s2):
        key = (id(s1), id(s2)) if id(s1) < id(s2) else (id(s2), id(s1))
        if key not in cache:
            cache[key] = dist.triangle_ub(s1, s2).upper
        return cache[key]

    worst = -math.inf
    for _ in range(20):
        i, j, k = rng.choice(len(pool), size=3, replace=False)
        s1, s2, s3 = pool[int(i)], pool[int(j)], pool[int(k)]
        slack = upper(s1, s3) - upper(s1, s2) - upper(s2, s3)
        worst = max(worst, slack)
        assert slack <= 1e-9
    _report("criterion 10 (certificate pseudometric)",
            f"20 triples, worst triangle slack {worst:.2e}",
            time.time() - t0)
