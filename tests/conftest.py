import math

import numpy as np
import pytest

from lutzlab import family as fam
from lutzlab import profile as prof


@pytest.fixture(scope="session")
def solved_params():
    return prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01,
                            mu_minus=-1.0, mu_plus=1.0, u=0.05).solved()


@pytest.fixture(scope="session")
def raw_pair(solved_params):
    return prof.build_twisted_path(solved_params)


@pytest.fixture(scope="session")
def smooth_pair(solved_params, raw_pair):
    return prof.mollify(raw_pair, prof.default_window(solved_params))


@pytest.fixture(scope="session")
def cap_pair():
    return prof.standard_cap_pair(1.0)


@pytest.fixture(scope="session")
def model():
    return fam.FamilyModel(1.0, 1.0, n=2)


@pytest.fixture(scope="session")
def gray_family():
    base = prof.TwistParams(epsilon0=0.05, delta0=0.0005, delta=0.01, u=0.04)
    return prof.TwistedPathFamily(base, 0.04, 0.06)


@pytest.fixture(scope="session")
def base_b(model):
    return math.log(model.defaults.l_base)


def _splice_linear(profile, knots, values):
    """`profile` with the broken line through (knots, values) in place on
    [knots[0], knots[-1]], which must sit inside one of its pieces."""
    seg, lo, _ = profile.segment_span(knots[0])
    bps = list(profile.breakpoints)
    i = bps.index(lo)
    lines = [prof.PolySegment(a, (fa, (fb - fa) / (b - a))) for a, b, fa, fb
             in zip(knots[:-1], knots[1:], values[:-1], values[1:])]
    return prof.PiecewiseProfile(
        bps[:i + 1] + list(knots) + bps[i + 1:],
        profile.segments[:i] + [seg] + lines + [seg]
        + profile.segments[i + 1:])


@pytest.fixture(scope="session")
def splice_linear():
    return _splice_linear


@pytest.fixture(scope="session")
def looped_cap_pair(cap_pair):
    """(1, r^2) with a square loop around the origin, run counterclockwise
    on [0.6000003, 0.6000007]: far narrower than one cell of a 2^17-point
    or a 4000-point grid."""
    t = 0.6000003 + 1e-7 * np.arange(5)
    return prof.ProfilePair(
        _splice_linear(cap_pair.h1, t, [1.0, -1.0, -1.0, 1.0, 1.0]),
        _splice_linear(cap_pair.h2, t,
                       [t[0] ** 2, t[0] ** 2, -1.0, -1.0, t[4] ** 2]), 1.0)
