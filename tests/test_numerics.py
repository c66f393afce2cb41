import math

import numpy as np
import pytest

from lutzlab import numerics as num
from lutzlab.errors import QuadratureFailure


def test_adaptive_simpson_known_integrals():
    assert num.adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-11)
    assert num.adaptive_simpson(lambda x: x ** 3, -1.0, 2.0) \
        == pytest.approx(15.0 / 4.0, abs=1e-11)
    assert num.adaptive_simpson(lambda x: 1.0 / x, 1.0, math.e) \
        == pytest.approx(1.0, abs=1e-11)


def test_adaptive_simpson_empty_interval():
    assert num.adaptive_simpson(math.sin, 1.0, 1.0) == 0.0


def test_gl_panels_match_simpson():
    f = lambda x: math.exp(-x * x) * math.cos(3 * x)
    ref = num.adaptive_simpson(f, -0.8, 1.1, tol=1e-13)
    nodes, weights = num.gl_panel_nodes(np.array([-0.8]), np.array([1.1]), 40)
    gl = float(np.sum(weights * np.vectorize(f)(nodes)))
    assert gl == pytest.approx(ref, abs=1e-12)


def test_golden_max():
    # a quadratic peak between grid points: four 16-fold rounds leave a
    # sample spacing of h / 16^4 = 2.4e-7 around the peak
    q = lambda rs: 2.0 - (rs - 0.3) ** 2
    xs = np.linspace(0.0, 1.0, 64)
    vals = q(xs)
    x, v = num.grid_sup(q, xs, vals)
    assert x == pytest.approx(0.3, abs=2.5e-7)
    assert v == pytest.approx(2.0, abs=1e-14)
    assert v >= float(np.max(vals))


def test_grid_argmax_refined():
    # a peak on a grid point
    f = lambda rs: np.sin(2 * np.pi * rs) ** 2
    xs = np.linspace(0.0, 0.5, 257)
    x, v = num.grid_sup(f, xs, f(xs))
    assert x == pytest.approx(0.25, abs=1e-7)
    assert v == pytest.approx(1.0, abs=1e-13)


def test_grid_sup():
    # maxima at either end of the grid stay there
    for g, end in ((lambda rs: rs, 1.0), (lambda rs: -rs, 0.0)):
        xs = np.linspace(0.0, 1.0, 50)
        assert num.grid_sup(g, xs, g(xs)) == (end, float(g(np.array(end))))


def test_format_float_round_trip():
    # every artifact writes its floats with the .17g spec
    for x in (0.1, 1.0 / 3.0, 2.0 ** -40, 123456.789):
        assert float(format(x, ".17g")) == x
    assert format(math.inf, ".17g") == "inf"


def test_brentq_matches_scipy():
    # scipy's brentq is the oracle: the port takes the same steps, so it
    # returns the same float, not merely a root within xtol
    from scipy.optimize import brentq
    cases = [(lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-15),
             (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-12),
             (lambda x: math.exp(x) - 1e6, 0.0, 20.0, 1e-15),
             (lambda x: math.atan(x - 0.3) ** 3, -4.0, 5.0, 1e-4)]
    for f, a, b, xtol in cases:
        for lo, hi in ((a, b), (b, a)):
            assert num.brentq(f, lo, hi, xtol) == brentq(f, lo, hi, xtol=xtol)
            assert num.brentq(f, lo, hi, 1e-3) == brentq(f, lo, hi, xtol=1e-3)


def test_brentq_unclosed_bracket_raises():
    # a triple root flattens f to underflow, so the bracket never closes to
    # 1e-12 within 100 steps, in scipy's iteration and in the port alike
    from scipy.optimize import brentq
    f = lambda x: math.atan(x - 0.3) ** 3
    with pytest.raises(RuntimeError):
        brentq(f, -4.0, 5.0, xtol=1e-12)
    with pytest.raises(ValueError, match="did not converge"):
        num.brentq(f, -4.0, 5.0, xtol=1e-12)


def test_brentq_same_sign_ends_raise():
    with pytest.raises(ValueError, match="different signs"):
        num.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="different signs"):
        num.brentq(lambda x: -x * x - 1.0, -1.0, 1.0)


def test_brentq_zero_at_an_end_is_returned():
    calls = []

    def f(x):
        calls.append(x)
        return x - 1.0
    assert num.brentq(f, 1.0, 3.0) == 1.0
    assert num.brentq(f, -2.0, 1.0) == 1.0
    assert calls == [1.0, 3.0, -2.0, 1.0]


def test_brentq_nan_raises():
    with pytest.raises(ValueError, match="NaN"):
        num.brentq(lambda x: math.nan, 0.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        num.brentq(lambda x: math.sqrt(x) - 0.5 if x >= 0.0 else math.nan,
                   -0.5, 0.5)
