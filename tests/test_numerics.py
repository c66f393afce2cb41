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
    x, v = num.golden_max(lambda t: -(t - 0.3) ** 2 + 2.0, 0.0, 1.0)
    # the argmax floor for a quadratic peak is sqrt(eps) ~ 1.5e-8
    assert x == pytest.approx(0.3, abs=1e-6)
    assert v == pytest.approx(2.0, abs=1e-14)


def test_grid_argmax_refined():
    f = lambda rs: np.sin(2 * np.pi * rs) ** 2
    x, v = num.grid_argmax_refined(f, 0.0, 0.5, 257)
    assert x == pytest.approx(0.25, abs=1e-7)
    assert v == pytest.approx(1.0, abs=1e-13)


def test_format_float_round_trip():
    for x in (0.1, 1.0 / 3.0, 2.0 ** -40, 123456.789):
        assert float(num.format_float(x)) == x
    assert num.format_float(math.inf) == "inf"
