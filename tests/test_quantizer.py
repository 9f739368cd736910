import math

import numpy as np
import pytest
from conftest import grid_levels

from magsat import DipoleCommand, quantize, quantize_vector


def test_levels_are_seven_symmetric_uniform():
    # the outputs over a dense sweep of [-2u, 2u] are the seven grid levels
    u_max = 0.3
    outputs = {quantize(float(v), u_max) for v in np.linspace(-2 * u_max, 2 * u_max, 4001)}
    levels = sorted(outputs)
    assert len(levels) == 7
    np.testing.assert_allclose(levels, -np.asarray(levels)[::-1], atol=0)
    diffs = np.diff(levels)
    np.testing.assert_allclose(diffs, u_max / 3.0, rtol=1e-12)


def test_quantize_upper_branch():
    # 0.09 >= (2/3)*0.1 saturates to the bound
    assert quantize(0.09, 0.1) == 0.1


def test_quantize_second_branch():
    # (2/3)*0.1 > 0.05 >= (1/3)*0.1 maps up to 2*u_max/3
    assert quantize(0.05, 0.1) == 2.0 * 0.1 / 3.0


def test_quantize_small_negative_band():
    # -(1/3)*0.1 > -0.05 >= -(2/3)*0.1 maps up to -u_max/3
    assert quantize(-0.05, 0.1) == -(0.1 / 3.0)


def test_quantize_deep_negative_saturates():
    # below -u_max everything returns -u_max
    assert quantize(-0.2, 0.1) == -0.1


def test_quantize_zero_maps_to_zero():
    assert quantize(0.0, 0.1) == 0.0
    assert quantize(-0.0, 0.1) == 0.0


def test_quantize_bracket_edges():
    u = 0.1
    third = u / 3.0
    two_thirds = 2.0 * u / 3.0
    # lower bracket edges map up, per the half-open bracket table
    assert quantize(two_thirds, u) == u
    assert quantize(third, u) == two_thirds
    assert quantize(-third, u) == 0.0
    assert quantize(-two_thirds, u) == -third
    assert quantize(-u, u) == -two_thirds
    assert quantize(math.nextafter(-u, -1.0), u) == -u
    assert quantize(math.nextafter(0.0, 1.0), u) == third
    assert quantize(math.nextafter(0.0, -1.0), u) == 0.0


def test_quantize_codomain_random():
    rng = np.random.default_rng(31)
    u_max = 0.1
    levels = grid_levels(u_max)
    for _ in range(10000):
        v = float(rng.uniform(-2 * u_max, 2 * u_max))
        out = quantize(v, u_max)
        assert any(out == lv for lv in levels)


def test_quantize_monotone():
    rng = np.random.default_rng(37)
    u_max = 0.25
    vals = np.sort(rng.uniform(-2 * u_max, 2 * u_max, size=5000))
    outs = [quantize(float(v), u_max) for v in vals]
    assert all(a <= b for a, b in zip(outs, outs[1:]))


def test_quantize_error_bound_inside_box():
    rng = np.random.default_rng(41)
    u_max = 0.1
    for _ in range(10000):
        v = float(rng.uniform(-u_max, u_max))
        err = abs(quantize(v, u_max) - v)
        assert err <= u_max / 3.0 + 1e-15


def test_quantize_saturation_everywhere():
    rng = np.random.default_rng(43)
    u_max = 0.1
    for _ in range(2000):
        v = float(rng.uniform(-10 * u_max, 10 * u_max))
        assert abs(quantize(v, u_max)) <= u_max


def test_quantize_positive_is_grid_ceiling():
    # off bracket edges, positive inputs land on the smallest level >= input
    rng = np.random.default_rng(47)
    u_max = 0.1
    levels = np.asarray(grid_levels(u_max))
    for _ in range(5000):
        v = float(rng.uniform(1e-12, u_max))
        out = quantize(v, u_max)
        above = levels[levels >= v]
        assert out == above[0]


def test_quantize_negative_is_strict_grid_ceiling():
    # negative inputs in [-u_max, 0) land on the smallest level strictly above
    rng = np.random.default_rng(53)
    u_max = 0.1
    levels = np.asarray(grid_levels(u_max))
    for _ in range(5000):
        v = float(rng.uniform(-u_max, -1e-12))
        out = quantize(v, u_max)
        above = levels[levels > v]
        assert out == above[0]


def test_quantize_rejects_bad_arguments():
    with pytest.raises(ValueError):
        quantize(0.1, 0.0)
    with pytest.raises(ValueError):
        quantize(0.1, -0.5)
    with pytest.raises(ValueError):
        quantize(math.nan, 0.1)
    with pytest.raises(ValueError):
        quantize(math.inf, 0.1)


def test_quantize_vector_componentwise():
    out = quantize_vector(DipoleCommand(np.array([0.09, -0.05, 0.0])), 0.1)
    np.testing.assert_array_equal(out.m, [0.1, -(0.1 / 3.0), 0.0])


def test_quantize_vector_zero():
    out = quantize_vector(DipoleCommand(np.zeros(3)), 0.1)
    np.testing.assert_array_equal(out.m, np.zeros(3))


def test_quantize_vector_codomain():
    rng = np.random.default_rng(59)
    u_max = 0.1
    levels = grid_levels(u_max)
    for _ in range(500):
        m = rng.uniform(-2 * u_max, 2 * u_max, size=3)
        out = quantize_vector(DipoleCommand(m), u_max)
        assert all(any(v == lv for lv in levels) for v in out.m)
