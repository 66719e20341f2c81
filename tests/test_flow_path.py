import warnings

import numpy as np
import pytest

from foagen.errors import ShapeMismatch
from foagen.flow import TimeSampler, VelocityModel, cfm_loss, sample_time
from foagen.flow.path import _point_and_target


def test_interpolate_endpoints_exact():
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((5, 3))
    x1 = rng.standard_normal((5, 3))
    np.testing.assert_array_equal(_point_and_target(x0, x1, 0.0)[0], x0)
    np.testing.assert_array_equal(_point_and_target(x0, x1, 1.0)[0], x1)


def test_interpolate_midpoint():
    point, target = _point_and_target(np.array([[0.0, 0.0]]), np.array([[2.0, 4.0]]), 0.5)
    np.testing.assert_array_equal(point, [[1.0, 2.0]])
    np.testing.assert_array_equal(target, [[2.0, 4.0]])


def test_path_inputs_are_checked_through_cfm_loss():
    # cfm_loss checks that the path's inputs agree in shape.
    model = VelocityModel.initialize(2, 0, (4,), np.random.default_rng(5))

    def loss(x0, x1, t):
        return cfm_loss(model, x0, x1, t, None, np.ones(len(x0)))

    x = np.zeros((3, 2))
    assert np.isfinite(loss(x, x, np.array([0.0, 0.5, 1.0]))[0])
    with pytest.raises(ShapeMismatch):
        loss(np.zeros((2, 2)), x, 0.5)
    with pytest.raises(ShapeMismatch, match="one value per row"):
        loss(x, x, np.array([0.5, 0.5]))


def test_velocity_target():
    np.testing.assert_array_equal(
        _point_and_target(np.array([[1.0]]), np.array([[3.0]]), 0.5)[1], [[2.0]]
    )
    x = np.random.default_rng(1).standard_normal((4, 2))
    np.testing.assert_array_equal(_point_and_target(x, x, 0.5)[1], np.zeros_like(x))


def test_velocity_is_path_derivative():
    # the target equals the finite difference of the path at any t, h
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, 4))
    x1 = rng.standard_normal((3, 4))
    for t, h in ((0.0, 0.5), (0.25, 0.25), (0.3, 0.17)):
        point, u = _point_and_target(x0, x1, t)
        fd = (_point_and_target(x0, x1, t + h)[0] - point) / h
        np.testing.assert_allclose(fd, u, atol=1e-12)


def test_path_consistency_identity():
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((6, 2))
    x1 = rng.standard_normal((6, 2))
    for t in (0.1, 0.5, 0.9):
        point, u = _point_and_target(x0, x1, t)
        np.testing.assert_allclose(point - x0, t * u, atol=1e-12)


def test_time_sampler_validation():
    with pytest.raises(ValueError):
        TimeSampler("beta")
    with pytest.raises(ValueError):
        TimeSampler("logit_normal", sigma=0.0)
    with pytest.raises(ValueError, match="mu must be finite"):
        TimeSampler("logit_normal", mu=float("nan"))


def test_uniform_time_mean():
    rng = np.random.default_rng(10)
    sampler = TimeSampler("uniform")
    draws = sample_time(sampler, rng, 100_000)
    assert abs(draws.mean() - 0.5) < 0.01
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_logit_normal_median_and_open_interval():
    rng = np.random.default_rng(11)
    sampler = TimeSampler("logit_normal")
    draws = sample_time(sampler, rng, 100_000)
    assert abs(np.median(draws) - 0.5) < 0.01
    assert draws.min() > 0.0 and draws.max() < 1.0


def test_logit_normal_location_shift():
    rng = np.random.default_rng(12)
    low = TimeSampler("logit_normal", mu=-1.0)
    draws = sample_time(low, rng, 20_000)
    assert np.median(draws) < 0.4  # sigmoid(-1) ~ 0.27


@pytest.mark.parametrize("mu", [-1000.0, 1000.0])
def test_logit_normal_stays_inside_the_open_interval_at_extreme_locations(mu):
    # exp overflows for mu = -1000 and the sigmoid rounds to 1 for mu = 1000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_time(TimeSampler("logit_normal", mu=mu), np.random.default_rng(13), 1000)
    assert draws.shape == (1000,)
    assert draws.min() > 0.0 and draws.max() < 1.0


def test_interpolate_per_row_times():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((3, 2))
    x1 = rng.standard_normal((3, 2))
    t = np.array([0.0, 0.25, 1.0])
    got = _point_and_target(x0, x1, t[:, None])[0]
    for row, t_row in enumerate(t):
        np.testing.assert_array_equal(got[row], _point_and_target(x0, x1, t_row)[0][row])
