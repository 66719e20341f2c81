import math

import numpy as np
import pytest

from foagen.errors import ZeroEnergy
from foagen.foa import (
    Direction,
    IntensityVector,
    FoaSignal,
    MonoSignal,
    StereoSignal,
    estimate_doa,
    intensity_vector,
    spatialize_mono,
    stereo_to_foa,
    wrap_azimuth,
)


def test_wrap_azimuth_domain():
    assert wrap_azimuth(0.0) == 0.0
    assert wrap_azimuth(math.pi) == math.pi
    assert wrap_azimuth(-math.pi) == math.pi  # boundary maps to +pi
    assert wrap_azimuth(3 * math.pi) == pytest.approx(math.pi)
    for k in range(-5, 6):
        got = wrap_azimuth(1.25 + 2 * math.pi * k)
        assert got == pytest.approx(1.25, abs=1e-12)
        assert -math.pi < got <= math.pi


def test_direction_wraps_and_validates():
    d = Direction(3 * math.pi / 2, 0.1)
    assert d.azimuth == pytest.approx(-math.pi / 2)
    with pytest.raises(ValueError):
        Direction(0.0, 2.0)
    with pytest.raises(ValueError):
        Direction(0.0, float("nan"))
    with pytest.raises(ValueError, match="azimuth must be finite"):
        wrap_azimuth(math.inf)


def test_spatialize_front_direction():
    foa = spatialize_mono(MonoSignal([1.0, 1.0], 48000), Direction(0.0, 0.0))
    np.testing.assert_allclose(foa.w, [0.70710678, 0.70710678], atol=1e-8)
    np.testing.assert_allclose(foa.x, [1.0, 1.0])
    np.testing.assert_array_equal(foa.y, [0.0, 0.0])
    np.testing.assert_array_equal(foa.z, [0.0, 0.0])
    assert foa.sample_rate == 48000


def test_spatialize_pure_left():
    foa = spatialize_mono(MonoSignal([1.0], 48000), Direction(math.pi / 2, 0.0))
    np.testing.assert_allclose(foa.w, [0.70710678], atol=1e-8)
    np.testing.assert_allclose(foa.x, [0.0], atol=1e-15)
    np.testing.assert_allclose(foa.y, [1.0])
    np.testing.assert_array_equal(foa.z, [0.0])


def test_spatialize_oblique_direction():
    # scalar evaluation of the encoding at theta=pi/4, phi=pi/6, s=2
    foa = spatialize_mono(MonoSignal([2.0], 48000), Direction(math.pi / 4, math.pi / 6))
    np.testing.assert_allclose(foa.w, [1.41421356], atol=1e-8)
    np.testing.assert_allclose(foa.x, [1.22474487], atol=1e-8)
    np.testing.assert_allclose(foa.y, [1.22474487], atol=1e-8)
    np.testing.assert_allclose(foa.z, [1.0], atol=1e-12)


def test_spatialize_linearity_and_energy():
    rng = np.random.default_rng(7)
    s = rng.standard_normal(257)
    d = Direction(-2.1, 0.7)
    a = 3.5
    foa1 = spatialize_mono(MonoSignal(s, 44100), d)
    foa2 = spatialize_mono(MonoSignal(a * s, 44100), d)
    for ch in "wxyz":
        np.testing.assert_allclose(getattr(foa2, ch), a * getattr(foa1, ch), rtol=1e-12)
    # W carries half the energy; per-sample rounding keeps this from being bit-exact
    assert np.sum(foa1.w**2) == pytest.approx(np.sum(s**2) / 2, rel=1e-12)


def test_stereo_to_foa_rules():
    f = stereo_to_foa(StereoSignal([[1.0], [1.0]], 44100))
    assert (f.w[0], f.x[0], f.y[0], f.z[0]) == (2.0, 0.0, 0.0, 0.0)
    f = stereo_to_foa(StereoSignal([[1.0], [0.0]], 44100))
    assert (f.w[0], f.x[0]) == (1.0, 1.0)
    f = stereo_to_foa(StereoSignal([[0.5], [-0.5]], 44100))
    assert (f.w[0], f.x[0]) == (0.0, 1.0)


def test_stereo_identical_channels_zero_intensity():
    # L == R cancels X exactly, so there is no directional information
    rng = np.random.default_rng(3)
    s = rng.standard_normal(500)
    with pytest.raises(ZeroEnergy):
        estimate_doa(stereo_to_foa(StereoSignal([s, s], 44100)))


def test_stereo_near_identical_channels_face_front():
    rng = np.random.default_rng(3)
    s = 0.5 + 0.1 * rng.standard_normal(500)
    d = estimate_doa(stereo_to_foa(StereoSignal([s * (1 + 1e-6), s], 44100)))
    assert d.azimuth == 0.0
    assert d.elevation == 0.0


def test_intensity_vector_examples():
    iv = intensity_vector(FoaSignal([[1, 1], [1, 1], [0, 0], [0, 0]], 44100))
    assert (iv.ix, iv.iy, iv.iz) == (1.0, 0.0, 0.0)
    iv = intensity_vector(FoaSignal([[1, -1], [1, -1], [0, 0], [0, 0]], 44100))
    assert (iv.ix, iv.iy, iv.iz) == (1.0, 0.0, 0.0)
    foa = spatialize_mono(MonoSignal([1.0, 1.0], 44100), Direction(math.pi / 2, 0.0))
    iv = intensity_vector(foa)
    assert iv.ix == pytest.approx(0.0, abs=1e-15)
    assert iv.iy == pytest.approx(0.70710678, abs=1e-8)
    assert iv.iz == 0.0


def test_doa_from_axis_intensity():
    d = estimate_doa(FoaSignal([[1, 1], [1, 1], [0, 0], [0, 0]], 44100))
    assert (d.azimuth, d.elevation) == (0.0, 0.0)


def test_doa_round_trip_example():
    foa = spatialize_mono(MonoSignal([0.3, -0.8, 0.5], 44100), Direction(1.0, 0.4))
    d = estimate_doa(foa)
    assert d.azimuth == pytest.approx(1.0, abs=1e-9)
    assert d.elevation == pytest.approx(0.4, abs=1e-9)


def test_doa_round_trip_sweep():
    """Round trip holds everywhere away from the poles."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.standard_normal(64)
        theta = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        d = estimate_doa(spatialize_mono(MonoSignal(s, 44100), Direction(theta, phi)))
        err = abs(d.azimuth - theta) % (2 * math.pi)
        assert min(err, 2 * math.pi - err) < 1e-9
        assert abs(d.elevation - phi) < 1e-9


def test_doa_pole_tie_break():
    # exactly zero horizontal intensity: convention picks theta=0, phi=+-pi/2
    d = estimate_doa(FoaSignal([[1, 1], [0, 0], [0, 0], [1, 1]], 44100))
    assert d.azimuth == 0.0
    assert d.elevation == math.pi / 2
    d = estimate_doa(FoaSignal([[1, 1], [0, 0], [0, 0], [-1, -1]], 44100))
    assert d.azimuth == 0.0
    assert d.elevation == -math.pi / 2


def test_doa_near_pole_recovers_azimuth():
    # float cos(pi/2) is ~6e-17, not 0: the tiny horizontal residue still
    # carries the azimuth, and atan2 is scale-invariant, so no tie-break
    up = spatialize_mono(MonoSignal([0.5, 0.9], 44100), Direction(1.3, math.pi / 2))
    d = estimate_doa(up)
    assert d.azimuth == pytest.approx(1.3, abs=1e-9)
    assert d.elevation == pytest.approx(math.pi / 2, abs=1e-9)


def test_doa_zero_energy():
    with pytest.raises(ZeroEnergy):
        estimate_doa(FoaSignal([[0, 0], [0, 0], [0, 0], [0, 0]], 44100))
    iv = intensity_vector(FoaSignal([[0, 0], [0, 0], [0, 0], [0, 0]], 44100))
    assert (iv.ix, iv.iy, iv.iz) == (0.0, 0.0, 0.0)


def test_signal_validation():
    with pytest.raises(ValueError):
        MonoSignal([], 44100)
    with pytest.raises(ValueError):
        MonoSignal([1.0], 0)
    with pytest.raises(ValueError):
        StereoSignal([[1.0], [1.0, 2.0]], 44100)
    with pytest.raises(ValueError):
        FoaSignal([[1.0], [1.0], [1.0], [1.0, 2.0]], 44100)
    with pytest.raises(ValueError):
        FoaSignal(np.zeros((2, 3)), 44100)  # wrong channel count
    with pytest.raises(ValueError):
        FoaSignal([[0.0], [0.0], [0.0], [math.nan]], 44100)
    with pytest.raises(ValueError, match="iy must be finite"):
        IntensityVector(0.0, math.nan, 0.0)


def test_signals_hold_one_c_contiguous_float64_matrix():
    rng = np.random.default_rng(11)
    mono = MonoSignal(rng.standard_normal(7), 8000)
    cases = [
        (mono, ("samples",)),
        (StereoSignal([[1, 2, 3], [4, 5, 6]], 8000), ("left", "right")),
        (FoaSignal(np.asfortranarray(rng.standard_normal((4, 7))), 8000), ("w", "x", "y", "z")),
        (spatialize_mono(mono, Direction(0.3, 0.2)), ("w", "x", "y", "z")),
        (stereo_to_foa(StereoSignal(rng.standard_normal((2, 7)), 8000)), ("w", "x", "y", "z")),
    ]
    for signal, names in cases:
        channels = signal.channels
        assert channels.dtype == np.float64 and channels.flags.c_contiguous
        assert channels.shape == (len(names), signal.n_samples)
        for i, name in enumerate(names):
            row = getattr(signal, name)
            assert np.shares_memory(row, channels)
            assert np.array_equal(row, channels[i])
    # a C-contiguous float64 matrix is wrapped, not copied
    matrix = rng.standard_normal((4, 7))
    assert FoaSignal(matrix, 8000).channels is matrix
