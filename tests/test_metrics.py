import math

import numpy as np
import pytest

from foagen.errors import (
    DimensionMismatch,
    EmptyBatch,
    LengthMismatch,
    OutOfRange,
    SupportViolation,
)
from foagen.foa import Direction, FoaSignal, MonoSignal, spatialize_mono
from foagen.metrics import (
    StftConfig,
    eval_doa_batch,
    frechet_distance,
    kl_divergence,
    multires_stft_distance,
    phi_error,
    spatial_angle_error,
    theta_error,
)


# --- angle errors -------------------------------------------------------------------


def test_theta_error_basic():
    assert theta_error(0.5, 0.5) == 0.0
    assert theta_error(0.0, 3 * math.pi / 2) == math.pi / 2  # shorter arc, exact
    assert theta_error(0.1, 6.2) == pytest.approx(0.18318530717958601, abs=1e-15)


def test_theta_error_symmetry_and_period():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a, b = rng.uniform(-10, 10, size=2)
        e = theta_error(a, b)
        assert 0.0 <= e <= math.pi
        assert e == theta_error(b, a)
        k = rng.integers(-3, 4)
        assert theta_error(a + 2 * math.pi * k, b) == pytest.approx(e, abs=1e-9)


def test_phi_error():
    assert phi_error(0.3, 0.3) == 0.0
    assert phi_error(math.pi / 4, -math.pi / 4) == math.pi / 2
    assert phi_error(0.52, 0.0) == 0.52
    with pytest.raises(OutOfRange):
        phi_error(2.0, 0.0)
    with pytest.raises(OutOfRange):
        phi_error(0.0, -1.8)


def test_spatial_angle_identities():
    d = Direction(0.7, -0.2)
    assert spatial_angle_error(d, d) == 0.0
    # antipodal on the equator: haversine term reaches exactly 1
    assert spatial_angle_error(Direction(0.0, 0.0), Direction(math.pi, 0.0)) == math.pi
    # poles are antipodal no matter the azimuth
    got = spatial_angle_error(Direction(0.0, math.pi / 2), Direction(2.0, -math.pi / 2))
    assert got == pytest.approx(math.pi, abs=1e-12)


def test_spatial_angle_matches_dot_product_oracle():
    """Great-circle angle via unit vectors is an independent check."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        gt = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
        est = Direction(rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
        dot = float(np.dot(gt.unit_vector(), est.unit_vector()))
        oracle = math.acos(min(1.0, max(-1.0, dot)))
        assert spatial_angle_error(gt, est) == pytest.approx(oracle, abs=1e-9)


# --- frechet distance ---------------------------------------------------------------


def test_frechet_identical_sets():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((200, 4))
    assert frechet_distance(a, a) < 1e-8


def test_frechet_exact_one_dimensional_stats():
    # sample mean/var exactly (0,1) and (1,1): closed form gives 1.0
    half = math.sqrt(2) / 2
    a = np.array([[-half], [half]])
    b = a + 1.0
    assert frechet_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_frechet_mean_shift_with_equal_covariance():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((400, 3))
    v = np.array([1.0, -2.0, 0.5])
    assert frechet_distance(a, a + v) == pytest.approx(float(v @ v), abs=1e-6)


def test_frechet_symmetry():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((150, 5))
    b = 0.5 * rng.standard_normal((180, 5)) + 0.3
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-8


def test_frechet_input_validation():
    a = np.zeros((10, 3))
    with pytest.raises(DimensionMismatch):
        frechet_distance(a, np.zeros((10, 4)))
    with pytest.raises(ValueError):
        frechet_distance(np.zeros((1, 3)), a)


# --- kl divergence ------------------------------------------------------------------


def test_kl_examples():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.6931471805599453, abs=1e-15)
    with pytest.raises(SupportViolation):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_kl_validation():
    with pytest.raises(DimensionMismatch):
        kl_divergence([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([1.1, -0.1], [0.5, 0.5])


def test_kl_nonnegative_on_random_distributions():
    rng = np.random.default_rng(4)
    for _ in range(200):
        k = rng.integers(2, 8)
        p = rng.random(k)
        q = rng.random(k) + 1e-3
        p /= p.sum()
        q /= q.sum()
        assert kl_divergence(p, q) >= 0.0


# --- multi-resolution stft ----------------------------------------------------------


def _tone(freq: float, scale: float, n: int = 8192, rate: int = 44100) -> FoaSignal:
    t = np.arange(n) / rate
    s = scale * np.sin(2 * math.pi * freq * t)
    return spatialize_mono(MonoSignal(s, rate), Direction(0.3, 0.1))


def test_stft_identity_and_zeros():
    a = _tone(440.0, 1.0)
    assert multires_stft_distance(a, a) == 0.0
    zeros = FoaSignal(*(np.zeros(4096),) * 4, 44100)
    assert multires_stft_distance(zeros, zeros) == 0.0


def test_stft_scale_closer_than_detune():
    a = _tone(440.0, 1.0)
    scaled = _tone(440.0, 0.5)
    detuned = _tone(880.0, 1.0)
    d_scale = multires_stft_distance(a, scaled)
    d_detune = multires_stft_distance(a, detuned)
    assert 0.0 < d_scale < d_detune


def test_stft_length_and_rate_mismatch():
    a = _tone(440.0, 1.0, n=4096)
    b = _tone(440.0, 1.0, n=4097)
    with pytest.raises(LengthMismatch):
        multires_stft_distance(a, b)
    c = _tone(440.0, 1.0, n=4096, rate=48000)
    with pytest.raises(LengthMismatch):
        multires_stft_distance(a, c)


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(window_sizes=(2048, 512))
    with pytest.raises(ValueError):
        StftConfig(hop_fraction=0.0)
    with pytest.raises(ValueError):
        StftConfig(hop_fraction=1.5)


def test_stft_short_signal_is_padded():
    # shorter than every window: zero-padded to a single frame, not an error
    a = _tone(440.0, 1.0, n=100)
    assert multires_stft_distance(a, a) == 0.0
    b = _tone(220.0, 1.0, n=100)
    assert multires_stft_distance(a, b) > 0.0


# --- doa batch evaluation -----------------------------------------------------------


def _front() -> FoaSignal:
    return FoaSignal([1, 1], [1, 1], [0, 0], [0, 0], 44100)


def _left() -> FoaSignal:
    return FoaSignal([1, 1], [0, 0], [1, 1], [0, 0], 44100)


def _silent() -> FoaSignal:
    return FoaSignal([0, 0], [0, 0], [0, 0], [0, 0], 44100)


def test_eval_doa_identical_pair():
    result = eval_doa_batch([(_front(), _front())])
    assert result.errors.d_theta == 0.0
    assert result.errors.d_phi == 0.0
    assert result.errors.d_angular == 0.0
    assert result.pairs_evaluated == 1
    assert result.pairs_excluded == 0


def test_eval_doa_mean_over_pairs():
    # per-pair theta errors are 0 and pi/2, so the mean is pi/4
    result = eval_doa_batch([(_front(), _front()), (_front(), _left())])
    assert result.errors.d_theta == pytest.approx(math.pi / 4, abs=1e-15)
    assert result.pairs_evaluated == 2


def test_eval_doa_excludes_silent_pairs():
    result = eval_doa_batch([(_front(), _front()), (_silent(), _front())])
    assert result.pairs_evaluated == 1
    assert result.pairs_excluded == 1
    assert result.errors.d_theta == 0.0


def test_eval_doa_empty_batches():
    with pytest.raises(EmptyBatch):
        eval_doa_batch([])
    with pytest.raises(EmptyBatch):
        eval_doa_batch([(_silent(), _silent())])


def test_eval_doa_consumes_a_generator_once_like_the_list():
    pairs = [(_front(), _front()), (_front(), _left()), (_silent(), _front())]
    consumed = []

    def lazy():
        for pair in pairs:
            consumed.append(pair)
            yield pair

    assert eval_doa_batch(lazy()) == eval_doa_batch(pairs)
    assert consumed == pairs
    with pytest.raises(EmptyBatch, match="^no signal pairs to evaluate$"):
        eval_doa_batch(pair for pair in [])
