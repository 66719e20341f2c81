import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from foagen.errors import (
    EmptyBatch,
    InvalidValue,
    NumericalFailure,
    ShapeMismatch,
    ZeroEnergy,
)
from foagen import metrics
from foagen.foa import Direction, FoaSignal, MonoSignal, StereoSignal, spatialize_mono, stereo_to_foa
from foagen.metrics import (
    StftConfig,
    eval_doa_batch,
    frechet_distance,
    kl_divergence,
    multires_stft_distance,
    pair_directions,
    phi_error,
    spatial_angle_error,
    theta_error,
)


# --- angle errors -------------------------------------------------------------------


def test_theta_error_basic():
    assert theta_error(0.5, 0.5) == 0.0
    assert theta_error(0.0, 3 * math.pi / 2) == math.pi / 2  # shorter arc, exact
    assert theta_error(0.1, 6.2) == pytest.approx(0.18318530717958601, abs=1e-15)


def test_theta_error_refuses_a_difference_that_overflows():
    # Both angles are finite; their difference is not, and has no direction.
    with pytest.raises(ValueError, match="must be finite"):
        theta_error(1e308, -1e308)


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
    with pytest.raises(InvalidValue):
        phi_error(2.0, 0.0)
    with pytest.raises(InvalidValue):
        phi_error(0.0, -1.8)
    with pytest.raises(ValueError, match="est must be finite"):
        phi_error(0.0, math.nan)


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
    with pytest.raises(ShapeMismatch):
        frechet_distance(a, np.zeros((10, 4)))
    with pytest.raises(ValueError):
        frechet_distance(np.zeros((1, 3)), a)
    with pytest.raises(ValueError, match="a must be a 2-D"):
        frechet_distance(np.zeros(3), a)
    with pytest.raises(ValueError, match="b contains non-finite"):
        frechet_distance(a, np.full((10, 3), np.nan))
    with pytest.raises(NumericalFailure, match="eigenvalue"):
        metrics._clamp_spectrum(np.array([-1.0, 1.0]))  # an indefinite spectrum


# --- kl divergence ------------------------------------------------------------------


def test_kl_examples():
    assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.6931471805599453, abs=1e-15)
    with pytest.raises(InvalidValue):
        kl_divergence([0.5, 0.5], [1.0, 0.0])


def test_kl_validation():
    with pytest.raises(ShapeMismatch):
        kl_divergence([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([0.5, 0.6], [0.5, 0.5])
    with pytest.raises(ValueError):
        kl_divergence([1.1, -0.1], [0.5, 0.5])
    with pytest.raises(ValueError, match="1-D"):
        kl_divergence([[0.5, 0.5]], [[0.5, 0.5]])


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
    # Spectral convergence divides by the reference's norm: a silent
    # reference has none, against itself as against anything else.
    zeros = FoaSignal((np.zeros(4096),) * 4, 44100)
    for b in (zeros, a):
        with pytest.raises(ZeroEnergy, match="window 512"):
            multires_stft_distance(zeros, FoaSignal(b.channels[:, :4096], 44100))


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
    with pytest.raises(InvalidValue):
        multires_stft_distance(a, b)
    c = _tone(440.0, 1.0, n=4096, rate=48000)
    with pytest.raises(InvalidValue):
        multires_stft_distance(a, c)


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(window_sizes=(2048, 512))
    with pytest.raises(ValueError):
        StftConfig(hop_fraction=0.0)
    with pytest.raises(ValueError):
        StftConfig(hop_fraction=1.5)
    with pytest.raises(ValueError, match="non-empty"):
        StftConfig(window_sizes=())
    with pytest.raises(ValueError, match="positive"):
        StftConfig(window_sizes=(0, 512))


def test_stft_short_signal_is_padded():
    # shorter than every window: zero-padded to a single frame, not an error
    a = _tone(440.0, 1.0, n=100)
    assert multires_stft_distance(a, a) == 0.0
    b = _tone(220.0, 1.0, n=100)
    assert multires_stft_distance(a, b) > 0.0


def _oracle_stft_distance(a: FoaSignal, b: FoaSignal, config: StftConfig) -> float:
    """The distance computed channel by channel over whole spectrograms."""

    def magnitudes(samples, window, hop):
        if samples.shape[0] < window:
            samples = np.concatenate([samples, np.zeros(window - samples.shape[0])])
        starts = np.arange(0, samples.shape[0] - window + 1, hop)
        frames = np.stack([samples[s : s + window] for s in starts])
        taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
        return np.abs(np.fft.rfft(frames * taper, axis=1))

    per_resolution = []
    for window in config.window_sizes:
        hop = max(1, int(round(window * config.hop_fraction)))
        mag_a = np.stack([magnitudes(c, window, hop) for c in a.channels])
        mag_b = np.stack([magnitudes(c, window, hop) for c in b.channels])
        log_term = np.mean(np.abs(np.log(mag_a + 1e-8) - np.log(mag_b + 1e-8)))
        per_resolution.append(log_term + np.linalg.norm(mag_a - mag_b) / np.linalg.norm(mag_a))
    return float(np.mean(per_resolution))


def _noise_foa(n: int, seed: int, rate: int = 16000) -> FoaSignal:
    channels = 0.3 * np.random.default_rng(seed).standard_normal((4, n))
    return FoaSignal(channels, rate)


def _block_frames(window: int) -> int:
    """Frames per block of one float64 FOA signal."""
    return max(1, metrics._BLOCK_BYTES // (4 * window * 8))


SMALL = StftConfig(window_sizes=(512, 1024))


@pytest.mark.parametrize(
    "n, config",
    [
        pytest.param(300, StftConfig(), id="shorter-than-every-window"),
        pytest.param(700, SMALL, id="shorter-than-one-window"),
        pytest.param(5000, SMALL, id="length-not-a-multiple-of-the-hop"),
        pytest.param(9000, StftConfig(hop_fraction=1.0), id="hop-fraction-1"),
        pytest.param(512 + 36 * 128, StftConfig(window_sizes=(512,)), id="partial-last-block"),
        pytest.param(160000, StftConfig(), id="default-10s"),
    ],
)
def test_stft_matches_the_whole_spectrogram_oracle(n, config):
    a, b = _noise_foa(n, seed=1), _noise_foa(n, seed=2)
    want = _oracle_stft_distance(a, b, config)
    assert multires_stft_distance(a, b, config) == pytest.approx(want, rel=1e-12)
    assert multires_stft_distance(a, a, config) == 0.0


def test_stft_oracle_cases_end_in_a_partial_block():
    def frame_count(n, window):
        return (n - window) // (window // 4) + 1

    assert frame_count(512 + 36 * 128, 512) % _block_frames(512) != 0
    for window in StftConfig().window_sizes:
        assert frame_count(160000, window) % _block_frames(window) != 0


@pytest.mark.parametrize("silent", ["reference", "both"])
def test_stft_silent_channel_matches_the_oracle(silent):
    # The other channels' energy normalizes the spectral convergence.
    a, b = _noise_foa(6000, seed=3), _noise_foa(6000, seed=4)
    zero = np.zeros(6000)
    a = FoaSignal([a.w, zero, a.y, a.z], a.sample_rate)
    if silent == "both":
        b = FoaSignal([b.w, zero, b.y, b.z], b.sample_rate)
    want = _oracle_stft_distance(a, b, SMALL)
    assert multires_stft_distance(a, b, SMALL) == pytest.approx(want, rel=1e-12)
    assert multires_stft_distance(a, a, SMALL) == 0.0


def test_stft_of_a_stereo_derived_pair_is_finite_in_both_orders():
    # stereo_to_foa leaves the y and z channels at zero, so a convergence
    # taken channel by channel would divide by their zero norm.
    rng = np.random.default_rng(0)
    a = stereo_to_foa(StereoSignal(0.3 * rng.standard_normal((2, 16000)), 16000))
    b = FoaSignal(a.channels + 1e-3 * rng.standard_normal((4, 16000)), 16000)
    for config, want in ((StftConfig(window_sizes=(128,)), 6.58), (StftConfig(), 7.10)):
        forward, swapped = multires_stft_distance(a, b, config), multires_stft_distance(b, a, config)
        assert forward == pytest.approx(want, abs=0.005)
        assert swapped == pytest.approx(forward, rel=1e-6)
        assert multires_stft_distance(a, a, config) == 0.0


# --- the block pool --------------------------------------------------------------


def _block_counts(n: int, config: StftConfig) -> list[int]:
    """Blocks per resolution of an n-sample float64 FOA signal."""
    counts = []
    for window in config.window_sizes:
        hop = max(1, int(round(window * config.hop_fraction)))
        frames = (max(n, window) - window) // hop + 1
        counts.append(-(-frames // _block_frames(window)))
    return counts


def test_stft_does_not_depend_on_jobs():
    a, b = _noise_foa(40000, seed=7), _noise_foa(40000, seed=8)
    blocks = _block_counts(40000, StftConfig())
    assert min(blocks) >= 4
    want = multires_stft_distance(a, b, jobs=1)
    for jobs in (2, 3, max(blocks) + 1):
        assert multires_stft_distance(a, b, jobs=jobs) == want  # same bits


def _traced_blocks(monkeypatch):
    """Patch the block function to record the most blocks in flight at once,
    the most threads alive during a block, and the threads that ran one."""
    lock = threading.Lock()
    seen = {"in_flight": 0, "peak": 0, "threads": 0, "idents": set()}
    block_sums = metrics._block_sums

    def traced(*args):
        with lock:
            seen["in_flight"] += 1
            seen["peak"] = max(seen["peak"], seen["in_flight"])
            seen["threads"] = max(seen["threads"], threading.active_count())
            seen["idents"].add(threading.get_ident())
        try:
            time.sleep(0.01)  # give the other workers time to overlap
            return block_sums(*args)
        finally:
            with lock:
                seen["in_flight"] -= 1

    monkeypatch.setattr(metrics, "_block_sums", traced)
    return seen


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_stft_computes_at_most_jobs_blocks_at_once(monkeypatch, jobs):
    config = StftConfig(window_sizes=(512,))
    a, b = _noise_foa(20000, seed=9), _noise_foa(20000, seed=10)
    assert _block_counts(20000, config) == [10]
    seen = _traced_blocks(monkeypatch)
    multires_stft_distance(a, b, config, jobs=jobs)
    assert 1 <= seen["peak"] <= jobs
    assert len(seen["idents"]) == jobs
    if jobs == 1:  # the caller's own thread, no pool
        assert seen["idents"] == {threading.get_ident()}


@pytest.mark.parametrize("n, blocks", [(2000, 1), (512 + 40 * 128, 3)])
def test_stft_starts_no_more_workers_than_blocks(monkeypatch, n, blocks):
    config = StftConfig(window_sizes=(512,))
    assert _block_counts(n, config) == [blocks]
    a, b = _noise_foa(n, seed=11), _noise_foa(n, seed=12)
    seen = _traced_blocks(monkeypatch)
    before = threading.active_count()
    multires_stft_distance(a, b, config, jobs=64)
    assert seen["threads"] <= before + (blocks if blocks > 1 else 0)
    assert len(seen["idents"]) <= blocks
    assert threading.active_count() == before


def test_stft_opens_one_pool_per_call(monkeypatch):
    opened = []

    class CountedPool(metrics.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(metrics, "ThreadPoolExecutor", CountedPool)
    a, b = _noise_foa(40000, seed=7), _noise_foa(40000, seed=8)
    assert min(_block_counts(40000, StftConfig())) >= 2  # every resolution uses the pool
    multires_stft_distance(a, b, jobs=2)
    assert len(opened) == 1


def test_stft_refuses_jobs_below_one():
    a = _noise_foa(1000, seed=13)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match=f"jobs must be at least 1, got {jobs}"):
            multires_stft_distance(a, a, jobs=jobs)


def test_stft_memory_is_bounded_by_the_block():
    # Whole-spectrogram arrays of a 10 s, 16 kHz pair peaked at about 28 MB.
    a, b = _noise_foa(160000, seed=5), _noise_foa(160000, seed=6)
    tracemalloc.start()
    try:
        multires_stft_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_stft_makes_no_copy_of_the_channel_matrices():
    # A (4, n) copy of each signal's channels took a 10 s pair to 11.2 MB.
    a, b = _noise_foa(160000, seed=5), _noise_foa(160000, seed=6)
    tracemalloc.start()
    try:
        multires_stft_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# --- doa batch evaluation -----------------------------------------------------------


def _front() -> FoaSignal:
    return FoaSignal([[1, 1], [1, 1], [0, 0], [0, 0]], 44100)


def _left() -> FoaSignal:
    return FoaSignal([[1, 1], [0, 0], [1, 1], [0, 0]], 44100)


def _silent() -> FoaSignal:
    return FoaSignal([[0, 0], [0, 0], [0, 0], [0, 0]], 44100)


def _batch(pairs):
    return eval_doa_batch(pair_directions(truth, est) for truth, est in pairs)


def test_pair_directions_of_a_pair_and_of_a_silent_one():
    front, left = pair_directions(_front(), _left())
    assert (front.azimuth, left.azimuth) == (0.0, pytest.approx(math.pi / 2, abs=1e-15))
    assert pair_directions(_front(), _silent()) is None
    assert pair_directions(_silent(), _front()) is None


def test_eval_doa_identical_pair():
    result = _batch([(_front(), _front())])
    assert result.errors.d_theta == 0.0
    assert result.errors.d_phi == 0.0
    assert result.errors.d_angular == 0.0
    assert result.pairs_evaluated == 1
    assert result.pairs_excluded == 0


def test_eval_doa_mean_over_pairs():
    # per-pair theta errors are 0 and pi/2, so the mean is pi/4
    result = _batch([(_front(), _front()), (_front(), _left())])
    assert result.errors.d_theta == pytest.approx(math.pi / 4, abs=1e-15)
    assert result.pairs_evaluated == 2


def test_eval_doa_excludes_silent_pairs():
    result = _batch([(_front(), _front()), (_silent(), _front())])
    assert result.pairs_evaluated == 1
    assert result.pairs_excluded == 1
    assert result.errors.d_theta == 0.0


def test_eval_doa_empty_batches():
    with pytest.raises(EmptyBatch):
        _batch([])
    with pytest.raises(EmptyBatch, match="^all 1 pairs were excluded as directionless$"):
        _batch([(_silent(), _silent())])


def test_eval_doa_consumes_a_generator_once_like_the_list():
    directions = [pair_directions(_front(), _front()), pair_directions(_front(), _left()), None]
    consumed = []

    def lazy():
        for pair in directions:
            consumed.append(pair)
            yield pair

    assert eval_doa_batch(lazy()) == eval_doa_batch(directions)
    assert consumed == directions
    with pytest.raises(EmptyBatch, match="^no signal pairs to evaluate$"):
        eval_doa_batch(pair for pair in [])
