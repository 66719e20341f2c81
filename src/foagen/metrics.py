"""Evaluation metrics for spatial audio: angular errors, distribution
distances, and a multi-resolution spectrogram distance.

Angle arguments are radians. Azimuth errors are circular (wrap at 2*pi);
elevation errors are plain absolute differences on [-pi/2, pi/2].
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyBatch, InvalidValue, NumericalFailure, ShapeMismatch, ZeroEnergy
from .foa import Direction, FoaSignal, estimate_doa, wrap_azimuth


def _check_finite_angle(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise InvalidValue(f"{name} must be finite, got {value!r}")
    return value


def theta_error(gt: float, est: float) -> float:
    """Circular azimuth error in [0, pi]: the size of the difference
    wrapped by :func:`~foagen.foa.wrap_azimuth`, so adding full turns to
    either argument does not change the result.

    Raises:
        InvalidValue: when either angle, or their difference, is not finite.
    """
    gt = _check_finite_angle(gt, "gt")
    est = _check_finite_angle(est, "est")
    return abs(wrap_azimuth(gt - est))


def phi_error(gt: float, est: float) -> float:
    """Absolute elevation error in [0, pi].

    Raises:
        InvalidValue: when either elevation leaves [-pi/2, pi/2].
    """
    gt = _check_finite_angle(gt, "gt")
    est = _check_finite_angle(est, "est")
    half_pi = math.pi / 2
    if abs(gt) > half_pi or abs(est) > half_pi:
        raise InvalidValue(f"elevations must lie in [-pi/2, pi/2], got {gt!r} and {est!r}")
    return abs(gt - est)


def spatial_angle_error(gt: Direction, est: Direction) -> float:
    """Great-circle angle between two directions, in [0, pi].

    Computed with the haversine form, which stays accurate for nearly
    identical directions where the naive arccosine of a dot product loses
    precision.
    """
    d_el = gt.elevation - est.elevation
    d_az = theta_error(gt.azimuth, est.azimuth)
    a = math.sin(d_el / 2) ** 2 + (
        math.cos(gt.elevation) * math.cos(est.elevation) * math.sin(d_az / 2) ** 2
    )
    a = min(max(a, 0.0), 1.0)
    return 2.0 * abs(math.atan2(math.sqrt(a), math.sqrt(1.0 - a)))


@dataclass(frozen=True)
class AngleErrors:
    """Bundle of the three angular error measures."""

    d_theta: float
    d_phi: float
    d_angular: float


@dataclass(frozen=True)
class BatchDoaResult:
    """Mean angular errors over a batch, with the exclusion count."""

    errors: AngleErrors
    pairs_evaluated: int
    pairs_excluded: int


def signal_direction(signal: FoaSignal) -> Direction | None:
    """The direction of one signal, or None when it is too weak to define
    one. Only the direction leaves the call, so ``eval-doa``, which reads
    a pair's files through it one at a time, holds at most ``jobs``
    decoded signals."""
    try:
        return estimate_doa(signal)
    except ZeroEnergy:
        return None


def pair_directions(truth: FoaSignal, estimate: FoaSignal) -> tuple[Direction, Direction] | None:
    """Both directions of a (truth, estimate) pair, or None when either
    signal is too weak to define one. The caller holds both signals;
    ``eval-doa`` holds at most ``jobs`` decoded signals, as it takes each
    file's :func:`signal_direction` before it reads the next."""
    pair = signal_direction(truth), signal_direction(estimate)
    return None if None in pair else pair


def eval_doa_batch(
    directions: Iterable[tuple[Direction, Direction] | None],
) -> BatchDoaResult:
    """Mean direction-of-arrival errors over (truth, estimate) direction
    pairs, such as :func:`pair_directions` returns.

    ``directions`` is consumed once, in order. A None stands for a pair
    whose intensity is too weak to define a direction: it is excluded
    from the means and counted in ``pairs_excluded``.

    Raises:
        EmptyBatch: when the batch is empty or every pair was excluded.
    """
    d_thetas: list[float] = []
    d_phis: list[float] = []
    d_angulars: list[float] = []
    excluded = 0
    for pair in directions:
        if pair is None:
            excluded += 1
            continue
        gt, est = pair
        d_thetas.append(theta_error(gt.azimuth, est.azimuth))
        d_phis.append(phi_error(gt.elevation, est.elevation))
        d_angulars.append(spatial_angle_error(gt, est))
    if not d_thetas and not excluded:
        raise EmptyBatch("no signal pairs to evaluate")
    if not d_thetas:
        raise EmptyBatch(f"all {excluded} pairs were excluded as directionless")
    errors = AngleErrors(
        d_theta=float(np.mean(d_thetas)),
        d_phi=float(np.mean(d_phis)),
        d_angular=float(np.mean(d_angulars)),
    )
    return BatchDoaResult(errors, len(d_thetas), excluded)


# --- distribution distances -------------------------------------------------

def _as_feature_set(features, name: str) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidValue(f"{name} must be a 2-D (n, d) array")
    if arr.shape[0] < 2:
        raise InvalidValue(f"{name} needs at least 2 rows to estimate covariance")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue(f"{name} contains non-finite values")
    return arr


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition."""
    values, vectors = np.linalg.eigh(matrix)
    values = _clamp_spectrum(values)
    return (vectors * np.sqrt(values)) @ vectors.T


def _clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Zero out round-off negatives; refuse genuinely indefinite input.

    The tolerance scales with the largest eigenvalue so that unit-scale
    and large-scale feature sets are treated alike.
    """
    tol = 1e-10 * max(1.0, float(values[-1]) if values.size else 1.0)
    smallest = float(values[0]) if values.size else 0.0
    if smallest < -tol:
        raise NumericalFailure(
            f"matrix square root failed: eigenvalue {smallest:.3e} below -{tol:.3e}"
        )
    return np.clip(values, 0.0, None)


def frechet_distance(a, b) -> float:
    """Fréchet distance between Gaussians fitted to two feature sets.

    Means and covariances (unbiased, n-1 denominator) are estimated from
    the rows of ``a`` and ``b``; the distance is

        |mu_a - mu_b|^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)).

    The matrix square root is taken through the symmetrized product
    sqrt(S_a) S_b sqrt(S_a), which is PSD whenever the inputs are.

    Raises:
        ShapeMismatch: when the two sets have different feature widths.
        NumericalFailure: when the square root leaves the PSD regime.
    """
    a = _as_feature_set(a, "a")
    b = _as_feature_set(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(
            f"feature widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False, ddof=1).reshape(a.shape[1], a.shape[1])
    cov_b = np.cov(b, rowvar=False, ddof=1).reshape(b.shape[1], b.shape[1])

    root_a = _psd_sqrt(cov_a)
    product = root_a @ cov_b @ root_a
    product = (product + product.T) / 2.0
    cross_values = _clamp_spectrum(np.linalg.eigvalsh(product))
    trace_cross = float(np.sum(np.sqrt(cross_values)))

    diff = mu_a - mu_b
    return float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * trace_cross)


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum(p * ln(p / q)) in nats.

    Terms with p == 0 contribute zero regardless of q.

    Raises:
        ShapeMismatch: when the vectors have different lengths.
        InvalidValue: when p puts mass where q has none.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 1 or q.ndim != 1:
        raise InvalidValue("label distributions must be 1-D")
    if p.shape != q.shape:
        raise ShapeMismatch(f"lengths differ: {p.shape[0]} vs {q.shape[0]}")
    for name, dist in (("p", p), ("q", q)):
        if np.any(dist < 0.0) or not np.all(np.isfinite(dist)):
            raise InvalidValue(f"{name} must be non-negative and finite")
        if abs(float(dist.sum()) - 1.0) > 1e-9:
            raise InvalidValue(f"{name} must sum to 1 within 1e-9")
    support = p > 0.0
    if np.any(support & (q == 0.0)):
        raise InvalidValue("p has mass on outcomes where q has none")
    ps = p[support]
    return float(np.sum(ps * np.log(ps / q[support])))


# --- multi-resolution spectrogram distance -----------------------------------

# The longest window whose zero-padded (4, window) float64 frame numpy can
# address; a longer one is refused rather than failing inside numpy.
_MAX_WINDOW = np.iinfo(np.intp).max // 32


@dataclass(frozen=True)
class StftConfig:
    """Analysis resolutions for the spectrogram distance."""

    window_sizes: tuple[int, ...] = (512, 1024, 2048)
    hop_fraction: float = 0.25

    def __post_init__(self):
        sizes = tuple(int(w) for w in self.window_sizes)
        if len(sizes) == 0:
            raise InvalidValue("window_sizes must be non-empty")
        if any(w <= 0 for w in sizes):
            raise InvalidValue("window sizes must be positive")
        if max(sizes) > _MAX_WINDOW:
            raise InvalidValue(f"window sizes must be at most {_MAX_WINDOW}")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise InvalidValue("window sizes must be strictly increasing")
        object.__setattr__(self, "window_sizes", sizes)
        hop = float(self.hop_fraction)
        if not 0.0 < hop <= 1.0:
            raise InvalidValue("hop_fraction must lie in (0, 1]")
        object.__setattr__(self, "hop_fraction", hop)


_LOG_EPS = 1e-8


# Frames are transformed in blocks of about this many bytes per signal, over
# all four channels at once, so each block stays in cache from taper to log.
# On a host with 2 MiB of L2 per core, 64 KiB and 1 MiB blocks were slower.
_BLOCK_BYTES = 256 * 1024


def _block_sums(frames_a, frames_b, taper: np.ndarray, block: slice) -> np.ndarray:
    """The (3, channels) sums over one block of frames: the L1 log-magnitude
    difference, |A|^2 and |A - B|^2."""
    mag_a = np.abs(np.fft.rfft(frames_a[:, block] * taper))
    mag_b = np.abs(np.fft.rfft(frames_b[:, block] * taper))
    norm_sq = np.einsum("cfk,cfk->c", mag_a, mag_a)
    diff = mag_a - mag_b
    diff_sq = np.einsum("cfk,cfk->c", diff, diff)
    # |log(A + eps) - log(B + eps)| as one log of the ratio.
    mag_a += _LOG_EPS
    mag_b += _LOG_EPS
    mag_a /= mag_b
    np.log(mag_a, out=mag_a)
    np.abs(mag_a, out=mag_a)
    return np.stack((mag_a.sum(axis=(1, 2)), norm_sq, diff_sq))


def _resolution_distance(
    a: np.ndarray, b: np.ndarray, window: int, hop: int, jobs: int, pool_map
) -> float:
    """The distance of two (4, n) channel matrices at one resolution: the
    mean L1 log-magnitude difference plus the spectral convergence
    ||A - B||_F / ||A||_F over the whole (4, frames, bins) spectrogram.

    The frames are a zero-copy view of the channels. They are tapered,
    transformed and logged one block at a time, and each block yields
    three per-channel sums, so no whole spectrogram is ever held. The
    blocks go through ``pool_map``, or run on the calling thread when
    ``jobs`` or the block count is 1; their sums are added in block order.

    Raises:
        ZeroEnergy: when the reference spectrogram ``a`` is zero.
    """
    if a.shape[1] < window:
        padding = ((0, 0), (0, window - a.shape[1]))
        a = np.pad(a, padding)
        b = np.pad(b, padding)
    frames_a = sliding_window_view(a, window, axis=1)[:, ::hop]
    frames_b = sliding_window_view(b, window, axis=1)[:, ::hop]
    n_frames = frames_a.shape[1]
    # Periodic Hann taper.
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    step = max(1, _BLOCK_BYTES // (a.shape[0] * window * a.itemsize))
    blocks = [slice(s, s + step) for s in range(0, n_frames, step)]
    each = map if min(jobs, len(blocks)) == 1 else pool_map
    totals = np.zeros((3, a.shape[0]))
    for sums in each(functools.partial(_block_sums, frames_a, frames_b, taper), blocks):
        totals += sums
    log_sum, norm_sq, diff_sq = totals
    norm = math.sqrt(norm_sq.sum())
    if norm == 0.0:
        raise ZeroEnergy(f"the reference spectrogram at window {window} is zero")
    return float(np.mean(log_sum)) / (n_frames * (window // 2 + 1)) + math.sqrt(diff_sq.sum()) / norm


def multires_stft_distance(
    a: FoaSignal, b: FoaSignal, config: StftConfig | None = None, jobs: int = 1
) -> float:
    """Multi-resolution spectrogram distance between two ambisonic signals.

    For each analysis window size the distance adds an L1 log-magnitude
    term, the mean over all four channels, and a spectral-convergence
    term, ||A - B||_F / ||A||_F over the whole (4, frames, bins)
    spectrogram (the Frobenius form of Yamamoto et al., Parallel WaveGAN);
    resolutions are averaged. A silent reference channel thus leaves the
    distance finite.

    Frames are transformed in blocks of a fixed byte size over the
    signals' own (4, n) channel matrices. Every resolution maps its blocks
    over one pool of ``jobs`` threads, opened once per call; the per-block
    sums come back and are added in block order, so the distance is the
    same bits at every ``jobs``. The memory used is bounded by ``jobs``
    blocks, not by the signal length times the frame overlap.

    Raises:
        InvalidValue: when lengths or sample rates differ, or ``jobs`` is
            below 1.
        ZeroEnergy: when the reference ``a`` has no spectral energy at some
            window size, as when it is zero in every channel.
    """
    if jobs < 1:
        raise InvalidValue(f"jobs must be at least 1, got {jobs}")
    if config is None:
        config = StftConfig()
    if a.n_samples != b.n_samples:
        raise InvalidValue(f"signal lengths differ: {a.n_samples} vs {b.n_samples}")
    if a.sample_rate != b.sample_rate:
        raise InvalidValue(f"sample rates differ: {a.sample_rate} vs {b.sample_rate}")
    per_resolution = []
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for window in config.window_sizes:
            hop = max(1, int(round(window * config.hop_fraction)))
            per_resolution.append(_resolution_distance(a.channels, b.channels, window, hop, jobs, pool.map))
    return float(np.mean(per_resolution))
