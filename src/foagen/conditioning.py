"""Feature-to-latent conditioning utilities.

Visual features arrive at a coarser rate than audio latents, so they are
upsampled along time and then appended to the velocity model's condition
channels; its linear first layer projects them and adds the result to
the rest of its input, so no projection or fusion happens here. A global
summary is taken by per-channel max pooling over time.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue


def _as_feature_seq(features) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InvalidValue("features must be a non-empty 2-D (frames, channels) array")
    if not np.all(np.isfinite(arr)):
        raise InvalidValue("features contains non-finite values")
    return arr


def upsample_features(features, target_len: int) -> np.ndarray:
    """Stretch an (F, C) feature sequence to ``target_len`` frames.

    Output frame i is input frame floor(i * F / target_len), its nearest
    neighbour, which preserves the first and last frames and repeats each
    input frame a near-equal number of times.

    Raises:
        InvalidValue: when ``target_len`` is shorter than the input.
    """
    arr = _as_feature_seq(features)
    frames = arr.shape[0]
    target_len = int(target_len)
    if target_len < frames:
        raise InvalidValue(
            f"cannot shrink {frames} frames to {target_len}; "
            "this op only stretches"
        )
    indices = (np.arange(target_len) * frames) // target_len
    return arr[indices]


def pool_global(features) -> np.ndarray:
    """Per-channel maximum over time; the global condition vector."""
    arr = _as_feature_seq(features)
    return arr.max(axis=0)


def synth_features(
    seed: int, num_frames: int, num_channels: int, class_id: int
) -> np.ndarray:
    """Deterministic synthetic feature sequence whose mean encodes a class.

    Each channel's mean equals ``float(class_id)`` exactly, so distinct
    integer class ids are separated by at least 1.0 in every channel
    mean. The noise comes from shuffled integer +-k pairs scaled by a
    power of two: the pairs cancel exactly and every partial sum stays
    far below 2**53, which makes the centering float-exact rather than
    merely approximate. Useful as a stand-in for a real feature
    extractor in tests and fixtures.
    """
    if num_frames < 1 or num_channels < 1:
        raise InvalidValue("num_frames and num_channels must be >= 1")
    rng = np.random.default_rng([int(seed), int(class_id)])
    half = num_frames // 2
    mags = rng.integers(0, 1 << 15, size=(half, num_channels))
    parts = [mags, -mags]
    if num_frames % 2:
        parts.append(np.zeros((1, num_channels), dtype=np.int64))
    ints = rng.permuted(np.concatenate(parts, axis=0), axis=0)
    # amplitude 2**15 * 2**-17 = 0.25
    return float(class_id) + ints * 2.0**-17
