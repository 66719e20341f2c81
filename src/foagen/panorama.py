"""Equirectangular panorama geometry: padding, perspective cuts, and a
frame-stationarity check.

Frames are (height, width, channels) float arrays with values in [0, 1]
and 1 or 3 channels. An equirectangular (ERP) frame spans 360 degrees of
longitude by 180 of latitude and therefore has a 2:1 aspect ratio; its
pixel grid maps to angles through

    u = (longitude / 2*pi + 0.5) * width
    v = (0.5  - latitude / pi)  * height

with longitude in [-pi, pi) increasing to the image right and latitude
in [-pi/2, pi/2] increasing upward.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import container
from .errors import (
    CorruptHeader,
    NotErpAspect,
    ShapeMismatch,
    TooFewFrames,
    UnsupportedFormat,
)
from .foa import wrap_azimuth

FRAME_MAGIC = b"FFRM0001"


def _as_frame(frame, name: str = "frame") -> np.ndarray:
    arr = np.asarray(frame, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError(
            f"{name} must be (height, width, channels) with 1 or 3 channels, "
            f"got shape {arr.shape}"
        )
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name} has an empty axis: {arr.shape}")
    return arr


def _check_erp(frame: np.ndarray) -> np.ndarray:
    if frame.shape[1] != 2 * frame.shape[0]:
        raise NotErpAspect(
            f"equirectangular frames are 2:1, got {frame.shape[0]}x{frame.shape[1]}"
        )
    return frame


@dataclass(frozen=True)
class CameraSpec:
    """Pinhole camera pointed at (yaw, pitch) with a horizontal FOV.

    The yaw is wrapped into (-pi, pi] on construction so cuts just past
    the seam are bit-identical to their wrapped equivalents. The vertical
    FOV follows from the output aspect ratio.
    """

    yaw: float = 0.0
    pitch: float = 0.0
    hfov: float = 2.0 * math.pi / 3.0
    out_width: int = 256
    out_height: int = 256

    def __post_init__(self):
        object.__setattr__(self, "yaw", wrap_azimuth(float(self.yaw)))
        pitch = float(self.pitch)
        if not math.isfinite(pitch) or abs(pitch) > math.pi / 2:
            raise ValueError(f"pitch must lie in [-pi/2, pi/2], got {self.pitch!r}")
        object.__setattr__(self, "pitch", pitch)
        hfov = float(self.hfov)
        if not 0.0 < hfov < math.pi:
            raise ValueError(f"hfov must lie in (0, pi), got {self.hfov!r}")
        object.__setattr__(self, "hfov", hfov)
        if int(self.out_width) < 1 or int(self.out_height) < 1:
            raise ValueError("output dimensions must be >= 1")
        object.__setattr__(self, "out_width", int(self.out_width))
        object.__setattr__(self, "out_height", int(self.out_height))


def pad_to_square(erp) -> np.ndarray:
    """Zero-pad a 2:1 ERP frame to a square, keeping it vertically centered.

    The extra rows split evenly above and below; an odd remainder goes
    below.

    Raises:
        NotErpAspect: when the input is not 2:1.
    """
    frame = _check_erp(_as_frame(erp))
    height, width, channels = frame.shape
    pad_total = width - height
    pad_top = pad_total // 2
    out = np.zeros((width, width, channels))
    out[pad_top : pad_top + height] = frame
    return out


def _bilinear_wrap_clamp(
    erp: np.ndarray, u: np.ndarray, v: np.ndarray, maxval: int | None, out: np.ndarray
) -> None:
    """Bilinear samples at area coordinates (u, v), written into ``out``;
    horizontal wrap, vertical clamp.

    ``out`` is a C-contiguous float64 array of shape ``u.shape +
    (channels,)``. Each channel is gathered with ``take`` from the flat
    interleaved (height * width * channels) buffer at four corner
    indices, and the lerps run in place on 1-D arrays. They keep the
    nested-lerp form, so sampling a constant image returns the constant
    exactly.

    ``erp`` holds float64 values, or, with ``maxval``, stored anymap
    integers: each corner is then taken into an integer scratch and
    divided by ``maxval`` into the float buffer, the same division
    :func:`read_frame` makes, so the result is bit-identical to sampling
    the decoded frame.
    """
    height, width, channels = erp.shape
    flat = np.ravel(erp)  # a C-order copy only for a non-contiguous view
    x = (u - 0.5).ravel()
    y = (v - 0.5).ravel()
    j0 = np.floor(x).astype(np.int64)
    i0 = np.floor(y).astype(np.int64)
    fx = x - j0
    fy = y - i0
    col0 = (j0 % width) * channels
    col1 = ((j0 + 1) % width) * channels
    row0 = np.clip(i0, 0, height - 1) * (width * channels)
    row1 = np.clip(i0 + 1, 0, height - 1) * (width * channels)
    i00, i01, i10, i11 = row0 + col0, row0 + col1, row1 + col0, row1 + col1

    samples = out.reshape(x.size, channels)  # a view, since out is contiguous
    top, bottom, step = np.empty((3, x.size))
    scratch = None if maxval is None else np.empty(x.size, flat.dtype)

    def take(plane, index, into):
        # Every index is in range by construction.
        if scratch is None:
            plane.take(index, out=into, mode="clip")
        else:
            plane.take(index, out=scratch, mode="clip")
            np.divide(scratch, maxval, out=into, dtype=np.float64)

    for c in range(channels):
        # flat[c:] is contiguous, so take gathers without a planar copy.
        plane = flat[c:]
        take(plane, i00, top)
        take(plane, i01, step)
        step -= top
        step *= fx
        top += step
        take(plane, i10, bottom)
        take(plane, i11, step)
        step -= bottom
        step *= fx
        bottom += step
        bottom -= top
        bottom *= fy
        np.add(top, bottom, out=samples[:, c])


# Output pixels per block of erp_to_perspective. Each per-pixel temporary
# of a block then holds 16384 float64 values, 128 KiB, and stays in cache.
_BLOCK_PIXELS = 1 << 14


def erp_to_perspective(erp, camera: CameraSpec) -> np.ndarray:
    """Gnomonic (pinhole) cut of an ERP frame.

    Each output pixel's camera-plane ray is rotated by yaw about the
    vertical axis and pitch about the camera's lateral axis, converted to
    longitude and latitude, and sampled from the ERP grid bilinearly with
    horizontal wraparound and vertical clamping.

    ``erp`` is a float frame or a :class:`StoredFrame`; a stored anymap
    is sampled from its integers, never decoded whole, and the cut is
    bit-identical to the cut of its :func:`read_frame` decoding.

    The cut is rendered in blocks of whole output rows, about
    ``_BLOCK_PIXELS`` pixels each (one row when a row is wider). Every
    step is elementwise per output pixel, so the cut does not depend on
    the block size.

    Raises:
        NotErpAspect: when the input is not 2:1.
    """
    pixels, maxval = erp if isinstance(erp, StoredFrame) else (erp, None)
    frame = _check_erp(pixels if maxval is not None else _as_frame(pixels))
    frame = np.ascontiguousarray(frame)  # so each block gathers from one flat view
    height, width, channels = frame.shape
    half_w = math.tan(camera.hfov / 2.0)
    half_h = half_w * camera.out_height / camera.out_width

    ndc_x = (np.arange(camera.out_width) + 0.5) / camera.out_width * 2.0 - 1.0
    ndc_y = (np.arange(camera.out_height) + 0.5) / camera.out_height * 2.0 - 1.0
    # The ray is (front, left, up) = (1, cam_left, cam_up): left varies
    # along a row and up down a column, so the pitched components are
    # (out_height, 1) columns until yaw mixes in the left component.
    cam_left = ndc_x * half_w
    cam_up = (-ndc_y * half_h)[:, None]

    cos_p, sin_p = math.cos(camera.pitch), math.sin(camera.pitch)
    cos_y, sin_y = math.cos(camera.yaw), math.sin(camera.yaw)
    # Pitch about the lateral axis, then yaw about the vertical axis.
    x_p = cos_p - sin_p * cam_up
    z_w = sin_p + cos_p * cam_up

    out = np.empty((camera.out_height, camera.out_width, channels))
    rows = max(1, _BLOCK_PIXELS // camera.out_width)
    for r0 in range(0, camera.out_height, rows):
        block = slice(r0, r0 + rows)
        x_w = cos_y * x_p[block] - sin_y * cam_left
        y_w = sin_y * x_p[block] + cos_y * cam_left
        longitude = np.arctan2(y_w, x_w)
        latitude = np.arctan2(z_w[block], np.hypot(x_w, y_w))
        u = (longitude / (2.0 * math.pi) + 0.5) * width
        v = (0.5 - latitude / math.pi) * height
        _bilinear_wrap_clamp(frame, u, v, maxval, out[block])
    return out


# Preset cut directions as (yaw, pitch) pairs.
FOV_PRESETS: dict[str, tuple[tuple[float, float], ...]] = {
    "front": ((0.0, 0.0),),
    "2cuts": ((0.0, 0.0), (math.pi, 0.0)),
    "4cuts": (
        (0.0, 0.0),
        (math.pi / 2, 0.0),
        (math.pi, 0.0),
        (3 * math.pi / 2, 0.0),
    ),
    "6cuts": (
        (0.0, 0.0),
        (math.pi / 2, 0.0),
        (math.pi, 0.0),
        (3 * math.pi / 2, 0.0),
        (0.0, math.pi / 2),
        (0.0, -math.pi / 2),
    ),
}


def fov_cameras(
    preset: str, hfov: float, out_width: int, out_height: int
) -> list[CameraSpec]:
    """One camera per direction of a named preset.

    Presets: ``front`` (one forward view), ``2cuts`` (front/back),
    ``4cuts`` (four compass directions), ``6cuts`` (compass plus up and
    down).
    """
    if preset not in FOV_PRESETS:
        raise ValueError(
            f"unknown preset {preset!r}; expected one of {sorted(FOV_PRESETS)}"
        )
    return [
        CameraSpec(yaw, pitch, hfov, out_width, out_height)
        for yaw, pitch in FOV_PRESETS[preset]
    ]


def make_fov_cuts(
    erp,
    preset: str,
    hfov: float = 2.0 * math.pi / 3.0,
    out_width: int = 256,
    out_height: int = 256,
) -> list[np.ndarray]:
    """Perspective cuts for the cameras of :func:`fov_cameras`."""
    return [
        erp_to_perspective(erp, camera)
        for camera in fov_cameras(preset, hfov, out_width, out_height)
    ]


def frame_mse(a, b) -> float:
    """Mean squared pixel difference.

    Raises:
        ShapeMismatch: when the frames differ in shape.
    """
    fa = _as_frame(a, "a")
    fb = _as_frame(b, "b")
    if fa.shape != fb.shape:
        raise ShapeMismatch(f"frame shapes differ: {fa.shape} vs {fb.shape}")
    diff = fa - fb
    diff *= diff
    return float(np.mean(diff))


@dataclass(frozen=True)
class StationarityResult:
    """Outcome of the frame-stationarity check."""

    stationary: bool
    ratio: float
    comparisons: int


def stationarity_verdict(
    frames: Sequence[np.ndarray],
    interval: int = 8,
    mse_threshold: float = 1e-3,
    ratio_threshold: float = 0.85,
) -> StationarityResult:
    """Decide whether a frame sequence is mostly static.

    Frames i and i + interval are compared for i = 0, interval,
    2*interval, ...; a comparison counts as stationary when its MSE falls
    strictly below ``mse_threshold``, and the sequence is stationary when
    the stationary fraction strictly exceeds ``ratio_threshold``. Every
    comparison is made, so ``ratio`` is exact. No other frame is read,
    so the others may be placeholders. :func:`settle_stationarity` makes
    the same decision and stops once it is settled.

    Raises:
        TooFewFrames: when fewer than two comparisons are available.
    """
    compared = _compared_frames(len(frames), interval)
    comparisons = len(compared) - 1
    for count in _stationary_counts(frames.__getitem__, compared, mse_threshold):
        pass
    return StationarityResult(
        _exceeds(count, comparisons, ratio_threshold), count / comparisons, comparisons
    )


def settle_stationarity(
    shapes: Sequence[tuple[int, int, int]],
    frame_at: Callable[[int], np.ndarray | StoredFrame],
    interval: int = 8,
    mse_threshold: float = 1e-3,
    ratio_threshold: float = 0.85,
) -> bool:
    """The verdict of :func:`stationarity_verdict` over all frames, from
    the fewest frames read.

    ``shapes`` holds the (height, width, channels) of every frame, as
    :func:`check_frame` reports it, and ``frame_at(i)`` reads frame i,
    as a float frame or as a :class:`StoredFrame`; two stored anymaps
    are compared from their integers, with the verdict their decoded
    frames would give. The shapes of every compared pair are checked
    first, so a mismatch anywhere raises even when the verdict would be
    settled before it. The comparisons then run in order, each compared
    frame read once and at most two held, and stop as soon as the
    stationary count already exceeds the ratio or can no longer reach it.

    Raises:
        TooFewFrames: when fewer than two comparisons are available.
        ShapeMismatch: when the frames of a compared pair differ in shape.
    """
    compared = _compared_frames(len(shapes), interval)
    comparisons = len(compared) - 1
    for i, j in zip(compared, compared[1:]):
        if shapes[i] != shapes[j]:
            raise ShapeMismatch(f"frames {i} and {j} differ in shape: {shapes[i]} vs {shapes[j]}")
    counts = _stationary_counts(frame_at, compared, mse_threshold)
    for done, count in enumerate(counts, start=1):
        # The count only grows, by at most one per remaining comparison.
        remaining = comparisons - done
        if _exceeds(count, comparisons, ratio_threshold) or not _exceeds(
            count + remaining, comparisons, ratio_threshold
        ):
            break
    return _exceeds(count, comparisons, ratio_threshold)


def _compared_frames(frames: int, interval: int) -> range:
    """Indices 0, interval, 2*interval, ... of the frames the verdict
    compares, each with the next."""
    interval = int(interval)
    if interval < 1:
        raise ValueError(f"interval must be >= 1, got {interval!r}")
    comparisons = max(0, (frames - 1)) // interval
    if comparisons < 2:
        raise TooFewFrames(
            f"{frames} frames at interval {interval} give {comparisons} comparisons; "
            "need at least 2"
        )
    return range(0, comparisons * interval + 1, interval)


def _stationary_counts(
    frame_at: Callable[[int], np.ndarray | StoredFrame], compared: range, mse_threshold: float
) -> Iterator[int]:
    """Running count of stationary comparisons, yielded after each one.

    Each frame in ``compared`` is taken from ``frame_at`` once, compared
    with the one before it and the one after, and then dropped.
    """
    count = 0
    previous = frame_at(compared[0])
    for i in compared[1:]:
        current = frame_at(i)
        if _mse_below(previous, current, mse_threshold):
            count += 1
        previous = current
        yield count


# Integer types of the difference and of its square, by anymap maxval.
_DIFF_SQUARE = {255: (np.int16, np.int32), 65535: (np.int32, np.int64)}

# Relative margin of the integer verdict. The float MSE of two anymaps
# with maxval m and n samples has a relative error of at most about
# 2(2m+1)u + (log2 n + 16)u (u = 2**-53): each decoded pixel is rounded,
# so a difference d/m is off by up to (2m+1)u relative to |d|/m >= 1/m,
# its square by twice that, and the pairwise mean adds its own. That is
# about 3e-11 at m = 65535, well inside this margin, so outside it both
# MSEs fall on the same side of the threshold.
_MSE_MARGIN = 1e-9


def _mse_below(a, b, threshold: float) -> bool:
    """``frame_mse(a, b) < threshold`` for float or stored frames.

    Two stored anymaps of one shape and maxval are compared from the
    exact integer sum of squared differences; only when that MSE lies
    within a relative 1e-9 of the threshold are both frames decoded and
    the float MSE decides. The verdict is therefore always the one the
    float MSE of the decoded frames gives.
    """
    if (
        isinstance(a, StoredFrame)
        and isinstance(b, StoredFrame)
        and a.maxval in _DIFF_SQUARE
        and a.maxval == b.maxval
        and a.pixels.shape == b.pixels.shape
        and a.pixels.size * a.maxval**2 < 2**63  # the int64 total cannot overflow
    ):
        diff_type, square_type = _DIFF_SQUARE[a.maxval]
        diff = np.subtract(a.pixels, b.pixels, dtype=diff_type)
        total = np.multiply(diff, diff, dtype=square_type).sum(dtype=np.int64)
        # Python integers divide with one correct rounding.
        mse = int(total) / (a.maxval**2 * a.pixels.size)
        if mse * (1.0 + _MSE_MARGIN) < threshold:
            return True
        if mse * (1.0 - _MSE_MARGIN) >= threshold:
            return False
    if isinstance(a, StoredFrame):
        a = _decoded(a)
    if isinstance(b, StoredFrame):
        b = _decoded(b)
    return frame_mse(a, b) < threshold


def _exceeds(count: int, comparisons: int, ratio_threshold: float) -> bool:
    return count / comparisons > ratio_threshold


# --- frame file I/O ----------------------------------------------------------
#
# Two interchange forms: binary portable anymaps (P5 grayscale, P6 color,
# 8- or 16-bit) and the ``.fframe`` float container laid out in
# foagen.container, which preserves values exactly.

def encode_frame(path, frame, bit_depth: int = 8) -> list:
    """The byte parts of the file :func:`write_frame` writes at ``path``,
    in order; the format is chosen by extension (.pgm/.ppm/.fframe).

    Raises what :func:`write_frame` raises before it creates the file.
    """
    arr = _as_frame(frame)
    name = str(path)
    if name.endswith(".fframe"):
        return container.encode(FRAME_MAGIC, "<QQQ", arr.shape, [arr])
    if name.endswith(".pgm") or name.endswith(".ppm"):
        return _encode_pnm(name, arr, bit_depth)
    raise UnsupportedFormat(f"cannot infer frame format from {name!r}")


def write_frame(path, frame, bit_depth: int = 8) -> None:
    """Write a frame; format chosen by extension (.pgm/.ppm/.fframe).

    An anymap quantizes values in [0, 1] to its bit depth and clips any
    value outside them, +-inf included; a frame holding NaN raises
    ValueError before the file is created. ``.fframe`` keeps every value
    exactly, NaN too.
    """
    container.write_bytes(path, *encode_frame(path, frame, bit_depth))


class StoredFrame(NamedTuple):
    """A frame as its file stores it: a read-only (height, width,
    channels) view of the stored pixels, and the anymap maxval, or None
    for the float container, whose pixels are already float64."""

    pixels: np.ndarray
    maxval: int | None


def read_stored(path) -> StoredFrame:
    """Read a frame file without decoding its pixels; :func:`read_frame`
    is its float64 decoding."""
    name = str(path)
    blob = container.read_bytes(name)
    offset, dtype, shape, maxval = _frame_layout(name, blob, len(blob))
    pixels = np.frombuffer(blob, dtype, math.prod(shape), offset).reshape(shape)
    return StoredFrame(pixels, maxval)


def _decoded(frame: StoredFrame) -> np.ndarray:
    """The float64 frame that a stored frame holds, as a new array."""
    if frame.maxval is None:
        return frame.pixels.astype(np.float64)
    # Anymap integers scale to [0, 1] in one pass.
    return np.divide(frame.pixels, frame.maxval, dtype=np.float64)


def read_frame(path) -> np.ndarray:
    """Read a frame written by :func:`write_frame`."""
    return _decoded(read_stored(path))


# check_frame reads this many leading bytes; every header fits in them
# unless an anymap pads it with comments or whitespace.
_HEAD_BYTES = 4096


def check_frame(path) -> tuple[int, int, int]:
    """Raise what :func:`read_frame` would raise on ``path``, without
    decoding the pixels; return the (height, width, channels) shape
    that :func:`read_frame` would return for a readable frame.

    Only the header and the file length are checked: the first 4 KiB
    and the length that :func:`foagen.container.read_head` gives. When
    an anymap header runs past those bytes, the whole file is read.
    Otherwise the pixels are never read, so an OS read error inside them
    goes unnoticed.
    """
    name = str(path)
    head, size = container.read_head(name, _HEAD_BYTES)
    layout = _frame_layout(name, head, size)
    if layout is None:
        head = container.read_bytes(name)
        layout = _frame_layout(name, head, len(head))
    return layout[2]


_Layout = tuple[int, np.dtype, tuple[int, int, int], int | None]


def _frame_layout(name: str, head: bytes, size: int) -> _Layout | None:
    """Where a frame file's pixels lie: their byte offset, stored type,
    (height, width, channels) shape and anymap maxval (None for the float
    container), from the file's leading bytes ``head`` and its length
    ``size``. Raises what a malformed file deserves; returns None when
    ``head`` is shorter than the file and ends inside an anymap header."""
    if head.startswith(FRAME_MAGIC):
        return _raw_layout(head, size)
    if head[:2] in (b"P5", b"P6"):
        return _pnm_layout(head, size)
    raise UnsupportedFormat(f"{name!r} is neither a portable anymap nor a raw frame")


def _encode_pnm(name: str, arr: np.ndarray, bit_depth: int) -> list:
    if bit_depth not in (8, 16):
        raise ValueError(f"bit_depth must be 8 or 16, got {bit_depth!r}")
    height, width, channels = arr.shape
    if name.endswith(".pgm") and channels != 1:
        raise UnsupportedFormat("grayscale .pgm needs a single-channel frame")
    if name.endswith(".ppm") and channels != 3:
        raise UnsupportedFormat("color .ppm needs a three-channel frame")
    if np.isnan(arr).any():
        raise ValueError(f"frame holds NaN, which {name!r} cannot store")
    maxval = (1 << bit_depth) - 1
    quantized = arr * maxval
    np.rint(quantized, out=quantized)
    np.clip(quantized, 0, maxval, out=quantized)
    payload = np.ascontiguousarray(quantized, dtype=">u2" if bit_depth == 16 else "u1")
    magic = b"P5" if channels == 1 else b"P6"
    header = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval)
    return [header, payload]


# Anymap header: magic, width, height, maxval as whitespace-separated
# tokens with optional '#' comments, then a single whitespace byte. A token
# runs to the next whitespace; the required whitespace after the first two
# keeps backtracking from splitting one token into two.
_SEP = rb"(?:\s|#[^\n]*\n)*"
_TOK = rb"([^#\s]\S*)"
_PNM_HEADER = re.compile(rb"P[56]" + _SEP + _TOK + (rb"\s" + _SEP + _TOK) * 2)


def _pnm_layout(head: bytes, size: int) -> _Layout | None:
    match = _PNM_HEADER.match(head)
    if len(head) < size and (match is None or match.end() == len(head)):
        return None  # the header, or its maxval, may go on past a partial head
    if match is None:
        raise CorruptHeader("anymap header truncated or a comment in it unterminated")
    try:
        width, height, maxval = map(int, match.groups())
    except ValueError as exc:
        raise CorruptHeader(f"bad anymap header token: {exc}") from exc
    pos = match.end() + 1  # single whitespace after maxval
    if width < 1 or height < 1:
        raise CorruptHeader(f"bad anymap dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise UnsupportedFormat(f"maxval {maxval} unsupported; use 255 or 65535")
    channels = 1 if head[:2] == b"P5" else 3
    dtype = np.dtype("u1") if maxval == 255 else np.dtype(">u2")
    if size - pos < width * height * channels * dtype.itemsize:
        raise CorruptHeader("anymap pixel data truncated")
    return pos, dtype, (height, width, channels), maxval


def _raw_layout(head: bytes, size: int) -> _Layout:
    reader = container.Reader(head, FRAME_MAGIC, size)
    height, width, channels = shape = reader.ints("<QQQ")
    if channels not in (1, 3) or height < 1 or width < 1:
        raise CorruptHeader(f"bad raw frame dims {height}x{width}x{channels}")
    offset = reader.take(8 * height * width * channels)
    reader.end()
    return offset, np.dtype("<f8"), shape, None
