"""Bit-exact multichannel WAV I/O and matrix serialization.

WAV support covers RIFF/WAVE files in the encodings of
``WAV_ENCODINGS``: 16-bit PCM ("pcm16", format tag 1) and 32-bit IEEE
float ("float32", format tag 3). That table is the one statement of
each encoding; a writer names one, and a reader accepts exactly the
(format tag, bits per sample) pairs it holds. The channel count is any
that a :mod:`foagen.foa` signal type holds. Four-channel files carry
ambisonic channels in w, x, y, z order on disk by default; the ``ambix``
switch reads and writes the alternative ordering (w, y, z, x) with the
omni channel scaled up by sqrt(2).

A file's interleaved frames decode column by column straight into the
C-ordered (channels, n) matrix that :mod:`foagen.foa` signals hold, each
column into its destination row, so the AmbiX order costs no extra copy.
Writing fills one preallocated interleaved (n, channels) payload in
blocks of ``_BLOCK_FRAMES`` frames: each block's rows are put in file
order (and the AmbiX omni row scaled) and encoded while they are in
cache, so the whole signal is never copied.

PCM decoding multiplies by 2**-15, which is exact and equals dividing by
32768, so the most negative code maps to -1.0 exactly. Encoding scales
by 32768, rounds half away from zero and saturates at the int16 limits.
The rounding is ``trunc(v + copysign(0.5, v))``, with the int16 cast as
the truncation; this equals ``copysign(floor(|v| + 0.5), v)`` because a
sum of two numbers of one sign rounds the same whatever that sign is.
Float32 files round-trip bit-exactly. A float64 sample past the float32
range, the AmbiX-scaled omni row included, would be written as an
infinity that no reader accepts, so the writer refuses it instead.

Feature matrices travel either as delimited text (one row per line) or
as the ``.fmat`` binary container laid out in :mod:`foagen.container`.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from . import container
from .errors import CorruptHeader, InvalidValue, ParseError, SpecMismatch, UnsupportedFormat
from .foa import signal_type

MATRIX_MAGIC = b"FMAT0001"

# Each WAV encoding: its format tag and its sample type; the bits per
# sample are 8 times the type's size.
WAV_ENCODINGS = {"pcm16": (1, "<i2"), "float32": (3, "<f4")}
# The sample type of each (format tag, bits per sample) a reader accepts.
_WAV_DTYPES = {
    (tag, 8 * np.dtype(sample).itemsize): np.dtype(sample)
    for tag, sample in WAV_ENCODINGS.values()
}

_AMBIX_SCALE = math.sqrt(2.0)
# Column k of an AmbiX file holds row _AMBIX_ROWS[k] of the (w, x, y, z)
# matrix: w, y, z, x on disk.
_AMBIX_ROWS = (0, 2, 3, 1)

# Frames encoded per block. At 4 channels a block's float64 samples take
# 256 KiB, and pcm16 rounding holds two such arrays at once.
_BLOCK_FRAMES = 8192

# One pcm16 code step: 1/32768.
_PCM16_STEP = 2.0**-15

# Largest value of a 32-bit RIFF size, sample-rate or byte-rate field.
_U32_MAX = 0xFFFFFFFF


def pcm16_encode(samples: np.ndarray) -> np.ndarray:
    """Float samples to C-ordered int16 codes: scale by 32768, round half
    away from zero, saturate at the int16 limits."""
    scaled = np.multiply(samples, 32768.0, out=np.empty(np.shape(samples)), dtype=np.float64)
    scaled += np.copysign(0.5, scaled)
    np.clip(scaled, -32768, 32767, out=scaled)
    return scaled.astype(WAV_ENCODINGS["pcm16"][1])  # the cast truncates toward zero


def _chunks(blob: bytes):
    """Iterate (fourcc, payload) pairs of a RIFF body; the payloads are
    views of ``blob``, not copies."""
    view = memoryview(blob)
    pos = 12
    while pos + 8 <= len(view):
        fourcc = bytes(view[pos : pos + 4])
        (size,) = struct.unpack_from("<I", view, pos + 4)
        payload = view[pos + 8 : pos + 8 + size]
        if len(payload) < size:
            raise CorruptHeader(f"chunk {fourcc!r} truncated")
        yield fourcc, payload
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def read_wav(path, ambix: bool = False):
    """Read a WAV file into the signal type matching its channel count.

    Raises:
        CorruptHeader: malformed or truncated RIFF structure.
        UnsupportedFormat: a format tag and sample width that
            ``WAV_ENCODINGS`` does not hold.
        ChannelCountUnsupported: a channel count no signal type holds.
        ParseError: a float32 payload holding a NaN or infinite sample.
        SpecMismatch: ``ambix`` on a file that is not 4-channel.
        IoFailure: the underlying read failed.

    Each message names ``path`` once.
    """
    with container.naming(path):
        return _decode_wav(container.read_bytes(path), ambix)


def _decode_wav(blob: bytes, ambix: bool):
    """:func:`read_wav` of a file's bytes; no message names the file."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")

    fmt = None
    data = None
    for fourcc, payload in _chunks(blob):
        if fourcc == b"fmt " and fmt is None:
            if len(payload) < 16:
                raise CorruptHeader("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", payload, 0)
        elif fourcc == b"data" and data is None:
            data = payload
    if fmt is None or data is None:
        raise CorruptHeader("missing fmt or data chunk")

    audio_format, channels, sample_rate, _, block_align, bits = fmt
    if sample_rate == 0:
        raise CorruptHeader("fmt chunk gives a sample rate of 0 Hz")
    dtype = _WAV_DTYPES.get((audio_format, bits))
    if dtype is None:
        raise UnsupportedFormat(
            f"WAVE format tag {audio_format} with {bits}-bit samples unsupported"
        )
    kind = signal_type(channels)
    frame_bytes = channels * dtype.itemsize
    if block_align not in (0, frame_bytes):
        raise CorruptHeader(
            f"block align {block_align} inconsistent with {frame_bytes}-byte frames"
        )
    n_frames = len(data) // frame_bytes
    if n_frames == 0:
        raise CorruptHeader("data chunk holds no complete frame")
    if ambix and channels != 4:
        raise SpecMismatch("ambix ordering applies to 4-channel files only")
    raw = np.frombuffer(data, dtype=dtype, count=n_frames * channels)
    step = _PCM16_STEP if dtype.kind == "i" else 1.0
    rows = _AMBIX_ROWS if ambix else range(channels)
    matrix = np.empty((channels, n_frames))
    for column, row in zip(raw.reshape(n_frames, channels).T, rows):
        np.multiply(column, step, out=matrix[row], dtype=np.float64)
    if ambix:
        matrix[0] /= _AMBIX_SCALE
    try:
        return kind(matrix, sample_rate)
    except InvalidValue:
        # A signal refuses no decoded sample but a non-finite float32 one.
        raise ParseError("float32 payload holds non-finite samples") from None


def write_wav(signal, path, encoding: str = "float32", ambix: bool = False) -> None:
    """Write a signal as RIFF/WAVE at its own channel count and rate.

    ``encoding`` names an entry of ``WAV_ENCODINGS``. Nothing is created
    when the write is refused.

    Raises:
        UnsupportedFormat: an unknown encoding, or a rate or length whose
            byte-rate or RIFF size field would overflow 32 bits.
        SpecMismatch: ``ambix`` on a signal that is not 4-channel, or a
            float32 file that would hold an infinity because a sample
            (after the AmbiX omni scaling) lies past the float32 range.

    Each refusal names ``path`` once.
    """
    with container.naming(path):
        parts = _wav_parts(signal, encoding, ambix)
    container.write_bytes(path, *parts)


def _wav_parts(signal, encoding: str, ambix: bool) -> tuple[bytes, np.ndarray]:
    """The header and the frames of :func:`write_wav`'s file, or its refusal."""
    if encoding not in WAV_ENCODINGS:
        raise UnsupportedFormat(
            f"encoding {encoding!r} unsupported; use "
            + " or ".join(map(repr, WAV_ENCODINGS))
        )
    tag, sample = WAV_ENCODINGS[encoding]
    dtype = np.dtype(sample)
    matrix = signal.channels
    channels, n = matrix.shape
    rate = signal.sample_rate
    block_align = channels * dtype.itemsize
    if rate * block_align > _U32_MAX:
        raise UnsupportedFormat(
            f"{rate} Hz at {block_align}-byte frames overflows the 32-bit byte-rate field"
        )
    rows = slice(None)
    if ambix:
        if channels != 4:
            raise SpecMismatch("ambix ordering applies to 4-channel signals only")
        rows = list(_AMBIX_ROWS)

    pcm16 = dtype.kind == "i"
    data_size = n * block_align
    chunks = b"fmt " + struct.pack(
        "<IHHIIHH", 16, tag, channels, rate, rate * block_align, block_align,
        8 * dtype.itemsize,
    )
    if not pcm16:
        # Non-PCM files carry a fact chunk with the frame count.
        chunks += b"fact" + struct.pack("<II", 4, n)
    riff_size = 4 + len(chunks) + 8 + data_size  # every chunk has an even size
    if riff_size > _U32_MAX:
        raise UnsupportedFormat(
            f"{n} frames of {block_align} bytes overflow the 32-bit RIFF size field"
        )

    frames = np.empty((n, channels), dtype)
    # An overflow to infinity saturates in pcm16 and is refused in float32.
    with np.errstate(over="ignore"):
        for start in range(0, n, _BLOCK_FRAMES):
            stop = start + _BLOCK_FRAMES
            block = matrix[rows, start:stop]  # the AmbiX rows index a copy
            if ambix:
                block[0] *= _AMBIX_SCALE
            if pcm16:
                frames[start:stop] = pcm16_encode(block.T)
            else:
                frames[start:stop] = block.T
                if not np.isfinite(frames[start:stop]).all():
                    raise SpecMismatch(
                        "a sample lies past the float32 range and "
                        "would be written as an infinity"
                    )
    header = (
        b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
        + chunks + b"data" + struct.pack("<I", data_size)
    )
    return header, frames


# --- matrix containers -----------------------------------------------------------

def write_matrix(path, matrix) -> None:
    """Write a 2-D float64 matrix to the ``.fmat`` container."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidValue("matrix must be 2-D")
    container.write_bytes(path, *container.encode(MATRIX_MAGIC, "<QQ", arr.shape, [arr]))


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix`; bit-exact.

    Raises:
        CorruptHeader: a bad magic, a short or long file, or a shape numpy
            cannot hold.
        IoFailure: the underlying read failed.

    Each message names ``path`` once.
    """
    with container.naming(path):
        reader = container.Reader(container.read_bytes(path), MATRIX_MAGIC)
        matrix = reader.floats(reader.ints("<QQ"))
        reader.end()
    return matrix


def read_matrix_text(path) -> np.ndarray:
    """Read whitespace- or comma-delimited text, one row per line.

    Raises:
        ParseError: naming the line of the first bad token or ragged row,
            on a file with no data rows, or on bytes that are not UTF-8.
        IoFailure: the underlying read failed.

    Each message names ``path`` once.
    """
    rows: list[list[float]] = []
    with container.naming(path):
        try:
            lines = container.read_lines(path)
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc})") from exc
        for lineno, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.replace(",", " ").split()
            try:
                row = [float(token) for token in tokens]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad number ({exc})") from exc
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"line {lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
        if not rows:
            raise ParseError("no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_matrix_any(path) -> np.ndarray:
    """Read a matrix from the binary container or delimited text."""
    name = str(path)
    if name.endswith(".fmat"):
        return read_matrix(name)
    return read_matrix_text(name)
