"""File I/O and the binary container codec shared by ``.fmat``,
``.fframe`` and ``.fgvm`` files.

This module owns every file read and write in foagen: :func:`read_bytes`,
:func:`read_head` (a file's leading bytes and its length),
:func:`read_lines`, :func:`write_bytes` and :func:`make_dirs` turn an OS
failure into IoFailure, so no other module opens a file or makes a
directory itself.

Files are read with bare ``os.open``, ``os.fstat``, ``os.read`` and
``os.close`` calls rather than through the buffered ``open()`` stack:
each system call releases the GIL, and fewer of them mean fewer
handoffs between worker threads. A regular file is asked for its whole
length (or a head's limit) in one read, and reads go on until EOF (or
the limit), so a short read never truncates a file. Any other file,
such as a pipe, is read to EOF from the descriptor it was opened on.

A container holds an 8-byte magic naming its format and version, a header
of little-endian unsigned integers, then its arrays as row-major
little-endian float64 (``<f8``), back to back, and nothing after them:

    .fmat    FMAT0001  <QQ rows, cols; one (rows, cols) matrix
    .fframe  FFRM0001  <QQQ height, width, channels; one frame
    .fgvm    FGVM0001  <I n, <nI layer widths; per layer the
                       (fan_in, fan_out) weights, then the fan_out biases

Reads raise CorruptHeader on a bad magic, a short read, a shape numpy
cannot hold, or leftover bytes, and IoFailure when the OS read fails.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import CorruptHeader, FoagenError, IoFailure


def read_bytes(path) -> bytes:
    """The whole file at ``path``.

    A path holding a NUL byte, which a manifest can give, fails as
    IoFailure like a missing file.
    """
    return _read(path, None)[0]


def read_head(path, limit: int) -> tuple[bytes, int]:
    """The first ``limit`` bytes of the regular file at ``path``, and the
    file's length. Any other file, such as a pipe, is read whole.

    Fails as :func:`read_bytes` fails.
    """
    return _read(path, limit)


def _read(path, limit: int | None) -> tuple[bytes, int]:
    """The first ``limit`` bytes of a regular file and its length, or, when
    ``limit`` is None or the file is not regular, the whole file and the
    length read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            info = os.fstat(fd)
            regular = stat.S_ISREG(info.st_mode)
            if regular and limit is not None:
                return _read_fd(fd, limit, limit), info.st_size
            data = _read_fd(fd, (regular and info.st_size) or _CHUNK)
            return data, len(data)
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise _failure("cannot read", path, exc) from exc


@contextlib.contextmanager
def naming(path):
    """Put ``path: `` at the head of a FoagenError's message raised inside,
    for decoders of a file's bytes whose own messages do not name the file.
    An IoFailure of :func:`read_bytes` names the path already, so only the
    decode is wrapped."""
    try:
        yield
    except FoagenError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _failure(action: str, path, exc: OSError | ValueError) -> IoFailure:
    """``IoFailure("<action> <path>: <reason>")`` for an OS call that
    failed on ``path``, or refused it with ValueError for a NUL byte."""
    # An OSError's own text repeats the path; its strerror does not.
    reason = getattr(exc, "strerror", None) or exc
    return IoFailure(f"{action} {path}: {reason}")


# Bytes asked of each read after the first.
_CHUNK = 1 << 16


def _read_fd(fd: int, first: int, limit: float = math.inf) -> bytes:
    """Up to ``limit`` bytes from ``fd``, read until EOF: ``first`` bytes
    are asked of the first read and ``_CHUNK`` of each later one, so a
    short read is followed by another."""
    parts = []
    size = first
    while limit > 0 and (part := os.read(fd, min(size, limit))):
        parts.append(part)
        limit -= len(part)
        size = _CHUNK
    return b"".join(parts)


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``, split as text-mode
    ``open(...).readlines()`` splits them (universal newlines).

    Raises:
        IoFailure: the read failed.
        UnicodeDecodeError: the bytes are not UTF-8.
    """
    text = read_bytes(path).decode("utf-8")
    return io.StringIO(text, newline=None).readlines()


def write_bytes(path, *parts) -> None:
    """Write the bytes-like ``parts`` back to back as the file at ``path``."""
    try:
        with open(path, "wb") as fh:
            for part in parts:
                fh.write(part)
    except (OSError, ValueError) as exc:
        raise _failure("cannot write", path, exc) from exc


def make_dirs(path) -> None:
    """Create the directory ``path`` and its missing parents; an existing
    directory is kept."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise _failure("cannot create directory", path, exc) from exc


def encode(magic: bytes, header_fmt: str, header, arrays) -> list:
    """The byte parts of a container: magic, the packed header, then each
    array as ``<f8``."""
    arrays = [np.ascontiguousarray(arr, dtype="<f8") for arr in arrays]
    return [magic, struct.pack(header_fmt, *header), *arrays]


class Reader:
    """Cursor over one container's bytes, past its checked magic.

    ``size`` is the length of the whole file when ``blob`` holds only its
    leading bytes; then only the header fields inside ``blob`` can be
    unpacked, and :meth:`take` and :meth:`end` still check against the
    file's length.
    """

    def __init__(self, blob: bytes, magic: bytes, size: int | None = None):
        if not blob.startswith(magic):
            raise CorruptHeader(f"bad magic; expected {magic!r}")
        self._blob = blob
        self._size = len(blob) if size is None else size
        self._pos = len(magic)

    def take(self, size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        start = self._pos
        if size > self._size - start:
            raise CorruptHeader(f"container truncated at offset {start}")
        self._pos += size
        return start

    def ints(self, fmt: str) -> tuple[int, ...]:
        """The next header fields."""
        return struct.unpack_from(fmt, self._blob, self.take(struct.calcsize(fmt)))

    def floats(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next ``<f8`` array of ``shape``, as an owned float64 copy."""
        count = math.prod(shape)
        data = np.frombuffer(self._blob, "<f8", count, self.take(8 * count))
        try:
            return data.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise CorruptHeader(f"no array can have shape {shape}") from exc

    def end(self) -> None:
        """Check that nothing follows the last array."""
        if self._pos != self._size:
            raise CorruptHeader(f"{self._size - self._pos} bytes follow the last array")
