"""First-order ambisonics encoding and intensity-based direction estimation.

Conventions used throughout the package:

* azimuth is measured counterclockwise from the front axis, positive to
  the left, normalized into (-pi, pi];
* elevation is positive upward, restricted to [-pi/2, pi/2];
* all angles are radians (the CLI offers a degree switch, nothing else does).

A mono source at direction (azimuth, elevation) encodes as

    w = s / sqrt(2)
    x = cos(azimuth) * cos(elevation) * s
    y = sin(azimuth) * cos(elevation) * s
    z = sin(elevation) * s

and the time-averaged intensity vector (mean of w against each dipole
channel) inverts that encoding up to overall signal energy.

Every signal holds its channels as one C-contiguous float64 (channels, n)
matrix: ``MonoSignal`` has one row, ``StereoSignal`` two (left, right) and
``FoaSignal`` four (w, x, y, z). The named channels are row views of that
matrix. :func:`signal_type` names the type for a channel count, the one
place the supported counts are checked, and :func:`signal_from_channels`
builds it from a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ChannelCountUnsupported, ZeroEnergy

TWO_PI = 2.0 * math.pi

# Intensity magnitudes below this are treated as directionless silence.
INTENSITY_EPS = 1e-12


def wrap_azimuth(angle: float) -> float:
    """Normalize an angle in radians into (-pi, pi]."""
    if not math.isfinite(angle):
        raise ValueError(f"azimuth must be finite, got {angle!r}")
    wrapped = angle % TWO_PI  # [0, 2*pi)
    if wrapped > math.pi:
        wrapped -= TWO_PI
    return wrapped


@dataclass(frozen=True)
class Direction:
    """A direction on the sphere: azimuth in (-pi, pi], elevation in [-pi/2, pi/2].

    The azimuth is wrapped on construction; the elevation is rejected when
    out of range rather than clamped.
    """

    azimuth: float
    elevation: float

    def __post_init__(self):
        object.__setattr__(self, "azimuth", wrap_azimuth(float(self.azimuth)))
        elevation = float(self.elevation)
        if not math.isfinite(elevation) or abs(elevation) > math.pi / 2:
            raise ValueError(
                f"elevation must lie in [-pi/2, pi/2], got {self.elevation!r}"
            )
        object.__setattr__(self, "elevation", elevation)

    def unit_vector(self) -> np.ndarray:
        """Cartesian unit vector (front, left, up) for this direction."""
        cos_el = math.cos(self.elevation)
        return np.array(
            [
                math.cos(self.azimuth) * cos_el,
                math.sin(self.azimuth) * cos_el,
                math.sin(self.elevation),
            ]
        )


@dataclass(frozen=True)
class Signal:
    """The channels of one signal as a C-contiguous float64 (channels, n)
    matrix, with its sample rate.

    Each subclass fixes the channel count and names the rows, which are
    views of the matrix. A 1-D array counts as one channel. An input that
    is already a C-contiguous float64 matrix is wrapped without a copy.
    """

    channels: np.ndarray
    sample_rate: int

    n_channels: ClassVar[int]

    def __post_init__(self):
        channels = np.ascontiguousarray(self.channels, dtype=np.float64)
        if channels.ndim == 1:
            channels = channels[None, :]
        name = type(self).__name__
        if channels.ndim != 2 or channels.shape[0] != self.n_channels or channels.shape[1] == 0:
            raise ValueError(
                f"{name} needs a non-empty ({self.n_channels}, n) array, "
                f"got shape {np.shape(self.channels)}"
            )
        # Row by row, so the mask is one channel long.
        if not all(np.isfinite(row).all() for row in channels):
            raise ValueError(f"{name} contains non-finite samples")
        rate = int(self.sample_rate)
        if rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate!r}")
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "sample_rate", rate)

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]


def _row(index: int) -> property:
    """A read-only attribute naming one row of ``channels``."""
    return property(lambda self: self.channels[index])


class MonoSignal(Signal):
    """A single-channel signal."""

    n_channels = 1
    samples = _row(0)


class StereoSignal(Signal):
    """A two-channel signal: rows left, right."""

    n_channels = 2
    left, right = map(_row, range(2))


class FoaSignal(Signal):
    """First-order ambisonics signal: rows w, x, y, z."""

    n_channels = 4
    w, x, y, z = map(_row, range(4))


_SIGNAL_TYPES = {kind.n_channels: kind for kind in (MonoSignal, StereoSignal, FoaSignal)}


def signal_type(n_channels: int) -> type[Signal]:
    """The signal type holding ``n_channels`` rows; ChannelCountUnsupported
    for any count no type holds."""
    kind = _SIGNAL_TYPES.get(n_channels)
    if kind is None:
        raise ChannelCountUnsupported(
            f"{n_channels} channels unsupported; expected 1, 2, or 4"
        )
    return kind


def signal_from_channels(channels: np.ndarray, sample_rate: int) -> Signal:
    """The signal of the type matching the row count of a (channels, n) array."""
    return signal_type(len(channels))(channels, sample_rate)


@dataclass(frozen=True)
class IntensityVector:
    """Time-averaged acoustic intensity along the three dipole axes."""

    ix: float
    iy: float
    iz: float

    def __post_init__(self):
        for name in ("ix", "iy", "iz"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.ix**2 + self.iy**2 + self.iz**2)


def spatialize_mono(signal: MonoSignal, direction: Direction) -> FoaSignal:
    """Encode a mono signal at a given direction into first-order ambisonics.

    The omni channel carries the signal scaled by 1/sqrt(2); the dipole
    channels carry it scaled by the direction cosines.
    """
    s = signal.samples
    cos_el = math.cos(direction.elevation)
    gains = (
        math.cos(direction.azimuth) * cos_el,
        math.sin(direction.azimuth) * cos_el,
        math.sin(direction.elevation),
    )
    channels = np.empty((4, s.shape[0]))
    np.divide(s, math.sqrt(2.0), out=channels[0])
    np.multiply.outer(gains, s, out=channels[1:])
    return FoaSignal(channels, signal.sample_rate)


def stereo_to_foa(signal: StereoSignal) -> FoaSignal:
    """Convert stereo to a degenerate ambisonic signal.

    The omni channel is the channel sum, the front-back dipole the channel
    difference, and the remaining dipoles are zero (a stereo pair carries
    no height or lateral phase information worth inventing).
    """
    channels = np.zeros((4, signal.n_samples))
    np.add(signal.left, signal.right, out=channels[0])
    np.subtract(signal.left, signal.right, out=channels[1])
    return FoaSignal(channels, signal.sample_rate)


def intensity_vector(signal: FoaSignal) -> IntensityVector:
    """Mean product of the omni channel with each dipole channel."""
    return IntensityVector(
        ix=float(np.mean(signal.w * signal.x)),
        iy=float(np.mean(signal.w * signal.y)),
        iz=float(np.mean(signal.w * signal.z)),
    )


def estimate_doa(signal: FoaSignal, eps: float = INTENSITY_EPS) -> Direction:
    """Estimate the direction of arrival from the intensity vector.

    Azimuth comes from the full two-argument arctangent of (iy, ix) so all
    four quadrants are recovered; elevation from the arctangent of iz
    against the horizontal intensity magnitude.

    Raises:
        ZeroEnergy: when the intensity magnitude falls below ``eps``.
    """
    iv = intensity_vector(signal)
    if iv.magnitude < eps:
        raise ZeroEnergy(
            f"intensity magnitude {iv.magnitude:.3e} below {eps:.3e}; "
            "direction undefined"
        )
    horizontal = math.hypot(iv.ix, iv.iy)
    if horizontal == 0.0:
        # Pole: azimuth is arbitrary, fixed at 0 by convention.
        return Direction(0.0, math.copysign(math.pi / 2, iv.iz))
    return Direction(math.atan2(iv.iy, iv.ix), math.atan2(iv.iz, horizontal))
