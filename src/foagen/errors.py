"""Exception taxonomy shared by all foagen modules.

Every domain failure raises a subclass of :class:`FoagenError` so callers
(and the CLI) can distinguish contract violations from programming errors.
Class names double as the machine-readable error codes printed by the CLI.
"""

from __future__ import annotations


class FoagenError(Exception):
    """Base class for all domain errors raised by this package."""


# --- direction / intensity ------------------------------------------------

class ZeroEnergy(FoagenError):
    """Intensity magnitude too small to define a direction of arrival."""


# --- metric contracts -----------------------------------------------------

class OutOfRange(FoagenError):
    """An angle lies outside its documented domain."""


class DimensionMismatch(FoagenError):
    """Two inputs that must share a dimension do not."""


class NumericalFailure(FoagenError):
    """A numerical routine left its stable regime (e.g. matrix sqrt)."""


class SupportViolation(FoagenError):
    """A distribution assigns mass where the reference assigns none."""


class LengthMismatch(FoagenError):
    """Signals that must share length/sample rate do not."""


class EmptyBatch(FoagenError):
    """A batch evaluation received no usable items."""


# --- flow-matching engine ---------------------------------------------------

class ShapeMismatch(FoagenError):
    """Array shapes incompatible with the requested operation."""


class InfeasibleSpec(FoagenError):
    """A mask specification cannot be satisfied for the sequence length."""


class DivergenceDetected(FoagenError):
    """Training produced a non-finite loss."""


# --- conditioning -----------------------------------------------------------

class ShrinkNotSupported(FoagenError):
    """Feature upsampling was asked to shrink a sequence."""


# --- panorama geometry ------------------------------------------------------

class NotErpAspect(FoagenError):
    """Frame does not have the 2:1 equirectangular aspect ratio."""


class TooFewFrames(FoagenError):
    """Not enough frames for the requested temporal comparison."""


# --- data cleaning ----------------------------------------------------------

class EmptySignal(FoagenError):
    """An audio signal has no complete analysis window."""


class MissingScore(FoagenError):
    """A filter needs a score the manifest entry does not carry."""


class ManifestParseError(FoagenError):
    """A manifest line could not be parsed; message names the line."""


# --- file I/O ---------------------------------------------------------------

class UnsupportedFormat(FoagenError):
    """The file encoding is not one this package reads or writes."""


class CorruptHeader(FoagenError):
    """A container header is malformed or truncated."""


class ChannelCountUnsupported(FoagenError):
    """Audio channel count outside the supported {1, 2, 4}."""


class IoFailure(FoagenError):
    """An underlying OS-level read or write failed."""


class SpecMismatch(FoagenError):
    """A signal does not match the file spec it was to be written with."""


class ParseError(FoagenError):
    """A text matrix or container payload could not be parsed."""
