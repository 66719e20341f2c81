"""Exception taxonomy shared by all foagen modules.

Every refusal of input raises a subclass of :class:`FoagenError`, so
callers (and the CLI) can tell refused input from programming errors: the
CLI prints a FoagenError as an ``error=`` line, and any other exception
escapes as a traceback. Class names double as the machine-readable error
codes the CLI prints; README's error-code table lists each one and what
raises it.
"""

from __future__ import annotations


class FoagenError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidValue(FoagenError, ValueError):
    """An argument, flag or flag combination that is refused as given."""


class ShapeMismatch(FoagenError):
    """Two inputs whose shapes, lengths or pairing must agree do not."""


# --- direction / intensity ------------------------------------------------

class ZeroEnergy(FoagenError):
    """Intensity magnitude too small to define a direction of arrival."""


# --- metric contracts -----------------------------------------------------

class NumericalFailure(FoagenError):
    """A numerical routine left its stable regime (e.g. matrix sqrt)."""


class EmptyBatch(FoagenError):
    """A batch evaluation received no usable items."""


# --- flow-matching engine ---------------------------------------------------

class DivergenceDetected(FoagenError):
    """Training produced a non-finite loss."""


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
