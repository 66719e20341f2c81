"""Span masking for conditional infilling.

During training the model receives a masked view of the clean latents.
With probability ``p_cond`` the mask hides a few contiguous spans and the
visible remainder acts as conditioning; otherwise everything is hidden
and the step trains the unconditional field.

Masks are boolean vectors where True marks a hidden frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidValue
from .path import as_latent

# Success probability of the geometric law for span-length extras.
SPAN_EXTRA_P = 0.2


@dataclass(frozen=True)
class MaskSpec:
    """Span-mask parameters.

    Attributes:
        p_cond: probability that a draw produces a partial (span) mask
            rather than a fully hidden one.
        n_mask: number of spans in a partial mask.
        l_mask: minimum span length in frames.
    """

    p_cond: float
    n_mask: int = 1
    l_mask: int = 1

    def __post_init__(self):
        if not 0.0 <= float(self.p_cond) <= 1.0:
            raise InvalidValue(f"p_cond must lie in [0, 1], got {self.p_cond!r}")
        if int(self.n_mask) < 1:
            raise InvalidValue(f"n_mask must be >= 1, got {self.n_mask!r}")
        if int(self.l_mask) < 1:
            raise InvalidValue(f"l_mask must be >= 1, got {self.l_mask!r}")
        object.__setattr__(self, "p_cond", float(self.p_cond))
        object.__setattr__(self, "n_mask", int(self.n_mask))
        object.__setattr__(self, "l_mask", int(self.l_mask))

    def min_frames(self) -> int:
        """Shortest sequence this spec can mask: spans plus separating gaps."""
        return self.n_mask * self.l_mask + (self.n_mask - 1)


def max_spans(seq_len: int, l_mask: int) -> int:
    """Largest span count that fits ``seq_len`` with unit gaps between spans."""
    return (seq_len + 1) // (l_mask + 1)


@dataclass(frozen=True)
class MaskedLatent:
    """A latent sequence together with its hidden-frame mask."""

    latent: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        latent = as_latent(self.latent)
        mask = np.asarray(self.mask, dtype=bool)
        if mask.shape != (latent.shape[0],):
            raise InvalidValue(f"mask shape {mask.shape} does not match {latent.shape[0]} frames")
        object.__setattr__(self, "latent", latent)
        object.__setattr__(self, "mask", mask)

    @property
    def n_frames(self) -> int:
        return self.latent.shape[0]

    def condition_view(self) -> np.ndarray:
        """Latents with hidden frames zeroed; what the model may see."""
        view = self.latent.copy()
        view[self.mask] = 0.0
        return view


def _uniform_gaps(
    free: int, n_spans: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform gap sizes around ``n_spans`` spans with ``free`` spare frames.

    Interior gaps get one mandatory frame so spans never touch; the
    remaining slack is a uniformly chosen weak composition into
    ``n_spans + 1`` parts (stars and bars via a sorted random subset).
    """
    slack = free - (n_spans - 1)
    parts = n_spans + 1
    if slack == 0:
        extras = np.zeros(parts, dtype=np.int64)
    else:
        bars = np.sort(rng.choice(slack + parts - 1, size=parts - 1, replace=False))
        edges = np.concatenate(([-1], bars, [slack + parts - 1]))
        extras = np.diff(edges) - 1
    gaps = extras
    gaps[1:-1] += 1
    return gaps


def make_mask(
    seq_len: int, spec: MaskSpec, rng: np.random.Generator
) -> tuple[np.ndarray, bool]:
    """Draw a mask for a sequence of ``seq_len`` frames.

    With probability ``spec.p_cond`` the result is a partial mask with
    exactly ``spec.n_mask`` spans, each at least ``spec.l_mask`` frames
    long (lengths are l_mask plus a geometric extra, truncated to fit),
    separated by at least one visible frame and placed uniformly among
    the valid arrangements. Otherwise every frame is hidden.

    Returns:
        (mask, fully_masked): the boolean mask and a flag marking the
        fully hidden branch (the unconditional training path). A partial
        mask that happens to cover everything still reports False.

    Raises:
        InvalidValue: when the spans cannot fit the sequence.
    """
    seq_len = int(seq_len)
    if seq_len < 1:
        raise InvalidValue(f"seq_len must be >= 1, got {seq_len!r}")
    if spec.min_frames() > seq_len:
        raise InvalidValue(
            f"{spec.n_mask} spans of length >= {spec.l_mask} need at least "
            f"{spec.min_frames()} frames, sequence has {seq_len}"
        )
    if rng.random() >= spec.p_cond:
        return np.ones(seq_len, dtype=bool), True

    # Span lengths: minimum plus geometric extras, truncated so every
    # span and every interior gap still fits.
    budget = seq_len - spec.min_frames()
    lengths = np.full(spec.n_mask, spec.l_mask, dtype=np.int64)
    for i in range(spec.n_mask):
        extra = int(rng.geometric(SPAN_EXTRA_P)) - 1
        take = min(extra, budget)
        lengths[i] += take
        budget -= take

    free = seq_len - int(lengths.sum())
    gaps = _uniform_gaps(free, spec.n_mask, rng)

    mask = np.zeros(seq_len, dtype=bool)
    cursor = 0
    for gap, length in zip(gaps[:-1], lengths):
        cursor += int(gap)
        mask[cursor : cursor + int(length)] = True
        cursor += int(length)
    return mask, False


def random_mask_spec(
    base: MaskSpec,
    seq_len: int,
    rng: np.random.Generator,
    span_choices: tuple[int, ...] = (1, 2, 3),
) -> MaskSpec:
    """Vary the span count of a spec uniformly over feasible choices.

    The source recipe leaves the span-count law open, so the training
    default draws it uniformly from {1, 2, 3}, clipped to what fits the
    sequence. The result keeps the base spec's p_cond and l_mask.
    """
    feasible = [n for n in span_choices if n >= 1 and n <= max_spans(seq_len, base.l_mask)]
    if not feasible:
        raise InvalidValue(
            f"no span count from {span_choices!r} fits {seq_len} frames "
            f"with l_mask={base.l_mask}"
        )
    n = feasible[int(rng.integers(0, len(feasible)))]
    return MaskSpec(p_cond=base.p_cond, n_mask=n, l_mask=base.l_mask)
