"""Conditional flow-matching objective and a plain-SGD training loop.

Each step draws fresh noise, a path time, and a mask per sample; the loss
is the mean squared error between the predicted velocity and the
displacement x1 - x0, taken over hidden frames during masked pretraining
or over all frames during conditional fine-tuning, and averaged over the
batch.

The velocity model acts on every frame independently and the objective
is an expectation per sample, so a step is scored as a frame table rather
than one forward and backward pass per draw: the draws are stacked
row-wise, and each row carries its own path time, its condition channels,
and a loss weight of 1 / (batch_size * selected terms of its draw), zero
on frames the loss leaves out. One :func:`cfm_loss` call over the table
gives the same loss and gradients as the per-draw sum, up to the order of
float summation.

A table holds at most ``_TABLE_ROWS`` rows. Draws are packed into tables
greedily, a draw longer than the cap forms a table of its own, and the
tables' gradients are summed in place before the single SGD update. The
cap bounds peak memory: the activations kept for the backward pass grow
with the table, and without the cap one table of 16 draws of 256 frames
(hidden widths 128, 128) raised the peak resident memory of a training
and sampling run from about 52 MB to 82 MB. Short draws, such as the one
frame per sample of the mixture fixture, still share a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..conditioning import upsample_features
from ..errors import DivergenceDetected, NoMaskedFrames, ShapeMismatch
from .masking import MaskSpec, MaskedLatent, make_mask, random_mask_spec
from .network import VelocityModel, build_condition
from .path import TimeSampler, as_latent, interpolate, sample_time, velocity_target

# Most rows one frame table may hold; see the module docstring.
_TABLE_ROWS = 256


def cfm_loss(
    model: VelocityModel,
    x0,
    x1,
    t,
    cond: np.ndarray | None,
    weights,
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Weighted flow-matching loss and exact parameter gradients over one frame table.

    Row i is fed to the model as the path point t_i*x1_i + (1-t_i)*x0_i
    with condition channels ``cond[i]``, and the loss is
    sum_i weights_i * |v_i - (x1_i - x0_i)|^2. ``t`` is a scalar or one
    time per row. Weights of 1 / (selected frames * dims) on the selected
    frames of one sequence, zero elsewhere, give that sequence's mean
    squared velocity error; :func:`train` stacks a step's draws and also
    divides by the batch size, so one call yields their batch loss.

    Raises:
        NoMaskedFrames: when no weight is positive.
        ShapeMismatch: when x0 and x1 disagree in shape, or ``t`` or
            ``weights`` does not hold one value per row.
    """
    xt = interpolate(x0, x1, t)
    target = velocity_target(x0, x1)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (xt.shape[0],):
        raise ShapeMismatch(
            f"weights must hold one value per row ({xt.shape[0]},), got {weights.shape}"
        )
    if not bool((weights > 0.0).any()):
        raise NoMaskedFrames("loss weights select no frames; nothing to train on")
    predicted, cache = model.forward_cached(t, cond, xt)
    residual = predicted - target
    loss = float(weights @ np.sum(residual**2, axis=1))
    grads = model.backward(cache, (2.0 * weights)[:, None] * residual)
    return loss, grads


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for the SGD loop.

    ``mask_spec`` set to None means every draw uses a fully hidden mask
    (the unconditional path). ``masked_frames_only`` selects which frames
    the loss covers when a partial mask is drawn; fine-tuning sets it to
    False so the loss covers the whole sequence. ``span_choices`` varies
    the span count per draw when set; None keeps the mask spec's count fixed.
    ``cond_dropout`` is the probability of zeroing the external condition
    for a draw, which trains the guidance-ready unconditional branch.
    """

    learning_rate: float = 0.05
    batch_size: int = 16
    steps: int = 1000
    seed: int = 0
    time_sampler: TimeSampler = field(default_factory=TimeSampler)
    mask_spec: MaskSpec | None = None
    masked_frames_only: bool = True
    span_choices: tuple[int, ...] | None = None
    cond_dropout: float = 0.0
    fuse_local_features: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1 or self.steps < 1:
            raise ValueError("batch_size and steps must be >= 1")
        if not 0.0 <= self.cond_dropout <= 1.0:
            raise ValueError("cond_dropout must lie in [0, 1]")


class _Draw(NamedTuple):
    """One sample of a step, ready to be stacked into a frame table."""

    x1: np.ndarray
    x0: np.ndarray
    t: float
    mask: np.ndarray | None  # None: no mask spec, every frame hidden
    scale: float  # loss weight of each selected frame
    local: np.ndarray | None  # (frames, channels), already stretched to the latent
    global_cond: np.ndarray | None


def _draw(x1, external, latent_dim: int, config: TrainConfig, rng) -> _Draw:
    """Make one sample's random draws: noise, time, span count, mask, dropout.

    The order of the draws fixes the RNG stream, so it must not change.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    if x1.ndim != 2 or x1.shape[0] == 0 or x1.shape[1] != latent_dim:
        raise ShapeMismatch(
            f"x1 must be a non-empty (frames, {latent_dim}) latent, got shape {x1.shape}"
        )
    frames = x1.shape[0]
    x0 = rng.standard_normal(x1.shape)
    t = sample_time(config.time_sampler, rng)
    mask = None
    selected = frames
    if config.mask_spec is not None:
        spec = config.mask_spec
        if config.span_choices is not None:
            spec = random_mask_spec(spec, frames, rng, config.span_choices)
        mask, _ = make_mask(frames, spec, rng)
        if config.masked_frames_only:
            selected = int(np.count_nonzero(mask))
            if selected == 0:
                raise NoMaskedFrames("mask hides no frames; nothing to train on")
    local = global_cond = None
    if external is not None:
        arr = np.asarray(external, dtype=np.float64)
        if config.cond_dropout > 0.0 and rng.random() < config.cond_dropout:
            arr = np.zeros_like(arr)
        if arr.ndim == 1:
            global_cond = arr
        elif arr.ndim == 2:
            local = arr if arr.shape[0] == frames else upsample_features(arr, frames)
        else:
            raise ShapeMismatch("local features must be 2-D (frames, channels)")
    scale = 1.0 / (config.batch_size * selected * latent_dim)
    return _Draw(x1, x0, t, mask, scale, local, global_cond)


def _layout(draw: _Draw) -> tuple:
    """The external-condition kind and width a draw adds to its condition channels."""
    if draw.local is not None:
        return ("local", draw.local.shape[1])
    if draw.global_cond is not None:
        return ("global", draw.global_cond.size)
    return ("none",)


def _tables(draws):
    """Pack a batch's draws greedily into tables of at most _TABLE_ROWS rows.

    Draws are consumed one at a time, so only one table's draws are held.

    Raises:
        ShapeMismatch: when the draws carry different external conditions,
            whose condition channels could not be stacked.
    """
    table: list[_Draw] = []
    rows = 0
    layout = None
    for draw in draws:
        if layout is None:
            layout = _layout(draw)
        elif _layout(draw) != layout:
            raise ShapeMismatch(
                "draws of one batch carry different external conditions: "
                f"{layout} and {_layout(draw)}"
            )
        frames = draw.x1.shape[0]
        if table and rows + frames > _TABLE_ROWS:
            yield table
            table, rows = [], 0
        table.append(draw)
        rows += frames
    yield table


def _table_loss(model: VelocityModel, table: list[_Draw], config: TrainConfig):
    """Stack one table's draws row-wise and score them with a single cfm_loss call."""
    x1s, x0s, ts, masks, scales, locals_, globals_ = zip(*table)
    frames = [x.shape[0] for x in x1s]
    x1 = as_latent(np.concatenate(x1s), "x1")
    if masks[0] is None:
        mask = np.ones(x1.shape[0], dtype=bool)
    else:
        mask = np.concatenate(masks)
    selected = mask if config.masked_frames_only else 1.0
    local = None if locals_[0] is None else np.concatenate(locals_)
    global_cond = None if globals_[0] is None else np.repeat(np.stack(globals_), frames, axis=0)
    cond = build_condition(
        MaskedLatent(x1, mask), local, global_cond, config.fuse_local_features
    )
    weights = np.repeat(scales, frames) * selected
    return cfm_loss(model, np.concatenate(x0s), x1, np.repeat(ts, frames), cond, weights)


def train(
    model: VelocityModel,
    dataset,
    config: TrainConfig,
) -> list[float]:
    """Train in place; returns the per-step batch loss trace.

    ``dataset`` is a sequence of (x1, cond) pairs where x1 is a
    (frames, dims) latent and cond is an external condition: None, a
    vector applied globally, or a (frames, channels) matrix of local
    features. Every draw of a batch must carry the same kind and width
    of external condition. Identical seeds give bit-identical traces.

    Raises:
        DivergenceDetected: as soon as a batch loss is non-finite.
        ShapeMismatch: when a latent is not (frames, model.latent_dim),
            or the draws of a batch carry different external conditions.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    for step in range(config.steps):
        indices = rng.integers(0, len(dataset), size=config.batch_size)
        draws = (_draw(*dataset[int(i)], model.latent_dim, config, rng) for i in indices)
        batch_loss = 0.0
        batch_grads = None
        for table in _tables(draws):
            loss, grads = _table_loss(model, table, config)
            batch_loss += loss
            if batch_grads is None:
                batch_grads = grads
            else:
                for (total_w, total_b), (dw, db) in zip(batch_grads, grads):
                    total_w += dw
                    total_b += db
        if not np.isfinite(batch_loss):
            raise DivergenceDetected(
                f"non-finite loss {batch_loss!r} at step {step}"
            )
        model.apply_gradients(batch_grads, config.learning_rate)
        trace.append(batch_loss)
    return trace
