"""Conditional flow-matching objective and a plain-SGD training loop.

Each step draws fresh noise, a path time, and a mask per sample; the loss
is the mean squared error between the predicted velocity and the
displacement x1 - x0, taken over hidden frames during masked pretraining
or over all frames during conditional fine-tuning, and averaged over the
batch.

:func:`train` checks and converts the whole dataset once, before the
first step: every item's float64 latent, its shape and finiteness, the
kind and width of its external condition, that a global condition is
finite, and that local features are finite and no longer than their
latent, so a bad item fails the run even if no batch would ever draw
it. A step then draws its randomness in whole arrays, in this order,
which fixes the RNG stream:

1. ``integers(B)``: the batch's item indices;
2. ``standard_normal((rows, dims))``: the noise of every frame of the batch;
3. ``sample_time(sampler, rng, B)``: one path time per draw;
4. ``random(B)``: condition dropout, only when the items carry an
   external condition and ``cond_dropout > 0``;
5. per draw, ``random_mask_spec`` (when ``span_choices`` is set) and
   ``make_mask``, only when ``mask_spec`` is set.

The velocity model acts on every frame independently and the objective
is an expectation per sample, so a step is scored as a frame table rather
than one forward and backward pass per draw: the draws' rows are stacked,
and each row carries its own path time, its condition channels, and a
loss weight of 1 / (batch_size * covered terms of its draw). Only the
frames the loss covers become rows: during masked pretraining
(``masked_frames_only`` with a ``mask_spec``) a draw's hidden frames,
otherwise all its frames. A visible frame would add exact zeros to the
loss and to every gradient, yet cost a full forward and backward pass.
Scoring the table gives the same loss and gradients as the per-draw sum,
up to the order of float summation.

Each table is scored by one call of :func:`cfm_loss`, the one loss
path, which checks only that the shapes agree. The values need no second
check: the dataset check and the step's own draws already give finite
float64 rows, times in [0, 1] and a positive weight on every row.

A table holds at most ``_TABLE_ROWS`` rows. Draws are packed into tables
greedily by their covered row counts, a draw that covers more rows than
the cap forms a table of its own, and the tables' gradients are summed in
place before the single SGD update. The cap bounds peak memory: the
activations kept for the backward pass grow with the table, and without
the cap one table of 16 draws of 256 frames (hidden widths 128, 128)
raised the peak resident memory of a training and sampling run from about
52 MB to 82 MB. Short draws, such as the one frame per sample of the
mixture fixture, still share a table. A step whose covered rows fit one
table skips the packing.

Sequences, latents and local features alike, stay one array per item and
are gathered per table, because stacking them up front would hold a
second copy of the data: a stacked copy of the ``infill`` benchmark's
256-frame sequences raised its peak resident memory from about 52 MB to
55 MB. A dataset whose every item is one frame, such as the mixture
fixture or ``fm-train --data``'s matrix rows, is held as one
(items, 1, dims) array instead, its local features likewise, so
``x1s[i]`` is still item i. In a table of one-frame draws the rows are
the draws: the latents and condition rows are gathered with one index,
and the times, weights, noise rows and dropout flags are used as drawn,
with no per-frame repeat. A table's sequence latents, noise and local
features (upsampled to each draw's full length) are gathered over its
draws' full lengths and then cut to the covered rows, so these inputs may
briefly hold more rows than the cap; the activations never do.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ..conditioning import upsample_features
from ..errors import DivergenceDetected, InvalidValue, ShapeMismatch
from .masking import MaskSpec, make_mask, random_mask_spec
from .network import VelocityModel, build_condition
from .path import TimeSampler, _point_and_target, sample_time

# Most rows one frame table may hold; see the module docstring.
_TABLE_ROWS = 256
# Fewest values _check_dataset joins into one finiteness check.
_FINITE_BLOCK = 1 << 15


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
    squared velocity error. :func:`train` stacks the covered rows of a
    step's draws and also divides by the batch size, so scoring its table
    yields their batch loss.

    Only shapes are checked, so that none broadcasts silently; values are
    the caller's to keep finite, with times in [0, 1].

    Raises:
        ShapeMismatch: when x0 and x1 disagree in shape, or ``t`` or
            ``weights`` does not hold one value per row.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise ShapeMismatch(f"x0 and x1 shapes differ: {x0.shape} vs {x1.shape}")
    rows = x0.shape[0]
    times = np.asarray(t, dtype=np.float64)
    if times.ndim and times.shape != (rows,):
        raise ShapeMismatch(
            f"t must be a scalar or one value per row ({rows},), got shape {times.shape}"
        )
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows,):
        raise ShapeMismatch(
            f"weights must hold one value per row ({rows},), got {weights.shape}"
        )
    xt, target = _point_and_target(x0, x1, times.reshape(-1, 1))
    predicted, cache = model.forward_cached(t, cond, xt)
    residual = np.subtract(predicted, target, out=target)
    loss = float(weights @ (residual**2).sum(axis=1))
    residual *= (2.0 * weights)[:, None]
    return loss, model.backward(cache, residual)


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
    ``lr_tail`` is the share of the steps, at the end of the run, over
    which the learning rate decays linearly towards 0 (see :meth:`rate`);
    0 keeps it constant. Averaging out the last iterates' SGD noise this
    way is what lets the mixture recipe hit its targets with margin.
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
    lr_tail: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidValue(
                f"learning_rate must be positive and finite, got {self.learning_rate!r}"
            )
        if self.batch_size < 1 or self.steps < 1:
            raise InvalidValue("batch_size and steps must be >= 1")
        if not 0.0 <= self.cond_dropout <= 1.0:
            raise InvalidValue("cond_dropout must lie in [0, 1]")
        if not 0.0 <= self.lr_tail <= 1.0:
            raise InvalidValue("lr_tail must lie in [0, 1]")

    def rate(self, step: int) -> float:
        """Learning rate of ``step`` (0-based).

        Constant until the last ``lr_tail * steps`` steps, then
        ``learning_rate * remaining / (lr_tail * steps)`` with ``remaining``
        = steps - step, which falls linearly and stays positive.
        """
        tail = self.lr_tail * self.steps
        remaining = self.steps - step
        if remaining >= tail:
            return self.learning_rate
        return self.learning_rate * remaining / tail


def _check_dataset(dataset, latent_dim: int):
    """Check and convert every item once; see the module docstring.

    Returns (x1s, frames, kind, conds): the float64 latents, their frame
    counts, the external condition kind ("none", "global" or "local"),
    and the conditions: None, the global vectors stacked as
    (items, channels), or a list of float64 (rows, channels) local features.
    When every item is one frame, the latents and local features are one
    (items, 1, width) array each instead of a list.

    Raises:
        ShapeMismatch: when a latent is not (frames, latent_dim), local
            features are not 2-D, or items carry different external conditions.
        InvalidValue: when the dataset is empty, a latent or local features
            are empty or not finite, a global condition is not finite, or
            local features have more rows than their latent.
    """
    if len(dataset) == 0:
        raise InvalidValue("dataset must be non-empty")
    x1s, conds, frames = [], [], []
    layout = None
    for x1, external in dataset:
        x1 = np.asarray(x1, dtype=np.float64)
        if x1.ndim != 2 or x1.shape[0] == 0 or x1.shape[1] != latent_dim:
            raise ShapeMismatch(
                f"x1 must be a non-empty (frames, {latent_dim}) latent, got shape {x1.shape}"
            )
        if external is None:
            item_layout = ("none",)
        else:
            external = np.asarray(external, dtype=np.float64)
            if external.ndim == 1:
                item_layout = ("global", external.size)
            elif external.ndim == 2:
                item_layout = ("local", external.shape[1])
            else:
                raise ShapeMismatch("local features must be 2-D (frames, channels)")
        if layout is None:
            layout = item_layout
        elif item_layout != layout:
            raise ShapeMismatch(
                "dataset items carry different external conditions: "
                f"{layout} and {item_layout}"
            )
        if item_layout[0] == "local":
            upsample_features(external, x1.shape[0])  # raises what a draw would
        x1s.append(x1)
        conds.append(external)
        frames.append(x1.shape[0])
    items = len(x1s)
    one_frame = sum(frames) == items
    if one_frame:
        x1s = np.concatenate(x1s).reshape(items, 1, latent_dim)
    if not (np.isfinite(x1s).all() if one_frame else _all_finite(x1s)):
        raise InvalidValue("x1 contains non-finite values")
    kind = layout[0]
    if kind == "none":
        conds = None
    elif kind == "global":
        conds = np.concatenate(conds).reshape(items, layout[1])
        if not np.isfinite(conds).all():
            raise InvalidValue("global condition contains non-finite values")
    elif one_frame:
        conds = np.concatenate(conds).reshape(items, 1, layout[1])
    return x1s, np.array(frames), kind, conds


def _all_finite(arrays: list[np.ndarray]) -> bool:
    """Whether every value of the equally wide 2-D ``arrays`` is finite.

    Consecutive arrays are joined into blocks of at least
    ``_FINITE_BLOCK`` values, so many short latents cost one check per
    block rather than one per latent, and the copy stays small.
    """
    first = size = 0
    for i, arr in enumerate(arrays):
        size += arr.size
        if size >= _FINITE_BLOCK or i == len(arrays) - 1:
            block = arr if i == first else np.concatenate(arrays[first : i + 1])
            if not np.isfinite(block).all():
                return False
            first, size = i + 1, 0
    return True


def _table_bounds(counts: list[int]):
    """(first, stop) draw ranges of a step's tables, packed greedily under _TABLE_ROWS."""
    first = rows = 0
    for i, n in enumerate(counts):
        if rows and rows + n > _TABLE_ROWS:
            yield first, i
            first, rows = i, 0
        rows += n
    yield first, len(counts)


def _per_row(values: np.ndarray, counts: np.ndarray | None) -> np.ndarray:
    """Each draw's ``values`` once per frame of the draw; ``counts`` None
    means one-frame draws, whose values are their rows already."""
    return values if counts is None else values.repeat(counts, axis=0)


def _draw_masks(sizes: list[int], config: TrainConfig, rng) -> list[np.ndarray]:
    """Each draw's span count (when ``span_choices`` is set) and mask, in draw order."""
    masks = []
    for n in sizes:
        spec = config.mask_spec
        if config.span_choices is not None:
            spec = random_mask_spec(spec, n, rng, config.span_choices)
        masks.append(make_mask(n, spec, rng)[0])
    return masks


# Overflow is reported as DivergenceDetected, not as numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def train(
    model: VelocityModel,
    dataset,
    config: TrainConfig,
) -> list[float]:
    """Train in place; returns the per-step batch loss trace.

    ``dataset`` is a sequence of (x1, cond) pairs where x1 is a
    (frames, dims) latent and cond is an external condition: None, a
    vector applied globally, or a (frames, channels) matrix of local
    features. Every item must carry the same kind and width of external
    condition. The dataset is checked once, for every item, before the
    first step; each step then draws its randomness in whole arrays, in
    the order the module docstring lists. Identical seeds give
    bit-identical traces.

    Raises:
        DivergenceDetected: as soon as a batch loss is non-finite, or when
            the last step leaves a weight non-finite. Only the rows the loss
            covers are evaluated, so a non-finite velocity on a visible
            frame of masked pretraining does not raise it.
        ShapeMismatch: when a latent is not (frames, model.latent_dim),
            or the items carry different external conditions.
        InvalidValue: when the dataset is empty, a latent or local features
            are empty or not finite, a global condition is not finite, or
            local features have more rows than their latent.
    """
    x1s, frames, kind, conds = _check_dataset(dataset, model.latent_dim)
    dims = model.latent_dim
    batch = config.batch_size
    dropout = kind != "none" and config.cond_dropout > 0.0
    # One-frame items come stacked: a draw is one row, so per-draw arrays
    # are already per-row arrays and a gather by index replaces the joins.
    one_frame = isinstance(x1s, np.ndarray)
    if one_frame:
        x1s = x1s.reshape(len(x1s), dims)
        if kind == "local":
            conds = conds.reshape(len(conds), -1)
    covered_only = config.mask_spec is not None and config.masked_frames_only
    # Loss weights of draws that the loss covers whole: 1 / (batch * terms).
    item_scales = 1.0 / (frames * (batch * dims))
    rng = np.random.default_rng(config.seed)
    trace: list[float] = []
    for step in range(config.steps):
        indices = rng.integers(0, len(x1s), size=batch)
        counts = frames[indices]
        if one_frame:
            noise = rng.standard_normal((batch, dims))
        else:
            picks, sizes = indices.tolist(), counts.tolist()
            offsets = [0, *itertools.accumulate(sizes)]
            noise = rng.standard_normal((offsets[-1], dims))
        times = sample_time(config.time_sampler, rng, batch)
        dropped = rng.random(batch) < config.cond_dropout if dropout else None
        masks = None if config.mask_spec is None else _draw_masks(counts.tolist(), config, rng)

        if covered_only:
            selected = np.array([np.count_nonzero(mask) for mask in masks])
            scales = 1.0 / (selected * (batch * dims))
            covered = selected.sum()
        else:
            selected, scales, covered = counts, item_scales[indices], len(noise)
        tables = [(0, batch)]
        if covered > _TABLE_ROWS:
            tables = _table_bounds(selected.tolist())

        batch_loss = 0.0
        batch_grads = None
        for first, stop in tables:
            draws = slice(first, stop)
            # Frames per draw, or None where every draw is one row.
            n = None if one_frame else counts[draws]
            # The table's rows that the loss covers: its hidden frames, or all of them.
            keep = np.concatenate(masks[draws]) if covered_only else slice(None)
            if one_frame:
                x1 = x1s[indices[draws]]
                x0 = noise[draws]
            else:
                x1 = np.concatenate([x1s[i] for i in picks[draws]])
                x0 = noise[offsets[first] : offsets[stop]]
            x1 = x1[keep]
            if masks is None or covered_only:
                view = np.zeros(x1.shape)
            else:
                view = np.where(np.concatenate(masks[draws])[:, None], 0.0, x1)
            # Per-row external channels at full frame rate: a global vector,
            # or one-frame features, repeated over its item's frames, or
            # upsampled features.
            rows = None
            if kind == "global" or (kind == "local" and one_frame):
                rows = _per_row(conds[indices[draws]], n)
            elif kind == "local":
                rows = np.concatenate([
                    conds[i] if conds[i].shape[0] == f else upsample_features(conds[i], f)
                    for i, f in zip(picks[draws], sizes[draws])
                ])
            if rows is not None:
                if dropped is not None:
                    rows[_per_row(dropped[draws], n)] = 0.0
                rows = rows[keep]
            cond = build_condition(view, rows)
            loss, grads = cfm_loss(
                model,
                x0[keep],
                x1,
                _per_row(times[draws], n)[keep],
                cond,
                _per_row(scales[draws], n)[keep],
            )
            batch_loss += loss
            if batch_grads is None:
                batch_grads = grads
            else:
                for (total_w, total_b), (dw, db) in zip(batch_grads, grads):
                    total_w += dw
                    total_b += db
        if not math.isfinite(batch_loss):
            raise DivergenceDetected(
                f"non-finite loss {batch_loss!r} at step {step}"
            )
        model.apply_gradients(batch_grads, config.rate(step))
        trace.append(batch_loss)
    # A non-finite weight makes the next loss non-finite; the last step has none.
    if not all(np.isfinite(w).all() for w in (*model.weights, *model.biases)):
        raise DivergenceDetected(f"non-finite weights after step {config.steps - 1}")
    return trace
