"""Per-frame velocity network with exact hand-rolled gradients.

The model is a small tanh MLP applied independently to every frame. Its
input table holds, per row, the current path point, the condition
channels, and the raw scalar time, so the first layer owns any projection
from condition width to hidden width. Because frames never interact, rows
from different sequences can share one pass when each row carries its own
time value. Gradients are accumulated by exact reverse-mode
differentiation; no framework is involved, which keeps the arithmetic
reproducible and easy to check against finite differences.

Adding a (fan_out,) bias to every row makes numpy run one fan_out-long
loop per row, which at sampling's small widths costs more than the add
itself. So :meth:`VelocityModel.forward`, which sampling calls with the
same row count at every step, adds each bias from a row-tiled copy that
the model keeps and reuses until the row count or a bias's bytes change.
Each element gets the same addition, so the outputs are the same bits.
Training changes the biases every step, so
:meth:`VelocityModel.forward_cached` adds them by broadcasting.

Checkpoints are the ``.fgvm`` container laid out in :mod:`foagen.container`.
The latent width is the last layer width and the condition width is
recoverable as widths[0] - widths[-1] - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import container
from ..errors import CorruptHeader, InvalidValue, ShapeMismatch
from ..conditioning import upsample_features

CHECKPOINT_MAGIC = b"FGVM0001"

# Values per row-tiled bias, at most; a larger input gets its bias in row
# blocks. A tile then holds 16384 float64 values, 128 KiB, like
# panorama's _BLOCK_PIXELS, whatever the row count.
_TILE_VALUES = 1 << 14


@dataclass
class VelocityModel:
    """Tanh MLP mapping (time, condition, path point) to a velocity.

    Attributes:
        latent_dim: width of the per-frame latent (output width).
        cond_dim: width of the condition channels (0 for none).
        weights: per-layer (fan_in, fan_out) matrices.
        biases: per-layer (fan_out,) vectors.
    """

    latent_dim: int
    cond_dim: int
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    # (key, tiles) of the last forward, swapped in whole so concurrent
    # callers each read one consistent pair. Not a field: equality and
    # repr ignore it.
    _bias_tiles = None

    def __post_init__(self):
        if self.latent_dim < 1 or self.cond_dim < 0:
            raise InvalidValue("latent_dim must be >= 1 and cond_dim >= 0")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidValue("weights and biases must be non-empty and parallel")
        expected_in = self.latent_dim + self.cond_dim + 1
        if self.weights[0].shape[0] != expected_in:
            raise InvalidValue(
                f"first layer expects fan-in {expected_in}, "
                f"got {self.weights[0].shape[0]}"
            )
        if self.weights[-1].shape[1] != self.latent_dim:
            raise InvalidValue("last layer must emit latent_dim outputs")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise InvalidValue(f"layer {i} weight/bias shapes inconsistent")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise InvalidValue(f"layer {i} fan-in does not chain")

    @classmethod
    def initialize(
        cls,
        latent_dim: int,
        cond_dim: int,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
    ) -> "VelocityModel":
        """Random init with 1/sqrt(fan_in) scaling; at least one hidden layer."""
        if not hidden:
            raise InvalidValue("at least one hidden layer is required")
        if min(hidden) < 1:
            raise InvalidValue(f"hidden widths must be at least 1, got {min(hidden)}")
        widths = [latent_dim + cond_dim + 1, *hidden, latent_dim]
        if max(a * b for a, b in zip(widths, widths[1:])) > np.iinfo(np.intp).max // 8:
            raise InvalidValue(f"hidden widths {hidden} give a weight matrix numpy cannot address")
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(latent_dim, cond_dim, weights, biases)

    @property
    def widths(self) -> list[int]:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def _assemble_input(self, t, cond: np.ndarray | None, x: np.ndarray) -> np.ndarray:
        """The (frames, latent_dim + cond_dim + 1) input table: x, then the
        condition channels (zeros when ``cond`` is None), then t, written
        into one fresh array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.latent_dim:
            raise ShapeMismatch(
                f"path point must be (frames, {self.latent_dim}), got {x.shape}"
            )
        frames = x.shape[0]
        if cond is not None:
            cond = np.asarray(cond, dtype=np.float64)
            if cond.shape != (frames, self.cond_dim):
                raise ShapeMismatch(
                    f"condition must be ({frames}, {self.cond_dim}), got {cond.shape}"
                )
        t = np.asarray(t, dtype=np.float64)
        if t.ndim != 0 and t.shape != (frames,):
            raise ShapeMismatch(
                f"t must be a scalar or one value per frame ({frames},), got shape {t.shape}"
            )
        dims = self.latent_dim
        table = np.empty((frames, self.weights[0].shape[0]))
        table[:, :dims] = x
        table[:, dims:-1] = 0.0 if cond is None else cond  # None: the unconditional branch
        table[:, -1] = t
        return table

    def forward(self, t, cond: np.ndarray | None, x: np.ndarray) -> np.ndarray:
        """Velocity for each frame; deterministic in its inputs.

        ``t`` is a scalar time shared by every frame, or a (frames,)
        vector holding each row's own time. ``cond`` None is the
        unconditional branch: every condition channel reads zero, which is
        what fully masked training draws without external features (or with
        them dropped) show the model.

        Repeated calls at one row count reuse row-tiled copies of the
        biases (see :meth:`_tiled_biases`); the output is the same bits as
        :meth:`forward_cached`'s.
        """
        table = self._assemble_input(t, cond, x)
        return self._layers(table, self._tiled_biases(table.shape[0]))[-1]

    def forward_cached(
        self, t, cond: np.ndarray | None, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping layer activations for the backward pass.

        Each layer's output is one fresh array, so ``x`` and ``cond`` are
        only read.
        """
        cache = self._layers(self._assemble_input(t, cond, x), self.biases)
        return cache[-1], cache

    def _layers(self, activation: np.ndarray, biases) -> list[np.ndarray]:
        """The input table followed by each layer's output.

        ``biases`` holds, per layer, its (fan_out,) bias or a row-tiled
        (block, fan_out) copy of it, which is added block by block. The
        bias is added and tanh applied in place on each layer's fresh
        output.
        """
        cache = [activation]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, biases)):
            activation = activation @ w
            if b.ndim == 1 or len(b) == len(activation):
                activation += b
            else:
                for start in range(0, len(activation), len(b)):
                    part = activation[start : start + len(b)]
                    part += b[: len(part)]
            if i != last:
                np.tanh(activation, out=activation)
            cache.append(activation)
        return cache

    def _tiled_biases(self, rows: int) -> tuple[np.ndarray, ...]:
        """Each layer's bias as a read-only (block, fan_out) tile of
        ``block`` = min(rows, _TILE_VALUES // fan_out) copies, or as a
        read-only (fan_out,) copy where that is below 2.

        The tiles are built from the exact bytes of every bias and kept
        until ``rows`` or any of those bytes change, so an in-place update,
        a 0.0 turned -0.0 or a new NaN payload each rebuilds them.
        """
        key = (rows, *[b.tobytes() for b in self.biases])
        held = self._bias_tiles
        if held is None or held[0] != key:
            tiles = []
            for b, data in zip(self.biases, key[1:]):
                bias = np.frombuffer(data, b.dtype)  # read-only
                block = min(rows, _TILE_VALUES // max(1, bias.size))
                if block >= 2:
                    bias = np.tile(bias, (block, 1))
                    bias.flags.writeable = False
                tiles.append(bias)
            held = (key, tuple(tiles))
            self._bias_tiles = held
        return held[1]

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact reverse-mode gradients of a scalar loss wrt all parameters.

        ``grad_out`` is the loss gradient at the network output. Returns
        one (dW, db) pair per layer, in layer order. ``cache`` and
        ``grad_out`` are only read.
        """
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            if i != len(self.weights) - 1:
                # Hidden activations are tanh(pre); cache stores tanh values,
                # so the slope is 1 - tanh**2, formed in one fresh array.
                slope = np.square(cache[i + 1])
                np.subtract(1.0, slope, out=slope)
                slope *= delta
                delta = slope
            grads[i] = (cache[i].T @ delta, delta.sum(axis=0))
            if i > 0:
                delta = delta @ self.weights[i].T
        return grads

    def apply_gradients(self, grads, learning_rate: float) -> None:
        """Plain SGD step, in place."""
        for (dw, db), w, b in zip(grads, self.weights, self.biases):
            w -= learning_rate * dw
            b -= learning_rate * db


def build_condition(
    view: np.ndarray,
    local: np.ndarray | None = None,
    global_cond: np.ndarray | None = None,
) -> np.ndarray:
    """Assemble per-frame condition channels for the velocity model.

    The blocks are concatenated along channels, in this order:

    1. ``view``, the latent with its hidden frames zeroed, such as
       ``MaskedLatent.condition_view()``; a fully hidden latent gives an
       all-zero view.
    2. ``local`` features, stretched to the latent frame count. The
       model's linear first layer projects them and adds the result to
       the projected view, which is the paper's "project, then add".
    3. ``global_cond``, a vector tiled over frames. A stack of several
       sequences, each with its own vector, passes its per-row vectors
       as ``local`` features at full frame rate instead.

    The unconditional branch is not built here: it is
    ``VelocityModel.forward(t, None, x)``, which sees every condition
    channel as zero.
    """
    frames = view.shape[0]
    blocks = []
    if local is not None:
        local = np.asarray(local, dtype=np.float64)
        if local.ndim != 2:
            raise ShapeMismatch("local features must be 2-D (frames, channels)")
        if local.shape[0] != frames:
            local = upsample_features(local, frames)
        blocks.append(local)
    if global_cond is not None:
        vector = np.asarray(global_cond, dtype=np.float64)
        if vector.ndim != 1 or vector.size == 0:
            raise ShapeMismatch(
                f"global condition must be a non-empty vector, got shape {vector.shape}"
            )
        blocks.append(np.tile(vector, (frames, 1)))
    return np.concatenate([view, *blocks], axis=1)


def save_model(model: VelocityModel, path) -> None:
    """Write a checkpoint; see the module docstring for the layout."""
    widths = model.widths
    container.write_bytes(path, *container.encode(
        CHECKPOINT_MAGIC, f"<I{len(widths)}I", [len(widths), *widths],
        (arr for layer in zip(model.weights, model.biases) for arr in layer),
    ))


def load_model(path) -> VelocityModel:
    """Read a checkpoint written by :func:`save_model`.

    Raises:
        CorruptHeader: on bad magic, truncation, or impossible widths.
        IoFailure: the underlying read failed.

    Each message names ``path`` once.
    """
    with container.naming(path):
        reader = container.Reader(container.read_bytes(path), CHECKPOINT_MAGIC)
        (n_widths,) = reader.ints("<I")
        if n_widths < 3:
            raise CorruptHeader("checkpoint must describe at least one hidden layer")
        widths = reader.ints(f"<{n_widths}I")
        latent_dim = widths[-1]
        cond_dim = widths[0] - latent_dim - 1
        if latent_dim < 1 or cond_dim < 0:
            raise CorruptHeader(f"width table {list(widths)!r} is not a valid model")
        weights = []
        biases = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            weights.append(reader.floats((fan_in, fan_out)))
            biases.append(reader.floats((fan_out,)))
        reader.end()
    return VelocityModel(latent_dim, cond_dim, weights, biases)
