"""Per-frame velocity network with exact hand-rolled gradients.

The model is a small tanh MLP applied independently to every frame. Its
input is the concatenation of the current path point, the condition
channels, and the raw scalar time, so the first layer owns any projection
from condition width to hidden width. Because frames never interact, rows
from different sequences can share one pass when each row carries its own
time value. Gradients are accumulated by exact reverse-mode
differentiation; no framework is involved, which keeps the arithmetic
reproducible and easy to check against finite differences.

Checkpoints are the ``.fgvm`` container laid out in :mod:`foagen.container`.
The latent width is the last layer width and the condition width is
recoverable as widths[0] - widths[-1] - 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import container
from ..errors import CorruptHeader, ShapeMismatch
from ..conditioning import fuse_local, upsample_features

CHECKPOINT_MAGIC = b"FGVM0001"


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

    def __post_init__(self):
        if self.latent_dim < 1 or self.cond_dim < 0:
            raise ValueError("latent_dim must be >= 1 and cond_dim >= 0")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must be non-empty and parallel")
        expected_in = self.latent_dim + self.cond_dim + 1
        if self.weights[0].shape[0] != expected_in:
            raise ValueError(
                f"first layer expects fan-in {expected_in}, "
                f"got {self.weights[0].shape[0]}"
            )
        if self.weights[-1].shape[1] != self.latent_dim:
            raise ValueError("last layer must emit latent_dim outputs")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i} weight/bias shapes inconsistent")
            if i > 0 and w.shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"layer {i} fan-in does not chain")

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
            raise ValueError("at least one hidden layer is required")
        if min(hidden) < 1:
            raise ValueError(f"hidden widths must be at least 1, got {min(hidden)}")
        widths = [latent_dim + cond_dim + 1, *hidden, latent_dim]
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
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.latent_dim:
            raise ShapeMismatch(
                f"path point must be (frames, {self.latent_dim}), got {x.shape}"
            )
        frames = x.shape[0]
        if cond is None:  # the unconditional branch
            cond_block = np.zeros((frames, self.cond_dim))
        else:
            cond_block = np.asarray(cond, dtype=np.float64)
            if cond_block.shape != (frames, self.cond_dim):
                raise ShapeMismatch(
                    f"condition must be ({frames}, {self.cond_dim}), "
                    f"got {cond_block.shape}"
                )
        t = np.asarray(t, dtype=np.float64)
        if t.ndim == 0:
            t_column = np.full((frames, 1), float(t))
        elif t.shape == (frames,):
            t_column = t[:, None]
        else:
            raise ShapeMismatch(
                f"t must be a scalar or one value per frame ({frames},), got shape {t.shape}"
            )
        return np.concatenate([x, cond_block, t_column], axis=1)

    def forward(self, t, cond: np.ndarray | None, x: np.ndarray) -> np.ndarray:
        """Velocity for each frame; deterministic in its inputs.

        ``t`` is a scalar time shared by every frame, or a (frames,)
        vector holding each row's own time. ``cond`` None is the
        unconditional branch: every condition channel reads zero, which is
        what fully masked training draws without external features (or with
        them dropped) show the model.
        """
        out, _ = self.forward_cached(t, cond, x)
        return out

    def forward_cached(
        self, t, cond: np.ndarray | None, x: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Forward pass keeping layer activations for the backward pass."""
        activation = self._assemble_input(t, cond, x)
        cache = [activation]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            pre = activation @ w + b
            activation = pre if i == last else np.tanh(pre)
            cache.append(activation)
        return activation, cache

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Exact reverse-mode gradients of a scalar loss wrt all parameters.

        ``grad_out`` is the loss gradient at the network output. Returns
        one (dW, db) pair per layer, in layer order.
        """
        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(self.weights)
        delta = np.asarray(grad_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            inputs = cache[i]
            if i != len(self.weights) - 1:
                # Hidden activations are tanh(pre); cache stores tanh values.
                delta = delta * (1.0 - cache[i + 1] ** 2)
            grads[i] = (inputs.T @ delta, delta.sum(axis=0))
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
    fuse_local_features: bool = False,
) -> np.ndarray:
    """Assemble per-frame condition channels for the velocity model.

    ``view`` is the latent with its hidden frames zeroed, such as
    ``MaskedLatent.condition_view()``, and forms the first block; a
    fully hidden latent gives an all-zero view. Local features are
    stretched to the latent frame count and either fused into the view by
    addition (when widths already match and ``fuse_local_features`` is
    set) or appended as extra channels. The global condition is appended
    last: a vector is tiled over frames, and a (frames, channels) block
    gives each row its own global channels, which is how a stack of
    several sequences carries one vector each.

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
        if fuse_local_features:
            view = fuse_local(local, view)
        else:
            blocks.append(local)
    if global_cond is not None:
        block = np.asarray(global_cond, dtype=np.float64)
        if block.ndim == 1:
            block = np.tile(block, (frames, 1))
        if block.ndim != 2 or block.shape[0] != frames or block.shape[1] == 0:
            raise ShapeMismatch(
                "global condition must be a non-empty vector or a "
                f"({frames}, channels) block, got shape {np.shape(global_cond)}"
            )
        blocks.append(block)
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
    """
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
