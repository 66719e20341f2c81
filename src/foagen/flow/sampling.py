"""Classifier-free guidance and first-order ODE sampling.

Sampling integrates the learned velocity field from noise at t = 0 to
data at t = 1 with fixed-step Euler updates. Guidance blends two model
evaluations: one with the condition channels populated and one with
``cond=None``, the model's unconditional branch whose channels read zero,
which is exactly what fully masked training draws taught the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidValue, ShapeMismatch
from .masking import MaskedLatent
from .network import VelocityModel, build_condition


@dataclass(frozen=True)
class CfgSpec:
    """Guidance strength; 1 reproduces the conditional field."""

    scale: float = 1.0

    def __post_init__(self):
        scale = float(self.scale)
        if not np.isfinite(scale):
            raise InvalidValue("guidance scale must be finite")
        object.__setattr__(self, "scale", scale)


def cfg_velocity(v_cond: np.ndarray, v_uncond: np.ndarray, cfg: CfgSpec) -> np.ndarray:
    """Guided velocity v_uncond + scale * (v_cond - v_uncond).

    Scales 1 and 0 short-circuit to the conditional and unconditional
    fields so those endpoints are bit-exact rather than reconstructed
    through float arithmetic.
    """
    v_cond = np.asarray(v_cond, dtype=np.float64)
    v_uncond = np.asarray(v_uncond, dtype=np.float64)
    if v_cond.shape != v_uncond.shape:
        raise ShapeMismatch(
            f"velocity shapes differ: {v_cond.shape} vs {v_uncond.shape}"
        )
    if cfg.scale == 1.0:
        return v_cond.copy()
    if cfg.scale == 0.0:
        return v_uncond.copy()
    return v_uncond + cfg.scale * (v_cond - v_uncond)


def euler_sample(
    model: VelocityModel,
    steps: int,
    cfg: CfgSpec = CfgSpec(),
    masked_cond: MaskedLatent | None = None,
    local: np.ndarray | None = None,
    global_cond: np.ndarray | None = None,
    frames: int | None = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Integrate the velocity field with ``steps`` Euler updates.

    The state starts from standard normal noise drawn with ``rng``, of
    ``frames`` rows or, when unset, the masked condition's frame count.
    Updates are x += (1/steps) * v evaluated at t = k/steps for
    k = 0 .. steps-1. The condition channels come from
    :func:`build_condition` over the masked latent's view; external
    features without a masked condition get an all-zero view (an
    entirely hidden latent). With no condition at all, and for the
    unguided half of every guided step, the model is called with
    ``cond=None``, its unconditional branch; with no condition, guidance
    has nothing to blend, so each step makes one call at any scale.

    Returns the final (frames, latent_dim) state. ``frames`` below 1 and
    a ``local`` or ``global_cond`` holding a NaN or infinity raise
    InvalidValue, before any noise is drawn.
    """
    steps = int(steps)
    if steps < 1:
        raise InvalidValue(f"steps must be >= 1, got {steps!r}")
    for name, features in (("local", local), ("global_cond", global_cond)):
        if features is not None and not np.isfinite(np.asarray(features, np.float64)).all():
            raise InvalidValue(f"{name} contains non-finite values")
    if frames is None:
        if masked_cond is None:
            raise InvalidValue("frames is required without a condition")
        frames = masked_cond.n_frames
    n_frames = int(frames)
    if n_frames < 1:
        raise InvalidValue(f"frames must be at least 1, got {n_frames}")

    if masked_cond is not None and masked_cond.n_frames != n_frames:
        raise ShapeMismatch(
            f"condition covers {masked_cond.n_frames} frames, state has {n_frames}"
        )
    cond_matrix = None
    if masked_cond is not None or local is not None or global_cond is not None:
        # External features without an infill condition see a fully hidden
        # latent, whose view is all zero.
        if masked_cond is None:
            view = np.zeros((n_frames, model.latent_dim))
        else:
            view = masked_cond.condition_view()
        cond_matrix = build_condition(view, local, global_cond)

    x = rng.standard_normal((n_frames, model.latent_dim))
    step_size = 1.0 / steps
    # With no condition both halves of a guided step would be the same
    # forward(t, None, x), and v + s * (v - v) = v for finite v.
    needs_uncond = cfg.scale != 1.0 and cond_matrix is not None
    for k in range(steps):
        t = k / steps
        v_cond = model.forward(t, cond_matrix, x)
        if needs_uncond:
            v_uncond = model.forward(t, None, x)
            v = cfg_velocity(v_cond, v_uncond, cfg)
        else:
            v = v_cond
        x = x + step_size * v
    return x
