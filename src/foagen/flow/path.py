"""Linear interpolation path between noise and data, and time samplers.

The path runs from pure noise at t = 0 to data at t = 1:

    x_t = t * x1 + (1 - t) * x0

so the regression target for the velocity field is the constant
displacement u = x1 - x0 along each path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..conditioning import _as_feature_seq
from ..errors import InvalidValue


def as_latent(x) -> np.ndarray:
    """Validate a (frames, channels) latent sequence and return it as float64."""
    return _as_feature_seq(x, "latent")


def _point_and_target(x0: np.ndarray, x1: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """The path point t*x1 + (1-t)*x0 and the velocity target x1 - x0;
    ``t`` is a float or a column of one or ``rows`` times."""
    return t * x1 + (1.0 - t) * x0, x1 - x0


@dataclass(frozen=True)
class TimeSampler:
    """Law for drawing path times: uniform on [0, 1] or logit-normal.

    The logit-normal law pushes a Normal(mu, sigma) draw through the
    logistic sigmoid, concentrating mass at mid-path times.
    """

    kind: str = "uniform"
    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "logit_normal"):
            raise InvalidValue(f"unknown time sampler kind {self.kind!r}")
        if not math.isfinite(self.mu):
            raise InvalidValue("mu must be finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise InvalidValue("sigma must be positive and finite")


def sample_time(sampler: TimeSampler, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` path times according to the sampler's law, in one call.

    Logit-normal times lie strictly inside (0, 1) for any finite mu and
    sigma: a draw far enough out that the sigmoid rounds to an endpoint,
    or that exp overflows, is clamped to the nearest interior double.
    """
    if sampler.kind == "uniform":
        return rng.random(size)
    z = rng.normal(sampler.mu, sampler.sigma, size)
    with np.errstate(over="ignore"):
        t = 1.0 / (1.0 + np.exp(-z))
    return np.minimum(np.maximum(t, math.ulp(0.0)), 1.0 - math.ulp(1.0) / 2)
