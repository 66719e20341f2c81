"""Synthetic 2-class Gaussian-mixture benchmark for the flow engine.

Two tight point clouds in the plane, conditioned on a 4-channel class
embedding. The field has to separate the classes before the sampled
means can land on the targets, so both transport quality and the shape
of the loss trace are meaningful signals. Every constant is frozen so
runs reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidValue
from .network import VelocityModel
from .path import TimeSampler
from .sampling import CfgSpec, euler_sample
from .training import TrainConfig, train

MIXTURE_CLASS_IDS = (1, 2)
MIXTURE_MEANS = {1: (8.0, 8.0), 2: (-8.0, -8.0)}
MIXTURE_SIGMA = 0.15
MIXTURE_POINTS_PER_CLASS = 512
MIXTURE_COND_CHANNELS = 4
# Every channel of a class's embedding is its id less this midpoint of the
# two ids, which centers the classes at +-0.5.
MIXTURE_COND_SHIFT = 1.5
MIXTURE_HIDDEN = (16, 16)
MIXTURE_DATA_SEED = 11
MIXTURE_INIT_SEED = 5
MIXTURE_SAMPLE_STEPS = 128
MIXTURE_SAMPLE_FRAMES = 1000

# Low rate + logit-normal time draws keep the early loss high for long
# enough that the trailing/leading decay ratio measures real learning
# rather than the first few output-layer updates. The rate then decays
# linearly to 0 over the second half: at a constant rate the last
# iterate keeps enough SGD noise to move a sampled class mean by about
# 0.2 from one training seed to the next (iterate averaging, Polyak &
# Juditsky 1992).
MIXTURE_TRAIN = TrainConfig(
    learning_rate=0.005,
    batch_size=32,
    steps=10_000,
    seed=9,
    time_sampler=TimeSampler("logit_normal"),
    lr_tail=0.5,
)


def mixture_condition(class_id: int) -> np.ndarray:
    """Frozen 4-channel embedding for one mixture class.

    Raises:
        InvalidValue: when ``class_id`` is not in ``MIXTURE_CLASS_IDS``.
    """
    if class_id not in MIXTURE_CLASS_IDS:
        raise InvalidValue(f"mixture class must be one of {MIXTURE_CLASS_IDS}, got {class_id!r}")
    return np.full(MIXTURE_COND_CHANNELS, class_id - MIXTURE_COND_SHIFT)


def mixture_dataset() -> list[tuple[np.ndarray, np.ndarray]]:
    """(x1, condition) pairs for both classes, one frame per point."""
    rng = np.random.default_rng(MIXTURE_DATA_SEED)
    dataset: list[tuple[np.ndarray, np.ndarray]] = []
    for class_id in MIXTURE_CLASS_IDS:
        mean = np.asarray(MIXTURE_MEANS[class_id], dtype=np.float64)
        points = mean + rng.normal(0.0, MIXTURE_SIGMA, size=(MIXTURE_POINTS_PER_CLASS, 2))
        cond = mixture_condition(class_id)
        dataset.extend((point[None, :], cond) for point in points)
    return dataset


def mixture_model() -> VelocityModel:
    rng = np.random.default_rng(MIXTURE_INIT_SEED)
    return VelocityModel.initialize(2, 2 + MIXTURE_COND_CHANNELS, MIXTURE_HIDDEN, rng)


def train_mixture() -> tuple[VelocityModel, list[float]]:
    """Train a fresh model on the frozen mixture. Returns (model, trace)."""
    model = mixture_model()
    return model, train(model, mixture_dataset(), MIXTURE_TRAIN)


def sample_mixture(model: VelocityModel, class_id: int) -> np.ndarray:
    """Draw MIXTURE_SAMPLE_FRAMES points for one class from a trained
    model, unguided, from the class's own seed."""
    return euler_sample(
        model,
        steps=MIXTURE_SAMPLE_STEPS,
        cfg=CfgSpec(1.0),
        global_cond=mixture_condition(class_id),
        frames=MIXTURE_SAMPLE_FRAMES,
        rng=np.random.default_rng(100 + class_id),
    )
