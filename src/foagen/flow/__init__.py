"""Flow-matching engine: path, masking, network, training, sampling."""

from .path import TimeSampler, sample_time
from .masking import MaskSpec, MaskedLatent, make_mask, max_spans, random_mask_spec
from .network import VelocityModel, build_condition, load_model, save_model
from .training import TrainConfig, cfm_loss, train
from .sampling import CfgSpec, cfg_velocity, euler_sample
from .fixtures import (
    MIXTURE_CLASS_IDS,
    MIXTURE_MEANS,
    MIXTURE_TRAIN,
    mixture_condition,
    mixture_dataset,
    mixture_model,
    sample_mixture,
    train_mixture,
)

__all__ = [
    "CfgSpec",
    "MIXTURE_CLASS_IDS",
    "MIXTURE_MEANS",
    "MIXTURE_TRAIN",
    "MaskSpec",
    "MaskedLatent",
    "TimeSampler",
    "TrainConfig",
    "VelocityModel",
    "build_condition",
    "cfg_velocity",
    "cfm_loss",
    "euler_sample",
    "load_model",
    "make_mask",
    "max_spans",
    "mixture_condition",
    "mixture_dataset",
    "mixture_model",
    "random_mask_spec",
    "sample_mixture",
    "sample_time",
    "save_model",
    "train",
    "train_mixture",
]
