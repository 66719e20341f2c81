"""foagen: first-order ambisonics tooling for spatial audio generation.

Encoding and direction estimation, evaluation metrics, a small
flow-matching engine with hand-rolled gradients, feature conditioning,
panorama geometry, dataset cleaning, and bit-exact file I/O, all behind
one CLI (``foagen``).
"""

from .errors import FoagenError
from .foa import (
    Direction,
    FoaSignal,
    IntensityVector,
    MonoSignal,
    StereoSignal,
    estimate_doa,
    intensity_vector,
    spatialize_mono,
    stereo_to_foa,
)
from .metrics import (
    AngleErrors,
    StftConfig,
    eval_doa_batch,
    frechet_distance,
    kl_divergence,
    multires_stft_distance,
    pair_directions,
    phi_error,
    spatial_angle_error,
    theta_error,
)
from . import audio_io, cleaning, conditioning, flow, panorama

__version__ = "0.1.0"

__all__ = [
    "AngleErrors",
    "Direction",
    "FoaSignal",
    "FoagenError",
    "IntensityVector",
    "MonoSignal",
    "StereoSignal",
    "StftConfig",
    "audio_io",
    "cleaning",
    "conditioning",
    "estimate_doa",
    "eval_doa_batch",
    "flow",
    "frechet_distance",
    "intensity_vector",
    "kl_divergence",
    "multires_stft_distance",
    "pair_directions",
    "panorama",
    "phi_error",
    "spatial_angle_error",
    "spatialize_mono",
    "stereo_to_foa",
    "theta_error",
]
