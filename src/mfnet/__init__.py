"""Pairwise MRFs, mean field inference, and trainable unrolled mean field networks."""

from .engine import (
    Schedule,
    checkerboard_schedule,
    raster_schedule,
    sequential_schedule,
)
from .mrf import (
    FactorialDistribution,
    GraphTopology,
    PairwiseMRF,
    energy,
    softmax_init,
    unnormalized_kl,
)
from .oracle import brute_force_log_partition, brute_force_marginals, exact_kl
from .crf import CrfParams, build_mrf, theta0
from .mfn import MfnParams, forward, predict

__all__ = [
    "Schedule",
    "checkerboard_schedule",
    "raster_schedule",
    "sequential_schedule",
    "FactorialDistribution",
    "GraphTopology",
    "PairwiseMRF",
    "energy",
    "softmax_init",
    "unnormalized_kl",
    "brute_force_log_partition",
    "brute_force_marginals",
    "exact_kl",
    "CrfParams",
    "build_mrf",
    "theta0",
    "MfnParams",
    "forward",
    "predict",
]
