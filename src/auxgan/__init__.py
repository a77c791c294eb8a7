"""Conditional-generator training with a parallel auxiliary classifier.

The package has three layers:

* an exact discrete-distribution module (`divergence`) that machine-checks
  the optimal-classifier formula, the N*log(N) cross-entropy maximum, and
  the cross-entropy <-> Jensen-Shannon identity;
* a tiny float64 autodiff engine (`tensor`, `nn`, `optim`) plus the four
  training schemes (`schemes`): plain GAN, CGAN, ACGAN-style, and the
  parallel-classifier scheme;
* a deterministic experiment harness (`harness`, `data`, `cli`) that trains
  the schemes on a 2-D Gaussian mixture or on MNIST-format IDX files and
  measures conditional fidelity.
"""

from .tensor import Tape, Tensor
from .divergence import (
    DiscreteDistribution,
    DistributionFamily,
    generalized_jsd,
    kl_divergence,
    optimal_classifier,
    shannon_entropy,
    verify_identity,
)
from .schemes import LatentPartition, SchemeConfig, build_trio, train_step
from .harness import ExperimentConfig, run_experiment

__all__ = [
    "Tape",
    "Tensor",
    "DiscreteDistribution",
    "DistributionFamily",
    "generalized_jsd",
    "kl_divergence",
    "optimal_classifier",
    "shannon_entropy",
    "verify_identity",
    "LatentPartition",
    "SchemeConfig",
    "build_trio",
    "train_step",
    "ExperimentConfig",
    "run_experiment",
]

__version__ = "0.1.0"
