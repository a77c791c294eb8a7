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

Import names from the submodule that defines them.  The package root
imports none, so `import auxgan.divergence` loads no training code.
"""

import os

# Artifact bytes depend on the BLAS thread count: 1 unless set, before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
