"""Conditional digit generation scored by an independent probe classifier.

Image runs cannot use nearest-mixture-mean scoring, so a probe classifier is
trained on the real labeled data first and acts as the measuring instrument:
the match rate is the fraction of conditional samples the probe assigns to
the requested digit.  The probe must clear a 0.95 test-accuracy gate before
its verdicts count.

By default this trains on a small deterministic synthetic digit corpus so it
works offline; to use real MNIST, pass a directory with the four classic IDX
files (`--mnist-dir` on the CLI):
    python demos/digit_conditioning.py [MNIST_DIR]

Equivalent CLI runs:
    auxgan train --config digits.json
    auxgan eval --checkpoint <run dir>      (reads the probe the run saved in <run dir>/probe)
    auxgan grid --checkpoint <run dir> --cols 8
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from auxgan.harness import ExperimentConfig, run_experiment
from auxgan.schemes import load_checkpoint, load_probe_checkpoint


def main(mnist_dir=None):
    out = Path(tempfile.mkdtemp(prefix="digit_demo_")) / "run"
    config = ExperimentConfig.from_dict({
        "dataset": "mnist",
        "scheme": {"scheme": "vacgan", "n_classes": 10, "noise_dim": 16,
                   "theta": 0.2, "zeta": 0.8, "batch_size": 64, "epochs": 5},
        "seed": 7,
        "output_dir": str(out),
        "eval_every": 100,
    })

    corpus = mnist_dir or "the synthetic corpus, half a minute or so"
    print(f"training (five epochs on {corpus})")
    record = run_experiment(config, mnist_dir=mnist_dir)

    _, probe_accuracy = load_probe_checkpoint(out / "probe")
    print(f"\nprobe test accuracy: {probe_accuracy:.4f} (gate: 0.95)")
    print(f"final match rate:    {record.class_match_rate:.4f} "
          f"(chance would be 0.10)")

    grid = sorted(out.glob("samples_step*.pgm"))[-1]
    print(f"sample grid (one row per digit): {grid}")

    confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=int)
    print("\nconfusion counts, rows = requested digit:")
    for requested, row in enumerate(confusion):
        print(f"  {requested}: {' '.join(f'{v:>4}' for v in row)}")

    trio, info = load_checkpoint(out)
    print(f"\ncheckpoint reloaded: scheme={trio.config.scheme}, "
          f"step={info['step']}, generator dims={trio.generator.dims}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="conditional digit generation with a probe")
    parser.add_argument("mnist_dir", nargs="?", help="directory holding the four IDX files")
    main(parser.parse_args().mnist_dir)
