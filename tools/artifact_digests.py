"""Print the sha256 of every artifact that a change must keep byte-identical.

    python3 tools/artifact_digests.py SEED [--tiny] [--serial]

Runs, in a temporary directory, the benchmark's two acceptance
configurations (`ring` and `digits`, built by perfbench/workloads.py),
200-step `gan`, `cgan` and `acgan` runs on the ring, and 1-epoch digit-width
`gan`, `cgan` and `acgan` runs on the smoke test's tiny digit corpus
(`digits-gan` and so on), then `auxgan eval` on the ring, `acgan` and digit
checkpoints, which recounts each run's last evaluation (on digits with the
probe bundle that the run saved beside its checkpoint), README's
`auxgan verify-identities --n 5 --support 32 --trials 100 --seed SEED` and
`auxgan verify-identities --n 9 --support 3000 --trials 20 --seed SEED`.
Prints one `name sha256` line per file a run writes (metrics.csv,
checkpoint.bin, manifest.txt, confusion.csv, the sample grid and the probe
bundle; not the digit corpus) and per command's stdout, sorted by name.
Run it on two commits and diff the output.  `--tiny` runs the benchmark's
smoke-test sizes and 40-step ring runs; the digit-width scheme runs are the
same at both sizes.
`--serial` keeps every run off the helper thread (`tensor.HELPER_MIN_PARAMS`
is set to infinity in this process), so the two outputs show whether the
helper changes any bit.  BLAS is pinned to one thread before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from auxgan import cli, harness, tensor  # noqa: E402
from auxgan.data import write_synthetic_digit_files  # noqa: E402

CORPUS_DIR = "data"  # the synthetic digit corpus, an input rather than an artifact
# (name, --n, --support, --trials) of each `auxgan verify-identities` run; the
# wide one sums over supports large enough to show a change of summation order
VERIFY_RUNS = (("verify", 5, 32, 100), ("verify-wide", 9, 3000, 20))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _runs(seed, root, tiny):
    """(name, config, mnist_dir) of every run, in a fixed order."""
    ring = workloads.experiment_config("ring", seed, os.path.join(root, "ring"), tiny)
    runs = [("ring", ring, None)]
    for scheme in ("gan", "cgan", "acgan"):
        config = dataclasses.replace(
            ring, output_dir=os.path.join(root, scheme),
            scheme=dataclasses.replace(ring.scheme, scheme=scheme, epochs=2))
        runs.append((scheme, config, None))
    tiny_dir = os.path.join(root, "tiny-data")
    n_train, n_test = workloads.TINY_DIGITS
    write_synthetic_digit_files(tiny_dir, n_train=n_train, n_test=n_test)
    digits = workloads.experiment_config("digits", seed, os.path.join(root, "digits"), tiny)
    runs.append(("digits", digits, tiny_dir if tiny else None))
    for scheme in ("gan", "cgan", "acgan"):
        name = f"digits-{scheme}"
        small = workloads.experiment_config("digits", seed, os.path.join(root, name), tiny=True)
        config = dataclasses.replace(small, scheme=dataclasses.replace(small.scheme,
                                                                       scheme=scheme))
        runs.append((name, config, tiny_dir))
    return runs


def _cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"auxgan {' '.join(argv)} exited {status}")
    return out.getvalue().encode()


def digests(seed, tiny=False):
    """Sorted (name, sha256) pairs of every artifact of the runs of `seed`."""
    lines = []
    with tempfile.TemporaryDirectory() as root:
        for name, config, mnist_dir in _runs(seed, root, tiny):
            harness.run_experiment(config, mnist_dir=mnist_dir, log=lambda *_: None)
            for parent, dirs, files in os.walk(config.output_dir):
                dirs[:] = [d for d in dirs if d != CORPUS_DIR]
                for file in files:
                    path = os.path.join(parent, file)
                    with open(path, "rb") as f:
                        lines.append((os.path.relpath(path, root), _sha256(f.read())))
            if name in ("ring", "acgan", "digits"):
                eval_argv = ["eval", "--checkpoint", config.output_dir]
                lines.append((f"{name}/eval.stdout", _sha256(_cli_stdout(eval_argv))))
    for name, n, support, trials in VERIFY_RUNS:
        verify_argv = ["verify-identities", "--n", str(n), "--support", str(support),
                       "--trials", str(trials), "--seed", str(seed)]
        lines.append((f"identity/{name}.stdout", _sha256(_cli_stdout(verify_argv))))
    return sorted(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--serial", action="store_true", help="never use the helper thread")
    args = parser.parse_args(argv)
    if args.serial:
        tensor.HELPER_MIN_PARAMS = math.inf
    for name, digest in digests(args.seed, args.tiny):
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
