"""Command-line front end.

Subcommands:

* ``train``              run an experiment from a JSON config
* ``verify-identities``  cross-entropy / divergence identity check, CSV out
* ``eval``               recount a checkpoint's evaluation: match, JSD, confusion
* ``grid``               render a per-class sample grid from a checkpoint

``eval`` and ``grid`` redraw the run's rng streams at the checkpoint's step: on
a finished run they reproduce its confusion.csv, last metrics row and grid.
The training stack is imported by the commands that run it, so
``verify-identities`` loads only the exact library.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from .divergence import random_family, verify_identity


def _cmd_train(args):
    from .harness import ExperimentConfig, run_experiment
    from .schemes import TrainingDiverged
    overrides = {"seed": args.seed, "output_dir": args.out}
    config = dataclasses.replace(ExperimentConfig.from_file(args.config),
                                 **{k: v for k, v in overrides.items() if v is not None})
    try:
        run_experiment(config, mnist_dir=args.mnist_dir)
    except TrainingDiverged as e:
        print(f"aborted: {e} (partial metrics kept in {config.output_dir})",
              file=sys.stderr)
        return 1
    return 0


def _cmd_verify_identities(args):
    rng = np.random.default_rng(args.seed)
    print("trial,cce,jsd,residual")
    worst = 0.0
    for trial in range(args.trials):
        family = random_family(args.n, args.support, rng)
        report = verify_identity(family)
        worst = max(worst, report.residual)
        print(f"{trial},{report.cce!r},{report.jsd!r},{report.residual!r}")
    print(f"worst residual: {worst:.3e}", file=sys.stderr)
    return 0


def _cmd_eval(args):
    from .harness import PROBE_DIR, Probe, evaluate
    from .schemes import load_checkpoint, load_probe_checkpoint
    trio, info = load_checkpoint(args.checkpoint)
    probe = None  # the ring's nearest mean reads a 2-D generator, its run's probe any other
    if trio.data_dim != 2:
        path = os.path.join(info["directory"], PROBE_DIR)
        network, accuracy = load_probe_checkpoint(path)
        for end, width, key, want in (("input", network.dims[0], "data_dim", trio.data_dim),
                                      ("output", network.dims[-1], "n_classes",
                                       trio.config.n_classes)):
            if width != want:
                raise ValueError(f"probe {path} has {end} width {width}, "
                                 f"the checkpoint's {key} is {want}")
        probe = Probe(network=network, test_accuracy=accuracy)
    match, confusion, jsd = evaluate(trio, probe, info["seed"], info["step"],
                                     args.samples_per_class)
    if probe is not None:
        print(f"probe test accuracy: {probe.test_accuracy!r}")
    print(f"match rate: {match!r}")
    print(f"jsd estimate: {jsd!r}")
    print("confusion (rows = requested class):")
    print(confusion.to_csv(), end="")
    if args.out is not None:
        with open(args.out, "w") as f:
            f.write(confusion.to_csv())
    return 0


def _cmd_grid(args):
    from .harness import GRID_NAME, emit_sample_grid, rng_stream
    from .schemes import load_checkpoint
    trio, info = load_checkpoint(args.checkpoint)
    out = args.out or GRID_NAME.format(f"{info['step']:04d}")
    rng = rng_stream(info["seed"], "grid", info["step"])
    emit_sample_grid(trio.generator, trio.partition, args.cols, out, rng)
    print(out)
    return 0


def _at_least(least):
    """argparse type: an integer >= least; argparse names the flag on error (exit 2)."""
    def integer(text):
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text}")
        return int(text)
    return integer


def build_parser():
    parser = argparse.ArgumentParser(
        prog="auxgan",
        description="conditional-generator training schemes and divergence checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--mnist-dir", default=None,
                   help="directory holding the four IDX files (else a synthetic digit "
                        "corpus is generated)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("verify-identities",
                       help="check L* = N log N - N*JSD on random families")
    p.add_argument("--n", type=_at_least(2), required=True, help="family size N")
    p.add_argument("--support", type=_at_least(1), required=True, help="support size")
    p.add_argument("--trials", type=_at_least(1), required=True)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=_cmd_verify_identities)

    p = sub.add_parser("eval", help="measure conditional fidelity of a checkpoint")
    p.add_argument("--checkpoint", required=True,
                   help="run directory or manifest.txt path")
    p.add_argument("--samples-per-class", type=_at_least(1), default=None,
                   help="default: the run's own count")
    p.add_argument("--out", default=None, help="also write the confusion CSV here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grid", help="render a per-class sample grid as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cols", type=_at_least(1), default=8, help="samples per class row")
    p.add_argument("--out", default=None, help="output PGM path")
    p.set_defaults(func=_cmd_grid)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # bad input files: argparse's exit status, no traceback
        print(f"auxgan: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
