"""Experiment runner: trains a scheme, measures conditional fidelity, emits artifacts.

A run is driven by an ExperimentConfig (JSON on disk) and a seed.  It
writes, under the output directory:

* ``metrics.csv``     one row per evaluation step (see MetricsRecord)
* ``confusion.csv``   requested-class x assigned-class counts at the end
* ``manifest.txt`` / ``checkpoint.bin``   final network parameters
* ``samples_stepXXXX.pgm``   image grid, one row per class (image runs)
* ``probe/``          the evaluation classifier (image runs)

Everything downstream of (config, seed) is deterministic: rng streams are
derived from the seed with fixed integer tags, floats are written with
repr(), and wall-clock time is kept out of the CSV (it is reported on
stdout instead).
"""

import functools
import glob
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (GaussianMixtureSpec, _mnist_paths, load_mnist, minibatches,
                   sample_mixture, write_synthetic_digit_files)
from .divergence import DistributionFamily, generalized_jsd
from .nn import MLP
from .optim import Adam
from .schemes import (MANIFEST_NAME, PAYLOAD_NAME, SchemeConfig, _helper_for, build_trio,
                      check_field, classifier_step, sample_latent, save_checkpoint,
                      save_probe_checkpoint, train_step)
from .tensor import Tensor, _share

DATASETS = ("mixture2d", "mnist")

# rng streams by name: the run-wide ones are default_rng([seed, tag]), the evaluation
# ones at a step default_rng([seed, 2, step, *sub_tags]).  A retired tag is never
# reused: sub-tag 9 was `auxgan eval`'s own stream, which now redraws `match`.
_RUN_STREAMS = {"build": 0, "train": 1, "probe": 3}
_EVAL_STREAMS = {"match": (), "grid": (2,)}


def rng_stream(seed, name, step=None):
    """The rng of one named stream; evaluation streams also take their step."""
    if name in _RUN_STREAMS:
        return np.random.default_rng([seed, _RUN_STREAMS[name]])
    return np.random.default_rng([seed, 2, step, *_EVAL_STREAMS[name]])

# The JSD histogram grid is fixed: its box covers the default mixture layout
# at more than ten standard deviations, and a fixed grid keeps runs comparable.
JSD_BOX = (-4.0, 4.0)
JSD_BINS = 32
JSD_EDGES = np.linspace(*JSD_BOX, JSD_BINS + 1)  # both axes' bin edges, shared read-only
JSD_EDGES.flags.writeable = False

PROBE_ACCURACY_FLOOR = 0.95
PROBE_BATCH_SIZE = 128
PROBE_LEARNING_RATE = 1e-3
SAMPLES_PER_CLASS = {"ring": 500, "probe": 200}  # of one evaluation, by its reader

# The grid's braces take its step, zero-padded to 4 digits; `auxgan eval` reads
# the probe bundle of an image run.
GRID_NAME = "samples_step{}.pgm"
PROBE_DIR = "probe"
# The files of a finished run, which a new run in its directory removes first.
_FINISHED = (MANIFEST_NAME, PAYLOAD_NAME, "confusion.csv", GRID_NAME.format("*"))


@dataclass
class ExperimentConfig:
    """Everything a run needs besides the dataset files themselves."""

    dataset: str
    scheme: SchemeConfig
    seed: int = 0
    output_dir: str = "run"
    eval_every: int = 100
    probe_hidden: tuple = (128,)
    probe_epochs: int = 3

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        for name, least in (("seed", 0), ("eval_every", 1), ("probe_epochs", 1)):
            check_field(name, getattr(self, name), int, least)
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError(f"output_dir must be a non-empty string, got {self.output_dir!r}")
        # an image epoch is one full pass over the training set
        default_steps = SchemeConfig.steps_per_epoch
        if self.dataset == "mnist" and self.scheme.steps_per_epoch != default_steps:
            raise ValueError(f"steps_per_epoch is set by the training set size on mnist runs; "
                             f"leave it at {default_steps}, got {self.scheme.steps_per_epoch!r}")
        if not isinstance(self.probe_hidden, (list, tuple)):
            raise ValueError(f"probe_hidden must be a list of widths, got {self.probe_hidden!r}")
        self.probe_hidden = tuple(self.probe_hidden)
        for width in self.probe_hidden:
            check_field("probe_hidden", width, int, 1)

    def to_json(self):
        d = dict(self.__dict__)
        d["scheme"] = dict(self.scheme.__dict__)
        d["probe_hidden"] = list(self.probe_hidden)
        return json.dumps(d, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        raw = dict(raw)
        scheme_raw = raw.pop("scheme", None)
        if not isinstance(scheme_raw, dict):
            raise ValueError("config needs a 'scheme' object")
        for what, given, known in (("config", raw, cls), ("scheme", scheme_raw, SchemeConfig)):
            unknown = set(given) - set(known.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
        return cls(scheme=SchemeConfig(**scheme_raw), **raw)

    @classmethod
    def from_file(cls, path):
        with open(path) as f:
            return cls.from_json(f.read())


@dataclass
class MetricsRecord:
    """One evaluation snapshot.

    wall_time is seconds since the start of the run; it is carried on the
    record for reporting but deliberately left out of metrics.csv so that a
    repeated (config, seed) run produces byte-identical files.
    """

    step: int
    d_loss: Optional[float]
    g_loss: Optional[float]
    c_loss: Optional[float]
    class_match_rate: float
    jsd_estimate: float
    wall_time: float = 0.0

    CSV_FIELDS = ("step", "d_loss", "g_loss", "c_loss", "class_match_rate", "jsd_estimate")

    def csv_row(self):
        cells = []
        for name in self.CSV_FIELDS:
            v = getattr(self, name)
            if v is None:
                cells.append("")
            elif name == "step":
                cells.append(str(v))
            else:
                cells.append(repr(float(v)))
        return ",".join(cells)


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[r][a] = samples requested as class r that were assigned class a."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {c.shape}")
        if (c < 0).any():
            raise ValueError("confusion matrix counts must be non-negative")
        object.__setattr__(self, "counts", c.astype(np.int64))

    def match_rate(self):
        return float(np.trace(self.counts)) / float(self.counts.sum())

    def to_csv(self):
        return "\n".join(",".join(str(v) for v in row) for row in self.counts) + "\n"


def _class_blocks(generator, partition, samples_per_class, rng, read=lambda x: x):
    """Yield `read(outputs)` per class block of one labelled sample set, in class order.

    Each block's latent rows are drawn in class order as it is reached, which
    gives the draws of one whole-set latent.  One block of outputs is alive
    at a time; with a generator wide enough for the helper thread, two, which
    `tensor._share` generates and reads side by side.
    """
    check_field("samples_per_class", samples_per_class, int, 1)

    def block(z):
        return read(generator(z).data)

    helper = _helper_for(generator)
    per_turn = 1 if helper is None else 2
    for first in range(0, partition.n_classes, per_turn):
        classes = range(first, min(first + per_turn, partition.n_classes))
        z = [sample_latent(partition, np.full(samples_per_class, c), rng) for c in classes]
        yield from _share(helper, [functools.partial(block, z_c) for z_c in z])


def class_match_rate(generator, partition, spec, samples_per_class, rng):
    """Fraction of generated 2-D points whose nearest mixture mean is the requested class.

    Returns (rate, confusion, points), where points[c] holds the samples of
    class c.  Ties (measure zero in practice) break to the lowest class
    index, which argmin already does; fixed for determinism.
    """
    points = np.array(list(_class_blocks(generator, partition, samples_per_class, rng)))
    # d2[m] holds every point's squared distance to mean m.  Adding the two
    # non-negative coordinate terms gives the bits of a sum over the length-2
    # axis without numpy's slow short-axis reduction, and with the means first
    # argmin reduces over the outer axis.
    d2 = (points[..., 0] - spec.means[:, 0, None, None]) ** 2
    d2 += (points[..., 1] - spec.means[:, 1, None, None]) ** 2
    confusion = _confusion(d2.argmin(axis=0), spec.n_classes)
    return confusion.match_rate(), confusion, points


def _confusion(assigned, n_classes):
    """The ConfusionMatrix whose row c counts assigned[c], the classes given to class c."""
    return ConfusionMatrix(np.array([np.bincount(row, minlength=n_classes) for row in assigned]))


@dataclass(frozen=True)
class Probe:
    """Independent classifier used as the measuring instrument for image runs."""

    network: MLP
    test_accuracy: float


def train_probe(train, test, hidden, epochs, rng):
    """Fit a classifier on the real training split (an ImageSet); returns a Probe."""
    n_classes = int(train.labels.max()) + 1
    dims = (train.pixels.shape[1], *hidden, n_classes)
    network = MLP(dims, ("relu",) * len(hidden) + ("linear",), rng=rng)
    opt = Adam([network.segment()], learning_rate=PROBE_LEARNING_RATE, beta1=0.9)
    for _ in range(epochs):
        for batch in minibatches(train, PROBE_BATCH_SIZE, rng):
            classifier_step(network, opt, batch)
    test = test.rows(slice(None))  # the test split's one float64 copy
    predicted = network(Tensor(test.features)).data.argmax(axis=1)
    return Probe(network=network, test_accuracy=float((predicted == test.labels).mean()))


def _check_probe(probe):
    """Raise ValueError unless the probe's test accuracy reaches PROBE_ACCURACY_FLOOR."""
    if probe.test_accuracy < PROBE_ACCURACY_FLOOR:
        raise ValueError(f"probe test accuracy {probe.test_accuracy:.4f} is below the "
                         f"{PROBE_ACCURACY_FLOOR} floor; refusing to evaluate with it")


def probe_match_rate(generator, partition, probe, samples_per_class, rng):
    """Fraction of conditional samples the probe assigns to the requested class.

    Refuses to measure with a probe below the accuracy floor: a classifier
    that cannot read real data says nothing about generated data.
    """
    _check_probe(probe)
    assigned = _class_blocks(generator, partition, samples_per_class, rng,
                             lambda x: probe.network(Tensor(x)).data.argmax(axis=1))
    confusion = _confusion(assigned, partition.n_classes)
    return confusion.match_rate(), confusion


def class_histograms(points):
    """counts[c] = the JSD_BINS x JSD_BINS histogram of the 2-D points[c], flattened row-major.

    A point gets the bin np.histogram2d gives it on JSD_EDGES.  Points outside
    the box are clipped into the edge bins, so +-inf counts there too; a point
    with a NaN coordinate is dropped.  Every class is binned in one bincount.
    """
    lo, hi = JSD_BOX
    ix, iy = np.moveaxis(np.searchsorted(JSD_EDGES, np.clip(points, lo, hi - 1e-9),
                                         side="right") - 1, -1, 0)
    # Clipping keeps every number inside the box, so only a NaN coordinate gets
    # index JSD_BINS.  Each class and row is padded to JSD_BINS + 1 so that
    # index stays its own, and the slice drops it: a NaN point never lands in
    # a neighbour's bin.
    n, bins, wide = len(points), JSD_BINS, JSD_BINS + 1
    flat = (np.arange(n)[:, None] * wide + ix) * wide + iy
    counts = np.bincount(flat.ravel(), minlength=n * wide * wide)
    return counts.reshape(n, wide, wide)[:, :bins, :bins].reshape(n, bins * bins)


def _class_jsd(counts):
    """JSD of the rows of `counts`, each normalised to a distribution, rounded to 1e-9.

    The estimators' statistical error at an evaluation's sample size is orders
    of magnitude above 1e-9, and the rounding keeps saturated values (disjoint
    rows give exactly log N) comparable as exact ties instead of
    float-summation jitter.
    """
    members = counts / counts.sum(axis=1, keepdims=True)
    return round(generalized_jsd(DistributionFamily(members)), 9)


def jsd_snapshot(points):
    """Histogram JSD estimate of the per-class 2-D point sets `points[c]` (class_histograms)."""
    return _class_jsd(class_histograms(points))


def probe_label_jsd(confusion):
    """JSD between per-class probe-label distributions (image-run analog).

    The 2-D histogram estimate needs closed-form coordinates; for images the
    per-class distribution over the probe's assigned labels, a row of the
    confusion matrix, plays that role.
    """
    return _class_jsd(confusion.counts)


def emit_sample_grid(generator, partition, rows_per_class, path, rng):
    """Write a P5 PGM: one row of generated images per class.

    Each image is square, its side the square root of the generator's width.
    Outputs in [0, 1] map to 0-255; N classes and K columns of side s give an
    (N*s) x (K*s) pixel image.
    """
    n = partition.n_classes
    check_field("rows_per_class", rows_per_class, int, 1)
    x = np.array(list(_class_blocks(generator, partition, rows_per_class, rng)))
    side = math.isqrt(x.shape[2])
    if side * side != x.shape[2]:
        raise ValueError(f"generator emits {x.shape[2]} features, not a square image")
    pixels = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    tiles = pixels.reshape(n, rows_per_class, side, side)
    canvas = tiles.transpose(0, 2, 1, 3).reshape(n * side, rows_per_class * side)
    header = f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as f:
            f.write(header + canvas.tobytes())
    except OSError as e:
        raise OSError(f"could not write sample grid to {path}: {e}") from e
    return path


# ---------------------------------------------------------------------------
# the run itself

# Network widths of image runs; mixture runs use build_trio's defaults.
_IMAGE_ARCH = {"generator_hidden": (256,), "discriminator_hidden": (256,),
               "classifier_hidden": (128,), "generator_output": "sigmoid"}


def _resolve_mnist_files(config, mnist_dir):
    """Locate the four IDX files in `mnist_dir`; synthesize a stand-in corpus if none given.

    Without a directory, a deterministic synthetic digit corpus is generated
    under the run's output directory so image runs work offline.
    """
    if mnist_dir:
        paths = _mnist_paths(mnist_dir)
        missing = [p for p in paths.values() if not os.path.exists(p)]
        if missing:
            raise FileNotFoundError(f"missing IDX files: {missing}")
        return paths
    return write_synthetic_digit_files(os.path.join(config.output_dir, "data"))


@functools.lru_cache(maxsize=8)
def _ring_spec(n_classes):
    """The ring layout of `n_classes`, made once per class count and shared read-only."""
    if n_classes > 8:
        raise ValueError("the ring layout supports at most 8 well-separated classes")
    spec = GaussianMixtureSpec.ring(n_classes=n_classes)
    spec.means.flags.writeable = False
    return spec


def evaluate(trio, probe, seed, step, samples_per_class=None):
    """(match, confusion, jsd) of the generator on the sample set of the run's `step`.

    It draws the `match` stream of (seed, step), so a finished run's checkpoint
    recounts its confusion.csv.  With no probe the ring's nearest mean reads it.
    """
    reader = "ring" if probe is None else "probe"
    n = SAMPLES_PER_CLASS[reader] if samples_per_class is None else samples_per_class
    rng = rng_stream(seed, "match", step)
    if probe is not None:
        match, confusion = probe_match_rate(trio.generator, trio.partition, probe, n, rng)
        return match, confusion, probe_label_jsd(confusion)
    if trio.data_dim != 2:
        raise ValueError("a probe checkpoint is required to evaluate image generators")
    spec = _ring_spec(trio.partition.n_classes)
    match, confusion, points = class_match_rate(trio.generator, trio.partition, spec, n, rng)
    return match, confusion, jsd_snapshot(points)


def run_experiment(config, mnist_dir=None, log=print):
    """Train per the config and write every artifact under config.output_dir.

    An mnist run reads the four IDX files in `mnist_dir`, or without one
    trains on a synthetic digit corpus it writes under the output directory.
    Once its input is read and, on mnist, its probe trained and checked, it
    removes an earlier run's finished files there.
    Returns the final MetricsRecord.  If a loss turns non-finite the partial
    metrics.csv is kept and the TrainingDiverged propagates to the caller.
    """
    t0 = time.time()
    scheme_cfg = config.scheme

    mixture_spec = None
    probe = None
    train_set = None
    if config.dataset == "mixture2d":
        mixture_spec = _ring_spec(scheme_cfg.n_classes)
        steps_per_epoch = scheme_cfg.steps_per_epoch
        data_dim, arch = mixture_spec.means.shape[1], {}
    else:
        paths = _resolve_mnist_files(config, mnist_dir)
        train_set = load_mnist(paths["train_images"], paths["train_labels"])
        test_set = load_mnist(paths["test_images"], paths["test_labels"])
        side = train_set.image_shape[0]
        if {train_set.image_shape, test_set.image_shape} != {(side, side)}:
            raise ValueError("digit images must be square and of one size, got train {}x{} "
                             "and test {}x{}".format(*train_set.image_shape,
                                                     *test_set.image_shape))
        n_classes = int(train_set.labels.max()) + 1
        if n_classes != scheme_cfg.n_classes:
            raise ValueError(f"dataset has {n_classes} classes, "
                             f"config says {scheme_cfg.n_classes}")
        check_field("batch_size", scheme_cfg.batch_size, int, 1, train_set.labels.size)
        probe = train_probe(train_set, test_set, config.probe_hidden,
                            config.probe_epochs, rng_stream(config.seed, "probe"))
        log(f"probe test accuracy: {probe.test_accuracy:.4f}")
        _check_probe(probe)
        save_probe_checkpoint(os.path.join(config.output_dir, PROBE_DIR),
                              probe.network, probe.test_accuracy, config.seed)
        # one epoch = one full shuffled pass over the real training set
        steps_per_epoch = train_set.labels.size // scheme_cfg.batch_size
        data_dim, arch = side * side, _IMAGE_ARCH

    os.makedirs(config.output_dir, exist_ok=True)
    for name in _FINISHED:
        for path in glob.glob(os.path.join(glob.escape(config.output_dir), name)):
            os.remove(path)

    trio = build_trio(scheme_cfg, data_dim, rng=rng_stream(config.seed, "build"), **arch)
    train_rng = rng_stream(config.seed, "train")
    total_steps = steps_per_epoch * scheme_cfg.epochs
    metrics_path = os.path.join(config.output_dir, "metrics.csv")

    record = confusion = None
    with open(metrics_path, "w") as metrics_file:
        metrics_file.write(",".join(MetricsRecord.CSV_FIELDS) + "\n")

        def emit(step, losses):
            nonlocal record, confusion
            match, confusion, jsd = evaluate(trio, probe, config.seed, step)
            record = MetricsRecord(
                step=step,
                d_loss=None if losses is None else losses.d_loss,
                g_loss=None if losses is None else losses.g_loss,
                c_loss=None if losses is None else losses.c_loss,
                class_match_rate=match,
                jsd_estimate=jsd,
                wall_time=time.time() - t0,
            )
            metrics_file.write(record.csv_row() + "\n")
            metrics_file.flush()
            log(f"step {record.step}: match={record.class_match_rate:.3f} "
                f"jsd={record.jsd_estimate:.4f} ({record.wall_time:.1f}s)")

        emit(0, None)
        losses = None
        for epoch in range(scheme_cfg.epochs):
            if config.dataset == "mixture2d":
                batches = (sample_mixture(mixture_spec, train_rng, scheme_cfg.batch_size)
                           for _ in range(steps_per_epoch))
            else:
                batches = minibatches(train_set, scheme_cfg.batch_size, train_rng)
            for real in batches:
                labels_fake = train_rng.integers(0, scheme_cfg.n_classes,
                                                 size=scheme_cfg.batch_size)
                losses = train_step(real, labels_fake, trio, scheme_cfg, train_rng)
                if losses.step % config.eval_every == 0:
                    emit(losses.step, losses)
        if record.step != total_steps:
            emit(total_steps, losses)

    with open(os.path.join(config.output_dir, "confusion.csv"), "w") as f:
        f.write(confusion.to_csv())
    save_checkpoint(config.output_dir, trio, config.seed)
    if config.dataset == "mnist":
        emit_sample_grid(trio.generator, trio.partition, 8,
                         os.path.join(config.output_dir, GRID_NAME.format(f"{total_steps:04d}")),
                         rng_stream(config.seed, "grid", total_steps))
    log(f"run finished in {time.time() - t0:.1f}s; artifacts in {config.output_dir}")
    return record
