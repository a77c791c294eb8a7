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

import json
import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import (GaussianMixtureSpec, load_mnist, minibatches,
                   sample_mixture, write_synthetic_digit_files)
from .divergence import DistributionFamily, generalized_jsd
from .nn import MLP
from .optim import Adam
from .schemes import (SchemeConfig, build_trio, sample_latent,
                      save_checkpoint, save_probe_checkpoint, train_step)
from .tensor import Tape, Tensor, cce_loss

DATASETS = ("mixture2d", "mnist")

# rng stream tags; a stream is np.random.default_rng([seed, tag, ...])
_TAG_BUILD = 0
_TAG_TRAIN = 1
_TAG_EVAL = 2
_TAG_PROBE = 3
_TAG_DATA = 4

# The JSD histogram box is fixed: it covers the default mixture layout at
# more than ten standard deviations, and a fixed box keeps runs comparable.
JSD_BOX = (-4.0, 4.0)
JSD_BINS = 32

PROBE_ACCURACY_FLOOR = 0.95


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
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        self.probe_hidden = tuple(int(h) for h in self.probe_hidden)

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
        allowed = {"dataset", "scheme", "seed", "output_dir", "eval_every",
                   "probe_hidden", "probe_epochs"}
        unknown = set(raw) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        raw = dict(raw)
        scheme_raw = raw.pop("scheme", None)
        if not isinstance(scheme_raw, dict):
            raise ValueError("config needs a 'scheme' object")
        scheme_allowed = {f for f in SchemeConfig.__dataclass_fields__}
        scheme_unknown = set(scheme_raw) - scheme_allowed
        if scheme_unknown:
            raise ValueError(f"unknown scheme keys: {sorted(scheme_unknown)}")
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


def _generate(generator, partition, labels, rng):
    return generator(sample_latent(partition, labels, rng)).data


def class_match_rate(generator, partition, spec, samples_per_class, rng):
    """Fraction of generated points whose nearest mixture mean is the requested class.

    Ties (measure zero in practice) break to the lowest class index, which
    argmin already does; fixed for determinism.
    """
    labels = np.repeat(np.arange(spec.n_classes), samples_per_class)
    x = _generate(generator, partition, labels, rng)
    d2 = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
    assigned = d2.argmin(axis=1)
    return float((assigned == labels).mean()), _confusion(labels, assigned, spec.n_classes)


def _confusion(requested, assigned, n_classes):
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (requested, assigned), 1)
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class Probe:
    """Independent classifier used as the measuring instrument for image runs."""

    network: MLP
    test_accuracy: float


def train_probe(train, test, hidden, epochs, rng, batch_size=128, learning_rate=1e-3):
    """Fit a softmax classifier on the real training split; returns a Probe."""
    n_classes = int(train.labels.max()) + 1
    dims = (train.features.shape[1], *hidden, n_classes)
    network = MLP(dims, ("relu",) * len(hidden) + ("softmax",), rng=rng)
    opt = Adam(network.params(), learning_rate=learning_rate, beta1=0.9)
    for _ in range(epochs):
        for batch in minibatches(train, batch_size, rng):
            with Tape(wrt=opt.params) as tape:
                loss = cce_loss(network(Tensor(batch.features)), batch.labels)
            tape.backward(loss)
            opt.step()
    predicted = network(Tensor(test.features)).data.argmax(axis=1)
    return Probe(network=network, test_accuracy=float((predicted == test.labels).mean()))


def probe_match_rate(generator, partition, probe, samples_per_class, rng):
    """Fraction of conditional samples the probe assigns to the requested class.

    Refuses to measure with a probe below the accuracy floor: a classifier
    that cannot read real data says nothing about generated data.
    """
    if probe.test_accuracy < PROBE_ACCURACY_FLOOR:
        raise ValueError(
            f"probe test accuracy {probe.test_accuracy:.4f} is below the "
            f"{PROBE_ACCURACY_FLOOR} floor; refusing to evaluate with it")
    n = partition.n_classes
    labels = np.repeat(np.arange(n), samples_per_class)
    x = _generate(generator, partition, labels, rng)
    assigned = probe.network(Tensor(x)).data.argmax(axis=1)
    return float((assigned == labels).mean()), _confusion(labels, assigned, n)


def per_class_histograms(generator, partition, rng, samples_per_class=500,
                         bins=JSD_BINS, box=JSD_BOX):
    """2-D histogram of generated points for each class, normalized."""
    lo, hi = box
    edges = np.linspace(lo, hi, bins + 1)
    members = []
    for c in range(partition.n_classes):
        labels = np.full(samples_per_class, c)
        x = _generate(generator, partition, labels, rng)
        x = np.clip(x, lo, hi - 1e-9)  # out-of-box mass lands in edge bins
        h, _, _ = np.histogram2d(x[:, 0], x[:, 1], bins=[edges, edges])
        members.append(h.ravel() / h.sum())
    return DistributionFamily(np.array(members))


def jsd_snapshot(generator, partition, rng, samples_per_class=500,
                 bins=JSD_BINS, box=JSD_BOX):
    """Histogram JSD estimate for one generator state.

    Rounded to 1e-9: the estimator's statistical error at 500 samples per
    class is orders of magnitude above that, and the rounding keeps
    saturated values (disjoint supports give exactly log N) comparable as
    exact ties instead of float-summation jitter.
    """
    family = per_class_histograms(generator, partition, rng, samples_per_class, bins, box)
    return round(generalized_jsd(family), 9)


def jsd_trend(generators, partition, bins=JSD_BINS, box=JSD_BOX,
              samples_per_class=500, seed=0):
    """Per-snapshot JSD estimates, aligned with the given generator snapshots."""
    return [
        jsd_snapshot(g, partition, np.random.default_rng([seed, _TAG_EVAL, i]),
                     samples_per_class, bins, box)
        for i, g in enumerate(generators)
    ]


def probe_label_jsd(generator, partition, probe, rng, samples_per_class=500):
    """JSD between per-class probe-label distributions (image-run analog).

    The 2-D histogram estimate needs closed-form coordinates; for images the
    per-class distribution over the probe's assigned labels plays that role.
    """
    n = partition.n_classes
    labels = np.repeat(np.arange(n), samples_per_class)
    x = _generate(generator, partition, labels, rng)
    assigned = probe.network(Tensor(x)).data.argmax(axis=1)
    members = np.zeros((n, n))
    np.add.at(members, (labels, assigned), 1.0)
    members /= members.sum(axis=1, keepdims=True)
    return round(generalized_jsd(DistributionFamily(members)), 9)


def emit_sample_grid(generator, partition, rows_per_class, path, rng,
                     image_shape=(28, 28)):
    """Write a P5 PGM: one row of generated images per class.

    Generator outputs in [0, 1] map to 0-255; N classes and K columns give
    an (N*h) x (K*w) pixel image.
    """
    n = partition.n_classes
    h, w = image_shape
    labels = np.repeat(np.arange(n), rows_per_class)
    x = _generate(generator, partition, labels, rng)
    if x.shape[1] != h * w:
        raise ValueError(f"generator emits {x.shape[1]} features, grid needs {h}x{w}")
    pixels = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8)
    tiles = pixels.reshape(n, rows_per_class, h, w)
    canvas = tiles.transpose(0, 2, 1, 3).reshape(n * h, rows_per_class * w)
    header = f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii")
    try:
        with open(path, "wb") as f:
            f.write(header + canvas.tobytes())
    except OSError as e:
        raise OSError(f"could not write sample grid to {path}: {e}") from e
    return path


# ---------------------------------------------------------------------------
# the run itself

_ARCH = {
    # data_dim, generator hidden, discriminator hidden, classifier hidden, output
    "mixture2d": (2, (32, 32), (32, 32), (32,), "linear"),
    "mnist": (784, (256,), (256,), (128,), "sigmoid"),
}


def _resolve_mnist_files(config, mnist_dir):
    """Locate the four IDX files; synthesize a stand-in corpus if none given.

    A directory can be supplied via argument or AUXGAN_MNIST_DIR.  Without
    one, a deterministic synthetic digit corpus is generated under the run's
    output directory so image runs work offline.
    """
    directory = mnist_dir or os.environ.get("AUXGAN_MNIST_DIR")
    if directory:
        names = {
            "train_images": "train-images-idx3-ubyte",
            "train_labels": "train-labels-idx1-ubyte",
            "test_images": "t10k-images-idx3-ubyte",
            "test_labels": "t10k-labels-idx1-ubyte",
        }
        paths = {k: os.path.join(directory, v) for k, v in names.items()}
        missing = [p for p in paths.values() if not os.path.exists(p)]
        if missing:
            raise FileNotFoundError(f"missing IDX files: {missing}")
        return paths
    return write_synthetic_digit_files(os.path.join(config.output_dir, "data"))


def _evaluate(trio, config, mixture_spec, probe, step, losses, t0):
    eval_rng = np.random.default_rng([config.seed, _TAG_EVAL, step])
    if config.dataset == "mixture2d":
        match, confusion = class_match_rate(
            trio.generator, trio.partition, mixture_spec, 500, eval_rng)
        jsd = jsd_snapshot(trio.generator, trio.partition,
                           np.random.default_rng([config.seed, _TAG_EVAL, step, 1]))
    else:
        match, confusion = probe_match_rate(trio.generator, trio.partition, probe, 200, eval_rng)
        jsd = probe_label_jsd(trio.generator, trio.partition, probe,
                              np.random.default_rng([config.seed, _TAG_EVAL, step, 1]), 200)
    record = MetricsRecord(
        step=step,
        d_loss=None if losses is None else losses.d_loss,
        g_loss=None if losses is None else losses.g_loss,
        c_loss=None if losses is None else losses.c_loss,
        class_match_rate=match,
        jsd_estimate=jsd,
        wall_time=time.time() - t0,
    )
    return record, confusion


def run_experiment(config, mnist_dir=None, log=print):
    """Train per the config and write every artifact under config.output_dir.

    Returns the final MetricsRecord.  If a loss turns non-finite the partial
    metrics.csv is kept and the TrainingDiverged propagates to the caller.
    """
    t0 = time.time()
    os.makedirs(config.output_dir, exist_ok=True)
    scheme_cfg = config.scheme

    mixture_spec = None
    probe = None
    train_set = None
    if config.dataset == "mixture2d":
        if scheme_cfg.n_classes > 8:
            raise ValueError("the ring layout supports at most 8 well-separated classes")
        mixture_spec = GaussianMixtureSpec.ring(n_classes=scheme_cfg.n_classes)
        steps_per_epoch = scheme_cfg.steps_per_epoch
    else:
        paths = _resolve_mnist_files(config, mnist_dir)
        train_set = load_mnist(paths["train_images"], paths["train_labels"])
        test_set = load_mnist(paths["test_images"], paths["test_labels"])
        n_classes = int(train_set.labels.max()) + 1
        if n_classes != scheme_cfg.n_classes:
            raise ValueError(f"dataset has {n_classes} classes, "
                             f"config says {scheme_cfg.n_classes}")
        probe_rng = np.random.default_rng([config.seed, _TAG_PROBE])
        probe = train_probe(train_set, test_set, config.probe_hidden,
                            config.probe_epochs, probe_rng)
        log(f"probe test accuracy: {probe.test_accuracy:.4f}")
        save_probe_checkpoint(os.path.join(config.output_dir, "probe"),
                              probe.network, probe.test_accuracy, config.seed)
        # one epoch = one full shuffled pass over the real training set
        steps_per_epoch = train_set.labels.size // scheme_cfg.batch_size

    data_dim, g_hidden, d_hidden, c_hidden, g_out = _ARCH[config.dataset]
    trio = build_trio(scheme_cfg, data_dim,
                      rng=np.random.default_rng([config.seed, _TAG_BUILD]),
                      generator_hidden=g_hidden, discriminator_hidden=d_hidden,
                      classifier_hidden=c_hidden, generator_output=g_out)

    train_rng = np.random.default_rng([config.seed, _TAG_TRAIN])
    total_steps = steps_per_epoch * scheme_cfg.epochs
    metrics_path = os.path.join(config.output_dir, "metrics.csv")

    record = confusion = None
    with open(metrics_path, "w") as metrics_file:
        metrics_file.write(",".join(MetricsRecord.CSV_FIELDS) + "\n")

        def emit(step, losses):
            nonlocal record, confusion
            record, confusion = _evaluate(trio, config, mixture_spec, probe, step, losses, t0)
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
        grid_rng = np.random.default_rng([config.seed, _TAG_EVAL, total_steps, 2])
        emit_sample_grid(trio.generator, trio.partition, 8,
                         os.path.join(config.output_dir,
                                      f"samples_step{total_steps:04d}.pgm"),
                         grid_rng)
    log(f"run finished in {time.time() - t0:.1f}s; artifacts in {config.output_dir}")
    return record
