import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import auxgan
import auxgan.harness as harness
import auxgan.schemes as schemes
import auxgan.tensor as tensor
from auxgan.cli import main
from auxgan.data import (LABEL_MAGIC, GaussianMixtureSpec, IdxFile, read_idx, write_idx,
                         write_synthetic_digit_files)
from auxgan.harness import (JSD_BINS, JSD_BOX, JSD_EDGES, ConfusionMatrix, ExperimentConfig,
                            MetricsRecord, Probe, class_histograms, class_match_rate,
                            emit_sample_grid, jsd_snapshot, probe_label_jsd,
                            probe_match_rate, run_experiment)
from auxgan.divergence import DistributionFamily, generalized_jsd
from auxgan.nn import MLP
from auxgan.schemes import (LatentPartition, SchemeConfig, TrainingDiverged, build_trio,
                            load_checkpoint, load_probe_checkpoint, sample_latent)
from auxgan.tensor import Tensor


class LabelMapGenerator:
    """Stub generator: requested class c always produces rows[c]."""

    def __init__(self, rows, n_classes):
        self.rows = np.asarray(rows, dtype=float)
        self.n = n_classes

    def __call__(self, z):
        labels = z.data[:, :self.n].argmax(axis=1)
        return Tensor(self.rows[labels])


class IdentityNetwork:
    def __call__(self, x):
        return x


def _config(**kw):
    scheme_kw = {"scheme": "vacgan", "n_classes": 4, "noise_dim": 8}
    scheme_kw.update(kw.pop("scheme_kw", {}))
    return ExperimentConfig(dataset="mixture2d", scheme=SchemeConfig(**scheme_kw), **kw)


# ---------------------------------------------------------------------------
# config plumbing

def test_config_json_round_trip():
    cfg = _config(seed=3, output_dir="somewhere", eval_every=50,
                  probe_hidden=(64,), probe_epochs=2)
    assert ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_top_level_key():
    raw = {"dataset": "mixture2d", "scheme": {"scheme": "gan", "n_classes": 2},
           "sedd": 1}
    with pytest.raises(ValueError, match="sedd"):
        ExperimentConfig.from_dict(raw)


def test_config_rejects_unknown_scheme_key():
    raw = {"dataset": "mixture2d",
           "scheme": {"scheme": "gan", "n_classes": 2, "learning_rate": 1e-3}}
    with pytest.raises(ValueError, match="learning_rate"):
        ExperimentConfig.from_dict(raw)


def test_config_requires_scheme_object():
    with pytest.raises(ValueError, match="scheme"):
        ExperimentConfig.from_dict({"dataset": "mixture2d"})
    with pytest.raises(ValueError):
        ExperimentConfig.from_json('["not", "an", "object"]')


def test_config_rejects_bad_dataset():
    with pytest.raises(ValueError, match="dataset"):
        ExperimentConfig(dataset="cifar",
                         scheme=SchemeConfig(scheme="gan", n_classes=2))


@pytest.mark.parametrize("key, value", [
    ("batch_size", 0), ("batch_size", "64"), ("epochs", -1), ("noise_dim", -3),
    ("theta", float("nan")), ("n_classes", 2.5), ("steps_per_epoch", 0), ("seed", "x"),
    ("eval_every", True), ("probe_epochs", 0), ("probe_hidden", (0,)), ("output_dir", 5),
    ("output_dir", None), ("output_dir", ["a"]), ("output_dir", ""),
])
def test_config_rejects_bad_value_naming_the_key(key, value):
    raw = {"dataset": "mixture2d", "scheme": {"scheme": "vacgan", "n_classes": 4}}
    (raw["scheme"] if key in SchemeConfig.__dataclass_fields__ else raw)[key] = value
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(raw)


def test_mnist_config_rejects_steps_per_epoch_it_would_ignore():
    raw = {"dataset": "mnist",
           "scheme": {"scheme": "vacgan", "n_classes": 10, "steps_per_epoch": 20}}
    with pytest.raises(ValueError, match="steps_per_epoch.*got 20"):
        ExperimentConfig.from_dict(raw)
    raw["scheme"]["steps_per_epoch"] = 100  # the default, spelled out
    assert ExperimentConfig.from_dict(raw).scheme.steps_per_epoch == 100
    # the acceptance digit run leaves it out
    ExperimentConfig(dataset="mnist", scheme=SchemeConfig(scheme="vacgan", n_classes=10,
                                                          noise_dim=16, epochs=5))


def test_config_rejects_nonpositive_eval_every():
    with pytest.raises(ValueError, match="eval_every"):
        _config(eval_every=0)


def test_config_from_file(tmp_path):
    cfg = _config(seed=11)
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json())
    assert ExperimentConfig.from_file(path) == cfg


def test_metrics_csv_row_formats():
    rec = MetricsRecord(step=5, d_loss=None, g_loss=None, c_loss=None,
                        class_match_rate=0.25, jsd_estimate=1.0, wall_time=3.3)
    assert rec.csv_row() == "5,,,,0.25,1.0"
    rec = MetricsRecord(step=100, d_loss=1.25, g_loss=0.5, c_loss=0.125,
                        class_match_rate=0.875, jsd_estimate=1.386294361)
    assert rec.csv_row() == "100,1.25,0.5,0.125,0.875,1.386294361"


def test_metrics_csv_fields_exclude_wall_time():
    assert "wall_time" not in MetricsRecord.CSV_FIELDS
    assert MetricsRecord.CSV_FIELDS[0] == "step"


def test_confusion_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        ConfusionMatrix(np.array([[1, -1], [0, 1]]))


def test_confusion_match_rate_and_csv():
    cm = ConfusionMatrix(np.array([[3, 1], [0, 4]]))
    assert cm.match_rate() == pytest.approx(7 / 8)
    assert cm.to_csv() == "3,1\n0,4\n"


# ---------------------------------------------------------------------------
# evaluation pieces

def test_class_match_rate_perfect_stub():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    partition = LatentPartition(n_classes=4, noise_dim=2)
    gen = LabelMapGenerator(spec.means, 4)
    rate, cm, _ = class_match_rate(gen, partition, spec, 50, np.random.default_rng(0))
    assert rate == 1.0
    assert np.array_equal(cm.counts, np.eye(4, dtype=int) * 50)


def test_class_match_rate_tie_breaks_to_lowest_index():
    # the origin is equidistant from every ring mean, so argmin gives class 0
    spec = GaussianMixtureSpec.ring(n_classes=4)
    partition = LatentPartition(n_classes=4, noise_dim=2)
    gen = LabelMapGenerator(np.zeros((4, 2)), 4)
    rate, cm, _ = class_match_rate(gen, partition, spec, 50, np.random.default_rng(0))
    assert rate == 0.25
    assert np.array_equal(cm.counts[:, 0], np.full(4, 50))
    assert cm.counts[:, 1:].sum() == 0


class PointSetGenerator:
    """Stub generator: a block of requested class c gives the rows of sets[c]."""

    def __init__(self, sets):
        self.sets = np.asarray(sets, dtype=float)

    def __call__(self, z):
        labels = z.data[:, :len(self.sets)].argmax(axis=1)
        return Tensor(self.sets[labels[0]][:len(labels)])


def test_class_match_rate_equals_the_summed_squares_reference():
    # (t, t) is exactly as far from (1, 0) as from (0, 1), (-t, -t) from (-1, 0)
    # as from (0, -1), and (t, -t) from (1, 0) as from (0, -1): each tie goes to
    # the lower class index.  A NaN point is at NaN from every mean: class 0.
    means = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    spec = GaussianMixtureSpec(n_classes=4, means=means)
    t = np.array([0.3, 0.7, 1.9, 5.0, 1e-3])
    sets = np.stack([np.c_[t, t], np.c_[-t, -t], np.c_[t, -t],
                     [[0.0, 0.0], [np.nan, 0.5], [0.25, np.nan], [np.inf, 1.0], [0.1, -2.0]]])
    partition = LatentPartition(n_classes=4, noise_dim=2)
    rate, cm, points = class_match_rate(PointSetGenerator(sets), partition, spec, len(t),
                                        np.random.default_rng(0))
    assert points.tobytes() == sets.tobytes()

    assigned = ((sets[:, :, None, :] - means) ** 2).sum(axis=-1).argmin(axis=-1)
    assert np.array_equal(cm.counts, _reference_confusion(np.repeat(np.arange(4), len(t)),
                                                          assigned.ravel(), 4))
    assert assigned[:3].tolist() == [[0] * 5, [1] * 5, [0] * 5]
    assert assigned[3].tolist() == [0, 0, 0, 0, 3]
    assert rate == (5 + 5 + 0 + 1) / 20


def test_untrained_trio_match_is_near_chance():
    spec = GaussianMixtureSpec.ring(n_classes=4)
    cfg = SchemeConfig(scheme="vacgan", n_classes=4, noise_dim=8)
    trio = build_trio(cfg, 2, rng=np.random.default_rng([7, 0]),
                      generator_hidden=(32, 32), discriminator_hidden=(32, 32),
                      classifier_hidden=(32,), generator_output="linear")
    rate, _, _ = class_match_rate(trio.generator, trio.partition, spec, 2500,
                                  np.random.default_rng([7, 2, 0]))
    assert abs(rate - 0.25) <= 0.05


def test_probe_gate_refuses_weak_probe():
    probe = Probe(network=IdentityNetwork(), test_accuracy=0.90)
    partition = LatentPartition(n_classes=4, noise_dim=2)
    gen = LabelMapGenerator(np.eye(4), 4)
    with pytest.raises(ValueError, match="floor"):
        probe_match_rate(gen, partition, probe, 10, np.random.default_rng(0))


def test_probe_match_rate_counts_per_requested_class():
    probe = Probe(network=IdentityNetwork(), test_accuracy=1.0)
    partition = LatentPartition(n_classes=4, noise_dim=2)
    gen = LabelMapGenerator(np.eye(4), 4)
    rate, cm = probe_match_rate(gen, partition, probe, 25, np.random.default_rng(0))
    assert rate == 1.0
    assert cm.counts.sum(axis=1).tolist() == [25] * 4
    assert np.array_equal(cm.counts, np.eye(4, dtype=int) * 25)


def _ring_points(gen, partition):
    """The per-class points of one 500-per-class evaluation sample set."""
    spec = GaussianMixtureSpec.ring(n_classes=partition.n_classes)
    return class_match_rate(gen, partition, spec, 500, np.random.default_rng(0))[2]


def _label_confusion(gen, partition, probe):
    return probe_match_rate(gen, partition, probe, 500, np.random.default_rng(0))[1]


def test_jsd_snapshot_identical_classes_is_zero():
    partition = LatentPartition(n_classes=4, noise_dim=2)
    gen = LabelMapGenerator(np.full((4, 2), 0.5), 4)
    assert jsd_snapshot(_ring_points(gen, partition)) == 0.0


def test_jsd_snapshot_disjoint_classes_is_log_n():
    partition = LatentPartition(n_classes=4, noise_dim=2)
    corners = np.array([[-3.0, -3.0], [-3.0, 3.0], [3.0, -3.0], [3.0, 3.0]])
    gen = LabelMapGenerator(corners, 4)
    value = jsd_snapshot(_ring_points(gen, partition))
    assert value == pytest.approx(np.log(4.0), abs=1e-9)


def _histogram2d_snapshot(points):
    """The reference estimate: one np.histogram2d per class of the clipped points."""
    lo, hi = JSD_BOX
    edges = np.linspace(lo, hi, JSD_BINS + 1)
    clipped = np.clip(points, lo, hi - 1e-9)
    members = np.array([np.histogram2d(x[:, 0], x[:, 1], bins=[edges, edges])[0].ravel()
                        for x in clipped])
    members /= members.sum(axis=1, keepdims=True)
    return round(generalized_jsd(DistributionFamily(members)), 9)


def _trio_ring_points(seed, nan_rows=()):
    trio = _random_trio(2, seed)
    points = _ring_points(trio.generator, trio.partition)
    for c, row, axis in nan_rows:
        points[c, row, axis] = np.nan
    return points


@pytest.mark.parametrize("points", [
    lambda: _ring_points(LabelMapGenerator(np.full((4, 2), 0.5), 4),
                         LatentPartition(n_classes=4, noise_dim=2)),
    lambda: _ring_points(LabelMapGenerator([[-3.0, -3.0], [-3.0, 3.0], [3.0, -3.0],
                                            [3.0, 3.0]], 4),
                         LatentPartition(n_classes=4, noise_dim=2)),
    lambda: _trio_ring_points(0),
    lambda: _trio_ring_points(1),
    lambda: _trio_ring_points(2),
    lambda: _trio_ring_points(0, nan_rows=[(0, 3, 1), (1, 7, 0), (3, 499, 1)]),
], ids=["identical", "disjoint", "trio-0", "trio-1", "trio-2", "trio-0-nan"])
def test_jsd_snapshot_equals_the_histogram2d_reference(points):
    points = points()
    assert jsd_snapshot(points) == _histogram2d_snapshot(points)


def test_the_jsd_bin_edges_are_the_read_only_even_edges_of_the_box():
    assert np.array_equal(JSD_EDGES, np.linspace(*JSD_BOX, JSD_BINS + 1))
    with pytest.raises(ValueError, match="read-only"):
        JSD_EDGES[0] = 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_class_histograms_count_what_histogram2d_counts(data, n):
    # points inside and outside the box, exactly on bin edges, at +-inf and NaN
    lo, hi = JSD_BOX
    edges = np.linspace(lo, hi, JSD_BINS + 1)
    special = [*edges, lo - 1.0, hi + 1.0, hi - 1e-9, np.inf, -np.inf, np.nan]
    coordinate = st.one_of(st.floats(lo - 2.0, hi + 2.0), st.sampled_from(special))
    k = data.draw(st.integers(1, 30))
    points = data.draw(hnp.arrays(np.float64, (n, k, 2), elements=coordinate))

    counts = class_histograms(points)
    assert counts.shape == (n, JSD_BINS * JSD_BINS)
    clipped = np.clip(points, lo, hi - 1e-9)
    for c in range(n):
        reference = np.histogram2d(clipped[c, :, 0], clipped[c, :, 1], bins=[edges, edges])[0]
        assert np.array_equal(counts[c], reference.ravel())
    assert counts.sum(axis=1).tolist() == (~np.isnan(points).any(axis=2)).sum(axis=1).tolist()


def test_probe_label_jsd_extremes():
    partition = LatentPartition(n_classes=3, noise_dim=2)
    probe = Probe(network=IdentityNetwork(), test_accuracy=1.0)
    separated = LabelMapGenerator(np.eye(3), 3)
    value = probe_label_jsd(_label_confusion(separated, partition, probe))
    assert value == pytest.approx(np.log(3.0), abs=1e-9)
    collapsed = LabelMapGenerator(np.tile([1.0, 0.0, 0.0], (3, 1)), 3)
    value = probe_label_jsd(_label_confusion(collapsed, partition, probe))
    assert value == 0.0


def test_probe_label_jsd_equals_a_second_pass_on_the_same_stream():
    # the per-class label distributions of a generate-and-classify pass are
    # the rows of the confusion matrix the match pass already counted
    partition = LatentPartition(n_classes=4, noise_dim=3)
    cfg = SchemeConfig(scheme="gan", n_classes=4, noise_dim=3)
    gen = build_trio(cfg, 6, rng=np.random.default_rng(5), generator_hidden=(16,),
                     discriminator_hidden=(8,)).generator
    probe = Probe(network=MLP((6, 12, 4), ("relu", "linear"), rng=np.random.default_rng(6)),
                  test_accuracy=1.0)
    _, confusion = probe_match_rate(gen, partition, probe, 200, np.random.default_rng(3))

    rng = np.random.default_rng(3)
    labels = np.repeat(np.arange(4), 200)
    x = gen(sample_latent(partition, labels, rng)).data
    assigned = probe.network(Tensor(x)).data.argmax(axis=1)
    members = np.zeros((4, 4))
    np.add.at(members, (labels, assigned), 1.0)
    members /= members.sum(axis=1, keepdims=True)
    reference = round(generalized_jsd(DistributionFamily(members)), 9)

    assert 0.0 < reference < np.log(4.0)  # neither extreme, so the rows differ in earnest
    assert probe_label_jsd(confusion) == reference


class CountingGenerator(LabelMapGenerator):
    """Records the requested classes of each block of rows it generates."""

    def __init__(self, rows, n_classes):
        super().__init__(rows, n_classes)
        self.blocks = []

    def __call__(self, z):
        self.blocks.append(z.data[:, :self.n].argmax(axis=1))
        return super().__call__(z)


@pytest.mark.parametrize("dataset", ["mixture2d", "mnist"])
def test_one_evaluation_runs_the_generator_once(dataset):
    # one pass over the sample set, one class block at a time: every latent
    # row is generated exactly once and each class block is seen once
    n = 4
    per_class = 500 if dataset == "mixture2d" else 200
    partition = LatentPartition(n_classes=n, noise_dim=2)
    spec = GaussianMixtureSpec.ring(n_classes=n)
    gen = CountingGenerator(spec.means if dataset == "mixture2d" else np.eye(n), n)
    trio = SimpleNamespace(generator=gen, partition=partition, data_dim=gen.rows.shape[1])
    probe = None if dataset == "mixture2d" else Probe(network=IdentityNetwork(),
                                                      test_accuracy=1.0)
    match, _, jsd = harness.evaluate(trio, probe, 0, 0)
    assert sum(len(block) for block in gen.blocks) == n * per_class
    assert [np.unique(block).tolist() for block in gen.blocks] == [[c] for c in range(n)]
    assert match == 1.0
    assert jsd == pytest.approx(np.log(n), abs=1e-9)


def _random_trio(data_dim, seed):
    """Untrained vacgan networks at ring widths (data_dim 2) or digit widths (784)."""
    n = 4 if data_dim == 2 else 10
    cfg = SchemeConfig(scheme="vacgan", n_classes=n, noise_dim=8 if data_dim == 2 else 16)
    arch = {} if data_dim == 2 else harness._IMAGE_ARCH
    return build_trio(cfg, data_dim, rng=np.random.default_rng(seed), **arch)


def _whole_set(gen, partition, k, rng):
    """The reference pass: one latent for the whole set and one generator call."""
    labels = np.repeat(np.arange(partition.n_classes), k)
    return labels, gen(sample_latent(partition, labels, rng)).data


def _reference_confusion(labels, assigned, n):
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (labels, assigned), 1)
    return counts


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_class_match_rate_equals_the_whole_set_pass(seed):
    trio = _random_trio(2, seed)
    spec = GaussianMixtureSpec.ring(n_classes=4)
    rate, confusion, points = class_match_rate(trio.generator, trio.partition, spec, 500,
                                               np.random.default_rng(seed + 10))
    labels, x = _whole_set(trio.generator, trio.partition, 500, np.random.default_rng(seed + 10))
    d2 = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
    counts = _reference_confusion(labels, d2.argmin(axis=1), 4)
    assert rate == np.trace(counts) / counts.sum()
    assert np.array_equal(confusion.counts, counts)
    assert points.tobytes() == x.reshape(4, 500, -1).tobytes()


@pytest.mark.parametrize("data_dim", [2, 784])
@pytest.mark.parametrize("seed", [0, 1])
def test_blocked_probe_match_rate_equals_the_whole_set_pass(data_dim, seed):
    trio = _random_trio(data_dim, seed)
    n = trio.partition.n_classes
    network = MLP((data_dim, 128, n), ("relu", "linear"), rng=np.random.default_rng(seed + 5))
    rate, confusion = probe_match_rate(trio.generator, trio.partition, Probe(network, 1.0), 200,
                                       np.random.default_rng(seed + 20))
    labels, x = _whole_set(trio.generator, trio.partition, 200, np.random.default_rng(seed + 20))
    counts = _reference_confusion(labels, network(Tensor(x)).data.argmax(axis=1), n)
    assert 0 < np.trace(counts) < counts.sum()  # a mixed confusion, not a trivial one
    assert rate == np.trace(counts) / counts.sum()
    assert np.array_equal(confusion.counts, counts)


def test_blocked_sample_grid_equals_the_whole_set_pass(tmp_path):
    trio = _random_trio(784, 3)
    path = emit_sample_grid(trio.generator, trio.partition, 8, tmp_path / "grid.pgm",
                            np.random.default_rng(30))
    _, x = _whole_set(trio.generator, trio.partition, 8, np.random.default_rng(30))
    tiles = np.clip(np.rint(x * 255.0), 0, 255).astype(np.uint8).reshape(10, 8, 28, 28)
    canvas = tiles.transpose(0, 2, 1, 3).reshape(10 * 28, 8 * 28)
    assert path.read_bytes() == b"P5\n224 280\n255\n" + canvas.tobytes()


def test_probe_match_rate_holds_one_class_block_at_a_time():
    # 784 wide, 200 per class: the whole set's outputs would be 2000 x 784 x 8 B
    cfg = SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16)
    trio = build_trio(cfg, 784, rng=np.random.default_rng(0), generator_hidden=(16,),
                      discriminator_hidden=(16,), generator_output="sigmoid")
    probe = Probe(MLP((784, 16, 10), ("relu", "linear"), rng=np.random.default_rng(1)), 1.0)
    tracemalloc.start()
    try:
        probe_match_rate(trio.generator, trio.partition, probe, 200, np.random.default_rng(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 * 784 * 8 // 4


def test_probe_match_rate_holds_at_most_two_class_blocks_with_the_helper(monkeypatch):
    # at digit width the helper generates and reads every second block
    # beside the one before it; the result is the serial one
    cfg = SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16)
    trio = build_trio(cfg, 784, rng=np.random.default_rng(0), **harness._IMAGE_ARCH)
    probe = Probe(MLP((784, 128, 10), ("relu", "linear"), rng=np.random.default_rng(1)), 1.0)

    # the helper stays off while tracemalloc is loaded; it is started and
    # stopped here only while the helper is idle
    monkeypatch.delitem(sys.modules, "tracemalloc")

    def measured(helper_min_params):
        monkeypatch.setattr(tensor, "HELPER_MIN_PARAMS", helper_min_params)
        schemes._helper_for(trio.generator)  # a first use makes the executor: not measured
        tracemalloc.start()
        try:
            _, confusion = probe_match_rate(trio.generator, trio.partition, probe, 200,
                                            np.random.default_rng(2))
            return confusion, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serial, one_block = measured(float("inf"))
    beside, peak = measured(0)
    assert np.array_equal(beside.counts, serial.counts)
    assert one_block < 2000 * 784 * 8 // 3  # the whole set's outputs: 2000 x 784 x 8 B
    assert peak <= 2 * one_block + 2**16  # and the futures' bookkeeping


def test_a_ring_run_starts_no_thread(tmp_path):
    # ring networks are far below tensor.HELPER_MIN_PARAMS: the run stays on its
    # thread and never imports the executor
    code = "\n".join([
        "import sys, threading",
        f"sys.path.insert(0, {os.path.dirname(os.path.dirname(auxgan.__file__))!r})",
        "from auxgan.harness import ExperimentConfig, run_experiment",
        "from auxgan.schemes import SchemeConfig",
        "scheme = SchemeConfig(scheme='vacgan', n_classes=4, steps_per_epoch=5, epochs=1)",
        f"run_experiment(ExperimentConfig(dataset='mixture2d', scheme=scheme, eval_every=5,"
        f" output_dir={str(tmp_path)!r}), log=lambda *_: None)",
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == ["1", "False"]


@pytest.mark.parametrize("call", [
    lambda gen, part, k: class_match_rate(gen, part, GaussianMixtureSpec.ring(n_classes=2),
                                          k, np.random.default_rng(0)),
    lambda gen, part, k: probe_match_rate(gen, part, Probe(IdentityNetwork(), 1.0), k,
                                          np.random.default_rng(0)),
])
@pytest.mark.parametrize("k", [0, -3])
def test_evaluations_reject_fewer_than_one_sample_per_class(call, k):
    partition = LatentPartition(n_classes=2, noise_dim=2)
    gen = LabelMapGenerator(np.eye(2), 2)
    with pytest.raises(ValueError, match="samples_per_class"):
        call(gen, partition, k)


# ---------------------------------------------------------------------------
# sample grids

def test_sample_grid_black_stub(tmp_path):
    partition = LatentPartition(n_classes=10, noise_dim=4)
    gen = LabelMapGenerator(np.zeros((10, 784)), 10)
    path = tmp_path / "grid.pgm"
    emit_sample_grid(gen, partition, 8, path, np.random.default_rng(0))
    raw = path.read_bytes()
    header = b"P5\n224 280\n255\n"
    assert raw.startswith(header)
    assert len(raw) == len(header) + 10 * 28 * 8 * 28
    assert set(raw[len(header):]) == {0}


def test_sample_grid_pixel_values(tmp_path):
    rows = np.stack([np.full(784, c / 9.0) for c in range(10)])
    gen = LabelMapGenerator(rows, 10)
    partition = LatentPartition(n_classes=10, noise_dim=4)
    path = tmp_path / "grid.pgm"
    emit_sample_grid(gen, partition, 8, path, np.random.default_rng(0))
    raw = path.read_bytes()
    canvas = np.frombuffer(raw[len(b"P5\n224 280\n255\n"):], dtype=np.uint8)
    canvas = canvas.reshape(280, 224)
    for c in range(10):
        band = canvas[c * 28:(c + 1) * 28]
        assert (band == np.rint(255.0 * c / 9.0)).all()


@pytest.mark.parametrize("rows", [0, -1])
def test_sample_grid_rejects_fewer_than_one_row_per_class(tmp_path, rows):
    partition = LatentPartition(n_classes=2, noise_dim=2)
    gen = LabelMapGenerator(np.zeros((2, 784)), 2)
    with pytest.raises(ValueError, match="rows_per_class"):
        emit_sample_grid(gen, partition, rows, tmp_path / "none.pgm", np.random.default_rng(0))
    assert not (tmp_path / "none.pgm").exists()


def test_sample_grid_takes_its_image_side_from_the_generator_width(tmp_path):
    rows = np.stack([np.full(256, c / 9.0) for c in range(10)])
    path = tmp_path / "grid.pgm"
    emit_sample_grid(LabelMapGenerator(rows, 10), LatentPartition(n_classes=10, noise_dim=4), 8,
                     path, np.random.default_rng(0))
    header = b"P5\n128 160\n255\n"  # 8 columns and 10 rows of 16x16 images
    raw = path.read_bytes()
    assert raw.startswith(header)
    canvas = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(160, 128)
    for c in range(10):
        assert (canvas[c * 16:(c + 1) * 16] == np.rint(255.0 * c / 9.0)).all()


def test_sample_grid_rejects_wrong_feature_count(tmp_path):
    partition = LatentPartition(n_classes=2, noise_dim=2)
    gen = LabelMapGenerator(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError, match="generator emits 2 features, not a square image"):
        emit_sample_grid(gen, partition, 4, tmp_path / "bad.pgm",
                         np.random.default_rng(0))
    assert not (tmp_path / "bad.pgm").exists()


# ---------------------------------------------------------------------------
# full runs

def test_run_with_zero_epochs_evaluates_once(tmp_path):
    out = tmp_path / "run0"
    cfg = _config(scheme_kw={"steps_per_epoch": 5, "epochs": 0},
                  seed=7, output_dir=str(out))
    record = run_experiment(cfg, log=lambda *_: None)
    assert record.step == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "step,d_loss,g_loss,c_loss,class_match_rate,jsd_estimate"
    assert len(lines) == 2
    assert lines[1].startswith("0,,,,")  # no losses before the first step
    assert abs(record.class_match_rate - 0.25) <= 0.15
    assert (out / "confusion.csv").read_text().count("\n") == 4
    _, info = load_checkpoint(out)
    assert info["step"] == 0


def test_run_is_byte_deterministic(tmp_path):
    def run(name):
        out = tmp_path / name
        cfg = _config(scheme_kw={"n_classes": 2, "noise_dim": 4, "batch_size": 32,
                                 "steps_per_epoch": 25, "epochs": 2},
                      seed=5, output_dir=str(out), eval_every=25)
        run_experiment(cfg, log=lambda *_: None)
        return out

    a, b = run("a"), run("b")
    for name in ("metrics.csv", "confusion.csv", "checkpoint.bin", "manifest.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("seed", [5, 19])
def test_acceptance_ring_run_keeps_every_mode_on_seeds_that_once_dropped_one(tmp_path, seed):
    # the acceptance ring config (vacgan, 2000 steps); a classifier that also
    # learned from generated samples left one class off its mode on these seeds
    record = run_experiment(_config(seed=seed, output_dir=str(tmp_path)), log=lambda *_: None)
    assert record.step == 2000
    assert record.class_match_rate >= 0.80


def test_evaluate_refuses_a_2d_trio_with_more_classes_than_the_ring_holds():
    trio = build_trio(SchemeConfig(scheme="gan", n_classes=9), 2, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="the ring layout supports at most 8"):
        harness.evaluate(trio, None, seed=0, step=0)


def test_a_run_that_diverges_leaves_no_artifact_of_the_run_before_it(tmp_path, monkeypatch):
    out = tmp_path / "rerun"
    cfg = _config(scheme_kw={"n_classes": 2, "noise_dim": 4, "steps_per_epoch": 10,
                             "epochs": 1}, seed=3, output_dir=str(out), eval_every=5)
    run_experiment(cfg, log=lambda *_: None)
    assert main(["eval", "--checkpoint", str(out)]) == 0
    real_step, calls = harness.train_step, []

    def diverging(*args):
        calls.append(1)
        if len(calls) == 3:
            raise TrainingDiverged("generator loss is not finite")
        return real_step(*args)

    monkeypatch.setattr(harness, "train_step", diverging)
    with pytest.raises(TrainingDiverged):
        run_experiment(cfg, log=lambda *_: None)
    assert sorted(p.name for p in out.iterdir()) == ["metrics.csv"]
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["step", "0"]
    assert main(["eval", "--checkpoint", str(out)]) == 2


def test_a_run_removes_every_finished_file_of_an_earlier_run_but_no_other_file(tmp_path):
    out = tmp_path / "run"
    # the .tmp files are what a process killed inside data.write_file leaves
    finished = ["samples_step9999.pgm", "probe/manifest.txt", "probe/checkpoint.bin",
                "confusion.csv.tmp", "samples_step0040.pgm.tmp", "probe/checkpoint.bin.tmp"]
    kept = ["data/keep", "probe/keep", "data/x.tmp", "notes.tmp"]
    for name in finished + kept + ["confusion.csv"]:
        (out / name).parent.mkdir(parents=True, exist_ok=True)
        (out / name).write_text("earlier run")
    cfg = _config(scheme_kw={"steps_per_epoch": 5, "epochs": 1}, output_dir=str(out),
                  eval_every=5)
    run_experiment(cfg, log=lambda *_: None)
    assert (out / "confusion.csv").read_text() != "earlier run"
    for name in finished:
        assert not (out / name).exists(), name
    for name in kept:
        assert (out / name).read_text() == "earlier run", name


@pytest.fixture(scope="module")
def digits_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("digits")
    write_synthetic_digit_files(directory, n_train=2560, n_test=512)
    return directory


def test_run_mnist_writes_probe_grid_and_metrics(tmp_path, digits_dir, capsys):
    out = tmp_path / "mrun"
    cfg = ExperimentConfig(
        dataset="mnist",
        scheme=SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16,
                            batch_size=64, epochs=1),
        seed=9, output_dir=str(out), eval_every=20,
        probe_hidden=(128,), probe_epochs=6)
    record = run_experiment(cfg, mnist_dir=str(digits_dir), log=lambda *_: None)
    assert record.step == 2560 // 64
    _, accuracy = load_probe_checkpoint(out / "probe")
    assert accuracy >= 0.95
    grid = (out / "samples_step0040.pgm").read_bytes()
    assert grid.startswith(b"P5\n")
    # the grid subcommand draws the same rng stream from the checkpoint
    assert main(["grid", "--checkpoint", str(out), "--out", str(tmp_path / "again.pgm")]) == 0
    assert (tmp_path / "again.pgm").read_bytes() == grid
    # and eval the same sample set as the run's last evaluation
    assert main(["eval", "--checkpoint", str(out), "--out", str(tmp_path / "recount.csv")]) == 0
    assert (tmp_path / "recount.csv").read_bytes() == (out / "confusion.csv").read_bytes()
    lines = (out / "metrics.csv").read_text().splitlines()
    last = lines[-1].split(",")
    printed = capsys.readouterr()[0]
    assert f"match rate: {last[4]}\n" in printed and f"jsd estimate: {last[5]}\n" in printed
    assert len(lines) == 4  # header plus steps 0, 20, 40
    confusion = np.loadtxt(out / "confusion.csv", delimiter=",", dtype=int)
    assert confusion.shape == (10, 10)
    assert confusion.sum(axis=1).tolist() == [200] * 10
    # the losses take logits: D, C and the probe end in linear layers, G in sigmoid
    heads = [line.rsplit(",", 1)[1]
             for manifest in (out / "manifest.txt", out / "probe" / "manifest.txt")
             for line in manifest.read_text().splitlines() if line.startswith("network ")]
    assert heads == ["sigmoid", "linear", "linear", "linear"]


def _digests(directory):
    """{path relative to `directory`: sha256} of every file under it but its corpus."""
    found = {}
    for parent, dirs, files in os.walk(directory):
        dirs[:] = [d for d in dirs if d != "data"]
        for name in files:
            path = Path(parent, name)
            found[str(path.relative_to(directory))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


@pytest.mark.parametrize("dataset, renames", [("mixture2d", 3), ("mnist", 6)])
def test_a_run_cut_at_any_rename_leaves_no_earlier_file_and_only_whole_ones(
        tmp_path, monkeypatch, digits_dir, dataset, renames):
    # each run starts in the directory of a finished run of another seed, and
    # the k-th rename of the new run fails, for every k.  The earlier digit run
    # takes more steps: after 10 steps every seed's digit confusion is the same.
    def run(seed, out, batch_size=256):
        if dataset == "mixture2d":
            cfg = _config(scheme_kw={"n_classes": 2, "noise_dim": 4, "steps_per_epoch": 5,
                                     "epochs": 1}, seed=seed, output_dir=str(out))
        else:
            cfg = ExperimentConfig(
                dataset="mnist", seed=seed, output_dir=str(out), probe_epochs=6,
                scheme=SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16,
                                    batch_size=batch_size, epochs=1))
        run_experiment(cfg, mnist_dir=str(digits_dir), log=lambda *_: None)

    earlier, whole = tmp_path / "earlier", tmp_path / "whole"
    run(1, earlier, batch_size=32)
    replace, calls = os.replace, []

    def cut(source, target):
        calls.append(target)
        if len(calls) == k:
            raise OSError("cut")
        replace(source, target)

    k = 0  # the uncut run counts its renames
    monkeypatch.setattr(os, "replace", cut)
    run(2, whole)
    monkeypatch.undo()
    assert len(calls) == renames
    old, new = _digests(earlier), _digests(whole)
    assert not set(old.values()) & set(new.values())  # every file tells the two runs apart
    for k in range(1, renames + 1):
        out, calls = tmp_path / f"cut{k}", []
        shutil.copytree(earlier, out)
        monkeypatch.setattr(os, "replace", cut)
        with pytest.raises(OSError, match="cut"):
            run(2, out)
        monkeypatch.undo()
        present = _digests(out)
        assert not set(present.values()) & set(old.values()), k
        assert not list(out.rglob("*.tmp")), k  # the cut write took its tmp with it
        for name, digest in present.items():
            if name == "manifest.txt":
                load_checkpoint(out)
            elif name == os.path.join("probe", "manifest.txt"):
                load_probe_checkpoint(out / "probe")
            elif name == "confusion.csv" or name.endswith(".pgm"):
                assert digest == new[name], (k, name)


def test_run_mnist_refuses_test_labels_outside_the_training_classes_before_any_work(
        tmp_path, monkeypatch):
    corpus = write_synthetic_digit_files(tmp_path / "corpus", n_train=200, n_test=50)
    labels = read_idx(corpus["test_labels"]).payload.copy()
    labels[7] = 10  # the training split has classes 0-9
    write_idx(corpus["test_labels"], IdxFile(LABEL_MAGIC, labels.shape, labels))

    def never(*_):
        raise AssertionError("the probe trained on a corpus it cannot score")

    monkeypatch.setattr(harness, "train_probe", never)
    out = tmp_path / "run"
    cfg = ExperimentConfig(dataset="mnist", output_dir=str(out),
                           scheme=SchemeConfig(scheme="vacgan", n_classes=10, batch_size=32))
    with pytest.raises(ValueError, match="test labels .*t10k-labels-idx1-ubyte hold class 10"):
        run_experiment(cfg, mnist_dir=str(tmp_path / "corpus"), log=lambda *_: None)
    assert not out.exists()


def test_run_mnist_rejects_class_count_mismatch(tmp_path, digits_dir):
    cfg = ExperimentConfig(
        dataset="mnist",
        scheme=SchemeConfig(scheme="vacgan", n_classes=5, noise_dim=16),
        seed=9, output_dir=str(tmp_path / "bad"))
    with pytest.raises(ValueError, match="classes"):
        run_experiment(cfg, mnist_dir=str(digits_dir), log=lambda *_: None)


def test_run_keeps_partial_metrics_when_training_diverges(tmp_path, monkeypatch):
    out = tmp_path / "nanrun"
    cfg = _config(scheme_kw={"n_classes": 2, "noise_dim": 4,
                             "steps_per_epoch": 10, "epochs": 1},
                  seed=3, output_dir=str(out), eval_every=2)
    real_step = harness.train_step
    calls = {"n": 0}

    def poisoned(real, labels_fake, trio, scheme_cfg, rng):
        calls["n"] += 1
        if calls["n"] == 5:
            trio.generator.layers[0].weights.data[0, 0] = np.nan
        return real_step(real, labels_fake, trio, scheme_cfg, rng)

    monkeypatch.setattr(harness, "train_step", poisoned)
    with pytest.raises(TrainingDiverged):
        run_experiment(cfg, log=lambda *_: None)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in lines] == ["step", "0", "2", "4"]
