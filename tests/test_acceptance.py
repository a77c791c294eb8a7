"""End-to-end acceptance checks, one printed line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines; the
whole module finishes in about a minute on a laptop CPU.
"""

import struct
import time

import numpy as np
import pytest
from scipy import stats

from auxgan.data import IdxFile, IdxParseError, read_idx, write_idx
from auxgan.divergence import (ClassifierTable, DistributionFamily,
                               cce_of_classifier, optimal_classifier,
                               random_family, tv_distance, verify_identity)
from auxgan.harness import ExperimentConfig, run_experiment
from auxgan.nn import MLP
from auxgan.schemes import SchemeConfig, load_probe_checkpoint
from auxgan.tensor import ACTIVATIONS, Tensor, bce_loss, cce_loss, concat_cols, dense
from gradcheck import check_input_gradient, check_param_gradient, weighted_sum


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: {name} [{detail}]")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# exact identities

def test_identity_residuals_on_random_families():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(1000):
        n = 2 + trial % 9  # cycles through 2..10
        support = int(rng.integers(2, 65))
        family = random_family(n, support, rng)
        assert family.members.min() >= 1e-6
        worst = max(worst, verify_identity(family).residual)
    elapsed = time.monotonic() - t0
    report("cross-entropy/divergence identity on 1000 random families",
           worst <= 1e-9 and elapsed < 10.0,
           f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_maximum_reached_exactly_when_members_coincide():
    rng = np.random.default_rng(43)
    worst_equal = 0.0
    for n in range(2, 11):
        raw = rng.random(16) + 1e-3
        base = raw / raw.sum()
        family = DistributionFamily(np.tile(base, (n, 1)))
        cce = cce_of_classifier(family, optimal_classifier(family))
        worst_equal = max(worst_equal, abs(cce - n * np.log(n)))

    # one member nudged by total variation exactly 0.01
    min_gap = np.inf
    for n in range(2, 11):
        p = np.full(16, 1 / 16.0)
        q = p.copy()
        q[0] += 0.01
        q[1] -= 0.01
        members = np.tile(p, (n, 1))
        members[-1] = q
        assert tv_distance(p, q) >= 0.01 - 1e-12
        family = DistributionFamily(members)
        cce = cce_of_classifier(family, optimal_classifier(family))
        min_gap = min(min_gap, n * np.log(n) - cce)

    # random families; any pair there is far further apart than 0.01
    for _ in range(50):
        n = int(rng.integers(2, 11))
        family = random_family(n, 16, rng)
        pair_tv = min(tv_distance(family.members[i], family.members[j])
                      for i in range(n) for j in range(i + 1, n))
        assert pair_tv >= 0.01
        cce = cce_of_classifier(family, optimal_classifier(family))
        min_gap = min(min_gap, n * np.log(n) - cce)

    report("optimal cross-entropy peaks at N log N iff members coincide",
           worst_equal <= 1e-9 and min_gap > 1e-6,
           f"equal-case residual {worst_equal:.2e}, "
           f"smallest separated-case gap {min_gap:.2e}")


def test_pointwise_classifier_is_optimal():
    rng = np.random.default_rng(44)
    comparisons = wins = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        support = int(rng.integers(2, 17))
        family = random_family(n, support, rng)
        best = cce_of_classifier(family, optimal_classifier(family))
        for _ in range(100):
            table = ClassifierTable(rng.dirichlet(np.ones(n), size=support))
            comparisons += 1
            wins += best <= cce_of_classifier(family, table) + 1e-12

    # brute-force oracle: for two members with masses (m, n) at a point, the
    # per-point objective m*log f + n*log(1-f) peaks at f = m/(m+n)
    grid = np.arange(1, 10_000) / 1e4
    log_f, log_fc = np.log(grid), np.log(1.0 - grid)
    worst_dev = 0.0
    for _ in range(5):
        family = random_family(2, 8, rng)
        table = optimal_classifier(family)
        for x in range(8):
            m, n_mass = family.members[0, x], family.members[1, x]
            f_star = grid[(m * log_f + n_mass * log_fc).argmax()]
            worst_dev = max(worst_dev, abs(f_star - m / (m + n_mass)),
                            abs(f_star - table.outputs[x, 0]))

    report("pointwise-ratio classifier beats every random table",
           wins == comparisons and worst_dev <= 1e-4,
           f"{wins}/{comparisons} comparisons won, "
           f"grid maximizer within {worst_dev:.1e}")


# ---------------------------------------------------------------------------
# gradients

def _away_from_kinks(x, margin=2e-3):
    x = x.copy()
    near = np.abs(x) < margin
    x[near] = np.where(x[near] < 0.0, -margin, margin)
    return x


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(45)

    def identity(n):
        return Tensor(np.eye(n)), Tensor(np.zeros(n))

    def dense_x():
        w, b = Tensor(rng.normal(size=(4, 2))), Tensor(rng.normal(size=2))
        up = rng.normal(size=(3, 2))
        return (lambda t: weighted_sum(dense(t, w, b, "tanh"), up)), rng.normal(size=(3, 4))

    def dense_w():
        x, b = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=2))
        up = rng.normal(size=(3, 2))
        return (lambda t: weighted_sum(dense(x, t, b, "tanh"), up)), rng.normal(size=(4, 2))

    def dense_b():
        x, w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))
        up = rng.normal(size=(3, 2))
        return (lambda t: weighted_sum(dense(x, w, t, "tanh"), up)), rng.normal(size=2)

    def activation_case(kind):
        # identity weights: the pre-activation is the input, kept off the kinks
        def make_case():
            w, b = identity(4)
            alpha = 0.2 if kind == "leaky_relu" else None
            up = rng.normal(size=(3, 4))
            return ((lambda t: weighted_sum(dense(t, w, b, kind, alpha), up)),
                    _away_from_kinks(rng.normal(size=(3, 4))))
        return make_case

    def concat_left():
        b = Tensor(rng.normal(size=(3, 2)))
        up = rng.normal(size=(3, 6))
        return (lambda t: weighted_sum(concat_cols(t, b), up)), rng.normal(size=(3, 4))

    def concat_right():
        a = Tensor(rng.normal(size=(3, 4)))
        up = rng.normal(size=(3, 6))
        return (lambda t: weighted_sum(concat_cols(a, t), up)), rng.normal(size=(3, 2))

    def scalar_add_mul():
        # the generator loss: theta * bce(D) + zeta * cce(C), D and C reading t
        wd, bd = Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=1))
        wc, bc = Tensor(rng.normal(size=(4, 3))), Tensor(rng.normal(size=3))
        labels = rng.integers(0, 3, size=5)
        theta, zeta = (float(v) for v in rng.uniform(0.1, 1.0, size=2))
        return ((lambda t: theta * bce_loss(dense(t, wd, bd, "linear"), 1.0)
                 + zeta * cce_loss(dense(t, wc, bc, "linear"), labels)),
                rng.normal(size=(5, 4)))

    # the losses take logits, here spread far into the sigmoid's and softmax's saturation
    def bce_case():
        target = float(rng.integers(0, 2))
        return (lambda t: bce_loss(t, target)), rng.uniform(-30.0, 30.0, size=(6, 1))

    def cce_case():
        labels = rng.integers(0, 3, size=5)
        return (lambda t: cce_loss(t, labels)), rng.uniform(-30.0, 30.0, size=(5, 3))

    cases = [
        ("dense x", dense_x), ("dense w", dense_w), ("dense b", dense_b),
        *((f"dense {kind}", activation_case(kind)) for kind in ACTIVATIONS),
        ("concat left", concat_left), ("concat right", concat_right),
        ("scalar add/mul", scalar_add_mul), ("bce", bce_case), ("cce", cce_case),
    ]
    failures = []
    checks = 0
    for name, make_case in cases:
        for _ in range(50):
            build, x0 = make_case()
            try:
                check_input_gradient(build, np.asarray(x0, dtype=np.float64))
            except AssertionError as e:
                failures.append(f"{name}: {e}")
                break
            checks += 1

    # end to end: class loss of a two-class toy classifier reading a
    # generator's output, gradients taken in the generator's parameters
    generator = MLP((4, 8, 3), ("tanh", "linear"), rng=rng)
    classifier = MLP((3, 8, 2), ("tanh", "linear"), rng=rng)
    z = Tensor(rng.normal(size=(6, 4)))
    labels = rng.integers(0, 2, size=6)

    def make_loss():
        return cce_loss(classifier(generator(z)), labels)

    for param in generator.params():
        generator.zero_grad()
        classifier.zero_grad()
        try:
            check_param_gradient(make_loss, param)
        except AssertionError as e:
            failures.append(f"end-to-end: {e}")
            break
        checks += 1

    report("all op gradients within 1e-6 of central differences",
           not failures,
           f"{checks} checks over {len(cases)} ops plus end-to-end toy"
           + ("; " + "; ".join(failures) if failures else ""))


# ---------------------------------------------------------------------------
# training behavior (fixtures shared across criteria)

MIXTURE_SCHEME = dict(n_classes=4, noise_dim=8, theta=0.2, zeta=0.8,
                      batch_size=64, steps_per_epoch=100, epochs=20)


def _mixture_config(scheme, out):
    return ExperimentConfig(
        dataset="mixture2d",
        scheme=SchemeConfig(scheme=scheme, **MIXTURE_SCHEME),
        seed=7, output_dir=str(out), eval_every=100)


@pytest.fixture(scope="module")
def mixture_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("mixture")
    runs = {}
    for scheme in ("vacgan", "gan"):
        t0 = time.monotonic()
        record = run_experiment(_mixture_config(scheme, base / scheme),
                                log=lambda *_: None)
        runs[scheme] = dict(record=record, path=base / scheme,
                            elapsed=time.monotonic() - t0)
    return runs


@pytest.fixture(scope="module")
def mnist_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("digits_run")
    config = ExperimentConfig(
        dataset="mnist",
        scheme=SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16,
                            batch_size=64, epochs=5),
        seed=7, output_dir=str(out), eval_every=100,
        probe_hidden=(128,), probe_epochs=3)
    t0 = time.monotonic()
    record = run_experiment(config, log=lambda *_: None)
    return dict(record=record, path=out, elapsed=time.monotonic() - t0)


def test_class_conditioning_on_the_mixture(mixture_runs):
    vac = mixture_runs["vacgan"]["record"].class_match_rate
    gan = mixture_runs["gan"]["record"].class_match_rate
    elapsed = max(r["elapsed"] for r in mixture_runs.values())
    report("2000-step mixture run: class loss makes conditioning work",
           vac >= 0.80 and 0.15 <= gan <= 0.35 and elapsed <= 600.0,
           f"with class loss {vac:.4f} (need >= 0.80), "
           f"without {gan:.4f} (chance band 0.15..0.35), {elapsed:.1f}s")


def test_divergence_estimate_rises_with_training(mixture_runs):
    lines = (mixture_runs["vacgan"]["path"] / "metrics.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    steps = [int(r[0]) for r in rows]
    jsd = [float(r[5]) for r in rows]
    rho = float(stats.spearmanr(steps, jsd).statistic)
    final_ok = jsd[-1] >= 0.5 * np.log(4.0)
    report("per-class divergence rises toward log N during training",
           rho >= 0.8 and final_ok,
           f"spearman {rho:.3f} over {len(steps)} snapshots, "
           f"final {jsd[-1]:.4f} vs floor {0.5 * np.log(4.0):.4f}")


def test_image_run_reaches_probe_floor(mnist_run):
    _, probe_accuracy = load_probe_checkpoint(mnist_run["path"] / "probe")
    match = mnist_run["record"].class_match_rate
    elapsed = mnist_run["elapsed"]
    report("5-epoch digit run: probe assigns requested class >= 0.30",
           probe_accuracy >= 0.95 and match >= 0.30 and elapsed <= 1800.0,
           f"probe accuracy {probe_accuracy:.4f} (gate 0.95), "
           f"match {match:.4f}, {elapsed:.1f}s")


def test_repeat_run_is_byte_identical(mixture_runs, tmp_path_factory):
    again = tmp_path_factory.mktemp("mixture_again") / "vacgan"
    run_experiment(_mixture_config("vacgan", again), log=lambda *_: None)
    first = mixture_runs["vacgan"]["path"]
    same = {name: (first / name).read_bytes() == (again / name).read_bytes()
            for name in ("metrics.csv", "checkpoint.bin", "manifest.txt")}
    report("identical config and seed give byte-identical artifacts",
           all(same.values()),
           ", ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in same.items()))


# ---------------------------------------------------------------------------
# file formats

def test_idx_round_trip_and_malformed_magic(tmp_path):
    pixels = np.array([0, 128, 255, 7], dtype=np.uint8)
    by_hand = struct.pack(">I", 2051) + struct.pack(">3I", 1, 2, 2) + pixels.tobytes()
    path = tmp_path / "one-image-idx3-ubyte"
    write_idx(path, IdxFile(magic=2051, dims=(1, 2, 2), payload=pixels))
    assert path.read_bytes() == by_hand

    parsed = read_idx(path)
    round_trip_ok = (parsed.magic == 2051 and parsed.dims == (1, 2, 2)
                     and np.array_equal(parsed.payload, pixels))

    bad = tmp_path / "bad-magic"
    bad.write_bytes(b"\xff" + by_hand[1:])
    with pytest.raises(IdxParseError) as exc_info:
        read_idx(bad)
    magic_ok = exc_info.value.offset == 0 and "offset 0" in str(exc_info.value)

    report("IDX files round-trip and bad magic fails with its offset",
           round_trip_ok and magic_ok,
           f"payload {pixels.tolist()}, error: {exc_info.value}")
