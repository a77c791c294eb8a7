import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxgan.data import GaussianMixtureSpec, LabeledBatch, sample_mixture
from auxgan.nn import MLP
from auxgan.schemes import (LatentPartition, SchemeConfig, SharedTrunkClassifier,
                            TrainingDiverged, build_trio, cgan_condition,
                            classifier_step, discriminator_loss,
                            generator_loss, load_checkpoint,
                            load_probe_checkpoint, sample_latent,
                            save_checkpoint, save_probe_checkpoint, train_step)
from auxgan.tensor import Tape, Tensor, bce_loss
from gradcheck import check_param_gradient


def _mixture_setup(scheme, n_classes=2, seed=3, **kw):
    cfg = SchemeConfig(scheme=scheme, n_classes=n_classes, noise_dim=4, **kw)
    trio = build_trio(cfg, data_dim=2, rng=np.random.default_rng(seed))
    return cfg, trio


def _run(cfg, trio, steps, seed=4):
    spec = GaussianMixtureSpec.ring(n_classes=cfg.n_classes)
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        real = sample_mixture(spec, rng, 64)
        labels_fake = rng.integers(0, cfg.n_classes, size=64)
        losses.append(train_step(real, labels_fake, trio, cfg, rng))
    return losses


def _match_rate(trio, spec, seed=99, per_class=500):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(spec.n_classes), per_class)
    x = trio.generator(sample_latent(trio.partition, labels, rng)).data
    d2 = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
    return (d2.argmin(axis=1) == labels).mean()


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(scheme="wgan", n_classes=4)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="vacgan", n_classes=4, theta=-0.1)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="vacgan", n_classes=4, theta=0.0, zeta=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="vacgan", n_classes=1)
    assert SchemeConfig(scheme="gan", n_classes=4).has_classifier is False
    assert SchemeConfig(scheme="vacgan", n_classes=4).has_classifier is True


def test_latent_rows_are_one_hot_plus_noise():
    partition = LatentPartition(n_classes=3, noise_dim=2)
    z = sample_latent(partition, np.array([1]), np.random.default_rng(0))
    assert z.shape == (1, 5)
    assert z.data[0, :3].tolist() == [0.0, 1.0, 0.0]


def test_latent_blocks_disjoint_for_all_label_pairs():
    partition = LatentPartition(n_classes=5, noise_dim=3)
    rng = np.random.default_rng(1)
    rows = {c: sample_latent(partition, np.full(4, c), rng).data for c in range(5)}
    for a in range(5):
        for b in range(a + 1, 5):
            assert not np.array_equal(rows[a][:, :5], rows[b][:, :5])


def test_latent_noise_block_is_centered():
    partition = LatentPartition(n_classes=2, noise_dim=4)
    z = sample_latent(partition, np.zeros(100_000, dtype=int), np.random.default_rng(2))
    assert np.abs(z.data[:, 2:].mean(axis=0)).max() < 0.02


def test_latent_label_out_of_range():
    partition = LatentPartition(n_classes=3, noise_dim=2)
    with pytest.raises(ValueError):
        sample_latent(partition, np.array([3]), np.random.default_rng(0))


def test_cgan_condition_appends_one_hot():
    x = Tensor(np.zeros((2, 5)))
    out = cgan_condition(x, np.array([2, 0]), n_classes=3)
    assert out.shape == (2, 8)
    assert out.data[0, 5:].tolist() == [0.0, 0.0, 1.0]
    assert out.data[1, 5:].tolist() == [1.0, 0.0, 0.0]


def test_build_trio_shapes_per_scheme():
    for scheme in ("gan", "vacgan", "acgan"):
        _, trio = _mixture_setup(scheme, n_classes=4)
        assert trio.generator.dims[0] == 4 + 4
        assert trio.discriminator.dims[0] == 2
    _, trio = _mixture_setup("cgan", n_classes=4)
    assert trio.discriminator.dims[0] == 2 + 4


def test_classifier_presence_matches_scheme():
    for scheme, present in (("gan", False), ("cgan", False),
                            ("acgan", True), ("vacgan", True)):
        _, trio = _mixture_setup(scheme)
        assert (trio.classifier is not None) is present
        assert (trio.c_opt is not None) is present


def test_acgan_classifier_shares_discriminator_trunk():
    _, trio = _mixture_setup("acgan")
    assert isinstance(trio.classifier, SharedTrunkClassifier)
    assert trio.classifier.discriminator is trio.discriminator
    trunk_params = {id(p) for layer in trio.discriminator.layers[:-1] for p in layer.params()}
    assert trunk_params <= {id(p) for p in trio.classifier.params()}


def test_vacgan_classifier_is_separate():
    _, trio = _mixture_setup("vacgan")
    assert isinstance(trio.classifier, MLP)
    disc_params = {id(p) for p in trio.discriminator.params()}
    clf_params = {id(p) for p in trio.classifier.params()}
    assert disc_params.isdisjoint(clf_params)


def test_discriminator_loss_value():
    loss = discriminator_loss(Tensor([[0.5]]), Tensor([[0.5]]))
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)


def test_discriminator_loss_perfect_outputs():
    loss = discriminator_loss(Tensor([[1.0 - 1e-12]]), Tensor([[1e-12]]))
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_discriminator_loss_is_sum_of_bce_terms():
    rng = np.random.default_rng(5)
    real = Tensor(rng.uniform(0.1, 0.9, size=(8, 1)))
    fake = Tensor(rng.uniform(0.1, 0.9, size=(8, 1)))
    expected = bce_loss(real, 1.0).item() + bce_loss(fake, 0.0).item()
    assert discriminator_loss(real, fake).item() == pytest.approx(expected, abs=1e-12)


def test_generator_loss_value():
    cfg = SchemeConfig(scheme="vacgan", n_classes=10, theta=0.2, zeta=0.8)
    d_fake = Tensor(np.full((4, 1), 0.5))
    probs = Tensor(np.full((4, 10), 0.1))
    loss = generator_loss(d_fake, probs, np.array([0, 1, 2, 3]), cfg)
    expected = 0.2 * np.log(2.0) + 0.8 * np.log(10.0)
    assert loss.item() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.980697, abs=1e-6)


def test_generator_loss_zeta_zero_reduces_to_scaled_bce():
    cfg = SchemeConfig(scheme="vacgan", n_classes=4, theta=0.2, zeta=0.0)
    rng = np.random.default_rng(6)
    d_fake = Tensor(rng.uniform(0.2, 0.8, size=(6, 1)))
    probs = Tensor(np.full((6, 4), 0.25))
    loss = generator_loss(d_fake, probs, np.zeros(6, dtype=int), cfg)
    assert loss.item() == 0.2 * bce_loss(d_fake, 1.0).item()


def test_generator_loss_requires_classifier_scheme():
    gan_cfg = SchemeConfig(scheme="gan", n_classes=4)
    d_fake = Tensor([[0.5], [0.25]])
    loss = generator_loss(d_fake, None, np.array([0, 1]), gan_cfg)
    assert loss.item() == gan_cfg.theta * bce_loss(d_fake, 1.0).item()
    vac_cfg = SchemeConfig(scheme="vacgan", n_classes=4)
    with pytest.raises(ValueError):
        generator_loss(Tensor([[0.5]]), None, np.array([0]), vac_cfg)


def test_gradient_routing_through_classifier_term():
    # zeta > 0: the class loss reaches generator weights; zeta = 0: exactly not
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    z = sample_latent(trio.partition, np.array([0, 1, 0, 1]), np.random.default_rng(7))
    labels = np.array([0, 1, 0, 1])

    def grads_for(theta, zeta):
        loss_cfg = SchemeConfig(scheme="vacgan", n_classes=2, noise_dim=4,
                                theta=theta, zeta=zeta)
        trio.generator.zero_grad()
        with Tape(wrt=trio.g_opt.params) as tape:
            fake = trio.generator(z)
            loss = generator_loss(trio.discriminator(fake),
                                  trio.classifier(fake), labels, loss_cfg)
        tape.backward(loss)
        return [p.grad.copy() for p in trio.generator.params()]

    cce_only = grads_for(theta=0.0, zeta=1.0)
    assert any(np.abs(g).max() > 0.0 for g in cce_only)

    bce_only = grads_for(theta=1.0, zeta=0.0)
    trio.generator.zero_grad()
    with Tape(wrt=trio.g_opt.params) as tape:
        plain = bce_loss(trio.discriminator(trio.generator(z)), 1.0)
    tape.backward(plain)
    for got, want in zip(bce_only, (p.grad for p in trio.generator.params())):
        assert np.array_equal(got, want)


def test_generator_gradient_through_classifier_matches_finite_differences():
    # two-class toy with smooth activations end to end
    rng = np.random.default_rng(8)
    generator = MLP((3, 6, 2), ("tanh", "linear"), rng=rng)
    classifier = MLP((2, 6, 2), ("tanh", "softmax"), rng=rng)
    z = Tensor(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 2, size=5)

    def make_loss():
        from auxgan.tensor import cce_loss
        return cce_loss(classifier(generator(z)), labels)

    for param in generator.params():
        generator.zero_grad()
        classifier.zero_grad()
        check_param_gradient(make_loss, param)


def test_classifier_step_uniform_start_loss_is_log_n():
    cfg, trio = _mixture_setup("vacgan", n_classes=4)
    for p in trio.classifier.params():
        p.data[:] = 0.0  # zero weights make softmax exactly uniform
    generated = Tensor(np.random.default_rng(9).normal(size=(16, 2)))
    loss = classifier_step(generated, np.zeros(16, dtype=int), trio)
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)


def test_classifier_step_decreases_loss_on_separable_batch():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    generated = Tensor(np.array([[3.0, 0.0]] * 8 + [[-3.0, 0.0]] * 8))
    labels = np.array([0] * 8 + [1] * 8)
    losses = [classifier_step(generated, labels, trio) for _ in range(11)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_classifier_step_noop_when_outputs_saturated():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    # huge weights saturate the softmax to exact one-hots, so the clamped
    # cross-entropy has zero gradient and Nesterov must not move anything
    trio.classifier.layers[-1].weights.data[:] = 0.0
    trio.classifier.layers[-1].bias.data[:] = [5000.0, -5000.0]
    before = [p.data.copy() for p in trio.classifier.params()]
    loss = classifier_step(Tensor(np.ones((4, 2))), np.zeros(4, dtype=int), trio)
    assert loss == pytest.approx(0.0, abs=1e-9)
    for p, b in zip(trio.classifier.params(), before):
        assert np.array_equal(p.data, b)


def test_classifier_step_never_touches_generator_or_discriminator():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    g_before = [p.data.copy() for p in trio.generator.params()]
    d_before = [p.data.copy() for p in trio.discriminator.params()]
    real = LabeledBatch(features=np.random.default_rng(10).normal(size=(8, 2)),
                        labels=np.zeros(8, dtype=int))
    classifier_step(Tensor(np.ones((8, 2))), np.ones(8, dtype=int), trio, real_batch=real)
    for p, b in zip(trio.generator.params(), g_before):
        assert np.array_equal(p.data, b)
    for p, b in zip(trio.discriminator.params(), d_before):
        assert np.array_equal(p.data, b)


def test_classifier_step_requires_classifier():
    cfg, trio = _mixture_setup("gan")
    with pytest.raises(ValueError):
        classifier_step(Tensor(np.ones((2, 2))), np.zeros(2, dtype=int), trio)


def test_discriminator_step_never_touches_classifier():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    c_before = [p.data.copy() for p in trio.classifier.params()]
    spec = GaussianMixtureSpec.ring(n_classes=2)
    rng = np.random.default_rng(11)
    # one full step updates all three; to isolate D, compare C params after
    # re-running only the D portion via a fresh trio and a manual tape
    real = sample_mixture(spec, rng, 16)
    fake = Tensor(trio.generator(sample_latent(trio.partition, real.labels, rng)).data)
    with Tape(wrt=trio.d_opt.params) as tape:
        loss = discriminator_loss(trio.discriminator(Tensor(real.features)),
                                  trio.discriminator(fake))
    tape.backward(loss)
    trio.d_opt.step()
    for p, b in zip(trio.classifier.params(), c_before):
        assert np.array_equal(p.data, b)


def test_train_step_gan_has_no_classifier_loss():
    cfg, trio = _mixture_setup("gan")
    losses = _run(cfg, trio, 3)
    assert all(s.c_loss is None for s in losses)
    assert losses[-1].step == 3


@pytest.mark.parametrize("scheme", ["vacgan", "acgan"])
def test_train_step_leaves_no_gradient_behind(scheme):
    # each optimizer step clears what it read, and no step writes a
    # gradient that its optimizer does not read
    cfg, trio = _mixture_setup(scheme)
    params = trio.all_params()
    assert len(params) == len({id(p) for p in params})
    every = trio.generator.params() + trio.discriminator.params() + trio.c_opt.params
    assert {id(p) for p in every} == {id(p) for p in params}
    _run(cfg, trio, 2)
    assert all(p.grad is None for p in params)


def test_train_step_deterministic():
    def run_once():
        cfg, trio = _mixture_setup("vacgan", seed=12)
        return _run(cfg, trio, 5, seed=13)

    a, b = run_once(), run_once()
    assert a == b  # StepLosses are frozen dataclasses of floats


def test_train_step_nan_abort_names_the_loss():
    cfg, trio = _mixture_setup("vacgan")
    trio.generator.layers[0].weights.data[0, 0] = np.nan
    spec = GaussianMixtureSpec.ring(n_classes=2)
    rng = np.random.default_rng(14)
    real = sample_mixture(spec, rng, 8)
    with pytest.raises(TrainingDiverged) as e:
        train_step(real, np.zeros(8, dtype=int), trio, cfg, rng)
    assert "discriminator" in str(e.value)
    assert "not finite" in str(e.value)


def test_vacgan_with_zero_class_weight_equals_plain_gan():
    spec = GaussianMixtureSpec.ring(n_classes=2)

    def run(scheme, zeta):
        cfg = SchemeConfig(scheme=scheme, n_classes=2, noise_dim=4, theta=0.2, zeta=zeta)
        trio = build_trio(cfg, data_dim=2, rng=np.random.default_rng(15))
        rng = np.random.default_rng(16)
        hist = []
        for _ in range(40):
            real = sample_mixture(spec, rng, 32)
            labels_fake = rng.integers(0, 2, size=32)
            s = train_step(real, labels_fake, trio, cfg, rng)
            hist.append((s.d_loss, s.g_loss))
        return trio, hist

    trio_v, hist_v = run("vacgan", zeta=0.0)
    trio_g, hist_g = run("gan", zeta=0.8)
    assert hist_v == hist_g
    for a, b in zip(trio_v.generator.params(), trio_g.generator.params()):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(trio_v.discriminator.params(), trio_g.discriminator.params()):
        assert np.array_equal(a.data, b.data)


def test_vacgan_short_run_aligns_classes():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    _run(cfg, trio, 400)
    assert _match_rate(trio, GaussianMixtureSpec.ring(n_classes=2)) >= 0.8


def test_cgan_short_run_aligns_classes():
    cfg, trio = _mixture_setup("cgan", n_classes=2)
    _run(cfg, trio, 800)
    assert _match_rate(trio, GaussianMixtureSpec.ring(n_classes=2)) >= 0.8


def test_acgan_train_step_runs_and_reports_classifier_loss():
    cfg, trio = _mixture_setup("acgan", n_classes=2)
    losses = _run(cfg, trio, 5)
    assert all(s.c_loss is not None for s in losses)


# ---------------------------------------------------------------------------
# checkpoints

def _forward_probe(trio, seed=17):
    z = sample_latent(trio.partition, np.arange(trio.config.n_classes),
                      np.random.default_rng(seed))
    return trio.generator(z).data


@pytest.mark.parametrize("scheme", ["gan", "cgan", "acgan", "vacgan"])
def test_checkpoint_round_trip_reproduces_forward(scheme, tmp_path):
    cfg, trio = _mixture_setup(scheme, n_classes=3)
    _run(cfg, trio, 3)
    save_checkpoint(tmp_path / "a", trio, seed=3)
    back, info = load_checkpoint(tmp_path / "a")
    assert info["step"] == 3 and info["seed"] == 3
    assert np.array_equal(_forward_probe(trio), _forward_probe(back))
    if scheme in ("acgan", "vacgan"):
        x = Tensor(np.random.default_rng(18).normal(size=(4, 2)))
        assert np.array_equal(trio.classifier(x).data, back.classifier(x).data)
    save_checkpoint(tmp_path / "b", back, seed=info["seed"])
    for name in ("manifest.txt", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_checkpoint_rejects_foreign_manifest(tmp_path):
    (tmp_path / "manifest.txt").write_text("format something-else\n")
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path)


def test_checkpoint_kind_mismatch(tmp_path):
    net = MLP((4, 2), ("softmax",), rng=np.random.default_rng(19))
    save_probe_checkpoint(tmp_path, net, test_accuracy=0.99, seed=1)
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path)


def test_probe_checkpoint_round_trip(tmp_path):
    net = MLP((4, 8, 3), ("relu", "softmax"), rng=np.random.default_rng(20))
    save_probe_checkpoint(tmp_path / "a", net, test_accuracy=0.9785, seed=2)
    back, accuracy = load_probe_checkpoint(tmp_path / "a")
    assert accuracy == 0.9785
    x = Tensor(np.random.default_rng(21).normal(size=(5, 4)))
    assert np.array_equal(net(x).data, back(x).data)
    save_probe_checkpoint(tmp_path / "b", back, accuracy, seed=2)
    for name in ("manifest.txt", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_checkpoint_names_a_missing_key(tmp_path):
    _, trio = _mixture_setup("vacgan")
    save_checkpoint(tmp_path, trio, seed=3)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith("seed ")))
    with pytest.raises(ValueError, match="'seed'") as e:
        load_checkpoint(tmp_path)
    assert str(manifest) in str(e.value)


@pytest.mark.parametrize("slope", ["1.5", "0", "-0.2", "nan", "inf"])
def test_checkpoint_with_a_bad_leaky_slope_never_loads(tmp_path, slope):
    _, trio = _mixture_setup("vacgan")
    save_checkpoint(tmp_path, trio, seed=3)
    manifest = tmp_path / "manifest.txt"
    text = manifest.read_text()
    assert "leaky_relu:0.2" in text
    manifest.write_text(text.replace("leaky_relu:0.2", f"leaky_relu:{slope}"))
    with pytest.raises(ValueError, match=f"got {float(slope)!r}"):
        load_checkpoint(tmp_path)


@pytest.fixture(scope="module")
def saved_bundles(tmp_path_factory):
    """A trained acgan trio and a probe, saved once for the corruption test."""
    root = tmp_path_factory.mktemp("bundles")
    cfg, trio = _mixture_setup("acgan", n_classes=3)
    _run(cfg, trio, 2)
    save_checkpoint(root / "trio", trio, seed=3)
    net = MLP((4, 8, 3), ("relu", "softmax"), rng=np.random.default_rng(22))
    save_probe_checkpoint(root / "probe", net, test_accuracy=0.97, seed=2)
    return root


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["trio", "probe"]), data=st.data())
def test_truncated_or_extended_payload_never_loads(saved_bundles, kind, data):
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    payload = (saved_bundles / kind / "checkpoint.bin").read_bytes()
    if data.draw(st.booleans(), label="extend"):
        damaged = payload + data.draw(st.binary(min_size=1, max_size=64), label="suffix")
    else:
        damaged = payload[:data.draw(st.integers(0, len(payload) - 1), label="length")]
    with tempfile.TemporaryDirectory() as directory:
        shutil.copy(saved_bundles / kind / "manifest.txt", directory)
        Path(directory, "checkpoint.bin").write_bytes(damaged)
        with pytest.raises(ValueError):
            load(directory)


@pytest.mark.parametrize("spec, named", [
    ("dims=4,8,3", "'activations'"),
    ("garbage", "'garbage'"),
    ("dims=4,x,3 activations=relu,softmax", "'4,x,3'"),
    ("dims=4,8,3 activations=leaky_relu:abc,softmax", "'abc'"),
])
@pytest.mark.parametrize("kind", ["trio", "probe"])
def test_malformed_network_line_never_loads(saved_bundles, tmp_path, kind, spec, named):
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    shutil.copytree(saved_bundles / kind, tmp_path / kind)
    manifest = tmp_path / kind / "manifest.txt"
    lines = manifest.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("network "))
    lines[i] = f"network {lines[i].split()[1]} {spec}"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(named)) as e:
        load(tmp_path / kind)
    assert str(manifest) in str(e.value)


@pytest.mark.parametrize("kind, key, value", [
    ("trio", "n_classes", "x"), ("trio", "n_classes", "1"), ("trio", "noise_dim", "-1"),
    ("trio", "theta", "abc"), ("trio", "zeta", "nan"), ("trio", "step", "1.5"),
    ("trio", "step", "-1"), ("trio", "seed", "-3"), ("trio", "data_dim", "3"),
    ("probe", "test_accuracy", "high"), ("probe", "test_accuracy", "1.5"),
    ("probe", "test_accuracy", "-0.1"),
])
def test_a_manifest_value_that_does_not_parse_or_is_out_of_range_never_loads(
        saved_bundles, tmp_path, kind, key, value):
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    shutil.copytree(saved_bundles / kind, tmp_path / kind)
    manifest = tmp_path / kind / "manifest.txt"
    lines = manifest.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
    lines[i] = f"{key} {value}"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{key} must be")) as e:
        load(tmp_path / kind)
    assert str(manifest) in str(e.value) and value in str(e.value)
