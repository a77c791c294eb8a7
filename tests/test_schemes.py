import re
import shutil
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auxgan.data import GaussianMixtureSpec, LabeledBatch, sample_mixture
from auxgan.nn import MLP
from auxgan.schemes import (LatentPartition, SchemeConfig, SharedTrunkClassifier,
                            TrainingDiverged, build_trio, cgan_condition,
                            StepLosses, classifier_step, discriminator_loss,
                            generator_class_loss, generator_loss, load_checkpoint,
                            load_probe_checkpoint, sample_latent,
                            save_checkpoint, save_probe_checkpoint, train_step)
from auxgan import nn, optim, schemes, tensor
from auxgan.optim import Adam, NesterovMomentum
from auxgan.harness import _IMAGE_ARCH
from auxgan.tensor import Tape, Tensor, bce_loss, mul
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
    segment_params = {id(p) for params, _, _ in trio.classifier.segments() for p in params}
    assert trunk_params <= segment_params


def test_vacgan_classifier_is_separate():
    _, trio = _mixture_setup("vacgan")
    assert isinstance(trio.classifier, MLP)
    disc_params = {id(p) for p in trio.discriminator.params()}
    clf_params = {id(p) for p in trio.classifier.params()}
    assert disc_params.isdisjoint(clf_params)


def test_discriminator_loss_value():
    # logit 0 is D(x) = 1/2 on both batches
    loss = discriminator_loss(Tensor([[0.0]]), Tensor([[0.0]]))
    assert loss.item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)


def test_discriminator_loss_perfect_outputs():
    loss = discriminator_loss(Tensor([[40.0]]), Tensor([[-40.0]]))
    assert loss.item() == pytest.approx(0.0, abs=1e-9)


def test_discriminator_loss_is_sum_of_bce_terms():
    rng = np.random.default_rng(5)
    real = Tensor(rng.uniform(0.1, 0.9, size=(8, 1)))
    fake = Tensor(rng.uniform(0.1, 0.9, size=(8, 1)))
    expected = bce_loss(real, 1.0).item() + bce_loss(fake, 0.0).item()
    assert discriminator_loss(real, fake).item() == pytest.approx(expected, abs=1e-12)


def test_generator_loss_value():
    cfg = SchemeConfig(scheme="vacgan", n_classes=10, theta=0.2, zeta=0.8)
    d_fake = Tensor(np.zeros((4, 1)))  # D(fake) = 1/2
    logits = Tensor(np.zeros((4, 10)))  # uniform over the 10 classes
    labels = np.array([0, 1, 2, 3])
    loss = generator_loss(d_fake, generator_class_loss(logits, labels, cfg), cfg)
    expected = 0.2 * np.log(2.0) + 0.8 * np.log(10.0)
    assert loss.item() == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.980697, abs=1e-6)


def test_generator_loss_zeta_zero_reduces_to_scaled_bce():
    cfg = SchemeConfig(scheme="vacgan", n_classes=4, theta=0.2, zeta=0.0)
    rng = np.random.default_rng(6)
    d_fake = Tensor(rng.uniform(0.2, 0.8, size=(6, 1)))
    logits = Tensor(np.full((6, 4), 0.25))
    loss = generator_loss(d_fake, generator_class_loss(logits, np.zeros(6, dtype=int), cfg), cfg)
    assert loss.item() == 0.2 * bce_loss(d_fake, 1.0).item()


def test_generator_loss_requires_classifier_scheme():
    gan_cfg = SchemeConfig(scheme="gan", n_classes=4)
    d_fake = Tensor([[0.5], [0.25]])
    loss = generator_loss(d_fake, None, gan_cfg)
    assert loss.item() == gan_cfg.theta * bce_loss(d_fake, 1.0).item()
    vac_cfg = SchemeConfig(scheme="vacgan", n_classes=4)
    with pytest.raises(ValueError):
        generator_loss(Tensor([[0.5]]), None, vac_cfg)


def test_gradient_routing_through_classifier_term():
    # zeta > 0: the class loss reaches generator weights; zeta = 0: exactly not
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    z = sample_latent(trio.partition, np.array([0, 1, 0, 1]), np.random.default_rng(7))
    labels = np.array([0, 1, 0, 1])

    def grads_for(theta, zeta):
        loss_cfg = SchemeConfig(scheme="vacgan", n_classes=2, noise_dim=4,
                                theta=theta, zeta=zeta)
        for p in trio.generator.params():
            p.grad = None
        with Tape(wrt=trio.g_opt.params) as tape:
            fake = trio.generator(z)
            class_loss = generator_class_loss(trio.classifier(fake), labels, loss_cfg)
            loss = generator_loss(trio.discriminator(fake), class_loss, loss_cfg)
        tape.backward(loss)
        return [p.grad.copy() for p in trio.generator.params()]

    cce_only = grads_for(theta=0.0, zeta=1.0)
    assert any(np.abs(g).max() > 0.0 for g in cce_only)

    bce_only = grads_for(theta=1.0, zeta=0.0)
    for p in trio.generator.params():
        p.grad = None
    with Tape(wrt=trio.g_opt.params) as tape:
        plain = bce_loss(trio.discriminator(trio.generator(z)), 1.0)
    tape.backward(plain)
    for got, want in zip(bce_only, (p.grad for p in trio.generator.params())):
        assert np.array_equal(got, want)


def test_generator_gradient_survives_a_discriminator_sure_of_the_fakes():
    # D reads logits <= -40 on every fake, D(fake) < 1e-12: the
    # non-saturating loss still moves the generator
    cfg, trio = _mixture_setup("gan")
    labels = np.array([0, 1, 0, 1])
    z = sample_latent(trio.partition, labels, np.random.default_rng(7))
    trio.discriminator.layers[-1].bias.data -= trio.discriminator(trio.generator(z)).data.max()
    trio.discriminator.layers[-1].bias.data -= 40.0
    with Tape(wrt=trio.g_opt.params) as tape:
        d_fake = trio.discriminator(trio.generator(z))
        loss = generator_loss(d_fake, None, cfg)
    tape.backward(loss)
    assert d_fake.data.max() <= -40.0 + 1e-9
    assert loss.item() >= cfg.theta * 40.0
    assert all(np.abs(p.grad).max() > 0.0 for p in trio.generator.layers[-1].params())


def test_generator_gradient_through_classifier_matches_finite_differences():
    # two-class toy with smooth activations end to end
    rng = np.random.default_rng(8)
    generator = MLP((3, 6, 2), ("tanh", "linear"), rng=rng)
    classifier = MLP((2, 6, 2), ("tanh", "linear"), rng=rng)
    z = Tensor(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 2, size=5)

    def make_loss():
        from auxgan.tensor import cce_loss
        return cce_loss(classifier(generator(z)), labels)

    for param in generator.params():
        for p in generator.params() + classifier.params():
            p.grad = None
        check_param_gradient(make_loss, param)


def _c_step(trio, features, labels):
    batch = LabeledBatch(features=features, labels=labels)
    return classifier_step(trio.classifier, trio.c_opt, batch)


def test_classifier_step_uniform_start_loss_is_log_n():
    cfg, trio = _mixture_setup("vacgan", n_classes=4)
    for p in trio.classifier.params():
        p.data[:] = 0.0  # zero weights give equal logits: exactly uniform
    features = np.random.default_rng(9).normal(size=(16, 2))
    loss = _c_step(trio, features, np.zeros(16, dtype=int))
    assert loss == pytest.approx(np.log(4.0), rel=1e-12)


def test_classifier_step_decreases_loss_on_separable_batch():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    features = np.array([[3.0, 0.0]] * 8 + [[-3.0, 0.0]] * 8)
    labels = np.array([0] * 8 + [1] * 8)
    losses = [_c_step(trio, features, labels) for _ in range(11)]
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_classifier_step_noop_when_outputs_saturated():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    # logits 10000 apart: the other class's probability underflows to exactly
    # 0, so the cross-entropy and its gradient are 0 and Nesterov moves nothing
    trio.classifier.layers[-1].weights.data[:] = 0.0
    trio.classifier.layers[-1].bias.data[:] = [5000.0, -5000.0]
    before = [p.data.copy() for p in trio.classifier.params()]
    loss = _c_step(trio, np.ones((4, 2)), np.zeros(4, dtype=int))
    assert loss == pytest.approx(0.0, abs=1e-9)
    for p, b in zip(trio.classifier.params(), before):
        assert np.array_equal(p.data, b)


def test_classifier_step_never_touches_generator_or_discriminator():
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    g_before = [p.data.copy() for p in trio.generator.params()]
    d_before = [p.data.copy() for p in trio.discriminator.params()]
    _c_step(trio, np.random.default_rng(10).normal(size=(8, 2)), np.zeros(8, dtype=int))
    for p, b in zip(trio.generator.params(), g_before):
        assert np.array_equal(p.data, b)
    for p, b in zip(trio.discriminator.params(), d_before):
        assert np.array_equal(p.data, b)


def test_a_non_finite_classifier_loss_stops_before_the_step(monkeypatch):
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    before = [p.data.copy() for p in trio.classifier.params()]
    cce = schemes.cce_loss
    monkeypatch.setattr(schemes, "cce_loss", lambda z, labels: mul(cce(z, labels), np.inf))
    with pytest.raises(TrainingDiverged, match="classifier loss is not finite"):
        _c_step(trio, np.ones((4, 2)), np.zeros(4, dtype=int))
    for p, b in zip(trio.classifier.params(), before):
        assert np.array_equal(p.data, b) and p.grad is None


def _poison_classifier(trio):
    """Set one classifier weight to NaN: vacgan's own network, acgan's head."""
    network = trio.classifier.head if trio.config.scheme == "acgan" else trio.classifier
    network.layers[0].weights.data[0, 0] = np.nan


# tensor.HELPER_MIN_PARAMS settings: every step serial, then the helper thread forced on
SERIAL_THEN_HELPER = (float("inf"), 0)


def _digit_setup(scheme, seed=40):
    cfg = SchemeConfig(scheme=scheme, n_classes=10, noise_dim=16)
    return cfg, build_trio(cfg, 784, rng=np.random.default_rng(seed), **_IMAGE_ARCH)


def _digit_run(cfg, trio, steps, step=train_step, seed=41):
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(steps):
        real = LabeledBatch(features=rng.random((64, 784)), labels=rng.integers(0, 10, 64))
        losses.append(step(real, rng.integers(0, 10, 64), trio, cfg, rng))
    return losses


def _record_forward_threads(monkeypatch):
    """The set of threads that run a forward pass of any MLP from now on."""
    threads, forward = set(), MLP.forward

    def recording(network, x, upto=None):
        threads.add(threading.current_thread())
        return forward(network, x, upto)

    monkeypatch.setattr(MLP, "forward", recording)
    monkeypatch.setattr(MLP, "__call__", recording)
    return threads


def _state_bytes(trio):
    """Every parameter and gradient buffer and optimizer state array of `trio`, as bytes."""
    nets = [trio.generator, trio.discriminator, getattr(trio.classifier, "head", trio.classifier)]
    arrays = [a for net in nets if net is not None for a in (net.param_buffer, net.grad_buffer)]
    arrays += [a for opt in (trio.g_opt, trio.d_opt, trio.c_opt) if opt is not None
               for a in opt._state]
    return [a.tobytes() for a in arrays]


def _assert_no_helper_work_left(trio, right_after):
    """`right_after`, the state read as the error arrived, equals it once the helper is idle."""
    tensor._helper().submit(lambda: None).result(timeout=60)  # one worker: earlier tasks are done
    assert _state_bytes(trio) == right_after


@pytest.mark.parametrize("scheme", ["vacgan", "acgan"])
def test_a_nan_classifier_weight_diverges_in_the_classifier_step(scheme, set_helper_min_params):
    for helper_min_params in SERIAL_THEN_HELPER:
        set_helper_min_params(helper_min_params)
        cfg, trio = _mixture_setup(scheme)
        _poison_classifier(trio)
        with pytest.raises(TrainingDiverged, match="classifier output in the classifier step"):
            _run(cfg, trio, 1)
        _assert_no_helper_work_left(trio, _state_bytes(trio))
        assert all(p.grad is None for p in trio.c_opt.params)


@pytest.mark.parametrize("scheme", ["vacgan", "acgan"])
def test_a_nan_classifier_weight_diverges_in_the_generator_step(scheme, monkeypatch,
                                                               set_helper_min_params):
    # the weight turns NaN after the classifier step, so only the classifier's
    # half of the generator loss reads it: on the helper for vacgan once it is on
    c_step = schemes.classifier_step
    for helper_min_params in SERIAL_THEN_HELPER:
        set_helper_min_params(helper_min_params)
        cfg, trio = _mixture_setup(scheme)
        g_before = trio.generator.param_buffer.copy()

        def then_poison(network, opt, batch, trio=trio):
            loss = c_step(network, opt, batch)
            _poison_classifier(trio)
            return loss

        monkeypatch.setattr(schemes, "classifier_step", then_poison)
        with pytest.raises(TrainingDiverged,
                           match="classifier output in the generator step is not finite at step 0"):
            _run(cfg, trio, 1)
        _assert_no_helper_work_left(trio, _state_bytes(trio))
        assert trio.generator.param_buffer.tobytes() == g_before.tobytes()
        assert all(p.grad is None for p in trio.generator.params())


def test_train_step_trains_the_classifier_on_real_data_only():
    # C's step is the one labelled step on the real batch, whatever the
    # generated batch and its requested labels are
    cfg, trio = _mixture_setup("vacgan", n_classes=2)
    _, twin = _mixture_setup("vacgan", n_classes=2)
    real = sample_mixture(GaussianMixtureSpec.ring(n_classes=2), np.random.default_rng(24), 16)
    losses = train_step(real, np.ones(16, dtype=int), trio, cfg, np.random.default_rng(25))
    assert losses.c_loss == classifier_step(twin.classifier, twin.c_opt, real)
    for p, q in zip(trio.classifier.params(), twin.classifier.params()):
        assert np.array_equal(p.data, q.data)


def test_discriminator_step_never_touches_classifier(monkeypatch, set_helper_min_params):
    # with C's own step patched out, the rest of train_step (D's step, whose
    # Adam may share its blocks with the helper, then G's) leaves C as it was
    monkeypatch.setattr(schemes, "classifier_step", lambda *args: 0.0)
    for helper_min_params in SERIAL_THEN_HELPER:
        set_helper_min_params(helper_min_params)
        cfg, trio = _mixture_setup("vacgan", n_classes=2)
        c_before = trio.classifier.param_buffer.tobytes(), trio.c_opt.velocity.tobytes()
        d_before = trio.discriminator.param_buffer.tobytes()
        _run(cfg, trio, 2)
        assert trio.discriminator.param_buffer.tobytes() != d_before
        assert (trio.classifier.param_buffer.tobytes(), trio.c_opt.velocity.tobytes()) == c_before


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


def test_a_nan_discriminator_weight_diverges_in_the_discriminator_step():
    cfg, trio = _mixture_setup("vacgan")
    trio.discriminator.layers[-1].weights.data[0, 0] = np.nan
    d_before = trio.discriminator.param_buffer.copy()
    with pytest.raises(TrainingDiverged, match="discriminator loss is not finite at step 0"):
        _run(cfg, trio, 1)
    assert trio.discriminator.param_buffer.tobytes() == d_before.tobytes()


def test_train_step_nan_abort_names_the_loss(set_helper_min_params):
    messages = []
    for helper_min_params in SERIAL_THEN_HELPER:
        set_helper_min_params(helper_min_params)
        cfg, trio = _mixture_setup("vacgan")
        trio.generator.layers[0].weights.data[0, 0] = np.nan
        spec = GaussianMixtureSpec.ring(n_classes=2)
        rng = np.random.default_rng(14)
        real = sample_mixture(spec, rng, 8)
        with pytest.raises(TrainingDiverged) as e:
            train_step(real, np.zeros(8, dtype=int), trio, cfg, rng)
        _assert_no_helper_work_left(trio, _state_bytes(trio))
        messages.append(str(e.value))
    assert "discriminator" in messages[0]
    assert "not finite" in messages[0]
    assert messages[1] == messages[0]


def _reference_step(real, labels_for_fake, trio, config, rng):
    """One step with the whole generator loss on one tape: `train_step` must give its bits.

    Built from public pieces: D's step on the detached G(z_d), C's step, then
    one tape for G's forward pass, D and C on the generated batch and
    `generator_loss`.
    """
    def d_input(x, labels):
        return cgan_condition(x, labels, config.n_classes) if config.scheme == "cgan" else x

    z_d = sample_latent(trio.partition, labels_for_fake, rng)
    z_g = sample_latent(trio.partition, labels_for_fake, rng)
    fake_d = Tensor(trio.generator(z_d).data)
    with Tape(wrt=trio.d_opt.params) as tape:
        d_loss = discriminator_loss(trio.discriminator(d_input(Tensor(real.features), real.labels)),
                                    trio.discriminator(d_input(fake_d, labels_for_fake)))
    tape.backward(d_loss)
    trio.d_opt.step()
    c_loss = classifier_step(trio.classifier, trio.c_opt, real) if config.has_classifier else None
    with Tape(wrt=trio.g_opt.params) as tape:
        fake_g = trio.generator(z_g)
        d_fake = trio.discriminator(d_input(fake_g, labels_for_fake))
        class_loss = (generator_class_loss(trio.classifier(fake_g), labels_for_fake, config)
                      if config.has_classifier else None)
        g_loss = generator_loss(d_fake, class_loss, config)
    tape.backward(g_loss)
    trio.g_opt.step()
    trio.step += 1
    return StepLosses(step=trio.step, d_loss=d_loss.item(), g_loss=g_loss.item(), c_loss=c_loss)


def _three_digit_steps(set_min_params, scheme, step, helper_min_params):
    """(losses, state) of three digit-width steps of `scheme` at `helper_min_params`."""
    set_min_params(helper_min_params)
    cfg, trio = _digit_setup(scheme)
    return _digit_run(cfg, trio, 3, step), _state_bytes(trio)


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_the_helper_thread_changes_no_bit_of_a_digit_width_step(scheme, monkeypatch,
                                                               set_helper_min_params):
    # serial and helper steps both give the reference step's bits
    reference = _three_digit_steps(set_helper_min_params, scheme, _reference_step, float("inf"))
    threads = _record_forward_threads(monkeypatch)
    for helper_min_params in SERIAL_THEN_HELPER:
        assert _three_digit_steps(set_helper_min_params, scheme, train_step,
                                  helper_min_params) == reference
    assert len(threads) == 2  # the helper ran a forward pass


@pytest.mark.parametrize("scheme", ["vacgan", "acgan"])
def test_a_one_argument_step_wrapper_gives_the_serial_bits_with_the_helper_on(
        scheme, monkeypatch, set_helper_min_params):
    # the benchmark's tracer wraps each optimizer's step as a call of one
    # argument; the optimizers still share their blocks with the helper
    for cls in (Adam, NesterovMomentum):
        monkeypatch.setattr(cls, "step", lambda opt, step=cls.step: step(opt))
    serial = _three_digit_steps(set_helper_min_params, scheme, train_step, float("inf"))
    blocks, share = [], optim._share

    def counting(helper, tasks):
        blocks.append(len(tasks))
        return share(helper, tasks)

    monkeypatch.setattr(optim, "_share", counting)
    threads = _record_forward_threads(monkeypatch)
    assert _three_digit_steps(set_helper_min_params, scheme, train_step, 0) == serial
    assert len(threads) == 2  # the helper ran a forward pass
    # G's Adam step, acgan's C step after the join, and whichever of D's Adam
    # step and vacgan's C step ran on the calling thread shared their blocks
    assert len(blocks) >= 3 * 2 and min(blocks) > 1


def _forward_threads(monkeypatch, *trios):
    """A list that gets (network name, thread) for each forward pass of the trios' G, D and C."""
    names = {}
    for trio in trios:
        names.update({id(trio.generator): "G", id(trio.discriminator): "D",
                      id(trio.classifier): "C"})
    calls, forward = [], MLP.forward

    def recording(network, x, upto=None):
        calls.append((names[id(network)], threading.current_thread()))
        return forward(network, x, upto)

    monkeypatch.setattr(MLP, "forward", recording)
    monkeypatch.setattr(MLP, "__call__", recording)
    return calls


def test_vacgan_steps_its_classifier_on_the_helper_only_at_image_width(monkeypatch,
                                                                      set_helper_min_params):
    # at ring width C's step and every forward pass run on the calling
    # thread; at image width the helper may take any of them, and the step
    # does the same work and gives the serial bits whichever thread runs what
    c_steps, c_step = [], schemes.classifier_step

    def recording(network, opt, batch):
        c_steps.append(threading.current_thread())
        return c_step(network, opt, batch)

    monkeypatch.setattr(schemes, "classifier_step", recording)
    cfg = SchemeConfig(scheme="vacgan", n_classes=10, noise_dim=16)
    image_trios = [build_trio(cfg, 784, rng=np.random.default_rng(42), **_IMAGE_ARCH)
                   for _ in SERIAL_THEN_HELPER]
    assert image_trios[0].generator.param_buffer.size >= tensor.HELPER_MIN_PARAMS
    monkeypatch.setitem(sys.modules, "tracemalloc", tracemalloc)
    assert schemes._helper_for(image_trios[0].generator) is None  # loaded: no helper
    set_helper_min_params(tensor.HELPER_MIN_PARAMS)
    ring_cfg, ring_trio = _mixture_setup("vacgan")  # a ring-width generator: serial
    assert schemes._helper_for(ring_trio.generator) is None
    assert schemes._helper_for(image_trios[0].generator) is tensor._helper()
    forwards = _forward_threads(monkeypatch, ring_trio, *image_trios)
    _run(ring_cfg, ring_trio, 1)
    assert {thread for _, thread in forwards} | set(c_steps) == {threading.main_thread()}
    work = sorted(name for name, _ in forwards)
    assert work == ["C", "C", "D", "D", "D", "G", "G"] and len(c_steps) == 1
    results = []
    for trio, helper_min_params in zip(image_trios, SERIAL_THEN_HELPER):
        set_helper_min_params(helper_min_params)
        del forwards[:], c_steps[:]
        rng = np.random.default_rng(43)
        real = LabeledBatch(features=rng.random((64, 784)), labels=rng.integers(0, 10, 64))
        results.append((train_step(real, rng.integers(0, 10, 64), trio, cfg, rng),
                        _state_bytes(trio)))
        assert sorted(name for name, _ in forwards) == work and len(c_steps) == 1
    assert results[1] == results[0]


def test_a_discriminator_error_before_the_fake_batch_arrives_waits_for_the_helper(
        monkeypatch, set_helper_min_params):
    # D fails on the real batch once G(z_d) has started, whichever threads
    # the two run on; G(z_d) then fails too, later: the step joins it and
    # raises D's error, the first in task order
    set_helper_min_params(0)
    cfg, trio = _mixture_setup("vacgan")
    generating, generated, forward = threading.Event(), [], MLP.forward

    def failing(network, x, upto=None):
        if network is trio.discriminator:
            assert generating.wait(timeout=10)
            raise ValueError("D failed on the real batch")
        if network is trio.generator and not generating.is_set():
            generating.set()
            time.sleep(0.05)
            generated.append(1)
            raise RuntimeError("G(z_d) failed")
        return forward(network, x, upto)

    monkeypatch.setattr(MLP, "forward", failing)
    monkeypatch.setattr(MLP, "__call__", failing)
    with pytest.raises(ValueError, match="D failed on the real batch"):
        _run(cfg, trio, 1)
    assert generated == [1]  # G(z_d) had finished when the step raised
    _assert_no_helper_work_left(trio, _state_bytes(trio))
    assert all(p.grad is None for p in trio.all_params())


@pytest.mark.parametrize("failing_thread", ["calling", "helper"])
def test_a_product_that_fails_in_the_generators_backward_pass_leaves_no_helper_work(
        failing_thread, monkeypatch, set_helper_min_params):
    # each thread computes one of the two products of G's last layer, the
    # one layer of a digit step whose weight is wide enough for the helper;
    # one fails, the other is slow, and the step raises only once it has finished
    set_helper_min_params(tensor.HELPER_MIN_PARAMS)
    cfg, trio = _digit_setup("vacgan")
    g_before = trio.generator.param_buffer.tobytes()
    shared, done = tensor._share, []

    def failing(helper, tasks):
        barrier = threading.Barrier(2)

        def meeting(task):
            def run():
                barrier.wait(timeout=10)
                here = threading.current_thread() is threading.main_thread()
                if here is (failing_thread == "calling"):
                    raise RuntimeError(f"a product on the {failing_thread} thread failed")
                time.sleep(0.05)
                done.append(task())
                return done[-1]
            return run

        return shared(helper, [meeting(task) for task in tasks])

    monkeypatch.setattr(tensor, "_share", failing)
    with pytest.raises(RuntimeError, match=f"on the {failing_thread} thread failed"):
        _digit_run(cfg, trio, 1)
    assert len(done) == 1  # the other product had finished when the step raised
    _assert_no_helper_work_left(trio, _state_bytes(trio))
    assert trio.generator.param_buffer.tobytes() == g_before
    assert trio.g_opt.t == 0


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


def test_a_loaded_network_draws_no_initial_weights(tmp_path, monkeypatch):
    # the payload overwrites every weight, so none is drawn or copied first
    cfg, trio = _mixture_setup("vacgan", n_classes=3)
    save_checkpoint(tmp_path, trio, seed=3)

    def no_draws(*args):
        raise AssertionError("a loaded network drew initial weights")

    monkeypatch.setattr(nn, "glorot_uniform", no_draws)
    net = MLP.from_spec(trio.generator.spec())
    assert not net.param_buffer.any()
    back, _ = load_checkpoint(tmp_path)
    assert np.array_equal(_forward_probe(trio), _forward_probe(back))


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_loaded_parameters_stay_views_of_their_network_buffers(scheme, tmp_path):
    cfg, trio = _mixture_setup(scheme, n_classes=3)
    _run(cfg, trio, 2)
    save_checkpoint(tmp_path, trio, seed=0)
    back, _ = load_checkpoint(tmp_path)
    nets = [back.generator, back.discriminator]
    nets += [] if back.classifier is None else [getattr(back.classifier, "head", back.classifier)]
    for net in nets:
        for p in net.params():
            assert np.shares_memory(p.data, net.param_buffer)
            assert np.shares_memory(p.grad_view, net.grad_buffer)
    saved = np.concatenate([p.data.ravel() for net in (trio.generator, trio.discriminator)
                            for p in net.params()])
    assert saved.tobytes() == np.concatenate([back.generator.param_buffer,
                                              back.discriminator.param_buffer]).tobytes()
    # the payload is each network's buffer, back to back in manifest order
    names = [line.split()[1] for line in (tmp_path / "manifest.txt").read_text().splitlines()
             if line.startswith("network ")]
    assert names == ["generator", "discriminator"] + ([] if back.classifier is None else
                                                      [schemes._CLASSIFIER_NET[scheme]])
    assert (tmp_path / "checkpoint.bin").read_bytes() == b"".join(
        net.param_buffer.astype("<f8").tobytes() for net in nets)
    _run(cfg, back, 1)  # the fresh optimizers step the loaded buffers
    assert not np.array_equal(back.generator.param_buffer, trio.generator.param_buffer)


def _optimizer_segments(trio):
    """(optimizer, the segments its network hands it) for each optimizer of `trio`."""
    pairs = [(trio.g_opt, [trio.generator.segment()]),
             (trio.d_opt, [trio.discriminator.segment()])]
    if trio.config.scheme == "acgan":
        pairs.append((trio.c_opt, trio.classifier.segments()))
    elif trio.classifier is not None:
        pairs.append((trio.c_opt, [trio.classifier.segment()]))
    return pairs


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_optimizer_segments_tile_their_parameters_in_order(scheme, tmp_path):
    cfg, built = _mixture_setup(scheme, n_classes=3)
    save_checkpoint(tmp_path, built, seed=0)
    loaded, _ = load_checkpoint(tmp_path)
    rng = np.random.default_rng(19)
    for trio in (built, loaded):
        for opt, segments in _optimizer_segments(trio):
            assert opt.params == [p for params, _, _ in segments for p in params]
            for params, data, grads in segments:
                # each parameter reads the numbers at its own offset in both arrays
                data[...] = np.arange(data.size)
                grads[...] = -np.arange(grads.size)
                offset = 0
                for p in params:
                    assert np.shares_memory(p.data, data) and np.shares_memory(p.grad_view, grads)
                    at = np.arange(offset, offset + p.data.size)
                    assert np.array_equal(p.data.ravel(), at)
                    assert np.array_equal(p.grad_view.ravel(), -at)
                    offset += p.data.size
                assert offset == data.size == grads.size
            # the optimizer steps those segments: its first-step state is the
            # gradients in parameter order, and each parameter moves against its own
            grads = [rng.normal(size=p.shape) for p in opt.params]
            before = [p.data.copy() for p in opt.params]
            for p, g in zip(opt.params, grads):
                p.accumulate_grad(g)
            opt.step()
            flat = np.concatenate([g.ravel() for g in grads])
            if opt is trio.c_opt:
                assert np.array_equal(opt.velocity, -(opt.learning_rate * flat))
            else:
                assert np.array_equal(opt.m, (1.0 - opt.beta1) * flat)
            for p, b, g in zip(opt.params, before, grads):
                assert np.array_equal(np.sign(b - p.data), np.sign(g))
        if scheme == "acgan":
            (trunk, trunk_data, _), (head, _, _) = trio.classifier.segments()
            d = trio.discriminator
            assert len(trio.classifier.segments()) == 2
            assert trunk == d.params()[:-2] and head == trio.classifier.head.params()
            d.param_buffer[...] = np.arange(d.param_buffer.size)
            assert 0 < trunk_data.size < d.param_buffer.size
            assert np.array_equal(trunk_data, np.arange(trunk_data.size))  # a prefix of D's


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_saved_discriminators_and_classifiers_end_in_linear_layers(scheme, tmp_path):
    # the losses take logits: no saved network ends in sigmoid or softmax
    _, trio = _mixture_setup(scheme, n_classes=3)
    save_checkpoint(tmp_path, trio, seed=3)
    acts = {line.split()[1]: line.split("activations=")[1]
            for line in (tmp_path / "manifest.txt").read_text().splitlines()
            if line.startswith("network ")}
    assert acts.pop("generator") == "relu,relu,linear"
    assert all(a.split(",")[-1] == "linear" for a in acts.values())
    assert len(acts) == 1 + (scheme in ("acgan", "vacgan"))


@pytest.mark.parametrize("kind", ["trio", "probe"])
@pytest.mark.parametrize("payload", ["../other/checkpoint.bin", "other.bin", ""])
def test_a_payload_line_naming_another_file_never_loads(saved_bundles, tmp_path, kind, payload):
    # the payload is always the checkpoint.bin beside the manifest
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    shutil.copytree(saved_bundles / kind, tmp_path / "run" / kind)
    shutil.copytree(saved_bundles / kind, tmp_path / "run" / "other")  # loadable, were it read
    manifest = tmp_path / "run" / kind / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(text.replace("payload checkpoint.bin\n", f"payload {payload}\n"))
    with pytest.raises(ValueError, match="payload must be 'checkpoint.bin'") as e:
        load(manifest)
    assert str(manifest) in str(e.value)


def test_checkpoint_rejects_foreign_manifest(tmp_path):
    (tmp_path / "manifest.txt").write_text("format something-else\n")
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("kind", ["trio", "probe"])
def test_a_v1_manifest_is_refused_naming_both_formats(saved_bundles, tmp_path, kind):
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    shutil.copytree(saved_bundles / kind, tmp_path / kind)
    manifest = tmp_path / kind / "manifest.txt"
    text = manifest.read_text()
    manifest.write_text(text.replace("format auxgan-checkpoint-v2\n",
                                     "format auxgan-checkpoint-v1\n"))
    with pytest.raises(ValueError) as e:
        load(manifest)
    message = str(e.value)
    assert "\n" not in message and str(manifest) in message
    assert "'auxgan-checkpoint-v1'" in message and "'auxgan-checkpoint-v2'" in message


def test_checkpoint_kind_mismatch(tmp_path):
    net = MLP((4, 2), ("linear",), rng=np.random.default_rng(19))
    save_probe_checkpoint(tmp_path, net, test_accuracy=0.99, seed=1)
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path)


def test_probe_checkpoint_round_trip(tmp_path):
    net = MLP((4, 8, 3), ("relu", "linear"), rng=np.random.default_rng(20))
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
    net = MLP((4, 8, 3), ("relu", "linear"), rng=np.random.default_rng(22))
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
        with pytest.raises(ValueError) as e:
            load(directory)
        assert str(Path(directory, "checkpoint.bin")) in str(e.value)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["trio", "probe"]), data=st.data())
def test_a_payload_with_a_flipped_bit_never_loads(saved_bundles, kind, data):
    load = load_checkpoint if kind == "trio" else load_probe_checkpoint
    damaged = bytearray((saved_bundles / kind / "checkpoint.bin").read_bytes())
    damaged[data.draw(st.integers(0, len(damaged) - 1), label="offset")] ^= 1 << data.draw(
        st.integers(0, 7), label="bit")
    with tempfile.TemporaryDirectory() as directory:
        shutil.copy(saved_bundles / kind / "manifest.txt", directory)
        Path(directory, "checkpoint.bin").write_bytes(damaged)
        with pytest.raises(ValueError, match="payload_sha256") as e:
            load(directory)
        assert str(Path(directory, "checkpoint.bin")) in str(e.value)


def test_a_save_leaves_no_tmp_file_and_one_cut_between_its_renames_never_loads(
        tmp_path, monkeypatch):
    cfg, trio = _mixture_setup("vacgan")
    save_checkpoint(tmp_path, trio, seed=3)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.bin", "manifest.txt"]
    _run(cfg, trio, 1)
    renames, replace = [], schemes.os.replace

    def replace_once(source, target):  # the payload's rename, then a crash
        renames.append(target)
        if len(renames) == 2:
            raise OSError("cut")
        replace(source, target)

    monkeypatch.setattr(schemes.os, "replace", replace_once)
    with pytest.raises(OSError, match="cut"):
        save_checkpoint(tmp_path, trio, seed=3)
    monkeypatch.undo()
    assert [Path(p).name for p in renames] == ["checkpoint.bin", "manifest.txt"]
    with pytest.raises(ValueError, match="payload_sha256"):  # the old manifest, the new payload
        load_checkpoint(tmp_path)


@pytest.mark.parametrize("spec, named", [
    ("dims=4,8,3", "'activations'"),
    ("garbage", "'garbage'"),
    ("dims=4,x,3 activations=relu,softmax", "'4,x,3'"),
    ("dims=4,8,3 activations=leaky_relu:abc,softmax", "'abc'"),
    ("dims=4,8,3 activations=relu,softmax", "unknown activation 'softmax'"),
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
    ("probe", "test_accuracy", "-0.1"), ("probe", "seed", "-3"),
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


@pytest.mark.parametrize("key, value, named", [
    ("noise_dim", "7", "n_classes + noise_dim gives width 11"),
    ("n_classes", "3", "n_classes gives width 3"),
])
def test_manifest_keys_that_disagree_with_the_saved_widths_never_load(tmp_path, key, value,
                                                                      named):
    cfg = SchemeConfig(scheme="vacgan", n_classes=4, noise_dim=8)
    trio = build_trio(cfg, data_dim=2, rng=np.random.default_rng(23))
    save_checkpoint(tmp_path, trio, seed=3)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(f"{key} "))
    lines[i] = f"{key} {value}"
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(named)) as e:
        load_checkpoint(tmp_path)
    assert str(manifest) in str(e.value)
