"""The four conditional-generator training schemes on one code path.

* ``gan``     unconditional baseline: BCE-only losses, no class signal.
* ``cgan``    class one-hot concatenated onto both the generator input and
              the discriminator input.
* ``acgan``   classifier head sharing the discriminator trunk; the class
              loss reaches both the trunk (classifier step) and the
              generator (composite loss).
* ``vacgan``  classifier as a separate network in parallel with the
              discriminator; its cross-entropy back-propagates through the
              generator inside the generator's own step.

The classifier learns from the real labelled batch only: generated samples
reach it only inside the generator's loss, which never moves it.

Latent space is partitioned by class: every latent vector is a class
one-hot block followed by Gaussian noise, so latents for different classes
are disjoint by construction and their union covers the whole space.

Per batch the update order is discriminator, classifier, generator.  The
generator and discriminator take ADAM steps; the classifier takes Nesterov
momentum steps.  Runs are bit-for-bit reproducible for a fixed seed.

A step runs its work as two shares of `tensor._share`, each a pair of
tasks: D on the real batch (recorded on D's tape) and D's fake batch
G(z_d); then the rest of D's step, and the work that never reads D: the
`vacgan` classifier step, the generator's forward pass (recorded on its
tape) and the classifier's half of the generator loss, differentiated into
the generated batch.  After the second share the calling thread adds D's
half and steps G.  Without the helper thread the tasks run in that order,
the serial step; at image width, where `tensor.helper_for` gives the
generator's size the helper, the helper takes tasks while it is free, also
the pieces of other work `helper_for` gives it by their size: blocks of the
optimizer steps and one of the two products of G's last layer.  The bits
are the same either way: both threads read the weights the serial order
gives them and write disjoint buffers, and every rng draw stays on the
calling thread.  `acgan`'s classifier reads D's trunk, so its step and its
half of the loss always follow D's step.
"""

import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import MLP
from .optim import Adam, NesterovMomentum
from .tensor import Tape, Tensor, _share, bce_loss, cce_loss, concat_cols, helper_for

SCHEMES = ("gan", "cgan", "acgan", "vacgan")

# The network each classifier scheme trains as its classifier, by its
# checkpoint name; acgan's is a linear head on the discriminator trunk.
_CLASSIFIER_NET = {"vacgan": "classifier", "acgan": "classifier_head"}


def _helper_for(network):
    """`helper_for` the network's parameter count; None for a stub without a `param_buffer`."""
    buffer = getattr(network, "param_buffer", None)
    return None if buffer is None else helper_for(buffer.size)


class TrainingDiverged(RuntimeError):
    """A training loss became non-finite; the message names the sub-loss."""


@dataclass(frozen=True)
class LatentPartition:
    """Disjoint per-class latent subsets: one-hot class block ++ noise block."""

    n_classes: int
    noise_dim: int

    def one_hot(self, labels):
        labels = np.asarray(labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(f"labels must lie in [0, {self.n_classes})")
        out = np.zeros((labels.size, self.n_classes))
        out[np.arange(labels.size), labels] = 1.0
        return out


def sample_latent(partition, class_labels, rng):
    """Draw one latent row per label: one_hot(label) ++ standard-normal noise."""
    class_labels = np.asarray(class_labels)
    encoded = partition.one_hot(class_labels)
    noise = rng.standard_normal((class_labels.size, partition.noise_dim))
    return Tensor(np.concatenate([encoded, noise], axis=1))


def cgan_condition(real_or_fake, labels, n_classes):
    """Concatenate the label one-hot onto the feature axis (CGAN conditioning)."""
    partition = LatentPartition(n_classes=n_classes, noise_dim=0)
    return concat_cols(real_or_fake, Tensor(partition.one_hot(labels)))


def check_field(name, value, kind, least, most=math.inf):
    """Raise ValueError naming `name` unless `value` is a `kind` (int or float) in [least, most].

    bool does not count as an int, and a float must be finite.
    """
    if kind is int:
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    else:
        ok = (isinstance(value, numbers.Real) and not isinstance(value, bool)
              and math.isfinite(value))
    if not ok or not least <= value <= most:
        bound = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a finite number'}"
                         f" {bound}, got {value!r}")


@dataclass
class SchemeConfig:
    """Which scheme to train plus its loss weights and step budget."""

    scheme: str
    n_classes: int
    noise_dim: int = 8
    theta: float = 0.2
    zeta: float = 0.8
    batch_size: int = 64
    steps_per_epoch: int = 100
    epochs: int = 20

    # type and least value of each numeric field
    _RANGES = {"n_classes": (int, 2), "noise_dim": (int, 0), "theta": (float, 0.0),
               "zeta": (float, 0.0), "batch_size": (int, 1), "steps_per_epoch": (int, 1),
               "epochs": (int, 0)}

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        for name, (kind, least) in self._RANGES.items():
            check_field(name, getattr(self, name), kind, least)
        if self.theta + self.zeta <= 0.0:
            raise ValueError("need theta + zeta > 0")

    @property
    def has_classifier(self):
        return self.scheme in _CLASSIFIER_NET


class SharedTrunkClassifier:
    """ACGAN-style classifier: discriminator trunk plus a linear head giving class logits.

    A classifier step therefore updates the shared trunk; the vacgan
    classifier is a separate network and never touches the discriminator.
    """

    def __init__(self, discriminator, head):
        self.discriminator = discriminator
        self.head = head  # single-layer linear MLP

    def forward(self, x):
        trunk = self.discriminator.forward(x, upto=len(self.discriminator.layers) - 1)
        return self.head.forward(trunk)

    __call__ = forward

    def segments(self):
        """Optimizer segments: the discriminator's trunk (a prefix of its buffers), the head."""
        return [self.discriminator.segment(upto=-1), self.head.segment()]


@dataclass
class TrioState:
    """Generator/discriminator/classifier parameters, optimizers, step count."""

    config: SchemeConfig
    partition: LatentPartition
    data_dim: int
    generator: MLP
    discriminator: MLP
    classifier: object  # MLP, SharedTrunkClassifier, or None
    g_opt: Adam
    d_opt: Adam
    c_opt: Optional[NesterovMomentum]
    step: int = 0

    def all_params(self):
        """Every trained parameter once (the acgan trunk is in two optimizers)."""
        opts = [opt for opt in (self.g_opt, self.d_opt, self.c_opt) if opt is not None]
        return list(dict.fromkeys(p for opt in opts for p in opt.params))


def build_trio(config, data_dim, rng, generator_hidden=(32, 32),
               discriminator_hidden=(32, 32), classifier_hidden=(32,),
               generator_output="linear"):
    """Construct the networks and optimizers for one scheme.

    Network widths default to the 2-D mixture scale; the harness passes the
    wider image-scale values.  Weight draws happen in declaration order
    (generator, discriminator, classifier) so a seed pins every parameter.
    """
    n = config.n_classes
    g_dims = (config.noise_dim + n, *generator_hidden, data_dim)
    g_acts = ("relu",) * len(generator_hidden) + (generator_output,)
    generator = MLP(g_dims, g_acts, rng=rng)

    d_in = data_dim + (n if config.scheme == "cgan" else 0)
    d_dims = (d_in, *discriminator_hidden, 1)
    d_acts = ("leaky_relu:0.2",) * len(discriminator_hidden) + ("linear",)
    discriminator = MLP(d_dims, d_acts, rng=rng)

    classifier_net = None
    if config.scheme == "vacgan":
        c_dims = (data_dim, *classifier_hidden, n)
        classifier_net = MLP(c_dims, ("relu",) * len(classifier_hidden) + ("linear",), rng=rng)
    elif config.scheme == "acgan":
        classifier_net = MLP((d_dims[-2], n), ("linear",), rng=rng)
    return _assemble(config, data_dim, generator, discriminator, classifier_net)


def _assemble(config, data_dim, generator, discriminator, classifier_net, step=0):
    """Wire built or loaded networks into a TrioState with fresh optimizers."""
    classifier = classifier_net
    c_segments = None if classifier_net is None else [classifier_net.segment()]
    if config.scheme == "acgan":
        classifier = SharedTrunkClassifier(discriminator, classifier_net)
        c_segments = classifier.segments()
    return TrioState(
        config=config,
        partition=LatentPartition(n_classes=config.n_classes, noise_dim=config.noise_dim),
        data_dim=data_dim,
        generator=generator,
        discriminator=discriminator,
        classifier=classifier,
        g_opt=Adam([generator.segment()]),
        d_opt=Adam([discriminator.segment()]),
        c_opt=None if c_segments is None else NesterovMomentum(c_segments),
        step=step,
    )


# ---------------------------------------------------------------------------
# losses

def discriminator_loss(d_real, d_fake):
    """BCE(real, 1) + BCE(fake, 0), on the discriminator's logits."""
    return bce_loss(d_real, 1.0) + bce_loss(d_fake, 0.0)


def generator_class_loss(class_logits, labels, config):
    """zeta * CCE(class_logits, labels): the classifier's half of the generator loss, on logits."""
    return config.zeta * cce_loss(class_logits, labels)


def generator_loss(d_fake, class_loss, config):
    """theta * BCE(fake, 1), plus `class_loss` (`generator_class_loss`) if the scheme has a classifier.

    Both terms differentiate into the generator: the classifier reads the
    generated sample, so its cross-entropy reaches the generator parameters
    whenever zeta > 0.
    """
    loss = config.theta * bce_loss(d_fake, 1.0)
    if not config.has_classifier:
        return loss
    if class_loss is None:
        raise ValueError("the classifier's half of the generator loss is required for this scheme")
    return loss + class_loss


def _check_finite(t, name, step=None):
    """`t`, or a TrainingDiverged naming `name` unless `t` sums to a finite value.

    A NaN or infinite entry always makes the sum non-finite.
    """
    if not math.isfinite(t.data.sum() if t.data.ndim else t.data):
        at = "" if step is None else f" at step {step}"
        raise TrainingDiverged(f"{name} is not finite{at}")
    return t


@dataclass(frozen=True)
class StepLosses:
    step: int
    d_loss: float
    g_loss: float
    c_loss: Optional[float]  # None for schemes without a classifier


def _descend(tape, loss, opt, name, step=None):
    """Check `loss` (named `name`), run `tape`'s backward pass, step `opt`; returns the loss."""
    value = _check_finite(loss, name, step).item()
    tape.backward(loss)
    opt.step()
    return value


def classifier_step(network, opt, batch):
    """One step of `opt` on the cross-entropy of `network`.

    The tape differentiates only `opt.params`; the output and the loss are
    checked before they are read, so a non-finite value never reaches the
    parameters.  Returns the loss on the labelled `batch`.
    """
    with Tape(wrt=opt.params) as tape:
        logits = _check_finite(network(Tensor(batch.features)),
                               "classifier output in the classifier step")
        loss = cce_loss(logits, batch.labels)
    return _descend(tape, loss, opt, "classifier loss")


def train_step(real, labels_for_fake, trio, config, rng):
    """One full update: discriminator, then classifier, then generator.

    Draws two latent batches from `rng`, one for the discriminator's fake
    batch and one for the generator update; the classifier step reads only
    the real batch and draws nothing.  Every scheme consumes the identical
    random stream, so schemes that only differ by loss weights can be
    compared trajectory-for-trajectory.  The classifier's half of the
    generator loss is differentiated into the generated batch on its own
    tape; the generator's tape then adds the discriminator's half.  A wide
    generator's step shares work with the helper thread (see the module
    docstring) and gives the same bits.
    """
    labels_for_fake = np.asarray(labels_for_fake)
    z_d = sample_latent(trio.partition, labels_for_fake, rng)
    z_g = sample_latent(trio.partition, labels_for_fake, rng)
    helper = _helper_for(trio.generator)
    # vacgan's classifier reads only the real batch, its own weights and G's output
    c_beside = config.scheme == "vacgan"

    def d_input(x, labels):
        return cgan_condition(x, labels, config.n_classes) if config.scheme == "cgan" else x

    d_tape, g_tape = Tape(wrt=trio.d_opt.params), Tape(wrt=trio.g_opt.params)

    def discriminator_on_real():
        with d_tape:
            return trio.discriminator(d_input(Tensor(real.features), real.labels))

    def fake_batch():  # a constant on D's tape
        return d_input(Tensor(trio.generator(z_d).data), labels_for_fake)

    def discriminator_step():
        with d_tape:
            d_loss = discriminator_loss(d_real, trio.discriminator(fake_d))
        return _descend(d_tape, d_loss, trio.d_opt, "discriminator loss", trio.step)

    def classifier_half(fake_g):
        # zeta * CCE of C on the generated batch, differentiated into fake_g only
        with Tape(wrt=[fake_g]) as tape:
            logits = _check_finite(trio.classifier(fake_g),
                                   "classifier output in the generator step", trio.step)
            c_half = generator_class_loss(logits, labels_for_fake, config)
        tape.backward(c_half)
        return c_half

    def beside_discriminator():
        # C's step on the real batch, then G's forward pass, the start of its
        # step, then C's half of G's loss
        c_value = classifier_step(trio.classifier, trio.c_opt, real) if c_beside else None
        with g_tape:
            fake_g = trio.generator(z_g)
        return c_value, fake_g, classifier_half(fake_g) if c_beside else None

    d_real, fake_d = _share(helper, (discriminator_on_real, fake_batch))
    d_value, (c_loss, fake_g, c_half) = _share(helper, (discriminator_step, beside_discriminator))
    if config.scheme == "acgan":  # its C reads the trunk D just stepped
        c_loss = classifier_step(trio.classifier, trio.c_opt, real)
        c_half = classifier_half(fake_g)

    # The rest of the generator step; D's half of the gradient flows through D.
    with g_tape:
        g_loss = generator_loss(trio.discriminator(d_input(fake_g, labels_for_fake)),
                                c_half, config)
    g_value = _descend(g_tape, g_loss, trio.g_opt, "generator loss", trio.step)
    trio.step += 1
    return StepLosses(step=trio.step, d_loss=d_value, g_loss=g_value, c_loss=c_loss)


# ---------------------------------------------------------------------------
# checkpoints: one bundle format for trios and probes.  manifest.txt holds
# "format", "kind", key lines, "payload", "payload_sha256" and one
# "network NAME SPEC" line per network; checkpoint.bin holds each network's
# `param_buffer` as little-endian float64, back to back in manifest order.
# hashlib is imported where a bundle is read or written, so other runs never load it.

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "checkpoint.bin"
_FORMAT_LINE = "auxgan-checkpoint-v2"


class _Manifest(dict):
    """Manifest entries; a missing one is a ValueError naming it and the file."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise ValueError(f"checkpoint manifest {self.path} has no {key!r}")

    def number(self, key, kind, least, most=math.inf):
        """Entry `key` as a `kind` (int or float) in [least, most]; else a ValueError naming it."""
        text = self[key]
        try:
            value = kind(text)
        except ValueError:
            value = text  # not a number: check_field rejects it
        try:
            check_field(key, value, kind, least, most)
        except ValueError as e:
            raise ValueError(f"checkpoint manifest {self.path}: {e}") from None
        return value


def _write_bundle(directory, kind, keys, networks):
    """Write one bundle; `keys` and `networks` are dicts in manifest order.

    Each file is renamed into place from a .tmp file, the payload first: a
    crash between the renames leaves an old manifest that refuses the payload.
    """
    import hashlib
    os.makedirs(directory, exist_ok=True)
    payload = os.path.join(directory, PAYLOAD_NAME)
    digest = hashlib.sha256()
    with open(payload + ".tmp", "wb") as f:
        for net in networks.values():
            buffer = net.param_buffer.astype("<f8", copy=False)
            digest.update(buffer)
            f.write(buffer)
    os.replace(payload + ".tmp", payload)
    lines = [f"format {_FORMAT_LINE}", f"kind {kind}"]
    lines += [f"{key} {value}" for key, value in keys.items()]
    lines += [f"payload {PAYLOAD_NAME}", f"payload_sha256 {digest.hexdigest()}"]
    lines += [f"network {name} {net.spec()}" for name, net in networks.items()]
    manifest = os.path.join(directory, MANIFEST_NAME)
    with open(manifest + ".tmp", "w") as f:
        f.write("\n".join(lines) + "\n")
    os.replace(manifest + ".tmp", manifest)


def _read_bundle(path, kind):
    """Check and load one bundle; `path` is the manifest or its directory.

    Returns (keys, networks): the manifest keys and a dict of name -> MLP
    with the saved weights.  The payload must have exactly the size the
    manifest's networks give and the manifest's sha256.
    """
    import hashlib
    manifest = os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path
    keys, specs = _Manifest(manifest), {}
    with open(manifest) as f:
        for line in f:
            key, _, rest = line.strip().partition(" ")
            if key == "network":
                name, _, spec = rest.partition(" ")
                specs[name] = spec
            elif key:
                keys[key] = rest
    if keys.get("format") != _FORMAT_LINE:
        raise ValueError(f"checkpoint manifest {manifest} has format {keys.get('format')!r}, "
                         f"not {_FORMAT_LINE!r}; re-run to regenerate it")
    if keys.get("kind") != kind:
        raise ValueError(f"expected a {kind} checkpoint, found kind {keys.get('kind')!r}")
    networks = _Manifest(manifest)
    for name, spec in specs.items():
        try:
            networks[name] = MLP.from_spec(spec)
        except ValueError as e:
            raise ValueError(f"checkpoint manifest {manifest}, network {name}: {e}") from None
    if keys["payload"] != PAYLOAD_NAME:  # the payload lies beside its manifest, never elsewhere
        raise ValueError(f"checkpoint manifest {manifest}: payload must be {PAYLOAD_NAME!r}, "
                         f"got {keys['payload']!r}")
    payload = os.path.join(os.path.dirname(manifest), PAYLOAD_NAME)
    with open(payload, "rb") as f:
        raw = f.read()
    size = sum(net.param_buffer.nbytes for net in networks.values())
    if len(raw) != size:
        raise ValueError(f"checkpoint payload {payload} has {len(raw)} bytes, "
                         f"the networks of {manifest} need {size}")
    if hashlib.sha256(raw).hexdigest() != keys["payload_sha256"]:
        raise ValueError(f"checkpoint payload {payload} does not match "
                         f"the payload_sha256 of {manifest}")
    offset = 0
    for net in networks.values():
        net.param_buffer[...] = np.frombuffer(raw, "<f8", net.param_buffer.size, offset)
        offset += net.param_buffer.nbytes
    return keys, networks


def save_checkpoint(directory, trio, seed):
    """Write manifest.txt + checkpoint.bin; reload reproduces forwards bit-for-bit."""
    cfg = trio.config
    keys = {"scheme": cfg.scheme, "n_classes": cfg.n_classes, "noise_dim": cfg.noise_dim,
            "theta": cfg.theta, "zeta": cfg.zeta, "data_dim": trio.data_dim,
            "step": trio.step, "seed": seed}
    networks = {"generator": trio.generator, "discriminator": trio.discriminator}
    if cfg.scheme in _CLASSIFIER_NET:  # acgan stores its head; the trunk is D's
        networks[_CLASSIFIER_NET[cfg.scheme]] = getattr(trio.classifier, "head", trio.classifier)
    _write_bundle(directory, "trio", keys, networks)


def load_checkpoint(path):
    """Rebuild a TrioState (fresh optimizer state) from a saved checkpoint.

    `path` may be the manifest file or its directory.  Returns (trio, info)
    where info carries the manifest's step, seed and directory.
    """
    keys, nets = _read_bundle(path, "trio")
    config = SchemeConfig(scheme=keys["scheme"], **{
        key: keys.number(key, *SchemeConfig._RANGES[key])
        for key in ("n_classes", "noise_dim", "theta", "zeta")})
    name = _CLASSIFIER_NET.get(config.scheme)
    g, d, c = nets["generator"], nets["discriminator"], None if name is None else nets[name]
    data_dim = keys.number("data_dim", int, g.dims[-1], g.dims[-1])  # the generator's output
    n, cgan = config.n_classes, config.scheme == "cgan"
    # (manifest keys, the width they give, the saved network end that must have it, its width)
    widths = [("n_classes", n, f"{name} output", c.dims[-1])] if c else []
    if config.scheme == "vacgan":
        widths.append(("data_dim", data_dim, "classifier input", c.dims[0]))
    widths += [("n_classes + noise_dim", n + config.noise_dim, "generator input", g.dims[0]),
               ("data_dim + n_classes" if cgan else "data_dim", data_dim + n * cgan,
                "discriminator input", d.dims[0])]
    for named, want, end, got in widths:
        if want != got:
            raise ValueError(f"checkpoint manifest {keys.path}: {named} gives width {want}, "
                             f"the saved {end} has width {got}")
    trio = _assemble(config, data_dim, g, d, c, step=keys.number("step", int, 0))
    return trio, {"step": trio.step, "seed": keys.number("seed", int, 0),
                  "directory": os.path.dirname(keys.path)}


def save_probe_checkpoint(directory, network, test_accuracy, seed):
    """Persist a standalone classifier network (the evaluation probe)."""
    keys = {"name": "probe", "test_accuracy": test_accuracy, "seed": seed}
    _write_bundle(directory, "network", keys, {"probe": network})


def load_probe_checkpoint(path):
    """Returns (network, test_accuracy) for a saved probe."""
    keys, nets = _read_bundle(path, "network")
    keys.number("seed", int, 0)  # unused here, but a bad one means a bad manifest
    return nets[keys["name"]], keys.number("test_accuracy", float, 0.0, 1.0)
