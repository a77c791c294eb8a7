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

Latent space is partitioned by class: every latent vector is a class
one-hot block followed by Gaussian noise, so latents for different classes
are disjoint by construction and their union covers the whole space.

Per batch the update order is discriminator, classifier, generator.  The
generator and discriminator take ADAM steps; the classifier takes Nesterov
momentum steps.  Runs are bit-for-bit reproducible for a fixed seed.
"""

import math
import numbers
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import MLP
from .optim import Adam, NesterovMomentum
from .tensor import Tape, Tensor, bce_loss, cce_loss, concat_cols

SCHEMES = ("gan", "cgan", "acgan", "vacgan")

# The network each classifier scheme trains as its classifier, by its
# checkpoint name; acgan's is a softmax head on the discriminator trunk.
_CLASSIFIER_NET = {"vacgan": "classifier", "acgan": "classifier_head"}


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
    """ACGAN-style classifier: discriminator trunk plus a softmax head.

    A classifier step therefore updates the shared trunk; the vacgan
    classifier is a separate network and never touches the discriminator.
    """

    def __init__(self, discriminator, head):
        self.discriminator = discriminator
        self.head = head  # single-layer softmax MLP

    def forward(self, x):
        trunk = self.discriminator.forward(x, upto=len(self.discriminator.layers) - 1)
        return self.head.forward(trunk)

    __call__ = forward

    def params(self):
        trunk_params = [p for layer in self.discriminator.layers[:-1] for p in layer.params()]
        return trunk_params + self.head.params()


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
    d_acts = ("leaky_relu:0.2",) * len(discriminator_hidden) + ("sigmoid",)
    discriminator = MLP(d_dims, d_acts, rng=rng)

    classifier_net = None
    if config.scheme == "vacgan":
        c_dims = (data_dim, *classifier_hidden, n)
        classifier_net = MLP(c_dims, ("relu",) * len(classifier_hidden) + ("softmax",), rng=rng)
    elif config.scheme == "acgan":
        classifier_net = MLP((d_dims[-2], n), ("softmax",), rng=rng)
    return _assemble(config, data_dim, generator, discriminator, classifier_net)


def _assemble(config, data_dim, generator, discriminator, classifier_net, step=0):
    """Wire built or loaded networks into a TrioState with fresh optimizers."""
    classifier = classifier_net
    if config.scheme == "acgan":
        classifier = SharedTrunkClassifier(discriminator, classifier_net)
    return TrioState(
        config=config,
        partition=LatentPartition(n_classes=config.n_classes, noise_dim=config.noise_dim),
        data_dim=data_dim,
        generator=generator,
        discriminator=discriminator,
        classifier=classifier,
        g_opt=Adam(generator.params()),
        d_opt=Adam(discriminator.params()),
        c_opt=None if classifier is None else NesterovMomentum(classifier.params()),
        step=step,
    )


# ---------------------------------------------------------------------------
# losses

def discriminator_loss(d_real, d_fake):
    """BCE(real, 1) + BCE(fake, 0)."""
    return bce_loss(d_real, 1.0) + bce_loss(d_fake, 0.0)


def generator_loss(d_fake, class_probs, labels, config):
    """theta * BCE(fake, 1), plus zeta * CCE(class_probs, labels) if the scheme has a classifier.

    Both terms differentiate into the generator: the classifier reads the
    generated sample, so its cross-entropy reaches the generator parameters
    whenever zeta > 0.
    """
    loss = config.theta * bce_loss(d_fake, 1.0)
    if not config.has_classifier:
        return loss
    if class_probs is None:
        raise ValueError("classifier outputs are required for this scheme")
    return loss + config.zeta * cce_loss(class_probs, labels)


def _check_finite(value, name, step):
    if not np.isfinite(value):
        raise TrainingDiverged(f"{name} loss is not finite ({value!r}) at step {step}")
    return value


@dataclass(frozen=True)
class StepLosses:
    step: int
    d_loss: float
    g_loss: float
    c_loss: Optional[float]  # None for schemes without a classifier


def classifier_step(generated, labels, trio, real_batch=None):
    """One Nesterov step of the classifier on the generated batch.

    `generated` is a constant on this step's tape, which differentiates only
    the classifier's parameters (the generator is updated by the
    cross-entropy term of its own loss, never by this step).  When
    `real_batch` is given, its labelled cross-entropy is added, anchoring
    class identities to the data classes.
    """
    if trio.classifier is None:
        raise ValueError(f"scheme {trio.config.scheme!r} has no classifier")
    with Tape(wrt=trio.c_opt.params) as tape:
        loss = cce_loss(trio.classifier(generated), labels)
        if real_batch is not None:
            loss = loss + cce_loss(trio.classifier(Tensor(real_batch.features)), real_batch.labels)
    tape.backward(loss)
    trio.c_opt.step()
    return loss.item()


def train_step(real_batch, labels_for_fake, trio, config, rng):
    """One full update: discriminator, then classifier, then generator.

    Draws two latent batches from `rng` (one for the discriminator's fake
    batch, one for the generator update); the classifier reuses the first.
    Every scheme consumes the identical random stream, so schemes that only
    differ by loss weights can be compared trajectory-for-trajectory.
    """
    labels_for_fake = np.asarray(labels_for_fake)
    partition = trio.partition
    scheme = config.scheme
    z_d = sample_latent(partition, labels_for_fake, rng)
    z_g = sample_latent(partition, labels_for_fake, rng)

    # Discriminator step; the fake batch is a constant here.
    fake_d = Tensor(trio.generator(z_d).data)
    real_x = Tensor(real_batch.features)
    if scheme == "cgan":
        d_in_real = cgan_condition(real_x, real_batch.labels, config.n_classes)
        d_in_fake = cgan_condition(fake_d, labels_for_fake, config.n_classes)
    else:
        d_in_real, d_in_fake = real_x, fake_d
    with Tape(wrt=trio.d_opt.params) as tape:
        d_loss = discriminator_loss(trio.discriminator(d_in_real), trio.discriminator(d_in_fake))
    _check_finite(d_loss.item(), "discriminator", trio.step)
    tape.backward(d_loss)
    trio.d_opt.step()

    # Classifier step on the freshest fake batch.
    c_loss = None
    if config.has_classifier:
        c_loss = classifier_step(fake_d, labels_for_fake, trio, real_batch=real_batch)
        _check_finite(c_loss, "classifier", trio.step)

    # Generator step; gradient flows through discriminator and classifier.
    with Tape(wrt=trio.g_opt.params) as tape:
        fake_g = trio.generator(z_g)
        d_in = (cgan_condition(fake_g, labels_for_fake, config.n_classes)
                if scheme == "cgan" else fake_g)
        d_fake = trio.discriminator(d_in)
        class_probs = trio.classifier(fake_g) if config.has_classifier else None
        g_loss = generator_loss(d_fake, class_probs, labels_for_fake, config)
    _check_finite(g_loss.item(), "generator", trio.step)
    tape.backward(g_loss)
    trio.g_opt.step()

    trio.step += 1
    return StepLosses(step=trio.step, d_loss=d_loss.item(), g_loss=g_loss.item(), c_loss=c_loss)


# ---------------------------------------------------------------------------
# checkpoints: one bundle format for trios and probes.  manifest.txt holds
# "format", "kind", key lines, "payload" and one "network NAME SPEC" line per
# network; checkpoint.bin holds each network's parameters in manifest order,
# as length-prefixed little-endian float64 arrays.

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "checkpoint.bin"
_FORMAT_LINE = "auxgan-checkpoint-v1"


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
    """Write one bundle; `keys` and `networks` are dicts in manifest order."""
    os.makedirs(directory, exist_ok=True)
    lines = [f"format {_FORMAT_LINE}", f"kind {kind}"]
    lines += [f"{key} {value}" for key, value in keys.items()]
    lines.append(f"payload {PAYLOAD_NAME}")
    lines += [f"network {name} {net.spec()}" for name, net in networks.items()]
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, PAYLOAD_NAME), "wb") as f:
        for net in networks.values():
            for p in net.params():
                flat = np.ascontiguousarray(p.data, dtype="<f8").ravel()
                f.write(struct.pack("<Q", flat.size))
                f.write(flat.tobytes())


def _read_bundle(path, kind):
    """Check and load one bundle; `path` is the manifest or its directory.

    Returns (keys, networks): the manifest keys and a dict of name -> MLP
    with the saved weights.  The payload must hold exactly the arrays the
    manifest declares, no fewer bytes and no more.
    """
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
        raise ValueError(f"not a recognized checkpoint manifest: {manifest}")
    if keys.get("kind") != kind:
        raise ValueError(f"expected a {kind} checkpoint, found kind {keys.get('kind')!r}")
    networks = _Manifest(manifest)
    for name, spec in specs.items():
        try:
            networks[name] = MLP.from_spec(spec)
        except ValueError as e:
            raise ValueError(f"checkpoint manifest {manifest}, network {name}: {e}") from None
    payload = os.path.join(os.path.dirname(manifest), keys["payload"])
    with open(payload, "rb") as f:
        raw = f.read()
    offset = 0
    for net in networks.values():
        for p in net.params():
            size = p.data.size
            end = offset + 8 + 8 * size
            if end > len(raw):
                raise ValueError(f"checkpoint payload {payload} ends at byte {len(raw)}, "
                                 f"inside the array that starts at byte {offset}")
            declared = struct.unpack_from("<Q", raw, offset)[0]
            if declared != size:
                raise ValueError(f"checkpoint array at byte {offset} declares {declared} "
                                 f"values, its shape {p.data.shape} needs {size}")
            p.data = np.frombuffer(raw, "<f8", size, offset + 8).reshape(p.data.shape).copy()
            offset = end
    if offset != len(raw):
        raise ValueError(f"checkpoint payload {payload} has {len(raw) - offset} bytes "
                         f"after its last array (byte {offset})")
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
    where info carries the manifest's step and seed.
    """
    keys, nets = _read_bundle(path, "trio")
    config = SchemeConfig(scheme=keys["scheme"], **{
        key: keys.number(key, *SchemeConfig._RANGES[key])
        for key in ("n_classes", "noise_dim", "theta", "zeta")})
    width = nets["generator"].dims[-1]  # data_dim must equal it
    data_dim = keys.number("data_dim", int, width, width)
    name = _CLASSIFIER_NET.get(config.scheme)
    trio = _assemble(config, data_dim, nets["generator"], nets["discriminator"],
                     None if name is None else nets[name], step=keys.number("step", int, 0))
    return trio, {"step": trio.step, "seed": keys.number("seed", int, 0)}


def save_probe_checkpoint(directory, network, test_accuracy, seed):
    """Persist a standalone classifier network (the evaluation probe)."""
    keys = {"name": "probe", "test_accuracy": test_accuracy, "seed": seed}
    _write_bundle(directory, "network", keys, {"probe": network})


def load_probe_checkpoint(path):
    """Returns (network, test_accuracy) for a saved probe."""
    keys, nets = _read_bundle(path, "network")
    return nets[keys["name"]], keys.number("test_accuracy", float, 0.0, 1.0)
