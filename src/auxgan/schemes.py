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

import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .nn import MLP, DenseLayer
from .optim import Adam, NesterovMomentum
from .tensor import Tape, Tensor, bce_loss, cce_loss, concat_cols

SCHEMES = ("gan", "cgan", "acgan", "vacgan")


class TrainingDiverged(RuntimeError):
    """A training loss became non-finite; the message names the sub-loss."""


@dataclass(frozen=True)
class LatentPartition:
    """Disjoint per-class latent subsets: one-hot class block ++ noise block."""

    n_classes: int
    noise_dim: int

    @property
    def dim(self):
        return self.n_classes + self.noise_dim

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

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.theta < 0.0 or self.zeta < 0.0 or self.theta + self.zeta <= 0.0:
            raise ValueError("need theta >= 0, zeta >= 0, theta + zeta > 0")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def has_classifier(self):
        return self.scheme in ("acgan", "vacgan")

    @property
    def total_steps(self):
        return self.steps_per_epoch * self.epochs


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

    classifier = None
    c_opt = None
    if config.scheme == "vacgan":
        c_dims = (data_dim, *classifier_hidden, n)
        classifier = MLP(c_dims, ("relu",) * len(classifier_hidden) + ("softmax",), rng=rng)
        c_opt = NesterovMomentum(classifier.params())
    elif config.scheme == "acgan":
        head = MLP((d_dims[-2], n), ("softmax",), rng=rng)
        classifier = SharedTrunkClassifier(discriminator, head)
        c_opt = NesterovMomentum(classifier.params())

    return TrioState(
        config=config,
        partition=LatentPartition(n_classes=n, noise_dim=config.noise_dim),
        data_dim=data_dim,
        generator=generator,
        discriminator=discriminator,
        classifier=classifier,
        g_opt=Adam(generator.params()),
        d_opt=Adam(discriminator.params()),
        c_opt=c_opt,
    )


# ---------------------------------------------------------------------------
# losses

def discriminator_loss(d_real, d_fake):
    """BCE(real, 1) + BCE(fake, 0)."""
    return bce_loss(d_real, 1.0) + bce_loss(d_fake, 0.0)


def generator_loss_vacgan(d_fake, class_probs, labels, config):
    """theta * BCE(fake, 1) + zeta * CCE(classifier(fake), requested labels).

    Both terms differentiate into the generator: the classifier reads the
    generated sample, so its cross-entropy reaches the generator parameters
    whenever zeta > 0.
    """
    if not config.has_classifier:
        raise ValueError(f"scheme {config.scheme!r} has no classifier loss term")
    if class_probs is None:
        raise ValueError("classifier outputs are required for this scheme")
    return config.theta * bce_loss(d_fake, 1.0) + config.zeta * cce_loss(class_probs, labels)


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
        if config.has_classifier:
            g_loss = generator_loss_vacgan(d_fake, trio.classifier(fake_g),
                                           labels_for_fake, config)
        else:
            g_loss = config.theta * bce_loss(d_fake, 1.0)
    _check_finite(g_loss.item(), "generator", trio.step)
    tape.backward(g_loss)
    trio.g_opt.step()

    trio.step += 1
    return StepLosses(step=trio.step, d_loss=d_loss.item(), g_loss=g_loss.item(), c_loss=c_loss)


# ---------------------------------------------------------------------------
# checkpoints: manifest.txt (plain text) + checkpoint.bin (length-prefixed
# little-endian float64 arrays, declaration order)

MANIFEST_NAME = "manifest.txt"
PAYLOAD_NAME = "checkpoint.bin"
_FORMAT_LINE = "auxgan-checkpoint-v1"


def _write_arrays(f, params):
    for p in params:
        flat = np.ascontiguousarray(p.data, dtype="<f8").ravel()
        f.write(struct.pack("<Q", flat.size))
        f.write(flat.tobytes())


def _read_array(f, shape):
    size = int(np.prod(shape))
    header = f.read(8)
    if len(header) != 8:
        raise ValueError("checkpoint payload truncated at a length prefix")
    declared = struct.unpack("<Q", header)[0]
    if declared != size:
        raise ValueError(f"checkpoint array length {declared} does not match shape {shape}")
    raw = f.read(8 * size)
    if len(raw) != 8 * size:
        raise ValueError("checkpoint payload truncated inside an array")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).copy()


def _network_names(trio):
    names = [("generator", trio.generator), ("discriminator", trio.discriminator)]
    if trio.config.scheme == "vacgan":
        names.append(("classifier", trio.classifier))
    elif trio.config.scheme == "acgan":
        names.append(("classifier_head", trio.classifier.head))
    return names


def save_checkpoint(directory, trio, seed):
    """Write manifest.txt + checkpoint.bin; reload reproduces forwards bit-for-bit."""
    os.makedirs(directory, exist_ok=True)
    networks = _network_names(trio)
    cfg = trio.config
    lines = [
        f"format {_FORMAT_LINE}",
        "kind trio",
        f"scheme {cfg.scheme}",
        f"n_classes {cfg.n_classes}",
        f"noise_dim {cfg.noise_dim}",
        f"theta {cfg.theta!r}",
        f"zeta {cfg.zeta!r}",
        f"data_dim {trio.data_dim}",
        f"step {trio.step}",
        f"seed {seed}",
        f"payload {PAYLOAD_NAME}",
    ]
    lines += [f"network {name} {net.spec()}" for name, net in networks]
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, PAYLOAD_NAME), "wb") as f:
        for _, net in networks:
            _write_arrays(f, net.params())


def _parse_manifest(path):
    keys, networks = {}, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            key, rest = line.split(" ", 1)
            if key == "network":
                name, spec = rest.split(" ", 1)
                networks.append((name, spec))
            else:
                keys[key] = rest
    if keys.get("format") != _FORMAT_LINE:
        raise ValueError(f"not a recognized checkpoint manifest: {path}")
    return keys, networks


def _manifest_path(path):
    return os.path.join(path, MANIFEST_NAME) if os.path.isdir(path) else path


def _load_params_into(f, network):
    for p in network.params():
        p.data = _read_array(f, p.data.shape)


def load_checkpoint(path):
    """Rebuild a TrioState (fresh optimizer state) from a saved checkpoint.

    `path` may be the manifest file or its directory.  Returns (trio, info)
    where info carries the manifest's step and seed.
    """
    manifest = _manifest_path(path)
    keys, network_specs = _parse_manifest(manifest)
    if keys.get("kind") != "trio":
        raise ValueError(f"expected a trio checkpoint, found kind {keys.get('kind')!r}")
    config = SchemeConfig(
        scheme=keys["scheme"],
        n_classes=int(keys["n_classes"]),
        noise_dim=int(keys["noise_dim"]),
        theta=float(keys["theta"]),
        zeta=float(keys["zeta"]),
    )
    nets = {name: MLP.from_spec(spec) for name, spec in network_specs}
    payload = os.path.join(os.path.dirname(manifest), keys["payload"])
    with open(payload, "rb") as f:
        for name, _ in network_specs:
            _load_params_into(f, nets[name])

    classifier = None
    c_opt = None
    if config.scheme == "vacgan":
        classifier = nets["classifier"]
        c_opt = NesterovMomentum(classifier.params())
    elif config.scheme == "acgan":
        classifier = SharedTrunkClassifier(nets["discriminator"], nets["classifier_head"])
        c_opt = NesterovMomentum(classifier.params())
    trio = TrioState(
        config=config,
        partition=LatentPartition(config.n_classes, config.noise_dim),
        data_dim=int(keys["data_dim"]),
        generator=nets["generator"],
        discriminator=nets["discriminator"],
        classifier=classifier,
        g_opt=Adam(nets["generator"].params()),
        d_opt=Adam(nets["discriminator"].params()),
        c_opt=c_opt,
        step=int(keys["step"]),
    )
    return trio, {"step": int(keys["step"]), "seed": int(keys["seed"])}


def save_probe_checkpoint(directory, network, test_accuracy, seed):
    """Persist a standalone classifier network (the evaluation probe)."""
    os.makedirs(directory, exist_ok=True)
    lines = [
        f"format {_FORMAT_LINE}",
        "kind network",
        "name probe",
        f"test_accuracy {test_accuracy!r}",
        f"seed {seed}",
        f"payload {PAYLOAD_NAME}",
        f"network probe {network.spec()}",
    ]
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, PAYLOAD_NAME), "wb") as f:
        _write_arrays(f, network.params())


def load_probe_checkpoint(path):
    """Returns (network, test_accuracy) for a saved probe."""
    manifest = _manifest_path(path)
    keys, network_specs = _parse_manifest(manifest)
    if keys.get("kind") != "network":
        raise ValueError(f"expected a network checkpoint, found kind {keys.get('kind')!r}")
    name, spec = network_specs[0]
    network = MLP.from_spec(spec)
    payload = os.path.join(os.path.dirname(manifest), keys["payload"])
    with open(payload, "rb") as f:
        _load_params_into(f, network)
    return network, float(keys["test_accuracy"])
