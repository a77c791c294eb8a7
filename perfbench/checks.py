"""Correctness checks on a round's outputs, against computations made here.

Each check returns `Check(name, ok, detail, gates)`.  A check that gates
decides the run's `correct`; one that does not is printed with its verdict
but leaves `correct` alone.  Two checks do not gate, `ring.match_floor` and
`ring.jsd_rises`: the program fails them on some seeds and passes them on
others (README, "Ring checks that do not gate").  The thresholds are those
of tests/test_acceptance.py.
"""

import csv
import hashlib
import math
import os
from typing import NamedTuple

import numpy as np

import workloads

ARTIFACTS = ("metrics.csv", "checkpoint.bin", "manifest.txt")


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str
    gates: bool = True


def artifact_digests(round_dir):
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(round_dir, name), "rb") as f:
            out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def determinism(round_dirs):
    digests = [artifact_digests(d) for d in round_dirs]
    same = all(d == digests[0] for d in digests)
    return Check("determinism", same and len(digests) >= 2,
                 f"{len(digests)} rounds, sha256 of {'/'.join(ARTIFACTS)} "
                 + ("identical" if same else "DIFFER")
                 + f" (metrics.csv {digests[0]['metrics.csv'][:12]})")


def _metrics_rows(round_dir):
    with open(os.path.join(round_dir, "metrics.csv"), newline="") as f:
        return list(csv.DictReader(f))


def _reload_generator(round_dir, seed):
    """Reloaded generator and the bit-for-bit comparison with the round's forward."""
    from auxgan.schemes import load_checkpoint
    from auxgan.tensor import Tensor

    trio, _ = load_checkpoint(round_dir)
    _, z = workloads.check_latent(trio.partition.n_classes, trio.partition.noise_dim, seed)
    reloaded = trio.generator(Tensor(z)).data
    in_memory = np.load(os.path.join(round_dir, "forward.npy"))
    same = reloaded.shape == in_memory.shape and reloaded.tobytes() == in_memory.tobytes()
    return trio, Check("reload_bit_identical", same,
                       f"{in_memory.shape[0]} latents through the reloaded generator "
                       + ("match the in-memory forward bit for bit" if same else "DIFFER"))


def _fresh_latents(trio, seed, per_class):
    n, noise = trio.partition.n_classes, trio.partition.noise_dim
    labels = np.repeat(np.arange(n), per_class)
    z = np.concatenate([np.eye(n)[labels],
                        workloads.check_samples_rng(seed).standard_normal((labels.size, noise))],
                       axis=1)
    return labels, z


def _spearman(x, y):
    from scipy import stats
    return float(stats.spearmanr(x, y).statistic)


def ring(round_dir, seed):
    from auxgan.tensor import Tensor

    trio, reload_check = _reload_generator(round_dir, seed)
    n = workloads.RING_CLASSES
    angles = 2.0 * np.pi * np.arange(n) / n
    means = workloads.RING_RADIUS * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    labels, z = _fresh_latents(trio, seed, 500)
    x = trio.generator(Tensor(z)).data
    nearest = ((x[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
    match = float((nearest == labels).mean())

    rows = _metrics_rows(round_dir)
    steps = [int(r["step"]) for r in rows]
    jsd = [float(r["jsd_estimate"]) for r in rows]
    program_match = float(rows[-1]["class_match_rate"])
    log_n = math.log(n)
    rho = _spearman(steps, jsd) if len(set(jsd)) > 1 else float("nan")
    return [
        reload_check,
        Check("ring.jsd_in_range", all(0.0 <= j <= log_n + 1e-9 for j in jsd),
              f"{len(jsd)} estimates in [{min(jsd):.4f}, {max(jsd):.4f}], bound [0, log {n}]"),
        # once the estimate saturates at log N the later ranks are noise, and
        # on some seeds that noise pulls rho below 0.8; reported only
        Check("ring.jsd_rises", rho >= 0.8, f"spearman {rho:.3f} over {len(jsd)} snapshots (>= 0.8)",
              gates=False),
        Check("ring.final_jsd", jsd[-1] >= 0.5 * log_n,
              f"final {jsd[-1]:.4f} (>= {0.5 * log_n:.4f})"),
        # 2000 fresh samples: the two rates differ by sampling error alone,
        # whose standard deviation is at most 0.011
        Check("ring.match_agrees", abs(match - program_match) <= 0.05,
              f"nearest-mean match here {match:.4f}, program's final {program_match:.4f}"),
        # the program drops a mode on some seeds, so a failure here is a
        # property of the seed, not a change in the program; it is reported only
        Check("ring.match_floor", match >= 0.80, f"match {match:.4f} (acceptance floor 0.80)",
              gates=False),
    ]


def _read_idx(path):
    """Own big-endian IDX reader (unsigned-byte payload)."""
    raw = np.fromfile(path, dtype=np.uint8)
    rank = int(raw[3])
    dims = [int.from_bytes(raw[4 + 4 * i:8 + 4 * i].tobytes(), "big") for i in range(rank)]
    return raw[4 + 4 * rank:].reshape(dims)


def _numpy_forward(network, x):
    """Forward pass of an auxgan MLP from its weights, in plain numpy."""
    for layer, act in zip(network.layers, network.activations):
        x = x @ layer.weights.data + layer.bias.data
        if act == "relu":
            x = np.maximum(x, 0.0)
        elif act.startswith("leaky_relu"):
            alpha = float(act.split(":", 1)[1]) if ":" in act else 0.2
            x = np.where(x > 0.0, x, alpha * x)
        elif act == "sigmoid":
            x = 1.0 / (1.0 + np.exp(-x))
        elif act == "softmax":
            e = np.exp(x - x.max(axis=1, keepdims=True))
            x = e / e.sum(axis=1, keepdims=True)
        elif act != "linear":
            raise ValueError(f"no numpy forward for activation {act!r}")
    return x


def digits(round_dir, seed, data_dir):
    from auxgan.schemes import load_probe_checkpoint

    trio, reload_check = _reload_generator(round_dir, seed)
    probe, _ = load_probe_checkpoint(os.path.join(round_dir, "probe"))
    images = _read_idx(os.path.join(data_dir, "t10k-images-idx3-ubyte"))
    labels = _read_idx(os.path.join(data_dir, "t10k-labels-idx1-ubyte"))
    test_x = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    accuracy = float((_numpy_forward(probe, test_x).argmax(axis=1) == labels).mean())

    wanted, z = _fresh_latents(trio, seed, 200)
    generated = _numpy_forward(trio.generator, z)
    match = float((_numpy_forward(probe, generated).argmax(axis=1) == wanted).mean())
    program_match = float(_metrics_rows(round_dir)[-1]["class_match_rate"])

    grids = sorted(f for f in os.listdir(round_dir) if f.endswith(".pgm"))
    with open(os.path.join(round_dir, grids[-1]), "rb") as f:
        blob = f.read()
    magic, width, height, maxval = blob.split(maxsplit=4)[:4]
    header_len = len(b"%s\n%s %s\n%s\n" % (magic, width, height, maxval))
    n = trio.partition.n_classes
    pgm_ok = (magic == b"P5" and int(width) == 8 * 28 and int(height) == n * 28
              and int(maxval) == 255 and len(blob) - header_len == int(width) * int(height))
    return [
        reload_check,
        Check("digits.probe_accuracy", accuracy >= 0.95,
              f"probe accuracy on {labels.size} test images {accuracy:.4f} (>= 0.95)"),
        Check("digits.probe_match", match >= 0.30,
              f"probe assigns the requested class to {match:.4f} of {wanted.size} fresh "
              f"samples (>= 0.30); program's final {program_match:.4f}"),
        Check("digits.pgm_header", pgm_ok,
              f"{grids[-1]}: {magic.decode()} {int(width)}x{int(height)} "
              f"(want {8 * 28}x{n * 28})"),
    ]


def identity(reports, seed, count):
    """Recompute optimal cross-entropy and JSD of every family with own numpy."""
    worst_cce = worst_jsd = 0.0
    out_of_range = 0
    for (cce, jsd, residual), members in zip(reports, workloads.identity_families(seed, count)):
        n = members.shape[0]
        posterior = members / members.sum(axis=0)
        own_cce = float(-(members * np.log(posterior)).sum())
        mixture = members.mean(axis=0)
        own_jsd = float(-(mixture * np.log(mixture)).sum()
                        + (members * np.log(members)).sum(axis=1).mean())
        worst_cce = max(worst_cce, abs(own_cce - cce))
        worst_jsd = max(worst_jsd, abs(own_jsd - jsd))
        out_of_range += not (0.0 <= jsd <= math.log(n))
    worst_residual = float(np.max(reports[:, 2]))
    return [
        Check("identity.cce", worst_cce <= 1e-9,
              f"{len(reports)} families, worst |cce - own| {worst_cce:.2e} (<= 1e-9)"),
        Check("identity.jsd", worst_jsd <= 1e-9,
              f"worst |jsd - own| {worst_jsd:.2e} (<= 1e-9)"),
        Check("identity.residual", worst_residual <= 1e-9,
              f"worst residual {worst_residual:.2e} (<= 1e-9)"),
        Check("identity.jsd_in_range", out_of_range == 0,
              f"{out_of_range} families with JSD outside [0, log N]"),
    ]
