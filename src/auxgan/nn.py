"""Dense layers and the small MLPs used by every network in this package."""

import numpy as np

from .tensor import ACTIVATIONS, Tensor, _check_leaky_slope, dense


def glorot_uniform(fan_in, fan_out, rng):
    """Uniform init in +-sqrt(6/(fan_in+fan_out)); keeps early sigmoids unsaturated."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class DenseLayer:
    """Affine map x @ W + b with W (in_dim, out_dim) and b (out_dim,)."""

    def __init__(self, in_dim, out_dim, rng=None, weights=None, bias=None):
        if weights is None:
            weights = glorot_uniform(in_dim, out_dim, rng)
        if bias is None:
            bias = np.zeros(out_dim)
        # the optimizers update parameters in place: never write the caller's arrays
        weights = np.array(weights, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weights.shape != (in_dim, out_dim) or bias.shape != (out_dim,):
            raise ValueError(
                f"dense layer ({in_dim}, {out_dim}) got weights {weights.shape}, bias {bias.shape}")
        self.weights = Tensor(weights)
        self.bias = Tensor(bias)

    def __call__(self, x):
        return dense(x, self.weights, self.bias)

    def params(self):
        return [self.weights, self.bias]


def _parse_activation(name):
    """(kind, alpha) of an activation name: an ACTIVATIONS key or `leaky_relu:ALPHA`.

    Names also come from checkpoint manifests, so they are parsed and checked
    once, when the network is built, not at its first forward.
    """
    kind, colon, slope = name.partition(":")
    if kind not in ACTIVATIONS or (colon and kind != "leaky_relu"):
        raise ValueError(f"unknown activation {name!r}")
    if kind != "leaky_relu":
        return kind, None
    try:
        alpha = float(slope) if colon else 0.2  # leaky_relu's default slope
    except ValueError:
        raise ValueError(f"leaky_relu slope {slope!r} is not a number") from None
    return kind, _check_leaky_slope(alpha)


class MLP:
    """Stack of dense layers with one activation name per layer.

    `dims` includes the input width, e.g. dims=(784, 256, 10) with
    activations=("relu", "softmax").
    """

    def __init__(self, dims, activations, rng=None, layers=None):
        dims = tuple(int(d) for d in dims)
        activations = tuple(activations)
        if len(activations) != len(dims) - 1:
            raise ValueError(f"{len(dims) - 1} layers need {len(dims) - 1} activations, "
                             f"got {len(activations)}")
        self._kinds = [_parse_activation(name) for name in activations]
        if layers is None:
            layers = [DenseLayer(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)]
        self.dims = dims
        self.activations = activations
        self.layers = layers

    def forward(self, x, upto=None):
        """Forward pass; `upto` stops after that many layers (trunk reuse)."""
        if not isinstance(x, Tensor):
            x = Tensor(x)
        n = len(self.layers) if upto is None else upto
        for layer, (kind, alpha) in zip(self.layers[:n], self._kinds[:n]):
            x = dense(x, layer.weights, layer.bias, kind, alpha)
        return x

    __call__ = forward

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def zero_grad(self):
        for p in self.params():
            p.zero_grad()

    def spec(self):
        """Architecture line used in checkpoint manifests."""
        dims = ",".join(str(d) for d in self.dims)
        acts = ",".join(self.activations)
        return f"dims={dims} activations={acts}"

    @classmethod
    def from_spec(cls, line):
        """Rebuild from `spec()`; a malformed line raises ValueError naming the bad part."""
        fields = {}
        for part in line.split():
            key, eq, value = part.partition("=")
            if not eq:
                raise ValueError(f"network spec field {part!r} is not KEY=VALUE")
            fields[key] = value
        for key in ("dims", "activations"):
            if key not in fields:
                raise ValueError(f"network spec {line!r} has no {key!r}")
        dims = fields["dims"].split(",")
        if not all(d.isdecimal() and int(d) > 0 for d in dims):
            raise ValueError(f"network spec dims {fields['dims']!r} are not positive integers")
        activations = fields["activations"].split(",")
        # Weights are placed afterwards by the checkpoint reader.
        return cls(dims, activations, rng=np.random.default_rng(0))
