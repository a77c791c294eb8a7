"""Dense layers and the small MLPs used by every network in this package."""

import numpy as np

from .tensor import ACTIVATIONS, Tensor, _check_leaky_slope, add, leaky_relu, matmul


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
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.shape != (in_dim, out_dim) or bias.shape != (out_dim,):
            raise ValueError(
                f"dense layer ({in_dim}, {out_dim}) got weights {weights.shape}, bias {bias.shape}")
        self.weights = Tensor(weights, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    def __call__(self, x):
        return add(matmul(x, self.weights), self.bias)

    def params(self):
        return [self.weights, self.bias]


def _check_activation(name):
    """Raise ValueError unless `_apply_activation` can run `name`.

    Names also come from checkpoint manifests, so a `leaky_relu:ALPHA` slope
    is checked here, when the network is built, not at its first forward.
    """
    if name.startswith("leaky_relu:"):
        _check_leaky_slope(float(name.split(":", 1)[1]))
    elif name not in ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")


def _apply_activation(name, x):
    if name.startswith("leaky_relu:"):
        return leaky_relu(x, alpha=float(name.split(":", 1)[1]))
    return ACTIVATIONS[name](x)


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
        for name in activations:
            _check_activation(name)
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
        for layer, act in zip(self.layers[:n], self.activations[:n]):
            x = _apply_activation(act, layer(x))
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
        fields = dict(part.split("=", 1) for part in line.split())
        dims = [int(d) for d in fields["dims"].split(",")]
        activations = fields["activations"].split(",")
        # Weights are placed afterwards by the checkpoint reader.
        return cls(dims, activations, rng=np.random.default_rng(0))
