"""Dense layers and the small MLPs used by every network in this package."""

import numpy as np

from .tensor import ACTIVATIONS, Tensor, _chain, _check_leaky_slope, dense, parameters


def glorot_uniform(fan_in, fan_out, rng):
    """Uniform init in +-sqrt(6/(fan_in+fan_out)); keeps early sigmoids unsaturated."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class DenseLayer:
    """Affine map x @ W + b over the views its network made: W (in_dim, out_dim), b (out_dim,)."""

    def __init__(self, weights, bias):
        self.weights, self.bias = weights, bias

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
    activations=("relu", "linear").  The network owns one flat parameter
    buffer and one gradient buffer: every layer's weights and bias are views
    into them, in layer order, and so are their gradients (see
    `tensor.parameters`).  Neither buffer is ever replaced.  The weights
    are Glorot draws from `rng`; without one they are zeros, for a caller
    that fills `param_buffer` (a checkpoint reader, see `from_spec`).
    """

    def __init__(self, dims, activations, rng=None):
        dims = tuple(int(d) for d in dims)
        activations = tuple(activations)
        if len(activations) != len(dims) - 1:
            raise ValueError(f"{len(dims) - 1} layers need {len(dims) - 1} activations, "
                             f"got {len(activations)}")
        kinds = [_parse_activation(name) for name in activations]
        shapes = [shape for n_in, n_out in zip(dims, dims[1:])
                  for shape in ((n_in, n_out), (n_out,))]
        size = sum(n_in * n_out + n_out for n_in, n_out in zip(dims, dims[1:]))
        # with rng every weight is drawn and every bias set, so no element is
        # read unset; a network built to be loaded starts at zero
        allocate = np.empty if rng is not None else np.zeros
        self.param_buffer, self.grad_buffer = allocate(size), np.empty(size)
        views = parameters(shapes, self.param_buffer, self.grad_buffer)
        self.layers = [DenseLayer(w, b) for w, b in zip(views[::2], views[1::2])]
        # what `forward` chains: each layer's (w, b, kind, alpha)
        self._layers = tuple((layer.weights, layer.bias, *kind)
                             for layer, kind in zip(self.layers, kinds))
        if rng is not None:
            for layer in self.layers:  # in layer order, so a seed pins every weight
                layer.weights.data[...] = glorot_uniform(*layer.weights.shape, rng)
                layer.bias.data[...] = 0.0
        self.dims = dims
        self.activations = activations

    def forward(self, x, upto=None):
        """Forward pass as one tape record (`tensor._chain`); `upto` stops after that many layers.

        `upto` slices the layers like a list (the acgan classifier reuses the
        discriminator's trunk with upto=-1); with no layers the pass returns
        its input Tensor itself.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        return _chain(x, self._layers if upto is None else self._layers[:upto])

    __call__ = forward

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def segment(self, upto=None):
        """(params, data, grads) of the first `upto` layers (all by default), for an optimizer.

        `data` and `grads` are the prefixes of the two buffers that hold
        those layers' parameters and gradient views, in layer order.
        """
        params = [p for layer in self.layers[:upto] for p in layer.params()]
        end = sum(p.data.size for p in params)
        return params, self.param_buffer[:end], self.grad_buffer[:end]

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
        # no initial weights: the checkpoint reader writes the saved ones into the buffer
        return cls(dims, activations)
