"""Dense layers and the small MLPs used by every network in this package."""

import numpy as np

from .tensor import ACTIVATIONS, Tensor, _check_leaky_slope, dense, parameters


def glorot_uniform(fan_in, fan_out, rng):
    """Uniform init in +-sqrt(6/(fan_in+fan_out)); keeps early sigmoids unsaturated."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class DenseLayer:
    """Affine map x @ W + b with W (in_dim, out_dim) and b (out_dim,).

    W and b lie back to back in `buffers`, a (parameters, gradients) pair of
    flat arrays of in_dim * out_dim + out_dim elements; by default the layer
    allocates its own, zero-filled.  W is copied from `weights`, else drawn
    from `rng`; with neither it keeps what the buffer holds, for a caller
    that fills the buffer itself.  b is copied from `bias`, zeros by
    default.  The optimizers update parameters in place and never write the
    caller's arrays.
    """

    def __init__(self, in_dim, out_dim, rng=None, weights=None, bias=None, buffers=None):
        if weights is None and rng is not None:
            weights = glorot_uniform(in_dim, out_dim, rng)
        if buffers is None:
            size = in_dim * out_dim + out_dim
            buffers = np.zeros(size), np.empty(size)
        self.weights, self.bias = parameters(((in_dim, out_dim), (out_dim,)), *buffers)
        for param, initial in ((self.weights, weights), (self.bias, bias)):
            if initial is not None and np.shape(initial) != param.shape:
                raise ValueError(f"dense layer ({in_dim}, {out_dim}) got weights "
                                 f"{np.shape(weights)}, bias {np.shape(bias)}")
        if weights is not None:
            self.weights.data[...] = weights
        self.bias.data[...] = 0.0 if bias is None else bias

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
        self._kinds = [_parse_activation(name) for name in activations]
        sizes = [n_in * n_out + n_out for n_in, n_out in zip(dims, dims[1:])]
        # with rng every weight is drawn and every bias set, so no element is
        # read unset; a network built to be loaded starts at zero
        allocate = np.empty if rng is not None else np.zeros
        self.param_buffer, self.grad_buffer = allocate(sum(sizes)), np.empty(sum(sizes))
        self.layers, end = [], 0
        for n_in, n_out, size in zip(dims, dims[1:], sizes):
            start, end = end, end + size
            buffers = self.param_buffer[start:end], self.grad_buffer[start:end]
            self.layers.append(DenseLayer(n_in, n_out, rng=rng, buffers=buffers))
        self.dims = dims
        self.activations = activations

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

    def segment(self, upto=None):
        """(params, data, grads) of the first `upto` layers (all by default), for an optimizer.

        `data` and `grads` are the prefixes of the two buffers that hold
        those layers' parameters and gradient views, in layer order.
        """
        params = [p for layer in self.layers[:upto] for p in layer.params()]
        end = sum(p.data.size for p in params)
        return params, self.param_buffer[:end], self.grad_buffer[:end]

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
        # no initial weights: the checkpoint reader writes the saved ones into the buffer
        return cls(dims, activations)
