"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a Tensor wraps a numpy array, a Tape
records every differentiable operation in execution order, and backward()
replays the records in exact reverse order.  Every tape names the leaves it
differentiates, `Tape(wrt=params)`: it writes .grad only on those and
computes only the backward products that lead to them.  A gradient lives
until the optimizer step that reads it clears it.  Only the operations
needed by the GAN schemes are provided (dense algebra, the usual
activations, BCE/CCE).  A dense layer, act(x @ W + b), is one op, `dense`,
and so one tape record.

Everything is float64.  Ops are pure functions of their inputs apart from
appending a backward rule to the active tape.

Ownership: `Tensor(a)` wraps a float64 array `a` without copying, so the
tensor and the caller share memory; ops never write into their inputs.  The
optimizers update parameters in place, so `nn.DenseLayer` gives each
parameter its own copy: an array passed in as initial weights is never
written.  Backward rules build their products in arrays they own.  `dense`
owns its pre-activation z = x @ W + b: the bias is added into it in place,
once, the sigmoid kernel uses it as forward scratch (the standalone
`sigmoid` never writes its input), and the backward rule overwrites it with
the activation's product.  It is handed out only as the output of a
`linear` layer, whose rule does not write it.
"""

import numpy as np

EPS = 1e-12  # clamp applied inside every log()

_TAPES = []  # stack of active tapes; ops record onto the innermost one


class Tensor:
    """Dense n-dimensional float64 array and the gradient a tape wrote for it."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        # never in place: add gives the same out.grad array to both inputs
        self.grad = g if self.grad is None else self.grad + g

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data)

    # Arithmetic sugar used by the composite losses.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


class Tape:
    """Ordered record of operations for one forward pass.

    Records append in execution order, so every node's inputs precede it and
    the reverse sweep is a valid topological order.  A tape may be replayed
    backward exactly once; training steps build a fresh tape each time.
    Only the leaves in `wrt` and the outputs that depend on them get
    gradients; every other input is a constant on this tape.
    """

    def __init__(self, wrt):
        self._records = []  # backward closures, execution order
        self._spent = False
        self._needed = set(wrt)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def _record(self, backward_fn):
        self._records.append(backward_fn)

    def __len__(self):
        return len(self._records)

    def backward(self, loss):
        """Populate .grad on the leaves this tape differentiates (see `wrt`)."""
        if not isinstance(loss, Tensor) or loss.data.ndim != 0:
            shape = getattr(loss, "shape", None)
            raise ValueError(f"backward() needs a scalar Tensor loss, got shape {shape}")
        if self._spent:
            raise RuntimeError("tape already replayed; build a fresh tape per step")
        self._spent = True
        loss.accumulate_grad(np.ones_like(loss.data))
        for backward_fn in reversed(self._records):
            backward_fn()


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _track(out, inputs, backward_fn):
    """Record the rule if any input needs a gradient; returns the per-input needs.

    The needs are fixed here, at record time: a rule computes only the
    input gradients its tape asked for.
    """
    if not _TAPES:
        return (False,) * len(inputs)
    tape = _TAPES[-1]
    needs = tuple(t in tape._needed for t in inputs)
    if any(needs):
        tape._needed.add(out)
        tape._record(backward_fn)
    return needs


# ---------------------------------------------------------------------------
# linear algebra

def matmul(a, b):
    """Matrix product a @ b with the standard reverse rules."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)

    def bwd():
        if need_a:
            a.accumulate_grad(out.grad @ b.data.T)
        if need_b:
            b.accumulate_grad(a.data.T @ out.grad)

    need_a, need_b = _track(out, (a, b), bwd)
    return out


def add(a, b):
    """Elementwise sum; also supports the (batch, n) + (n,) bias broadcast."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape:
        bias_case = a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]
        scalar_case = a.data.ndim == 0 or b.data.ndim == 0
        if not (bias_case or scalar_case):
            raise ValueError(f"add shape mismatch: {a.shape} + {b.shape}")
    out = Tensor(a.data + b.data)

    def bwd():
        if need_a:
            a.accumulate_grad(_unbroadcast(out.grad, a.shape))
        if need_b:
            b.accumulate_grad(_unbroadcast(out.grad, b.shape))

    need_a, need_b = _track(out, (a, b), bwd)
    return out


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def mul(a, b):
    """Elementwise (or scalar) product."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.shape != b.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise ValueError(f"mul shape mismatch: {a.shape} * {b.shape}")
    out = Tensor(a.data * b.data)

    def bwd():
        if need_a:
            a.accumulate_grad(_unbroadcast(out.grad * b.data, a.shape))
        if need_b:
            b.accumulate_grad(_unbroadcast(out.grad * a.data, b.shape))

    need_a, need_b = _track(out, (a, b), bwd)
    return out


def concat_cols(a, b):
    """Concatenate two rank-2 tensors along the feature axis."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ValueError(f"concat_cols shape mismatch: {a.shape} ++ {b.shape}")
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    split = a.shape[1]

    def bwd():
        if need_a:
            a.accumulate_grad(out.grad[:, :split])
        if need_b:
            b.accumulate_grad(out.grad[:, split:])

    need_a, need_b = _track(out, (a, b), bwd)
    return out


def tsum(x):
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(x.data.sum())

    def bwd():
        x.accumulate_grad(np.full_like(x.data, out.grad))

    _track(out, (x,), bwd)
    return out


def tmean(x):
    """Mean of all elements, as a scalar tensor."""
    out = Tensor(x.data.mean())
    n = x.data.size

    def bwd():
        x.accumulate_grad(np.full_like(x.data, out.grad / n))

    _track(out, (x,), bwd)
    return out


# ---------------------------------------------------------------------------
# activations: one (forward, backward) kernel pair per kind, shared by the
# standalone ops and `dense`.  forward(z, alpha, scratch) returns a new y,
# perhaps using `scratch` (z itself, or None) as work space; backward(g, z,
# y, alpha, out) returns g * dy/dz in `out`, or in a new array if None.

def _check_leaky_slope(alpha):
    """Return `alpha`; raise ValueError naming it unless 0 < alpha <= 1.

    Only there do the max forms in leaky_relu select x for x > 0 and alpha * x
    otherwise; at alpha = 0 the forward would give 0 * inf = NaN for x = +inf.
    """
    if not 0.0 < alpha <= 1.0:  # also False on NaN
        raise ValueError(f"leaky_relu alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _sigmoid_forward(z, alpha, scratch):
    # exp(-|z|) never overflows.  The numerator is 1 where z >= 0 and e
    # elsewhere, because 0 <= e <= 1; NaN propagates through both.
    positive = z >= 0.0
    e = np.exp(np.negative(np.abs(z, out=scratch), out=scratch), out=scratch)
    y = np.maximum(e, positive)
    y /= np.add(e, 1.0, out=scratch)
    return y


def _sigmoid_backward(g, z, y, alpha, out):
    r = np.multiply(g, y, out=out)
    r *= 1.0 - y  # in place, or a new scalar for 0-d inputs
    return r


def _softmax_forward(z, alpha, scratch):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_backward(g, z, y, alpha, out):
    r = np.multiply(g, y, out=out)
    np.subtract(g, r.sum(axis=1, keepdims=True), out=r)
    return np.multiply(y, r, out=r)


_KERNELS = {
    "relu": (lambda z, alpha, scratch: np.maximum(z, 0.0),
             lambda g, z, y, alpha, out: np.multiply(g, z > 0.0, out=out)),
    # with 0 < alpha <= 1 the max is z for z > 0 and alpha * z otherwise, bit for bit
    "leaky_relu": (lambda z, alpha, scratch: np.maximum(z, _check_leaky_slope(alpha) * z),
                   lambda g, z, y, alpha, out: np.multiply(g, np.maximum(z > 0.0, alpha),
                                                           out=out)),
    "sigmoid": (_sigmoid_forward, _sigmoid_backward),
    "tanh": (lambda z, alpha, scratch: np.tanh(z),
             lambda g, z, y, alpha, out: np.multiply(g, 1.0 - y * y, out=out)),
    "softmax": (_softmax_forward, _softmax_backward),
    "linear": (lambda z, alpha, scratch: z, lambda g, z, y, alpha, out: g),
}


def _activate(x, kind, alpha=None):
    forward, backward = _KERNELS[kind]
    y = forward(x.data, alpha, None)
    out = Tensor(y)

    def bwd():
        x.accumulate_grad(backward(out.grad, x.data, y, alpha, None))

    _track(out, (x,), bwd)
    return out


def relu(x):
    return _activate(x, "relu")


def leaky_relu(x, alpha=0.2):
    """Leaky rectifier; the 0.2 slope is the discriminator default."""
    return _activate(x, "leaky_relu", alpha)


def sigmoid(x):
    return _activate(x, "sigmoid")


def tanh(x):
    return _activate(x, "tanh")


def softmax_rows(x):
    """Row-wise softmax of a rank-2 tensor; rows sum to 1."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows needs a rank-2 tensor, got shape {x.shape}")
    return _activate(x, "softmax")


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax_rows,
    "linear": lambda x: x,
}


def dense(x, w, b, kind="linear", alpha=None):
    """act(x @ w + b) as one tape record, bit-identical to the unfused ops.

    `kind` is a key of ACTIVATIONS, `alpha` the leaky_relu slope.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]
            or b.shape != w.shape[1:]):
        raise ValueError(f"dense shape mismatch: {x.shape} @ {w.shape} + {b.shape}")
    forward, backward = _KERNELS[kind]
    z = x.data @ w.data
    z += b.data  # the rounding of x @ w + b
    y = forward(z, alpha, z)
    out = Tensor(y)

    def bwd():
        g = backward(out.grad, z, y, alpha, z)
        if need_b:
            b.accumulate_grad(g.sum(axis=0))
        if need_x:
            x.accumulate_grad(g @ w.data.T)
        if need_w:
            w.accumulate_grad(x.data.T @ g)

    need_x, need_w, need_b = _track(out, (x, w, b), bwd)
    return out


# ---------------------------------------------------------------------------
# losses

def bce_loss(prediction, target):
    """Mean binary cross-entropy -[t*log(p) + (1-t)*log(1-p)].

    Predictions are clamped to [EPS, 1-EPS] before the log; the gradient is
    zero in the clamped region, matching the piecewise forward value.
    Target may be a Tensor, array, or scalar in [0, 1]; it is treated as a
    constant.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    # the comparisons are False on NaN, so a NaN target fails the check too
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("bce_loss targets must lie in [0, 1]")
    if t.ndim:
        np.broadcast_to(t, prediction.shape)  # raises unless t fits the prediction
    p = np.clip(prediction.data, EPS, 1.0 - EPS)
    n = prediction.data.size
    out = Tensor(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean())

    def bwd():
        # out.grad * (-(t / p - (1 - t) / (1 - p)) / n) * inside, in one owned array
        g = np.divide(t, p, out=np.empty_like(p))
        g -= (1.0 - t) / (1.0 - p)
        np.negative(g, out=g)
        g /= n
        np.multiply(out.grad, g, out=g)
        g *= (prediction.data > EPS) & (prediction.data < 1.0 - EPS)
        prediction.accumulate_grad(g)

    _track(out, (prediction,), bwd)
    return out


def cce_loss(probabilities, labels):
    """Mean categorical cross-entropy -log(p[label]) over the batch.

    `probabilities` is a (batch, n_classes) tensor whose rows sum to 1
    (within 1e-6); `labels` is an integer vector.  Differentiable through a
    preceding softmax.
    """
    if probabilities.data.ndim != 2:
        raise ValueError(f"cce_loss needs (batch, classes) probabilities, got {probabilities.shape}")
    labels = np.asarray(labels)
    batch, n_classes = probabilities.shape
    if labels.shape != (batch,):
        raise ValueError(f"cce_loss labels shape {labels.shape} does not match batch {batch}")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"cce_loss labels must lie in [0, {n_classes})")
    # `<=` is False on NaN, so a NaN row fails the check too
    if not (np.abs(probabilities.data.sum(axis=1) - 1.0) <= 1e-6).all():
        raise ValueError("cce_loss probability rows must sum to 1 within 1e-6")
    rows = np.arange(batch)
    picked = probabilities.data[rows, labels]
    p = np.clip(picked, EPS, 1.0 - EPS)
    out = Tensor(-np.log(p).mean())

    def bwd():
        g = np.zeros_like(probabilities.data)
        inside = (picked > EPS) & (picked < 1.0 - EPS)
        g[rows, labels] = -(inside / (batch * p))
        probabilities.accumulate_grad(out.grad * g)

    _track(out, (probabilities,), bwd)
    return out
