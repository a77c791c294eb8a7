"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a Tensor wraps a numpy array, a Tape
records every differentiable operation in execution order, and backward()
replays the records in exact reverse order.  `Tape(wrt=params)` writes .grad
only on the listed leaves and computes only the backward products that lead
to them; a plain `Tape()` differentiates every tensor that requires
gradients.  A gradient lives until the optimizer step that reads it clears
it.  Only the operations needed by the GAN schemes are provided (dense
algebra, the usual activations, BCE/CCE).

Everything is float64.  Ops are pure functions of their inputs apart from
appending a backward rule to the active tape.
"""

import numpy as np

EPS = 1e-12  # clamp applied inside every log()

_TAPES = []  # stack of active tapes; ops record onto the innermost one


class Tensor:
    """Dense n-dimensional float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
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

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_as_tensor(other))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one forward pass.

    Records append in execution order, so every node's inputs precede it and
    the reverse sweep is a valid topological order.  A tape may be replayed
    backward exactly once; training steps build a fresh tape each time.
    With `wrt`, only those leaves and the outputs that depend on them get
    gradients; every other input is a constant on this tape.
    """

    def __init__(self, wrt=None):
        self._records = []  # backward closures, execution order
        self._spent = False
        self._needed = None if wrt is None else set(wrt)

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
    if tape._needed is None:
        needs = tuple(t.requires_grad for t in inputs)
    else:
        needs = tuple(t in tape._needed for t in inputs)
    if any(needs):
        out.requires_grad = True
        if tape._needed is not None:
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
# activations

def relu(x):
    out = Tensor(np.maximum(x.data, 0.0))

    def bwd():
        x.accumulate_grad(out.grad * (x.data > 0.0))

    _track(out, (x,), bwd)
    return out


def leaky_relu(x, alpha=0.2):
    """Leaky rectifier; the 0.2 slope is the discriminator default."""
    out = Tensor(np.where(x.data > 0.0, x.data, alpha * x.data))

    def bwd():
        x.accumulate_grad(out.grad * np.where(x.data > 0.0, 1.0, alpha))

    _track(out, (x,), bwd)
    return out


def sigmoid(x):
    # Split by sign to avoid overflow in exp for large |x|.
    d = x.data
    e = np.exp(-np.abs(d))
    y = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    out = Tensor(y)

    def bwd():
        x.accumulate_grad(out.grad * y * (1.0 - y))

    _track(out, (x,), bwd)
    return out


def tanh(x):
    y = np.tanh(x.data)
    out = Tensor(y)

    def bwd():
        x.accumulate_grad(out.grad * (1.0 - y * y))

    _track(out, (x,), bwd)
    return out


def softmax_rows(x):
    """Row-wise softmax of a rank-2 tensor; rows sum to 1."""
    if x.data.ndim != 2:
        raise ValueError(f"softmax_rows needs a rank-2 tensor, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bwd():
        dy = out.grad
        x.accumulate_grad(y * (dy - (dy * y).sum(axis=1, keepdims=True)))

    _track(out, (x,), bwd)
    return out


ACTIVATIONS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "sigmoid": sigmoid,
    "tanh": tanh,
    "softmax": softmax_rows,
    "linear": lambda x: x,
}


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
    t = np.broadcast_to(t, prediction.shape)
    if t.size and (t.min() < 0.0 or t.max() > 1.0):
        raise ValueError("bce_loss targets must lie in [0, 1]")
    p = np.clip(prediction.data, EPS, 1.0 - EPS)
    n = prediction.data.size
    out = Tensor(-(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean())

    def bwd():
        inside = (prediction.data > EPS) & (prediction.data < 1.0 - EPS)
        g = -(t / p - (1.0 - t) / (1.0 - p)) / n
        prediction.accumulate_grad(out.grad * g * inside)

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
