"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

The engine is deliberately small: a Tensor wraps a numpy array, a Tape
records every differentiable operation in execution order, and backward()
replays the records in exact reverse order.  Every tape names the leaves it
differentiates, `Tape(wrt=params)`: it writes .grad only on those and
computes only the backward products that lead to them.  A gradient lives
until the optimizer step that reads it clears it.  Only the operations the
GAN schemes record are provided: a chain of dense layers, each
act(x @ W + b), as one op and one tape record (`_chain`: a network's
forward pass is one chain, and `dense` is the one-layer case), a feature
concat for the conditional input, BCE and CCE on logits, and scalar
`add`/`mul` to combine losses.

Everything is float64.  Ops are pure functions of their inputs apart from
appending a backward rule to the active tape.

Tapes are per thread: each thread has its own stack of active tapes, and
an op records onto the innermost tape of the thread that runs it.  A tape
is used by one thread at a time; it may be entered on one thread, left, and
entered again on another, and its records stay in execution order.

`helper_for(size)` alone decides what work goes to the helper thread, and
`_share(helper, tasks)` is the one way work runs beside the calling thread.
A chain's rule asks for each layer that needs both the input and the
weight gradient, with that layer's weight size; given the helper, it
computes the layer's two products as two tasks of `_share`.  Each product
is written to its own array and the gradients are accumulated after the
share, in the serial order, so the results are the same bits.

Ownership: `Tensor(a)` wraps a float64 array `a` without copying, so the
tensor and the caller share memory; ops never write into their inputs.  A
parameter made by `parameters` lives in a flat buffer its network owns: its
.data is a view into one buffer, its .grad_view a view into a gradient
buffer, and neither is ever rebound.  The optimizers update .data in place.
A parameter's gradient is written into its .grad_view: a chain builds a
layer's first weight and bias gradient there (`out=`), later terms are
added in place, and .grad is None until the first write.  Other backward
products live in arrays the rules own.  A chain owns each layer's
pre-activation z = x @ W + b: the bias is added into it in place, once,
the activation's forward kernel may use it as scratch, and the backward
rule overwrites it with the activation's product.  It is handed out only
as the output of a `linear` layer, whose rule does not write it.  The
outputs of a chain's inner layers are arrays, not Tensors: the rule hands
each layer's input gradient straight to the layer below.
"""

import functools
import math
import numbers
import sys
import threading

import numpy as np


class _ActiveTapes(threading.local):
    """Each thread's stack of active tapes; ops record onto the innermost one."""

    def __init__(self):
        self.stack = []


_ACTIVE = _ActiveTapes()

# Work of at least this many elements goes to the helper thread (see
# `helper_for`); below it, hand-offs of the interpreter lock cost more than
# the second core gives.  On a 2-vCPU VM with one BLAS thread, a `vacgan`
# step of the mixture architecture at hidden width w took, helper over
# serial (runs of 12 alternating 50-step chunks), 1.19 at w = 192 (39,938
# generator parameters), 0.98-1.05 at w = 224 (53,762), 0.94-0.95 at
# w = 240 (61,442) and 0.94 at w = 256 (69,634).  Ring: 1,538; digits: 208,400.
HELPER_MIN_PARAMS = 60_000
_HELPER_NAME = "auxgan-helper"


@functools.cache
def _helper():
    """The one helper thread, as a single-worker executor made on first use.

    The import is here so that runs that never use the thread do not pay it.
    """
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix=_HELPER_NAME)


def helper_for(size):
    """The helper thread's executor for work of `size` elements, or None to run it here.

    None below HELPER_MIN_PARAMS (checked first, so small runs never import
    `concurrent.futures`), on the helper thread itself, and while the
    `tracemalloc` module is loaded: whoever loaded it may start and stop
    tracing around any call, and on CPython 3.11 stopping it while another
    thread allocates can crash the process (a segfault in a numpy
    allocation on the helper, under a profiler that traces each call).
    """
    if (size < HELPER_MIN_PARAMS or threading.current_thread().name.startswith(_HELPER_NAME)
            or "tracemalloc" in sys.modules):
        return None
    return _helper()


# Private: the benchmark's tracer wraps public functions, and its step timings need
# no span between a train step and the optimizer and classifier steps run in it.
def _share(helper, tasks):
    """[task() for task in tasks]: here, in order, or here and on `helper` from one queue.

    Each task is a call with no arguments that writes only outputs of its
    own, so the thread that runs it changes no bit.  `helper`, a
    single-worker executor, takes the queued tasks in order while it is
    free; this thread cancels and runs each one the helper has not started,
    unless one has failed.  Every started task has finished when this
    returns or raises, and the error raised is the first failing task's in
    task order, whichever thread ran it.
    """
    if helper is None:
        return [task() for task in tasks]
    futures = [helper.submit(task) for task in tasks]
    here, started, failed = {}, [], None
    try:
        for i, (task, future) in enumerate(zip(tasks, futures)):
            if not future.cancel():
                started.append(future)  # the helper took it
            elif any(f.done() and f.exception() for f in started):
                break  # one has failed: start no more here
            else:
                try:
                    here[i] = task()
                except Exception as e:
                    here[i], failed = e, i
                    break
    finally:
        for future in futures:
            if not future.cancel():  # cancels the rest
                future.exception()  # waits; no helper work outlives the share
    # the results up to the failed task (all without one): an earlier error comes first
    results = [here[i] if i in here else f.result() for i, f in enumerate(futures[:failed])]
    if failed is not None:
        raise here[failed]
    return results


class Tensor:
    """Dense n-dimensional float64 array and the gradient a tape wrote for it.

    `grad_view`, set on parameters (see `parameters`), is the array in a
    gradient buffer that .grad becomes when it is written; .grad is then
    either None or that view.
    """

    __slots__ = ("data", "grad", "grad_view")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.grad_view = None

    @property
    def shape(self):
        return self.data.shape

    def grad_slot(self):
        """Where a new gradient term may be built: the view while .grad is None, else None."""
        return self.grad_view if self.grad is None else None

    def accumulate_grad(self, g):
        view = self.grad_view
        if self.grad is None:
            if view is not None and g is not view:
                np.copyto(view, g)
                g = view
            self.grad = g
        elif self.grad is view:
            view += g  # the view is this tensor's own
        else:
            # never in place: add gives the same out.grad array to both inputs
            self.grad = self.grad + g

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


def parameters(shapes, data, grads):
    """Parameter tensors of the given shapes, back to back in one flat buffer.

    `data` and `grads` are 1-D float64 buffers of the shapes' total size;
    each tensor's .data is the view into `data` at its place and its
    .grad_view the view at the same place in `grads`.  A parameter holds
    what its buffer holds.  `(tensors, data, grads)` is then a segment an
    optimizer can step as one flat array.
    """
    sizes = [math.prod(shape) for shape in shapes]
    for buffer in (data, grads):
        if buffer.shape != (sum(sizes),) or buffer.dtype != np.float64:
            raise ValueError(f"parameter buffers must be float64 of shape ({sum(sizes)},), "
                             f"got {buffer.dtype} {buffer.shape}")
    tensors, end = [], 0
    for shape, size in zip(shapes, sizes):
        start, end = end, end + size
        t = Tensor(data[start:end].reshape(shape))
        t.grad_view = grads[start:end].reshape(shape)
        tensors.append(t)
    return tensors


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
        _ACTIVE.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE.stack.pop()
        assert popped is self
        return False

    def _record(self, backward_fn):
        self._records.append(backward_fn)

    def backward(self, loss):
        """Populate .grad on the leaves this tape differentiates (see `wrt`)."""
        if not isinstance(loss, Tensor) or loss.data.ndim != 0:
            shape = getattr(loss, "shape", None)
            raise ValueError(f"backward() needs a scalar Tensor loss, got shape {shape}")
        if self._spent:
            raise RuntimeError("tape already replayed; build a fresh tape per step")
        self._spent = True
        loss.accumulate_grad(np.ones(()))
        for backward_fn in reversed(self._records):
            backward_fn()


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _track(out, inputs, backward_fn):
    """Record the rule if any input needs a gradient; returns the per-input needs.

    The needs are fixed here, at record time: a rule computes only the
    input gradients its tape asked for.
    """
    tapes = _ACTIVE.stack
    if not tapes:
        return [False] * len(inputs)
    tape = tapes[-1]
    needed = tape._needed
    needs = [t in needed for t in inputs]
    if True in needs:
        needed.add(out)
        tape._record(backward_fn)
    return needs


# ---------------------------------------------------------------------------
# scalar algebra: how the losses are combined (`bce + bce`, `theta * bce`)

def _scalar_operands(a, b, op):
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim or b.data.ndim:
        raise ValueError(f"{op} needs 0-d operands, got shapes {a.shape} and {b.shape}")
    return a, b


def add(a, b):
    """Sum of two scalar tensors."""
    a, b = _scalar_operands(a, b, "add")
    out = Tensor(a.data + b.data)

    def bwd():
        if need_a:
            a.accumulate_grad(out.grad)
        if need_b:
            b.accumulate_grad(out.grad)

    need_a, need_b = _track(out, (a, b), bwd)
    return out


def mul(a, b):
    """Product of two scalar tensors."""
    a, b = _scalar_operands(a, b, "mul")
    out = Tensor(a.data * b.data)

    def bwd():
        if need_a:
            a.accumulate_grad(out.grad * b.data)
        if need_b:
            b.accumulate_grad(out.grad * a.data)

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


# ---------------------------------------------------------------------------
# dense layers.  ACTIVATIONS maps each kind to the (forward, backward) kernel
# pair a chain runs on a layer's pre-activation z: forward(z, alpha) returns
# a new y and may use z as scratch; backward(g, z, y, alpha) returns
# g * dy/dz, written into z (linear returns g itself).  The kernels take the
# leaky_relu slope as checked: `dense` checks it, and an `nn.MLP` checks each
# layer's slope once, when it is built.

def _check_leaky_slope(alpha):
    """Return `alpha`; raise ValueError naming it unless 0 < alpha <= 1.

    Only there does the leaky_relu kernel's max select z for z > 0 and
    alpha * z otherwise; at alpha = 0 it would give 0 * inf = NaN for z = +inf.
    """
    if not 0.0 < alpha <= 1.0:  # also False on NaN
        raise ValueError(f"leaky_relu alpha must lie in (0, 1], got {alpha!r}")
    return alpha


def _sigmoid_forward(z, alpha):
    # exp(-|z|) never overflows.  The numerator is 1 where z >= 0 and e
    # elsewhere, because 0 <= e <= 1; NaN propagates through both.
    positive = z >= 0.0
    e = np.exp(np.negative(np.abs(z, out=z), out=z), out=z)
    y = np.maximum(e, positive)
    y /= np.add(e, 1.0, out=z)
    return y


def _sigmoid_backward(g, z, y, alpha):
    r = np.multiply(g, y, out=z)
    r *= 1.0 - y
    return r


ACTIVATIONS = {
    "relu": (lambda z, alpha: np.maximum(z, 0.0),
             lambda g, z, y, alpha: np.multiply(g, z > 0.0, out=z)),
    # with 0 < alpha <= 1 the max is z for z > 0 and alpha * z otherwise, bit for bit
    "leaky_relu": (lambda z, alpha: np.maximum(z, alpha * z),
                   lambda g, z, y, alpha: np.multiply(g, np.maximum(z > 0.0, alpha), out=z)),
    "sigmoid": (_sigmoid_forward, _sigmoid_backward),
    "tanh": (lambda z, alpha: np.tanh(z),
             lambda g, z, y, alpha: np.multiply(g, 1.0 - y * y, out=z)),
    "linear": (lambda z, alpha: z, lambda g, z, y, alpha: g),
}


def _input_grad(g, w):
    return g @ w.data.T


def _weight_grad(x, g, w):
    """x.T @ g for the layer of weight `w` whose input array is `x`."""
    return np.matmul(x.T, g, out=w.grad_slot())


def _chain(x, layers):
    """`x` through `layers` in order as one tape record; `x` itself if there are none.

    Each layer is a (w, b, kind, alpha) tuple and computes act(x @ w + b):
    `kind` is a key of ACTIVATIONS, `alpha` the leaky_relu slope.  The rule
    replays the layers in reverse, each one the bias gradient, then the
    input product, then the weight product, and stops at the first layer
    below which nothing needs a gradient.
    """
    a, inputs, steps = x.data, [x], []
    for w, b, kind, alpha in layers:
        wd, bd = w.data, b.data
        if a.ndim != 2 or wd.ndim != 2 or a.shape[1] != wd.shape[0] or bd.shape != wd.shape[1:]:
            raise ValueError(f"dense shape mismatch: {a.shape} @ {wd.shape} + {bd.shape}")
        forward, backward = ACTIVATIONS[kind]
        z = a @ wd
        z += bd  # the rounding of x @ w + b
        y = forward(z, alpha)
        steps.append((a, z, y, backward))
        inputs += (w, b)
        a = y
    if not steps:
        return x
    out = Tensor(a)

    def bwd():
        g = out.grad
        for i in range(len(steps) - 1, -1, -1):
            # the layer's input needs a gradient if x or a parameter below it does
            need_x, need_w, need_b = True in needs[:2 * i + 1], needs[2 * i + 1], needs[2 * i + 2]
            if not (need_x or need_w or need_b):
                break
            a, z, y, backward = steps[i]
            w, b, _, alpha = layers[i]
            g = backward(g, z, y, alpha)
            if need_b:
                b.accumulate_grad(np.add.reduce(g, axis=0, out=b.grad_slot()))
            # asked here, not when recording: a tape may be recorded on the helper thread
            helper = helper_for(w.data.size) if need_x and need_w else None
            if helper is None:
                gx = _input_grad(g, w) if need_x else None
                gw = _weight_grad(a, g, w) if need_w else None
            else:  # both are needed, and the helper may take one
                gx, gw = _share(helper, (functools.partial(_input_grad, g, w),
                                         functools.partial(_weight_grad, a, g, w)))
            if need_x and i == 0:
                x.accumulate_grad(gx)
            if need_w:
                w.accumulate_grad(gw)
            g = gx

    needs = _track(out, inputs, bwd)
    return out


def dense(x, w, b, kind="linear", alpha=None):
    """act(x @ w + b) as one tape record: the one-layer `_chain`.

    `kind` is a key of ACTIVATIONS, `alpha` the leaky_relu slope.
    """
    if kind == "leaky_relu":
        _check_leaky_slope(alpha)
    return _chain(x, ((w, b, kind, alpha),))


# ---------------------------------------------------------------------------
# losses on logits: the sigmoid and the softmax are part of the loss, and nothing is clamped

def _class_labels(labels, n_classes, name):
    """`labels` as an array; ValueError naming `name` unless they are integers in [0, n_classes).

    A bool array would index as a column mask and a float array fails to
    index, so only signed and unsigned integer dtypes pass.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {labels.dtype}")
    if labels.size and (np.minimum.reduce(labels, axis=None) < 0
                        or np.maximum.reduce(labels, axis=None) >= n_classes):
        raise ValueError(f"{name} must lie in [0, {n_classes})")
    return labels


def bce_loss(logits, target):
    """Mean binary cross-entropy of sigmoid(logits) against a target of 0 or 1.

    With s = logits for target 0 and s = -logits for target 1, the loss is
    mean(softplus(s)), softplus(s) = max(s, 0) + log1p(exp(-|s|)), and its
    gradient is (sigmoid(logits) - target) / n, computed as
    +-sigmoid(s) / n.  An infinite logit gives 0 or inf, never NaN.
    """
    if not (isinstance(target, numbers.Real) and target in (0.0, 1.0)):
        raise ValueError(f"bce_loss target must be 0.0 or 1.0, got {target!r}")
    sign = 1.0 - 2.0 * target
    s = np.multiply(logits.data, sign)
    e = np.exp(np.negative(np.abs(s)))
    losses = np.maximum(s, 0.0) + np.log1p(e)
    out = Tensor(np.add.reduce(losses, axis=None) / losses.size)  # .mean(), bit for bit

    def bwd():
        # sigmoid(s): the numerator is 1 where s >= 0 and e elsewhere
        g = np.maximum(e, s >= 0.0)
        g /= np.add(e, 1.0, out=e)
        g *= sign * out.grad / s.size
        logits.accumulate_grad(g)

    _track(out, (logits,), bwd)
    return out


def cce_loss(logits, labels):
    """Mean categorical cross-entropy of softmax(logits) against integer labels.

    `logits` is a (batch, n_classes) tensor; each row's loss is its
    log-sum-exp minus the label's logit, and the gradient is
    (softmax(logits) - onehot(labels)) / batch.
    """
    z = logits.data
    if z.ndim != 2:
        raise ValueError(f"cce_loss needs (batch, classes) logits, got {z.shape}")
    batch, n_classes = z.shape
    labels = _class_labels(labels, n_classes, "cce_loss labels")
    if labels.shape != (batch,):
        raise ValueError(f"cce_loss labels shape {labels.shape} does not match batch {batch}")
    rows = np.arange(batch)
    top = np.maximum.reduce(z, axis=1, keepdims=True)
    # z - top is 0 at the max, left unwritten: a +inf row loses 0 or inf, never inf - inf
    shifted = np.subtract(z, top, out=np.zeros(z.shape), where=z != top)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=1)
    losses = np.log(total) - shifted[rows, labels]
    out = Tensor(np.add.reduce(losses, axis=None) / batch)  # .mean(), bit for bit

    def bwd():
        g = np.divide(e, total[:, None], out=e)
        g[rows, labels] -= 1.0
        g *= out.grad / batch
        logits.accumulate_grad(g)

    _track(out, (logits,), bwd)
    return out
