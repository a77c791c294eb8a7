"""ADAM and Nesterov-momentum gradient descent.

Defaults follow the experimental setup this package reproduces: ADAM at
learning rate 2e-4 with beta1=0.5, beta2=0.999 for generator and
discriminator, Nesterov momentum at learning rate 0.01 with momentum 0.9
for the classifier.  Steps are deterministic: identical (params, grads,
state) give bit-identical updates.

Parameters stored back to back in one buffer, with their gradient views
back to back in another (every `nn.MLP`'s are, see `tensor.parameters`),
form a run, and a step updates a run whose gradients are all written as
one flat array; any other parameter is a run of its own.  The state (m, v,
velocity) is one flat array per optimizer, in parameter order, and
`m[i]`, `v[i]`, `velocity[i]` are per-parameter views into it.  A flat
array is updated in blocks of BLOCK elements, each through the textbook
op order, so every update is bit-identical to the per-array formulas.

A step first checks every gradient's shape, so a refused step changes
nothing.  It consumes the gradients it reads: it clears .grad on every
parameter.  It allocates no arrays: it works in place and in two scratch
blocks made by the constructor.
"""

import numpy as np

# Elements per block.  A block's parameters, gradient, two state arrays and
# two scratch arrays (6 x 256 KB) fit in a 2 MB L2 cache, so each block is
# read from memory once and its twelve ops run from cache.  On a 2-vCPU Xeon
# VM (2 MB L2 per core, one BLAS thread, a cache sweep between steps), ADAM
# on the digit generator's 208,400 parameters took 1.59 ms per step at 32k,
# 1.67 at 64k, 1.75 at 16k and 2.12 ms as one unblocked array.
BLOCK = 32768


def _start(view):
    """Index of `view`'s first element in its flat float64 base buffer, or None if it has none."""
    base = view.base
    if (not isinstance(base, np.ndarray) or base.ndim != 1 or base.dtype != np.float64
            or not base.flags.c_contiguous or not view.flags.c_contiguous):
        return None
    return (view.__array_interface__["data"][0] - base.__array_interface__["data"][0]) // 8


def _follows(p, q):
    """Whether q's values and gradient view come right after p's in the same two buffers."""
    for a, b in ((p.data, q.data), (p.grad_view, q.grad_view)):
        if a is None or b is None or a.base is not b.base:
            return False
        start = _start(a)
        if start is None or _start(b) != start + a.size:
            return False
    return True


def _flat(views):
    """One flat view over C-contiguous arrays that lie back to back in one buffer."""
    if len(views) == 1:
        return views[0].reshape(-1)
    start = _start(views[0])
    return views[0].base[start:start + sum(v.size for v in views)]


class _FlatState:
    """The parameters' flat state arrays, their runs, and the blocks a step updates."""

    def __init__(self, params, n_state):
        self.params = list(params)
        for p in self.params:
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                raise ValueError(f"optimizer parameters must be writeable C-contiguous "
                                 f"arrays, got one of shape {p.data.shape}")
        sizes = [p.data.size for p in self.params]
        self._state = [np.zeros(sum(sizes)) for _ in range(n_state)]
        self._offsets = np.cumsum([0] + sizes).tolist()
        self._views = [[s[lo:hi].reshape(p.data.shape) for p, lo, hi
                        in zip(self.params, self._offsets, self._offsets[1:])]
                       for s in self._state]
        bounds, first = [], 0  # params[first:stop] of each run
        for i in range(1, len(self.params) + 1):
            if i == len(self.params) or not _follows(self.params[i - 1], self.params[i]):
                bounds.append((first, i))
                first = i
        work = min(BLOCK, max((self._offsets[j] - self._offsets[i] for i, j in bounds), default=0))
        self._work = np.empty(work), np.empty(work)
        # (first, run, blocks): the run is params[first:first + len(run)], and
        # `blocks` steps it whole once every gradient of the run is in its view
        self._runs = []
        for first, stop in bounds:
            run = self.params[first:stop]
            blocks = None
            if run[0].grad_view is not None and run[0].grad_view.flags.c_contiguous:
                blocks = self._blocks(first, stop, _flat([p.data for p in run]),
                                      _flat([p.grad_view for p in run]))
            self._runs.append((first, run, blocks))

    def _blocks(self, first, stop, data, grad):
        """Same-size blocks (param, grad, *state, *scratch) of params[first:stop], given flat."""
        lo, hi = self._offsets[first], self._offsets[stop]
        flats = (data, grad, *(s[lo:hi] for s in self._state))
        n = hi - lo
        return [tuple(f[i:i + BLOCK] for f in flats)
                + tuple(w[:min(BLOCK, n - i)] for w in self._work)
                for i in range(0, n, BLOCK)]

    def _plan(self):
        """The blocks of this step, all found before any change: a wrong gradient shape raises.

        A gradient in its view always has the parameter's shape.
        """
        plan = []
        for first, run, blocks in self._runs:
            if blocks is not None and all(p.grad is p.grad_view for p in run):
                plan += blocks
                continue
            for i, p in enumerate(run, first):
                g = p.grad
                if g is None:
                    continue
                if g.shape != p.data.shape:
                    raise ValueError(f"gradient shape {g.shape} does not match "
                                     f"parameter {p.data.shape}")
                plan += self._blocks(i, i + 1, p.data.reshape(-1), g.reshape(-1))
        return plan

    def _clear(self):
        for p in self.params:
            p.grad = None


class Adam(_FlatState):
    """ADAM with bias correction; one (m, v) pair per parameter."""

    def __init__(self, params, learning_rate=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        super().__init__(params, 2)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m, self.v = self._views

    def step(self):
        plan = self._plan()
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.epsilon
        m_debias, v_debias = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, g, m, v, a, b in plan:
            # the textbook op order, so updates are bit-identical to
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(g, 1.0 - b1, out=a)
            m *= b1
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(v, v_debias, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += eps
            np.divide(m, m_debias, out=a)  # m_hat
            a *= lr
            a /= b
            p -= a
        self._clear()


class NesterovMomentum(_FlatState):
    """Nesterov momentum: v <- mu*v - lr*g; param += mu*v - lr*g."""

    def __init__(self, params, learning_rate=0.01, momentum=0.9):
        super().__init__(params, 1)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity, = self._views

    def step(self):
        plan = self._plan()
        lr, mu = self.learning_rate, self.momentum
        for p, g, v, lr_g, step in plan:
            np.multiply(g, lr, out=lr_g)
            v *= mu
            v -= lr_g
            np.multiply(v, mu, out=step)
            step -= lr_g
            p += step
        self._clear()
