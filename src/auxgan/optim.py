"""ADAM and Nesterov-momentum gradient descent over flat parameter segments.

Defaults follow the experimental setup this package reproduces: ADAM at
learning rate 2e-4 with beta1=0.5, beta2=0.999 for generator and
discriminator, Nesterov momentum at learning rate 0.01 with momentum 0.9
for the classifier.  Steps are deterministic: identical (params, grads,
state) give bit-identical updates.

An optimizer steps a list of segments `(params, data, grads)`: `data` is a
flat float64 array holding the parameters back to back, and `grads` the
flat array holding their gradient views at the same places.  The network
hands them out (`nn.MLP.segment`); the `acgan` classifier has two, the
discriminator's trunk and its head.  The state (m, v, velocity) is one flat
array per optimizer, the segments one after another.  Each segment is
updated in blocks of BLOCK elements, each through the textbook op order, so
every update is bit-identical to the per-array formulas.

A step reads every parameter's gradient from its gradient view: it first
checks that each .grad is its own .grad_view and otherwise raises, before
it changes anything.  It consumes the gradients: it clears .grad on every
parameter, and a block's update uses its gradient as scratch once it has
read it.  The update's other scratch is one block: on the thread that
calls the step, the optimizer's own, made by the constructor, so the step
allocates no arrays.  A step asks `tensor.helper_for` with its total size;
given the helper thread, it hands each block to `tensor.share` as one
task, so the helper updates blocks too while it is free.  The blocks are
disjoint, so the results are the same bits.  Blocks the helper takes use
a scratch block shared by every optimizer.
"""

import functools
import threading

import numpy as np

from .tensor import helper_for, share

# Elements per block.  A block's parameters, gradient, two state arrays and
# scratch (5 x 256 KB) fit in a 2 MB L2 cache, so each block is read from
# memory once and its ops run from cache.  On a 2-vCPU Xeon VM (2 MB L2 per
# core, one BLAS thread, a cache sweep between steps), ADAM on the digit
# generator's 208,400 parameters took 1.59 ms per step at 32k, 1.67 at 64k,
# 1.75 at 16k and 2.12 ms as one unblocked array (with a second scratch
# array per block, before the gradient doubled as one).
BLOCK = 32768


@functools.cache
def _helper_scratch(size):
    """The scratch of the blocks of up to `size` elements the helper thread takes.

    One per size, shared by every optimizer, and made on a calling thread: in
    the helper thread's own heap it raised peak memory by 0.5-1.1 MB.
    """
    return np.empty(size)


class _FlatState:
    """The segments' parameters, the flat state arrays, and the blocks a step updates."""

    def __init__(self, segments, n_state):
        self.params, flats = [], []
        for params, data, grads in segments:
            params = list(params)
            size = sum(p.data.size for p in params)
            for name, flat in (("parameter", data), ("gradient", grads)):
                if flat.dtype != np.float64 or flat.shape != (size,):
                    raise ValueError(f"a segment's {name} array must be float64 of shape "
                                     f"({size},), the size of its parameters, "
                                     f"got {flat.dtype} {flat.shape}")
            self.params += params
            flats.append((data, grads))
        self.size = sum(data.size for data, _ in flats)
        self._state = [np.zeros(self.size) for _ in range(n_state)]
        work = min(BLOCK, max((data.size for data, _ in flats), default=0))
        self._work = np.empty(work)
        # ((param, grad, *state), own scratch), same-size blocks of every segment in order
        self._blocks, lo = [], 0
        for data, grads in flats:
            n = data.size
            arrays = (data, grads, *(s[lo:lo + n] for s in self._state))
            self._blocks += [(tuple(a[i:i + BLOCK] for a in arrays),
                              self._work[:min(BLOCK, n - i)])
                             for i in range(0, n, BLOCK)]
            lo += n

    def _check_grads(self):
        """Raise, naming the parameter's shape, unless every gradient is in its view."""
        for p in self.params:
            if p.grad is None or p.grad is not p.grad_view:
                where = "no gradient" if p.grad is None else "a gradient outside its buffer"
                raise ValueError(f"parameter of shape {p.shape} has {where}; "
                                 f"a step reads every gradient from its gradient view")

    def _update_blocks(self, update):
        """update(*block, scratch) for every block, in order, sharing them with the helper thread.

        A block the helper takes uses the helper's scratch, never the optimizer's own.
        """
        helper = helper_for(self.size)
        if helper is None:
            for block, own in self._blocks:
                update(*block, own)
            return
        here, there = threading.get_ident(), _helper_scratch(self._work.size)

        def task(block, own):
            return lambda: update(*block, own if threading.get_ident() == here
                                  else there[:own.size])

        share(helper, [task(block, own) for block, own in self._blocks])

    def _clear(self):
        for p in self.params:
            p.grad = None


class Adam(_FlatState):
    """ADAM with bias correction; m and v are flat, in parameter order."""

    def __init__(self, segments, learning_rate=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        super().__init__(segments, 2)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m, self.v = self._state

    def step(self):
        """One update of every parameter."""
        self._check_grads()
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.learning_rate, self.epsilon
        m_debias, v_debias = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t

        def update(p, g, m, v, a):
            # the textbook op order, so updates are bit-identical to
            # p -= lr * m_hat / (sqrt(v_hat) + eps); g is scratch once v has read it
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            g *= 1.0 - b1
            m *= b1
            m += g
            np.divide(v, v_debias, out=a)  # v_hat
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, m_debias, out=g)  # m_hat
            g *= lr
            g /= a
            p -= g

        self._update_blocks(update)
        self._clear()


class NesterovMomentum(_FlatState):
    """Nesterov momentum: v <- mu*v - lr*g; param += mu*v - lr*g."""

    def __init__(self, segments, learning_rate=0.01, momentum=0.9):
        super().__init__(segments, 1)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity, = self._state

    def step(self):
        """One update of every parameter."""
        self._check_grads()
        lr, mu = self.learning_rate, self.momentum

        def update(p, g, v, step):
            g *= lr
            v *= mu
            v -= g
            np.multiply(v, mu, out=step)
            step -= g
            p += step

        self._update_blocks(update)
        self._clear()
