"""ADAM and Nesterov-momentum gradient descent.

Defaults follow the experimental setup this package reproduces: ADAM at
learning rate 2e-4 with beta1=0.5, beta2=0.999 for generator and
discriminator, Nesterov momentum at learning rate 0.01 with momentum 0.9
for the classifier.  Steps are deterministic: identical (params, grads,
state) give bit-identical updates.  A step consumes the gradients it reads:
it clears .grad on every parameter it updates.  A step allocates no arrays:
it works in place and in two scratch buffers made by the constructor.
"""

import numpy as np


def _scratch(params):
    """Two work arrays per parameter, as views into two buffers of the largest size.

    A step handles one parameter at a time, so all parameters share the buffers.
    """
    size = max((p.data.size for p in params), default=0)
    buffers = np.empty(size), np.empty(size)
    return [tuple(b[:p.data.size].reshape(p.data.shape) for b in buffers) for p in params]


class Adam:
    """ADAM with bias correction; one (m, v) pair per parameter."""

    def __init__(self, params, learning_rate=2e-4, beta1=0.5, beta2=0.999, epsilon=1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self._scratch = _scratch(self.params)

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            m, v = self.m[i], self.v[i]
            a, b = self._scratch[i]
            # the textbook op order, so updates are bit-identical to
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.multiply(g, 1.0 - b1, out=a)
            m *= b1
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(v, 1.0 - b2 ** self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.epsilon
            np.divide(m, 1.0 - b1 ** self.t, out=a)  # m_hat
            a *= self.learning_rate
            a /= b
            p.data -= a
            p.grad = None


class NesterovMomentum:
    """Nesterov momentum: v <- mu*v - lr*g; param += mu*v - lr*g."""

    def __init__(self, params, learning_rate=0.01, momentum=0.9):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]
        self._scratch = _scratch(self.params)

    def step(self):
        lr, mu = self.learning_rate, self.momentum
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            v = self.velocity[i]
            lr_g, step = self._scratch[i]
            np.multiply(g, lr, out=lr_g)
            v *= mu
            v -= lr_g
            np.multiply(v, mu, out=step)
            step -= lr_g
            p.data += step
            p.grad = None
