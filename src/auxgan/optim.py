"""ADAM and Nesterov-momentum gradient descent.

Defaults follow the experimental setup this package reproduces: ADAM at
learning rate 2e-4 with beta1=0.5, beta2=0.999 for generator and
discriminator, Nesterov momentum at learning rate 0.01 with momentum 0.9
for the classifier.  Steps are deterministic: identical (params, grads,
state) give bit-identical updates.  A step consumes the gradients it reads:
it clears .grad on every parameter it updates.
"""

import numpy as np


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
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** self.t)
            v_hat = v / (1.0 - b2 ** self.t)
            p.data -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
            p.grad = None


class NesterovMomentum:
    """Nesterov momentum: v <- mu*v - lr*g; param += mu*v - lr*g."""

    def __init__(self, params, learning_rate=0.01, momentum=0.9):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        lr, mu = self.learning_rate, self.momentum
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
            v = self.velocity[i]
            v *= mu
            v -= lr * g
            p.data += mu * v - lr * g
            p.grad = None
