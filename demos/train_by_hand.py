"""Drive the tape-based autodiff and the two optimizers directly.

Everything the training schemes do reduces to this loop: forward pass under
a recording tape, backward pass to fill gradients, optimizer step.  Here the
model is tiny (XOR as a 2-class problem) so every piece is inspectable.
"""

import numpy as np

from auxgan.nn import MLP
from auxgan.optim import Adam, NesterovMomentum
from auxgan.tensor import Tape, Tensor, cce_loss

XOR_X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
XOR_Y = np.array([0, 1, 1, 0])


def finite_difference_check():
    """Compare one tape gradient against central differences by hand."""
    rng = np.random.default_rng(1)
    net = MLP((2, 8, 2), ("tanh", "linear"), rng=rng)
    x = Tensor(XOR_X)

    with Tape(wrt=net.params()) as tape:
        loss = cce_loss(net(x), XOR_Y)
    tape.backward(loss)

    w = net.layers[0].weights
    i, j = 1, 3
    h = 1e-5
    saved = w.data[i, j]
    w.data[i, j] = saved + h
    up = cce_loss(net(x), XOR_Y).item()   # no tape: nothing is recorded
    w.data[i, j] = saved - h
    down = cce_loss(net(x), XOR_Y).item()
    w.data[i, j] = saved

    numeric = (up - down) / (2 * h)
    print(f"d loss / d W[{i},{j}]:  tape {w.grad[i, j]:+.8f}   "
          f"central difference {numeric:+.8f}")


def fit(optimizer_name, steps=400):
    rng = np.random.default_rng(2)
    net = MLP((2, 8, 2), ("tanh", "linear"), rng=rng)
    if optimizer_name == "adam":
        opt = Adam([net.segment()], learning_rate=0.05)
    else:
        opt = NesterovMomentum([net.segment()], learning_rate=0.05, momentum=0.9)

    x = Tensor(XOR_X)
    trace = []
    for step in range(steps):
        with Tape(wrt=opt.params) as tape:  # a tape is good for one backward; build fresh
            loss = cce_loss(net(x), XOR_Y)
        tape.backward(loss)
        opt.step()  # reads the gradients and clears them
        if step % 100 == 0 or step == steps - 1:
            trace.append((step, loss.item()))

    predicted = net(x).data.argmax(axis=1)
    return trace, predicted


def main():
    print("== tape gradient vs finite differences ==")
    finite_difference_check()

    for name in ("adam", "nesterov"):
        print(f"\n== fitting XOR with {name} ==")
        trace, predicted = fit(name)
        for step, loss in trace:
            print(f"step {step:>4}: loss {loss:.6f}")
        print(f"predictions {predicted.tolist()}  (want {XOR_Y.tolist()})")


if __name__ == "__main__":
    main()
