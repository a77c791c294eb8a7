"""Central finite-difference gradient oracle shared by the autodiff tests."""

import numpy as np

from auxgan.tensor import Tape, Tensor, _track

H = 1e-5
REL_TOL = 1e-6


def numeric_gradient(f, x, h=H):
    """d f / d x entry by entry via central differences; f reads x in place."""
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = f(x)
        flat[i] = keep - h
        lo = f(x)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)


def check_input_gradient(build, x0, rel_tol=REL_TOL):
    """build(tensor) -> scalar loss; compares tape gradient against the oracle."""
    x = Tensor(x0.copy())
    with Tape(wrt=[x]) as tape:
        loss = build(x)
    tape.backward(loss)
    analytic = x.grad.copy()
    numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), x0.copy())
    err = relative_error(analytic, numeric)
    assert err <= rel_tol, f"input gradient off by rel err {err:.3e}"
    return err


def check_param_gradient(make_loss, param, rel_tol=REL_TOL):
    """make_loss() -> scalar loss that reads `param`; checks d loss / d param.

    The perturbed values are written into param.data, which stays the same
    array (a view into its network's buffer), and its bytes are restored.
    """
    with Tape(wrt=[param]) as tape:
        loss = make_loss()
    tape.backward(loss)
    analytic = param.grad.copy()
    saved = param.data.copy()

    def f(arr):
        param.data[...] = arr
        return make_loss().item()

    try:
        numeric = numeric_gradient(f, saved.copy())
    finally:
        param.data[...] = saved
    err = relative_error(analytic, numeric)
    assert err <= rel_tol, f"parameter gradient off by rel err {err:.3e}"
    return err


def weighted_sum(x, weights):
    """sum(x * weights) as a scalar tensor: seeds x.grad with `weights`, bit for bit.

    Stands in for a loss when a test needs a chosen upstream gradient.
    """
    weights = np.asarray(weights, dtype=np.float64)
    out = Tensor((x.data * weights).sum())

    def bwd():
        x.accumulate_grad(out.grad * weights)  # `weights` itself when out.grad is 1.0

    _track(out, (x,), bwd)
    return out
