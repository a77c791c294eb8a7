"""Central finite-difference gradient oracle shared by the autodiff tests."""

import numpy as np

from auxgan.tensor import Tape, Tensor

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
    """make_loss() -> scalar loss that reads `param`; checks d loss / d param."""
    with Tape(wrt=[param]) as tape:
        loss = make_loss()
    tape.backward(loss)
    analytic = param.grad.copy()

    def f(arr):
        saved = param.data
        param.data = arr
        try:
            return make_loss().item()
        finally:
            param.data = saved

    numeric = numeric_gradient(f, param.data.copy())
    err = relative_error(analytic, numeric)
    assert err <= rel_tol, f"parameter gradient off by rel err {err:.3e}"
    return err
