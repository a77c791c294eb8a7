import tracemalloc

import numpy as np
import pytest

from auxgan.nn import DenseLayer
from auxgan.optim import Adam, NesterovMomentum
from auxgan.tensor import Tensor


def _param(values):
    return Tensor(np.array(values, dtype=float))


def test_adam_zero_gradient_leaves_params_unchanged():
    p = _param([1.0, -2.0])
    opt = Adam([p])
    p.grad = np.zeros(2)
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_skips_params_without_gradient():
    p = _param([3.0])
    opt = Adam([p])
    opt.step()
    assert np.array_equal(p.data, [3.0])


def test_adam_first_step_moves_by_learning_rate():
    # bias correction makes m_hat = g, v_hat = g^2, so the first step is
    # -lr * g / (|g| + eps) which is -lr for g = 1
    p = _param([0.0])
    opt = Adam([p], learning_rate=2e-4)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-2e-4, rel=1e-6)


def test_adam_independent_parameters():
    a, b = _param([1.0]), _param([1.0])
    opt = Adam([a, b])
    a.grad = np.array([1.0])
    b.grad = np.array([0.0])
    opt.step()
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0


def test_adam_step_counter_increases():
    p = _param([0.0])
    opt = Adam([p])
    for expected in (1, 2, 3):
        p.grad = np.array([0.5])
        opt.step()
        assert opt.t == expected


def test_adam_gradient_shape_mismatch():
    p = _param([1.0, 2.0])
    opt = Adam([p])
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


def test_adam_matches_reference_simulation():
    rng = np.random.default_rng(0)
    p = _param(rng.normal(size=(3, 2)))
    ref = p.data.copy()
    lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
    opt = Adam([p], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 21):
        g = rng.normal(size=(3, 2))
        p.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.array_equal(p.data, ref)


def test_adam_deterministic():
    def run():
        p = _param([1.0, 2.0, 3.0])
        opt = Adam([p])
        for g in ([0.1, -0.2, 0.3], [0.5, 0.5, -0.5]):
            p.grad = np.array(g)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_nesterov_zero_gradient_zero_velocity_unchanged():
    p = _param([4.0])
    opt = NesterovMomentum([p])
    p.grad = np.array([0.0])
    opt.step()
    assert np.array_equal(p.data, [4.0])


def test_nesterov_first_step():
    # v1 = -lr*g = -0.01; delta = mu*v1 - lr*g = -0.009 - 0.01 = -0.019
    p = _param([0.0])
    opt = NesterovMomentum([p], learning_rate=0.01, momentum=0.9)
    p.grad = np.array([1.0])
    opt.step()
    assert p.data[0] == pytest.approx(-0.019, abs=1e-15)


def test_nesterov_velocity_approaches_geometric_limit():
    # under constant unit gradient, |v| climbs toward lr/(1-mu) = 0.1
    p = _param([0.0])
    opt = NesterovMomentum([p], learning_rate=0.01, momentum=0.9)
    prev = 0.0
    for _ in range(500):
        p.grad = np.array([1.0])
        opt.step()
        speed = abs(opt.velocity[0][0])
        assert speed <= 0.1 + 1e-12
        assert speed >= prev
        prev = speed
    assert prev == pytest.approx(0.1, abs=1e-6)


def test_nesterov_matches_reference_simulation():
    rng = np.random.default_rng(1)
    p = _param(rng.normal(size=4))
    ref = p.data.copy()
    vel = np.zeros_like(ref)
    opt = NesterovMomentum([p])
    for _ in range(20):
        g = rng.normal(size=4)
        p.grad = g.copy()
        opt.step()
        vel = 0.9 * vel - 0.01 * g
        ref += 0.9 * vel - 0.01 * g
        assert np.array_equal(p.data, ref)


def test_nesterov_gradient_shape_mismatch():
    p = _param([1.0])
    opt = NesterovMomentum([p])
    p.grad = np.zeros(2)
    with pytest.raises(ValueError):
        opt.step()


def _random_params(rng):
    return [_param(rng.normal(size=shape)) for shape in ((4, 3), (3,), ())]


def test_adam_in_place_state_matches_textbook_formulas_over_50_steps():
    rng = np.random.default_rng(2)
    params = _random_params(rng)
    lr, b1, b2, eps = 2e-4, 0.5, 0.999, 1e-8
    opt = Adam(params, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    for t in range(1, 51):
        grads = [rng.normal(size=r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])
            assert np.array_equal(params[i].data, ref[i])
            assert params[i].grad is None


def test_nesterov_in_place_state_matches_textbook_formulas_over_50_steps():
    rng = np.random.default_rng(3)
    params = _random_params(rng)
    lr, mu = 0.01, 0.9
    opt = NesterovMomentum(params, learning_rate=lr, momentum=mu)
    ref = [p.data.copy() for p in params]
    vel = [np.zeros_like(r) for r in ref]
    for _ in range(50):
        grads = [rng.normal(size=r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            vel[i] = mu * vel[i] - lr * g
            ref[i] = ref[i] + (mu * vel[i] - lr * g)
            assert np.array_equal(opt.velocity[i], vel[i])
            assert np.array_equal(params[i].data, ref[i])
            assert params[i].grad is None


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_step_allocates_no_arrays(optimizer):
    p = _param(np.ones((256, 64)))
    opt = optimizer([p])
    for _ in range(2):
        p.grad = np.full(p.shape, 0.5)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes // 16


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_step_never_writes_the_arrays_given_as_initial_weights(optimizer):
    weights, bias = np.ones((3, 2)), np.zeros(2)
    layer = DenseLayer(3, 2, weights=weights, bias=bias)
    opt = optimizer(layer.params())
    for p in layer.params():
        p.grad = np.ones(p.shape)
    opt.step()
    assert not np.array_equal(layer.weights.data, weights)
    assert np.array_equal(weights, np.ones((3, 2))) and np.array_equal(bias, np.zeros(2))
