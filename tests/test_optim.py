import sys
import threading
import tracemalloc

import numpy as np
import pytest

from auxgan import optim
from auxgan.nn import MLP
from auxgan.optim import BLOCK, Adam, NesterovMomentum
from auxgan.tensor import parameters


def _segment(*arrays):
    """(params, data, grads): parameters holding copies of `arrays`, back to back in 2 buffers."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    size = sum(a.size for a in arrays)
    data, grads = np.empty(size), np.empty(size)
    params = parameters([a.shape for a in arrays], data, grads)
    for p, a in zip(params, arrays):
        p.data[...] = a
    return params, data, grads


def _one(values, optimizer=Adam, **kwargs):
    """A parameter holding `values` and an optimizer over its one-parameter segment."""
    segment = _segment(values)
    return segment[0][0], optimizer([segment], **kwargs)


def test_adam_zero_gradient_leaves_params_unchanged():
    p, opt = _one([1.0, -2.0])
    p.accumulate_grad(np.zeros(2))
    opt.step()
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adam_skips_params_without_gradient():
    # a step over a parameter with no gradient is refused and moves nothing
    p, opt = _one([3.0])
    with pytest.raises(ValueError, match=r"parameter of shape \(1,\) has no gradient"):
        opt.step()
    assert np.array_equal(p.data, [3.0])
    assert opt.t == 0 and np.array_equal(opt.m, [0.0]) and np.array_equal(opt.v, [0.0])


def test_adam_first_step_moves_by_learning_rate():
    # bias correction makes m_hat = g, v_hat = g^2, so the first step is
    # -lr * g / (|g| + eps) which is -lr for g = 1
    p, opt = _one([0.0], learning_rate=2e-4)
    p.accumulate_grad(np.array([1.0]))
    opt.step()
    assert p.data[0] == pytest.approx(-2e-4, rel=1e-6)


def test_adam_independent_parameters():
    segment = _segment([1.0], [1.0])
    a, b = segment[0]
    opt = Adam([segment])
    a.accumulate_grad(np.array([1.0]))
    b.accumulate_grad(np.array([0.0]))
    opt.step()
    assert a.data[0] != 1.0
    assert b.data[0] == 1.0


def test_adam_step_counter_increases():
    p, opt = _one([0.0])
    for expected in (1, 2, 3):
        p.accumulate_grad(np.array([0.5]))
        opt.step()
        assert opt.t == expected


def test_adam_gradient_shape_mismatch():
    p, opt = _one([1.0, 2.0])
    p.grad = np.zeros(3)
    with pytest.raises(ValueError):
        opt.step()


def test_adam_matches_reference_simulation():
    rng = np.random.default_rng(0)
    lr, b1, b2, eps = 1e-3, 0.5, 0.999, 1e-8
    p, opt = _one(rng.normal(size=(3, 2)), learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    ref = p.data.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 21):
        g = rng.normal(size=(3, 2))
        p.accumulate_grad(g)
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.array_equal(p.data, ref)


def test_adam_deterministic():
    def run():
        p, opt = _one([1.0, 2.0, 3.0])
        for g in ([0.1, -0.2, 0.3], [0.5, 0.5, -0.5]):
            p.accumulate_grad(np.array(g))
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_nesterov_zero_gradient_zero_velocity_unchanged():
    p, opt = _one([4.0], NesterovMomentum)
    p.accumulate_grad(np.array([0.0]))
    opt.step()
    assert np.array_equal(p.data, [4.0])


def test_nesterov_first_step():
    # v1 = -lr*g = -0.01; delta = mu*v1 - lr*g = -0.009 - 0.01 = -0.019
    p, opt = _one([0.0], NesterovMomentum, learning_rate=0.01, momentum=0.9)
    p.accumulate_grad(np.array([1.0]))
    opt.step()
    assert p.data[0] == pytest.approx(-0.019, abs=1e-15)


def test_nesterov_velocity_approaches_geometric_limit():
    # under constant unit gradient, |v| climbs toward lr/(1-mu) = 0.1
    p, opt = _one([0.0], NesterovMomentum, learning_rate=0.01, momentum=0.9)
    prev = 0.0
    for _ in range(500):
        p.accumulate_grad(np.array([1.0]))
        opt.step()
        speed = abs(opt.velocity[0])
        assert speed <= 0.1 + 1e-12
        assert speed >= prev
        prev = speed
    assert prev == pytest.approx(0.1, abs=1e-6)


def test_nesterov_matches_reference_simulation():
    rng = np.random.default_rng(1)
    p, opt = _one(rng.normal(size=4), NesterovMomentum)
    ref = p.data.copy()
    vel = np.zeros_like(ref)
    for _ in range(20):
        g = rng.normal(size=4)
        p.accumulate_grad(g)
        opt.step()
        vel = 0.9 * vel - 0.01 * g
        ref += 0.9 * vel - 0.01 * g
        assert np.array_equal(p.data, ref)


def test_nesterov_gradient_shape_mismatch():
    p, opt = _one([1.0], NesterovMomentum)
    p.grad = np.zeros(2)
    with pytest.raises(ValueError):
        opt.step()


def _flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def _random_segment(rng):
    return _segment(*(rng.normal(size=shape) for shape in ((4, 3), (3,), ())))


def test_adam_in_place_state_matches_textbook_formulas_over_50_steps():
    rng = np.random.default_rng(2)
    segment = _random_segment(rng)
    params = segment[0]
    lr, b1, b2, eps = 2e-4, 0.5, 0.999, 1e-8
    opt = Adam([segment], learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
    ref = [p.data.copy() for p in params]
    m = [np.zeros_like(r) for r in ref]
    v = [np.zeros_like(r) for r in ref]
    for t in range(1, 51):
        grads = [rng.normal(size=r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.accumulate_grad(g)
        opt.step()
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g * g
            m_hat = m[i] / (1.0 - b1 ** t)
            v_hat = v[i] / (1.0 - b2 ** t)
            ref[i] = ref[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(params[i].data, ref[i])
            assert params[i].grad is None
        assert np.array_equal(opt.m, _flat(m)) and np.array_equal(opt.v, _flat(v))


def test_nesterov_in_place_state_matches_textbook_formulas_over_50_steps():
    rng = np.random.default_rng(3)
    segment = _random_segment(rng)
    params = segment[0]
    lr, mu = 0.01, 0.9
    opt = NesterovMomentum([segment], learning_rate=lr, momentum=mu)
    ref = [p.data.copy() for p in params]
    vel = [np.zeros_like(r) for r in ref]
    for _ in range(50):
        grads = [rng.normal(size=r.shape) for r in ref]
        for p, g in zip(params, grads):
            p.accumulate_grad(g)
        opt.step()
        for i, g in enumerate(grads):
            vel[i] = mu * vel[i] - lr * g
            ref[i] = ref[i] + (mu * vel[i] - lr * g)
            assert np.array_equal(params[i].data, ref[i])
            assert params[i].grad is None
        assert np.array_equal(opt.velocity, _flat(vel))


def _network_segment():
    """A network whose one segment spans two blocks and a short tail."""
    net = MLP((784, 64, 10), ("relu", "linear"), rng=np.random.default_rng(4))
    assert BLOCK < net.param_buffer.size < 2 * BLOCK
    return net.segment()


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_step_allocates_no_arrays(optimizer):
    for segment in (_segment(np.ones((256, 64))), _network_segment()):
        params = segment[0]
        opt = optimizer([segment])
        for _ in range(2):
            for p in params:
                p.accumulate_grad(np.full(p.shape, 0.5))
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < sum(p.data.nbytes for p in params) // 16


def _sized_segment(rng, size):
    """A segment of `size` values: a 0-d, a 1-element and two larger arrays."""
    return _segment(*(rng.normal(size=shape) for shape in [(), (size - 4,), (1,), (2,)]))


def _textbook_adam(p, g, m, v, t, lr, b1, b2, eps):
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    p = p - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return p, (m, v)


def _textbook_nesterov(p, g, vel, lr, mu):
    vel = mu * vel - lr * g
    return p + (mu * vel - lr * g), (vel,)


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_flat_blocked_step_equals_the_per_array_textbook_formulas(optimizer):
    rng = np.random.default_rng(5)
    # segments one short of, exactly at, one past and past two block
    # boundaries, then a segment of one parameter
    segments = [_sized_segment(rng, n) for n in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)]
    segments.append(_segment(rng.normal(size=(3, 2))))
    params = [p for segment in segments for p in segment[0]]
    lr, b1, b2, eps, mu = 1e-3, 0.5, 0.999, 1e-8, 0.9
    if optimizer is Adam:
        opt = Adam(segments, learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        state = [[np.zeros(p.shape), np.zeros(p.shape)] for p in params]
    else:
        opt = NesterovMomentum(segments, learning_rate=lr, momentum=mu)
        state = [[np.zeros(p.shape)] for p in params]
    ref = [p.data.copy() for p in params]
    for t in range(1, 5):
        grads = [rng.normal(size=p.shape) for p in params]
        for p, g in zip(params, grads):
            p.accumulate_grad(g)
        opt.step()
        for i, g in enumerate(grads):
            if optimizer is Adam:
                ref[i], state[i] = _textbook_adam(ref[i], g, *state[i], t, lr, b1, b2, eps)
            else:
                ref[i], state[i] = _textbook_nesterov(ref[i], g, *state[i], lr, mu)
            assert np.array_equal(params[i].data, ref[i])
            assert params[i].grad is None
        got = (opt.m, opt.v) if optimizer is Adam else (opt.velocity,)
        for k, flat in enumerate(got):
            assert np.array_equal(flat, _flat(s[k] for s in state))


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_a_refused_step_changes_nothing(optimizer):
    rng = np.random.default_rng(6)
    segments = [_sized_segment(rng, 10), _segment(rng.normal(size=3))]
    params = [p for segment in segments for p in segment[0]]
    opt = optimizer(segments)
    for p in params:
        p.accumulate_grad(rng.normal(size=p.shape))
    opt.step()

    def snapshot():
        state = [opt.m, opt.v] if optimizer is Adam else [opt.velocity]
        return [a.tobytes() for a in [p.data for p in params] + state], getattr(opt, "t", None)

    # the last parameter's gradient is missing, set by hand outside its
    # buffer, or of the wrong shape
    for fault, named in ((None, "no gradient"), (np.zeros(3), "a gradient outside its buffer"),
                         (np.zeros(4), "a gradient outside its buffer")):
        for p in params[:-1]:
            p.grad = None
            p.accumulate_grad(rng.normal(size=p.shape))
        params[-1].grad = fault
        before = snapshot()
        with pytest.raises(ValueError, match=rf"parameter of shape \(3,\) has {named}"):
            opt.step()
        assert snapshot() == before


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
def test_a_segment_whose_arrays_do_not_fit_its_parameters_is_refused(optimizer):
    params, data, grads = _segment(np.ones((3, 2)), np.ones(2))
    for segment, named in (
            ((params, data[:-1], grads), r"parameter array .* \(8,\).* float64 \(7,\)"),
            ((params, data, grads.astype(np.float32)), r"gradient array .* float32 \(8,\)"),
            ((params, data.reshape(2, 4), grads), r"parameter array .* float64 \(2, 4\)")):
        with pytest.raises(ValueError, match=named):
            optimizer([segment])


def _helper_takes_a_block(monkeypatch):
    """Make every shared step hand the helper a block: the first waits until the second started."""
    share = optim._share

    def forcing(helper, tasks):
        started = threading.Event()

        def first():
            assert started.wait(timeout=10)
            return tasks[0]()

        def second():
            started.set()
            return tasks[1]()

        return share(helper, [first, second, *tasks[2:]])

    monkeypatch.setattr(optim, "_share", forcing)


def _state(params, opt):
    return [p.data.tobytes() for p in params] + [s.tobytes() for s in opt._state]


@pytest.mark.parametrize("optimizer", [Adam, NesterovMomentum])
@pytest.mark.parametrize("forced", [False, True])
def test_a_shared_step_equals_the_serial_step_bit_for_bit_over_50_steps(
        optimizer, forced, monkeypatch, set_helper_min_params):
    # segments of several small blocks, each big enough for numpy to let
    # the other thread run; unforced, the helper takes blocks as it can
    monkeypatch.setattr(optim, "BLOCK", 1024)

    def build():
        rng = np.random.default_rng(8)
        segments = [_sized_segment(rng, 3000), _segment(rng.normal(size=(40, 30)))]
        return [p for segment in segments for p in segment[0]], optimizer(segments)

    serial, shared = build(), build()
    assert len(shared[1]._blocks) == 5
    if forced:
        _helper_takes_a_block(monkeypatch)
    on_helper, share = [], optim._share

    def counting(helper, tasks):
        def count(task):
            def run():
                on_helper.append(threading.current_thread() is not threading.main_thread())
                return task()
            return run
        return share(helper, [count(task) for task in tasks])

    monkeypatch.setattr(optim, "_share", counting)
    rng, interval = np.random.default_rng(9), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(50):
            grads = [rng.normal(size=p.shape) for p in serial[0]]
            for (params, opt), helper_min_params in ((serial, float("inf")), (shared, 0)):
                set_helper_min_params(helper_min_params)
                for p, g in zip(params, grads):
                    p.accumulate_grad(g)
                opt.step()
            assert _state(*shared) == _state(*serial)
            assert all(p.grad is None for p in shared[0])
    finally:
        sys.setswitchinterval(interval)
    assert sum(on_helper) >= (50 if forced else 1)


def test_the_helpers_scratch_never_shares_memory_with_an_optimizers(monkeypatch,
                                                                   set_helper_min_params):
    # one block, made on the first shared step, for every optimizer
    set_helper_min_params(0)
    _helper_takes_a_block(monkeypatch)
    optim._helper_scratch.cache_clear()
    segments = [_network_segment(), _network_segment()]
    opts = [Adam([segments[0]]), NesterovMomentum([segments[1]])]
    scratch = []
    for opt in opts:
        for p in opt.params:
            p.accumulate_grad(np.full(p.shape, 0.5))
        opt.step()
        assert optim._helper_scratch.cache_info().currsize == 1  # made by the step
        scratch.append(optim._helper_scratch(BLOCK))
    assert scratch[1] is scratch[0] and scratch[0].size == BLOCK
    for opt, (_, data, grads) in zip(opts, segments):
        assert not any(np.shares_memory(scratch[0], a)
                       for a in (opt._work, *opt._state, data, grads))
