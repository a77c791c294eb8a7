import itertools
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special

from auxgan import tensor
from auxgan.nn import MLP
from auxgan.tensor import (ACTIVATIONS, Tape, Tensor, add, bce_loss, cce_loss, concat_cols,
                           _share, dense, mul, parameters)
from gradcheck import (check_input_gradient, check_param_gradient, relative_error,
                       weighted_sum)

N_INSTANCES = 50


def _identity(n):
    """Weights and bias under which dense(x, w, b, kind) is act(x), bit for bit, for finite x."""
    return Tensor(np.eye(n)), Tensor(np.zeros(n))


def _act(kind, z, alpha=None):
    """act(z) by the forward kernel `dense` runs, on a copy of z."""
    return ACTIVATIONS[kind][0](np.array(z, dtype=np.float64), alpha)


def test_dense_shape_error_names_the_shapes():
    w, b = _identity(3)
    with pytest.raises(ValueError, match=r"\(2, 2\) @ \(3, 3\) \+ \(3,\)"):
        dense(Tensor(np.zeros((2, 2))), w, b)
    with pytest.raises(ValueError, match=r"\(3, 3\) \+ \(2,\)"):
        dense(Tensor(np.zeros((2, 3))), w, Tensor(np.zeros(2)))


def _refuses_an_operand_that_is_not_0d(op):
    with pytest.raises(ValueError, match=r"\(2, 3\) and \(\)"):
        op(Tensor(np.zeros((2, 3))), 1.0)
    with pytest.raises(ValueError, match=r"\(\) and \(3,\)"):
        op(Tensor(1.0), Tensor(np.zeros(3)))


def test_add_shape_error():
    with pytest.raises(ValueError, match=r"\(2, 3\) and \(3, 2\)"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    _refuses_an_operand_that_is_not_0d(add)


def test_mul_shape_error():
    with pytest.raises(ValueError, match=r"\(2, 3\) and \(2, 2\)"):
        mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    _refuses_an_operand_that_is_not_0d(mul)


def test_diamond_fanout_accumulates_both_branches():
    # loss = x*x + (x + x); grad must be 2x + 2
    for value in (1.0, -2.0, 3.0):
        x = Tensor(value)
        with Tape(wrt=[x]) as tape:
            loss = add(mul(x, x), add(x, x))
        tape.backward(loss)
        assert x.grad == 2.0 * value + 2.0


def test_tape_reuse_rejected():
    x = Tensor(1.0)
    with Tape(wrt=[x]) as tape:
        loss = mul(x, 2.0)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 3)))
    with Tape(wrt=[x]) as tape:
        y = dense(x, *_identity(3))
    with pytest.raises(ValueError):
        tape.backward(y)


def test_tape_wrt_matches_full_backward_on_listed_leaves_only():
    # a generator-step shape: the loss reads both nets, only `first` is listed
    rng = np.random.default_rng(5)
    first = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))]
    second = [Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=1))]
    x = Tensor(rng.normal(size=(6, 3)))

    def loss():
        h = dense(x, *first, "tanh")
        return bce_loss(dense(h, *second, "linear"), 1.0)

    with Tape(wrt=first + second) as tape:
        full_loss = loss()
    tape.backward(full_loss)
    full = [p.grad for p in first]
    for p in first + second:
        p.grad = None

    with Tape(wrt=first) as tape:
        partial_loss = loss()
    tape.backward(partial_loss)
    assert partial_loss.item() == full_loss.item()
    for p, want in zip(first, full):
        assert np.array_equal(p.grad, want)
    assert all(p.grad is None for p in second)
    assert x.grad is None


def test_tape_wrt_records_nothing_that_misses_the_listed_leaves():
    w = Tensor(np.ones((2, 2)))
    frozen, zero = Tensor(np.ones((2, 2))), Tensor(np.zeros(2))
    with Tape(wrt=[w]) as tape:
        constant = dense(frozen, frozen, zero)  # no listed leaf below it
        loss = weighted_sum(dense(constant, w, zero), np.ones((2, 2)))
    assert len(tape._records) == 2
    tape.backward(loss)
    assert frozen.grad is None and zero.grad is None and constant.grad is None
    assert np.array_equal(w.grad, np.full((2, 2), 4.0))


def test_threads_record_on_their_own_tapes_and_give_the_serial_gradients():
    # the threads record at once; were the tape stack shared, one thread's
    # records would land on another's tape
    rng = np.random.default_rng(6)
    n_threads = 4  # more than the cores of a small machine
    nets = [MLP((8, 32, 1), ("tanh", "linear"), rng=rng) for _ in range(n_threads)]
    xs = [Tensor(rng.normal(size=(16, 8))) for _ in range(n_threads)]

    def gradients(net, x, rounds=50):
        out = []
        for _ in range(rounds):
            with Tape(wrt=net.params()) as tape:
                loss = bce_loss(net(x), 1.0)
            tape.backward(loss)
            out.append(net.grad_buffer.copy())
            for p in net.params():
                p.grad = None
        return out

    serial = [gradients(net, x) for net, x in zip(nets, xs)]
    concurrent = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def work(i):
        barrier.wait()
        concurrent[i] = gradients(nets[i], xs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over between ops
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(concurrent, serial):
        assert got is not None and len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_shared_first_gradient_is_not_changed_by_a_later_contribution():
    # add hands one out.grad array to both a and b; a later second
    # contribution to a must leave b's gradient as it was
    a = Tensor(1.0)
    b = Tensor(1.0)
    with Tape(wrt=[a, b]) as tape:
        scaled = mul(a, 3.0)  # replayed last: a's second contribution
        loss = add(add(a, b), scaled)
    tape.backward(loss)
    assert b.grad == 1.0
    assert a.grad == 4.0


def test_activation_values():
    assert _act("sigmoid", 0.0) == 0.5
    assert _act("leaky_relu", -1.0, 0.2) == pytest.approx(-0.2)


def test_tensor_wraps_its_array_and_a_parameter_owns_a_copy():
    a = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(Tensor(a).data, a)
    # a parameter lives in its network's buffer: initial values are copied in
    net = MLP((2, 3), ("linear",))
    w = net.layers[0].weights
    w.data[...] = a
    assert np.shares_memory(w.data, net.param_buffer) and not np.shares_memory(w.data, a)


@pytest.mark.parametrize("data", [np.empty(7), np.empty(5, dtype=np.float32)])
def test_parameter_buffers_must_be_float64_of_the_arrays_total_size(data):
    # a float32 buffer would be copied by Tensor, and the parameter would not be a view
    with pytest.raises(ValueError, match=r"float64 of shape \(5,\)"):
        parameters([(2, 2), ()], data, np.empty(5))


def test_a_tape_must_name_its_leaves():
    with pytest.raises(TypeError):
        Tape()


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, float("nan"), float("inf"), -float("inf")])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match=f"got {alpha!r}"):
        dense(Tensor([[1.0, -1.0]]), *_identity(2), "leaky_relu", alpha)


# The sign-selecting formulas the branch-free kernels replaced; the kernels
# must reproduce them bit for bit, forward and backward.
def _where_sigmoid(d):
    e = np.exp(-np.abs(d))
    return np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _where_leaky_relu(d, alpha):
    return np.where(d > 0.0, d, alpha * d), np.where(d > 0.0, 1.0, alpha)


_EDGES = [0.0, -0.0, 1e-17, -1e-17, 800.0, -800.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
_inputs = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, width=64)))


def _forward_and_backward(kind, data, upstream, alpha=None):
    """y and upstream * dy/dz from one kernel pair, run on a copy of `data` as `dense` runs it."""
    forward, backward = ACTIVATIONS[kind]
    z = data.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        y = forward(z, alpha)
    return y, backward(upstream, z, y, alpha)


@settings(max_examples=300, deadline=None)
@given(data=_inputs, seed=st.integers(0, 2**32 - 1),
       alpha=st.one_of(st.sampled_from([0.2, 1.0, 5e-324]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_activation_kernels_equal_the_sign_selecting_formulas_bit_for_bit(data, seed, alpha):
    upstream = np.random.default_rng(seed).normal(size=data.shape)

    y, grad = _forward_and_backward("sigmoid", data, upstream)
    ref = _where_sigmoid(data)
    assert y.tobytes() == ref.tobytes()
    assert grad.tobytes() == (upstream * ref * (1.0 - ref)).tobytes()

    y, grad = _forward_and_backward("leaky_relu", data, upstream, alpha)
    ref, slope = _where_leaky_relu(data, alpha)
    assert y.tobytes() == ref.tobytes()
    assert grad.tobytes() == (upstream * slope).tobytes()


# act(z) and g * act'(z) in plain numpy, in the kernels' op order; sigmoid and
# leaky_relu by the sign-selecting formulas above
_REFERENCE = {
    "relu": (lambda z, alpha: np.maximum(z, 0.0), lambda g, z, y, alpha: g * (z > 0.0)),
    "leaky_relu": (lambda z, alpha: _where_leaky_relu(z, alpha)[0],
                   lambda g, z, y, alpha: g * _where_leaky_relu(z, alpha)[1]),
    "sigmoid": (lambda z, alpha: _where_sigmoid(z), lambda g, z, y, alpha: g * y * (1.0 - y)),
    "tanh": (lambda z, alpha: np.tanh(z), lambda g, z, y, alpha: g * (1.0 - y * y)),
    "linear": (lambda z, alpha: z, lambda g, z, y, alpha: g),
}
_WRT = [c for r in range(4) for c in itertools.combinations("xwb", r)]


def _dense_run(arrays, kind, alpha, upstream, wrt):
    """Forward bytes and the x, w, b gradient bytes (None where not written)."""
    leaves = dict(zip("xwb", (Tensor(a) for a in arrays)))
    with Tape(wrt=[leaves[k] for k in wrt]) as tape, np.errstate(all="ignore"):
        out = dense(*leaves.values(), kind, alpha)
        loss = weighted_sum(out, upstream)
        records = len(tape._records)
        tape.backward(loss)  # out.grad is `upstream`, bit for bit
    grads = [None if t.grad is None else t.grad.tobytes() for t in leaves.values()]
    return records, [out.data.tobytes()] + grads


def _reference_run(arrays, kind, alpha, upstream, wrt):
    """_dense_run's bytes from the unfused chain in numpy: product, bias add, activation."""
    x, w, b = arrays
    act, act_grad = _REFERENCE[kind]
    with np.errstate(all="ignore"):
        z = x @ w + b
        y = act(z, alpha)
        g = act_grad(upstream, z, y, alpha)
        grads = {"x": g @ w.T, "w": x.T @ g, "b": g.sum(axis=0)}
    return [y.tobytes()] + [grads[k].tobytes() if k in wrt else None for k in "xwb"]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(ACTIVATIONS)),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_dense_equals_the_unfused_chain_bit_for_bit(data, kind, alpha):
    rows, n_in, n_out = (data.draw(st.integers(1, 4), label=k) for k in ("rows", "in", "out"))
    values = st.one_of(st.sampled_from(_EDGES), st.floats(-1e3, 1e3))
    arrays = [data.draw(hnp.arrays(np.float64, shape, elements=values), label=k)
              for k, shape in (("x", (rows, n_in)), ("w", (n_in, n_out)), ("b", (n_out,)))]
    upstream = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(rows, n_out))
    alpha = alpha if kind == "leaky_relu" else None
    for wrt in _WRT:
        records, fused = _dense_run(arrays, kind, alpha, upstream, wrt)
        assert records == (0 if wrt == () else 2)  # dense, weighted_sum
        assert fused == _reference_run(arrays, kind, alpha, upstream, wrt)


def test_dense_sigmoid_works_in_its_own_pre_activation():
    rng = np.random.default_rng(3)
    x, w, b = (Tensor(rng.normal(size=shape)) for shape in ((2000, 64), (64, 784), (784,)))
    before = [t.data.tobytes() for t in (x, w, b)]
    tracemalloc.start()
    try:
        y = dense(x, w, b, "sigmoid").data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # z = x @ w + b, y and a bool mask; z doubles as exp(-|z|) and 1 + exp(-|z|)
    assert peak <= 2.2 * y.nbytes
    assert [t.data.tobytes() for t in (x, w, b)] == before
    assert y.tobytes() == _where_sigmoid(x.data @ w.data + b.data).tobytes()


def test_dense_backward_writes_weight_gradients_into_the_layer_buffer():
    # a digit-width layer used on two batches, like the discriminator on the
    # real and the fake batch: the first term is built in the gradient view,
    # the second is added to it in place
    rng = np.random.default_rng(5)
    layer = MLP((784, 256), ("linear",), rng=rng).layers[0]
    w, b = layer.weights, layer.bias
    x1, x2 = (Tensor(rng.normal(size=(64, 784))) for _ in range(2))
    ones = np.ones((64, 256))
    with Tape(wrt=[w, b]) as tape:
        loss = weighted_sum(dense(x1, w, b), ones) + weighted_sum(dense(x2, w, b), ones)
    assert w.grad is None and b.grad is None
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 64x256 output gradients (from weighted_sum) and one 784x256 later term
    assert peak < 1.25 * w.data.nbytes
    assert w.grad is w.grad_view and b.grad is b.grad_view
    assert w.grad.tobytes() == (x2.data.T @ ones + x1.data.T @ ones).tobytes()
    assert b.grad.tobytes() == (ones.sum(axis=0) + ones.sum(axis=0)).tobytes()


def test_dense_backward_of_one_use_allocates_no_weight_gradient():
    rng = np.random.default_rng(6)
    layer = MLP((784, 256), ("linear",), rng=rng).layers[0]
    x = Tensor(rng.normal(size=(64, 784)))
    with Tape(wrt=layer.params()) as tape:
        loss = weighted_sum(dense(x, layer.weights, layer.bias), np.ones((64, 256)))
    tracemalloc.start()
    try:
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # only weighted_sum's 64x256 output gradient, a twelfth of the weight array
    assert peak < layer.weights.data.nbytes // 6
    assert np.shares_memory(layer.weights.grad, layer.weights.grad_view)


def test_share_without_a_helper_runs_the_tasks_here_in_order_and_stops_at_the_first_error():
    ran = []

    def task(name, fails=False):
        def run():
            ran.append((name, threading.current_thread()))
            if fails:
                raise ValueError(f"{name} failed")
            return name
        return run

    assert _share(None, [task("a"), task("b"), task("c")]) == ["a", "b", "c"]
    with pytest.raises(ValueError, match="b failed"):
        _share(None, [task("d"), task("b", fails=True), task("e", fails=True)])
    assert ran == [(name, threading.main_thread()) for name in "abcdb"]


def test_share_beside_a_busy_helper_runs_every_task_here_without_waiting():
    release, ran = threading.Event(), []
    with ThreadPoolExecutor(max_workers=1) as helper:
        blocked = helper.submit(release.wait, 10)
        results = _share(helper, [lambda i=i: ran.append(threading.current_thread()) or i
                                  for i in range(4)])
        assert not release.is_set()  # returned while the helper was still blocked
        release.set()
        assert blocked.result(timeout=60)
    assert results == [0, 1, 2, 3]
    assert ran == [threading.current_thread()] * 4


class _Placing:
    """A helper that starts the share's task number `index` on `worker` and no other.

    `submit` returns once that task has started, so this thread finds it
    taken and runs every other task itself, unless a task has failed.
    """

    def __init__(self, worker, index):
        self.worker, self.index, self.given = worker, index, 0

    def submit(self, task):
        self.given += 1
        if self.given - 1 != self.index:
            return Future()  # pending until this thread cancels it
        started = threading.Event()
        future = self.worker.submit(lambda: started.set() or task())
        assert started.wait(timeout=10)
        return future


@pytest.mark.parametrize("on_helper", [0, 1])
def test_share_joins_started_tasks_and_raises_the_first_failing_task_in_task_order(on_helper):
    # tasks 0 and 1 meet at a barrier, one on each thread, and task 0 ends
    # late: whether it fails too or task 1 fails alone, the share joins it
    # and raises the first failure in task order, and task 2 never starts
    finished, never = [], []

    def meeting(barrier, fails, late):
        def task():
            barrier.wait(timeout=10)
            if late:
                time.sleep(0.05)
                finished.append(threading.current_thread())
            if fails:
                raise RuntimeError(f"task {int(not late)} failed")
        return task

    with ThreadPoolExecutor(max_workers=1) as worker:
        for first_fails in (True, False):
            barrier = threading.Barrier(2)
            tasks = [meeting(barrier, fails=first_fails, late=True),
                     meeting(barrier, fails=True, late=False), lambda: never.append(1)]
            with pytest.raises(RuntimeError, match=f"task {int(not first_fails)} failed"):
                _share(_Placing(worker, on_helper), tasks)
            assert len(finished) == 1  # the late task 0 was joined before raising
            assert (finished.pop() is threading.main_thread()) is (on_helper == 1)
            assert never == []  # nothing starts here after an error
        barrier = threading.Barrier(2)
        tasks = [meeting(barrier, fails=False, late=True), meeting(barrier, fails=False, late=False),
                 lambda: threading.current_thread()]
        assert _share(_Placing(worker, on_helper), tasks)[2] is threading.main_thread()


def test_helper_for_gives_no_helper_below_the_threshold_under_tracemalloc_or_on_the_helper(
        monkeypatch, set_helper_min_params):
    set_helper_min_params(1000)
    helper = tensor.helper_for(1000)
    assert helper is tensor._helper() and tensor.helper_for(10**9) is helper
    assert tensor.helper_for(999) is None
    assert helper.submit(tensor.helper_for, 1000).result(timeout=60) is None
    monkeypatch.setitem(sys.modules, "tracemalloc", tracemalloc)
    assert tensor.helper_for(1000) is None


def test_a_dense_rule_needing_both_products_of_a_wide_weight_shares_them_and_changes_no_bit(
        monkeypatch, set_helper_min_params):
    # a digit-width generator: only the last layer needs both products, and
    # its weight is wide enough for the helper, which computes one of them
    threads, calls, shared = [], [], tensor._share

    def recording(helper, tasks):
        started = threading.Event()

        def on(task, first):
            def run():
                if first:
                    assert started.wait(timeout=10)  # the helper took the other one
                started.set()
                threads.append(threading.current_thread())
                return task()
            return run

        calls.append(len(tasks))
        return shared(helper, [on(task, i == 0) for i, task in enumerate(tasks)])

    monkeypatch.setattr(tensor, "_share", recording)
    net = MLP((26, 256, 784), ("relu", "sigmoid"), rng=np.random.default_rng(7))
    assert net.layers[0].weights.data.size < tensor.HELPER_MIN_PARAMS
    x = Tensor(np.random.default_rng(8).normal(size=(64, 26)))
    weights = np.random.default_rng(9).normal(size=(64, 784))
    grads = []
    for helper_min_params in (float("inf"), tensor.HELPER_MIN_PARAMS):
        set_helper_min_params(helper_min_params)
        with Tape(wrt=net.params()) as tape:
            loss = weighted_sum(net(x), weights)
        tape.backward(loss)
        grads.append(net.grad_buffer.tobytes())
        for p in net.params():
            assert p.grad is p.grad_view
            p.grad = None
    assert grads[1] == grads[0]
    assert calls == [2]
    assert len(set(threads)) == 2


@pytest.mark.parametrize("kind", ACTIVATIONS)
def test_dense_gradients(kind):
    rng = np.random.default_rng(24)
    alpha = 0.2 if kind == "leaky_relu" else None
    for _ in range(10):
        x0 = rng.normal(size=(5, 3))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        upstream = rng.normal(size=(5, 4))

        def loss(x):
            return weighted_sum(dense(x, w, b, kind, alpha), upstream)

        check_input_gradient(loss, x0)
        for param in (w, b):
            w.grad = b.grad = None
            check_param_gradient(lambda: loss(Tensor(x0)), param)


def test_parameter_gradcheck_perturbs_the_buffer_view_and_restores_its_bytes():
    rng = np.random.default_rng(25)
    net = MLP((3, 4, 2), ("tanh", "linear"), rng=rng)
    w = net.layers[0].weights
    x = Tensor(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 2, size=5)
    before = net.param_buffer.tobytes()

    def loss():
        assert np.shares_memory(w.data, net.param_buffer)  # never rebound
        return cce_loss(net(x), labels)

    check_param_gradient(loss, w)
    assert np.shares_memory(w.data, net.param_buffer)
    assert net.param_buffer.tobytes() == before


def test_sigmoid_finite_on_extreme_inputs():
    y = dense(Tensor([[-1000.0, 1000.0]]), *_identity(2), "sigmoid").data
    assert np.isfinite(y).all()
    assert y[0, 0] == 0.0 and y[0, 1] == 1.0


def test_bce_values():
    # sigmoid(0) = 1/2, and sigmoid(log(1e12 - 1)) = 1 - 1e-12
    assert bce_loss(Tensor([[0.0]]), 1.0).item() == pytest.approx(np.log(2.0), rel=1e-12)
    assert bce_loss(Tensor([[np.log(1e12 - 1)]]), 1.0).item() == pytest.approx(0.0, abs=1e-9)


def test_bce_target_validation():
    for target in (1.5, 0.5, np.array([1.0])):  # targets are 0 or 1, as a number
        with pytest.raises(ValueError, match="0.0 or 1.0"):
            bce_loss(Tensor([[0.0]]), target)


@pytest.mark.parametrize("target", [float("nan"), np.array([[0.5], [np.nan]]), -0.1])
def test_bce_rejects_a_nan_or_out_of_range_target(target):
    with pytest.raises(ValueError, match="0.0 or 1.0"):
        bce_loss(Tensor([[0.0], [0.0]]), target)


def test_bce_gradient_at_half_with_target_one():
    # d/dz of softplus(-z) at z = 0 (p = 1/2) is -sigmoid(0) = -1/2, divided by element count
    z = Tensor(np.zeros((4, 1)))
    with Tape(wrt=[z]) as tape:
        loss = bce_loss(z, 1.0)
    tape.backward(loss)
    assert np.allclose(z.grad, -0.5 / 4.0, atol=1e-15)


def test_bce_gradient_is_alive_at_saturated_logits():
    # sigmoid(-40) ~ 4e-18 lies below any probability clamp: the loss still
    # reads 40 and its gradient is the full (sigmoid(z) - t) / n = -+1/n
    for target, logit in ((1.0, -40.0), (0.0, 40.0)):
        z = Tensor(np.full((4, 1), logit))
        with Tape(wrt=[z]) as tape:
            loss = bce_loss(z, target)
        tape.backward(loss)
        assert loss.item() == 40.0
        assert np.array_equal(z.grad, np.full((4, 1), (1.0 - 2.0 * target) / 4.0))


def test_bce_at_an_infinite_logit_is_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bce_loss(Tensor([[np.inf]]), 0.0).item() == np.inf
        assert bce_loss(Tensor([[np.inf]]), 1.0).item() == 0.0
        assert bce_loss(Tensor([[-np.inf]]), 0.0).item() == 0.0


def test_cce_at_an_infinite_logit_is_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        logits = Tensor([[np.inf, 0.0], [0.0, np.inf]])
        assert cce_loss(logits, [0, 1]).item() == 0.0
        assert cce_loss(logits, [1, 1]).item() == np.inf
        with Tape(wrt=[logits]) as tape:
            loss = cce_loss(logits, [0, 1])
        tape.backward(loss)
        assert np.array_equal(logits.grad, np.zeros((2, 2)))


def test_cce_uniform_rows():
    logits = Tensor(np.full((3, 10), 3.7))
    loss = cce_loss(logits, np.array([0, 5, 9]))
    assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)


def test_cce_correct_one_hot_is_zero():
    logits = Tensor(100.0 * np.eye(4)[[0, 1, 2]])
    assert cce_loss(logits, np.array([0, 1, 2])).item() == pytest.approx(0.0, abs=1e-9)


def test_cce_matches_direct_summation():
    rng = np.random.default_rng(3)
    logits = rng.uniform(-3.0, 3.0, size=(8, 4))
    labels = rng.integers(0, 4, size=8)
    manual = -np.mean([np.log(np.exp(logits[i, labels[i]]) / np.exp(logits[i]).sum())
                       for i in range(8)])
    assert cce_loss(Tensor(logits), labels).item() == pytest.approx(manual, abs=1e-12)


def test_cce_validation():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        cce_loss(logits, np.array([0, 3]))  # label out of range
    with pytest.raises(ValueError):
        cce_loss(logits, np.array([0]))  # batch mismatch
    with pytest.raises(ValueError):
        cce_loss(logits, np.array([[0], [1]]))  # labels not a vector
    with pytest.raises(ValueError):
        cce_loss(Tensor(np.zeros(3)), np.array([0]))  # rank


def test_cce_rows_need_not_sum_to_one():
    # logits are free: a constant added to a row moves neither the loss nor
    # the gradient, and a NaN logit gives a NaN loss (the training steps
    # report it as divergence) instead of an error
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 3))
    labels = np.array([0, 1])
    moved = logits + np.array([[5.0], [-7.0]])
    assert cce_loss(Tensor(moved), labels).item() == pytest.approx(
        cce_loss(Tensor(logits), labels).item(), rel=1e-12)
    assert np.isnan(cce_loss(Tensor(np.array([[0.5, 0.5], [np.nan, 0.5]])), labels).item())


def test_cce_gradient_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(N_INSTANCES):
        logits = Tensor(rng.uniform(-30.0, 30.0, size=(6, 5)))
        labels = rng.integers(0, 5, size=6)
        with Tape(wrt=[logits]) as tape:
            loss = cce_loss(logits, labels)
        tape.backward(loss)
        expected = special.softmax(logits.data, axis=1)
        expected[np.arange(6), labels] -= 1.0
        assert relative_error(logits.grad, expected / 6) <= 1e-12


def test_cce_gradient_is_alive_for_a_confidently_wrong_classifier():
    # the label's logit 50 below another class: its probability, ~2e-22,
    # lies below any clamp, and its gradient is the full (p - 1) / batch
    logits = Tensor(np.array([[0.0, 50.0], [50.0, 0.0]]))
    with Tape(wrt=[logits]) as tape:
        loss = cce_loss(logits, np.array([0, 1]))
    tape.backward(loss)
    assert loss.item() == 50.0
    assert np.array_equal(logits.grad, np.array([[-0.5, 0.5], [0.5, -0.5]]))


# ---------------------------------------------------------------------------
# finite-difference checks, 50 random instances per op

def _away_from_kinks(x, margin=1e-3):
    x = x.copy()
    x[np.abs(x) < margin] += 2.0 * margin
    return x


def _activation_loss(kind, weights, alpha=None):
    """t -> sum(act(t) * weights), act run through dense with identity weights."""
    w, b = _identity(weights.shape[1])
    return lambda t: weighted_sum(dense(t, w, b, kind, alpha), weights)


def test_add_gradients():
    rng = np.random.default_rng(11)
    for _ in range(N_INSTANCES):
        x0, other = rng.normal(size=2)
        check_input_gradient(lambda t: mul(add(t, Tensor(other)), Tensor(other)), np.array(x0))
        check_input_gradient(lambda t: add(t, 1.5), np.array(x0))


def test_mul_gradients():
    rng = np.random.default_rng(12)
    for _ in range(N_INSTANCES):
        x0, other = rng.normal(size=2)
        check_input_gradient(lambda t: mul(t, Tensor(other)), np.array(x0))
        check_input_gradient(lambda t: mul(t, -0.7), np.array(x0))
        check_input_gradient(lambda t: mul(t, t), np.array(x0))


def test_concat_cols_gradients():
    rng = np.random.default_rng(13)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 2))
        other = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 5))
        check_input_gradient(lambda t: weighted_sum(concat_cols(t, Tensor(other)), w), x0)
        check_input_gradient(lambda t: weighted_sum(concat_cols(Tensor(x0), t), w), other)


def test_relu_gradients():
    rng = np.random.default_rng(15)
    for _ in range(N_INSTANCES):
        x0 = _away_from_kinks(rng.normal(size=(3, 4)))
        check_input_gradient(_activation_loss("relu", rng.normal(size=(3, 4))), x0)


def test_leaky_relu_gradients():
    rng = np.random.default_rng(16)
    for _ in range(N_INSTANCES):
        x0 = _away_from_kinks(rng.normal(size=(3, 4)))
        check_input_gradient(_activation_loss("leaky_relu", rng.normal(size=(3, 4)), 0.2), x0)


def test_sigmoid_gradients():
    rng = np.random.default_rng(17)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4)) * 2.0
        check_input_gradient(_activation_loss("sigmoid", rng.normal(size=(3, 4))), x0)


def test_tanh_gradients():
    rng = np.random.default_rng(18)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4)) * 2.0
        check_input_gradient(_activation_loss("tanh", rng.normal(size=(3, 4))), x0)


def test_bce_gradients():
    rng = np.random.default_rng(20)
    for _ in range(N_INSTANCES):
        z0 = rng.uniform(-30.0, 30.0, size=(4, 2))
        target = float(rng.integers(0, 2))
        check_input_gradient(lambda t: bce_loss(t, target), z0)


def test_bce_through_sigmoid_gradients():
    # the sigmoid lives inside the loss: the gradient is (sigmoid(z) - t) / n
    rng = np.random.default_rng(21)
    for _ in range(N_INSTANCES):
        z = Tensor(rng.uniform(-30.0, 30.0, size=(4, 1)))
        target = float(rng.integers(0, 2))
        with Tape(wrt=[z]) as tape:
            loss = bce_loss(z, target)
        tape.backward(loss)
        assert relative_error(z.grad, (special.expit(z.data) - target) / 4) <= 1e-12


def test_cce_through_softmax_gradients():
    # the softmax lives inside the loss; logits spread far into saturation
    rng = np.random.default_rng(22)
    for _ in range(N_INSTANCES):
        z0 = rng.uniform(-30.0, 30.0, size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        check_input_gradient(lambda t: cce_loss(t, labels), z0)


def test_dense_sigmoid_bce_composite_gradient():
    # a discriminator's head: a linear layer's logit into the loss's sigmoid and BCE
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = rng.normal(size=(3, 1))
        x0 = rng.normal(size=(5, 3))
        check_input_gradient(
            lambda t: bce_loss(dense(t, Tensor(w), Tensor([0.1]), "linear"), 1.0), x0)
