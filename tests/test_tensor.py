import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from auxgan.nn import DenseLayer
from auxgan.tensor import (EPS, Tape, Tensor, add, bce_loss, cce_loss,
                           concat_cols, dense, leaky_relu, matmul, mul, relu, sigmoid,
                           softmax_rows, tanh, tmean, tsum)
from gradcheck import check_input_gradient, check_param_gradient, relative_error

N_INSTANCES = 50


def test_matmul_identity():
    a = Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = Tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(matmul(a, b).data, b.data)


def test_matmul_values():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as e:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_add_shape_error():
    with pytest.raises(ValueError):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


def test_mul_shape_error():
    with pytest.raises(ValueError):
        mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    with Tape(wrt=[x]) as tape:
        loss = tsum(x)
    tape.backward(loss)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_diamond_fanout_accumulates_both_branches():
    # loss = sum(x*x + (x + x)); grad must be 2x + 2
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    with Tape(wrt=[x]) as tape:
        loss = tsum(add(mul(x, x), add(x, x)))
    tape.backward(loss)
    assert np.allclose(x.grad, 2.0 * x.data + 2.0, atol=1e-15)


def test_tape_reuse_rejected():
    x = Tensor(np.ones(3))
    with Tape(wrt=[x]) as tape:
        loss = tsum(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError):
        tape.backward(loss)


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones(3))
    with Tape(wrt=[x]) as tape:
        y = mul(x, 2.0)
    with pytest.raises(ValueError):
        tape.backward(y)


def test_tape_wrt_matches_full_backward_on_listed_leaves_only():
    # a generator-step shape: the loss reads both nets, only `first` is listed
    rng = np.random.default_rng(5)
    first = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))]
    second = [Tensor(rng.normal(size=(4, 1))), Tensor(rng.normal(size=1))]
    x = Tensor(rng.normal(size=(6, 3)))

    def loss():
        h = tanh(add(matmul(x, first[0]), first[1]))
        return bce_loss(sigmoid(add(matmul(h, second[0]), second[1])), 1.0)

    with Tape(wrt=first + second) as tape:
        full_loss = loss()
    tape.backward(full_loss)
    full = [p.grad for p in first]
    for p in first + second:
        p.zero_grad()

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
    frozen = Tensor(np.ones((2, 2)))
    with Tape(wrt=[w]) as tape:
        constant = matmul(frozen, frozen)  # no listed leaf below it
        loss = tsum(matmul(constant, w))
    assert len(tape) == 2
    tape.backward(loss)
    assert frozen.grad is None and constant.grad is None
    assert np.array_equal(w.grad, np.full((2, 2), 4.0))


def test_shared_first_gradient_is_not_changed_by_a_later_contribution():
    # add hands one out.grad array to both a and b; a later second
    # contribution to a must leave b's gradient as it was
    a = Tensor(np.ones(3))
    b = Tensor(np.ones(3))
    with Tape(wrt=[a, b]) as tape:
        scaled = mul(a, 3.0)  # replayed last: a's second contribution
        loss = tsum(add(add(a, b), scaled))
    tape.backward(loss)
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(a.grad, np.full(3, 4.0))


def test_activation_values():
    assert sigmoid(Tensor(0.0)).item() == 0.5
    assert leaky_relu(Tensor(-1.0)).item() == pytest.approx(-0.2)
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, 0.25, atol=1e-15)


def test_tensor_wraps_its_array_and_a_parameter_owns_a_copy():
    a = np.arange(6.0).reshape(2, 3)
    assert np.shares_memory(Tensor(a).data, a)
    b = np.zeros(3)
    layer = DenseLayer(2, 3, weights=a, bias=b)
    assert not np.shares_memory(layer.weights.data, a)
    assert not np.shares_memory(layer.bias.data, b)


def test_a_tape_must_name_its_leaves():
    with pytest.raises(TypeError):
        Tape()


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, float("nan"), float("inf"), -float("inf")])
def test_leaky_relu_rejects_a_slope_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError, match=f"got {alpha!r}"):
        leaky_relu(Tensor([1.0, -1.0]), alpha=alpha)


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


def _forward_and_backward(op, data, upstream):
    x = Tensor(data)
    with Tape(wrt=[x]) as tape, np.errstate(over="ignore", invalid="ignore"):
        out = op(x)
        loss = tsum(mul(out, Tensor(upstream)))  # may be inf or NaN; it is not compared
    tape.backward(loss)  # out.grad is `upstream`, bit for bit
    return out.data, x.grad


@settings(max_examples=300, deadline=None)
@given(data=_inputs, seed=st.integers(0, 2**32 - 1),
       alpha=st.one_of(st.sampled_from([0.2, 1.0, 5e-324]),
                       st.floats(0.0, 1.0, exclude_min=True)))
def test_activation_kernels_equal_the_sign_selecting_formulas_bit_for_bit(data, seed, alpha):
    upstream = np.random.default_rng(seed).normal(size=data.shape)

    y, grad = _forward_and_backward(sigmoid, data, upstream)
    ref = _where_sigmoid(data)
    assert y.tobytes() == ref.tobytes()
    assert grad.tobytes() == (upstream * ref * (1.0 - ref)).tobytes()

    y, grad = _forward_and_backward(lambda t: leaky_relu(t, alpha), data, upstream)
    ref, slope = _where_leaky_relu(data, alpha)
    assert y.tobytes() == ref.tobytes()
    assert grad.tobytes() == (upstream * slope).tobytes()


_KINDS = ("relu", "leaky_relu", "sigmoid", "tanh", "softmax", "linear")
_UNFUSED = {"relu": relu, "sigmoid": sigmoid, "tanh": tanh, "softmax": softmax_rows,
            "linear": lambda t: t}
_WRT = [c for r in range(4) for c in itertools.combinations("xwb", r)]


def _dense_run(op, arrays, upstream, wrt):
    """Forward bytes and the x, w, b gradient bytes (None where not written)."""
    leaves = dict(zip("xwb", (Tensor(a) for a in arrays)))
    with Tape(wrt=[leaves[k] for k in wrt]) as tape, np.errstate(all="ignore"):
        out = op(*leaves.values())
        loss = tsum(mul(out, Tensor(upstream)))
        records = len(tape)
        tape.backward(loss)  # out.grad is `upstream`, bit for bit
    grads = [None if t.grad is None else t.grad.tobytes() for t in leaves.values()]
    return records, [out.data.tobytes()] + grads


@settings(max_examples=200, deadline=None)
@given(data=st.data(), kind=st.sampled_from(_KINDS),
       alpha=st.floats(0.0, 1.0, exclude_min=True))
def test_dense_equals_the_unfused_chain_bit_for_bit(data, kind, alpha):
    rows, n_in, n_out = (data.draw(st.integers(1, 4), label=k) for k in ("rows", "in", "out"))
    values = st.one_of(st.sampled_from(_EDGES), st.floats(-1e3, 1e3))
    arrays = [data.draw(hnp.arrays(np.float64, shape, elements=values), label=k)
              for k, shape in (("x", (rows, n_in)), ("w", (n_in, n_out)), ("b", (n_out,)))]
    upstream = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(rows, n_out))
    alpha = alpha if kind == "leaky_relu" else None
    activation = (lambda t: leaky_relu(t, alpha)) if alpha else _UNFUSED[kind]

    def unfused(x, w, b):
        return activation(add(matmul(x, w), b))

    for wrt in _WRT:
        records, fused = _dense_run(lambda x, w, b: dense(x, w, b, kind, alpha),
                                    arrays, upstream, wrt)
        assert records == (0 if wrt == () else 3)  # dense, mul, tsum
        assert fused == _dense_run(unfused, arrays, upstream, wrt)[1]


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
    assert y.tobytes() == sigmoid(add(matmul(x, w), b)).data.tobytes()


def test_standalone_sigmoid_never_writes_its_input():
    a = np.random.default_rng(4).normal(size=(50, 7))
    kept = a.copy()
    sigmoid(Tensor(a))
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("kind", _KINDS)
def test_dense_gradients(kind):
    rng = np.random.default_rng(24)
    alpha = 0.2 if kind == "leaky_relu" else None
    for _ in range(10):
        x0 = rng.normal(size=(5, 3))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        upstream = Tensor(rng.normal(size=(5, 4)))

        def loss(x):
            return tsum(mul(dense(x, w, b, kind, alpha), upstream))

        check_input_gradient(loss, x0)
        for param in (w, b):
            w.zero_grad()
            b.zero_grad()
            check_param_gradient(lambda: loss(Tensor(x0)), param)


def test_softmax_rows_sum_to_one_and_stay_in_unit_interval():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(20, 7)) * 30.0)
    y = softmax_rows(x).data
    assert np.abs(y.sum(axis=1) - 1.0).max() <= 1e-12
    assert (y > 0.0).all() and (y < 1.0).all()


def test_softmax_requires_rank_two():
    with pytest.raises(ValueError):
        softmax_rows(Tensor(np.zeros(4)))


def test_sigmoid_finite_on_extreme_inputs():
    y = sigmoid(Tensor([[-1000.0, 1000.0]])).data
    assert np.isfinite(y).all()
    assert y[0, 0] == 0.0 and y[0, 1] == 1.0


def test_bce_values():
    assert bce_loss(Tensor([[0.5]]), 1.0).item() == pytest.approx(np.log(2.0), rel=1e-12)
    assert bce_loss(Tensor([[1.0 - 1e-12]]), 1.0).item() == pytest.approx(0.0, abs=1e-9)


def test_bce_target_validation():
    with pytest.raises(ValueError):
        bce_loss(Tensor([[0.5]]), 1.5)


@pytest.mark.parametrize("target", [float("nan"), np.array([[0.5], [np.nan]]), -0.1])
def test_bce_rejects_a_nan_or_out_of_range_target(target):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        bce_loss(Tensor([[0.5], [0.5]]), target)


def test_bce_gradient_at_half_with_target_one():
    # d/dp of -log(p) at p=0.5 is -2, divided by element count
    p = Tensor(np.full((4, 1), 0.5))
    with Tape(wrt=[p]) as tape:
        loss = bce_loss(p, 1.0)
    tape.backward(loss)
    assert np.allclose(p.grad, -2.0 / 4.0, atol=1e-15)


def test_bce_gradient_masked_in_clamped_region():
    p = Tensor(np.array([[0.0, 1.0, 0.5]]))
    with Tape(wrt=[p]) as tape:
        loss = bce_loss(p, 1.0)
    tape.backward(loss)
    assert p.grad[0, 0] == 0.0 and p.grad[0, 1] == 0.0
    assert p.grad[0, 2] != 0.0


def test_cce_uniform_rows():
    probs = Tensor(np.full((3, 10), 0.1))
    loss = cce_loss(probs, np.array([0, 5, 9]))
    assert loss.item() == pytest.approx(np.log(10.0), rel=1e-12)


def test_cce_correct_one_hot_is_zero():
    probs = Tensor(np.eye(4)[[0, 1, 2]])
    assert cce_loss(probs, np.array([0, 1, 2])).item() == pytest.approx(0.0, abs=1e-9)


def test_cce_matches_direct_summation():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 1.0, size=(8, 4))
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, size=8)
    manual = -np.mean([np.log(probs[i, labels[i]]) for i in range(8)])
    assert cce_loss(Tensor(probs), labels).item() == pytest.approx(manual, abs=1e-12)


def test_cce_validation():
    probs = Tensor(np.full((2, 3), 1.0 / 3.0))
    with pytest.raises(ValueError):
        cce_loss(probs, np.array([0, 3]))  # label out of range
    with pytest.raises(ValueError):
        cce_loss(probs, np.array([0]))  # batch mismatch
    with pytest.raises(ValueError):
        cce_loss(Tensor(np.full((2, 3), 0.5)), np.array([0, 1]))  # rows sum to 1.5
    with pytest.raises(ValueError):
        cce_loss(Tensor(np.zeros(3)), np.array([0]))  # rank


def test_cce_row_sum_tolerance_is_absolute_1e6():
    labels = np.array([0, 1])
    near = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-7]])
    assert np.isfinite(cce_loss(Tensor(near), labels).item())
    off = np.array([[0.5, 0.5], [0.5, 0.5 + 5e-6]])
    with pytest.raises(ValueError, match="1e-6"):
        cce_loss(Tensor(off), labels)
    with pytest.raises(ValueError):
        cce_loss(Tensor(np.array([[0.5, 0.5], [np.nan, 0.5]])), labels)


def test_cce_gradient_matches_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(N_INSTANCES):
        raw = rng.uniform(0.1, 1.0, size=(6, 5))
        probs = Tensor(raw / raw.sum(axis=1, keepdims=True))
        labels = rng.integers(0, 5, size=6)
        with Tape(wrt=[probs]) as tape:
            loss = cce_loss(probs, labels)
        tape.backward(loss)
        expected = np.zeros((6, 5))
        expected[np.arange(6), labels] = -1.0 / (6 * probs.data[np.arange(6), labels])
        assert relative_error(probs.grad, expected) <= 1e-12


# ---------------------------------------------------------------------------
# finite-difference checks, 50 random instances per op

def _away_from_kinks(x, margin=1e-3):
    x = x.copy()
    x[np.abs(x) < margin] += 2.0 * margin
    return x


def test_matmul_gradients():
    rng = np.random.default_rng(10)
    for _ in range(N_INSTANCES):
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        check_input_gradient(lambda t: tsum(matmul(t, Tensor(b0))), a0)
        check_input_gradient(lambda t: tsum(matmul(Tensor(a0), t)), b0)


def test_add_gradients():
    rng = np.random.default_rng(11)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4))
        other = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        w = rng.normal(size=(4, 1))
        check_input_gradient(lambda t: tsum(mul(add(t, Tensor(other)), Tensor(other))), x0)
        check_input_gradient(lambda t: tsum(matmul(add(Tensor(x0), t), Tensor(w))), bias)
        check_input_gradient(lambda t: tmean(add(t, 1.5)), x0)


def test_mul_gradients():
    rng = np.random.default_rng(12)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4))
        other = rng.normal(size=(3, 4))
        check_input_gradient(lambda t: tsum(mul(t, Tensor(other))), x0)
        check_input_gradient(lambda t: tsum(mul(t, -0.7)), x0)


def test_concat_cols_gradients():
    rng = np.random.default_rng(13)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 2))
        other = rng.normal(size=(3, 3))
        w = rng.normal(size=(5, 1))
        check_input_gradient(
            lambda t: tsum(matmul(concat_cols(t, Tensor(other)), Tensor(w))), x0)
        check_input_gradient(
            lambda t: tsum(matmul(concat_cols(Tensor(x0), t), Tensor(w))), other)


def test_reduction_gradients():
    rng = np.random.default_rng(14)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(4, 3))
        check_input_gradient(lambda t: tsum(mul(t, t)), x0)
        check_input_gradient(lambda t: tmean(mul(t, t)), x0)


def test_relu_gradients():
    rng = np.random.default_rng(15)
    for _ in range(N_INSTANCES):
        x0 = _away_from_kinks(rng.normal(size=(3, 4)))
        check_input_gradient(lambda t: tsum(mul(relu(t), relu(t))), x0)


def test_leaky_relu_gradients():
    rng = np.random.default_rng(16)
    for _ in range(N_INSTANCES):
        x0 = _away_from_kinks(rng.normal(size=(3, 4)))
        check_input_gradient(lambda t: tsum(mul(leaky_relu(t), leaky_relu(t))), x0)


def test_sigmoid_gradients():
    rng = np.random.default_rng(17)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4)) * 2.0
        check_input_gradient(lambda t: tsum(mul(sigmoid(t), sigmoid(t))), x0)


def test_tanh_gradients():
    rng = np.random.default_rng(18)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 4)) * 2.0
        check_input_gradient(lambda t: tsum(mul(tanh(t), tanh(t))), x0)


def test_softmax_gradients():
    rng = np.random.default_rng(19)
    w = rng.normal(size=(5, 1))
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(3, 5)) * 2.0
        check_input_gradient(lambda t: tsum(matmul(softmax_rows(t), Tensor(w))), x0)


def test_bce_gradients():
    rng = np.random.default_rng(20)
    for _ in range(N_INSTANCES):
        p0 = rng.uniform(0.05, 0.95, size=(4, 2))
        target = rng.integers(0, 2, size=(4, 2)).astype(float)
        check_input_gradient(lambda t: bce_loss(t, target), p0)


def test_bce_through_sigmoid_gradients():
    # the composite used by every discriminator step
    rng = np.random.default_rng(21)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(4, 1)) * 2.0
        check_input_gradient(lambda t: bce_loss(sigmoid(t), 1.0), x0)


def test_cce_through_softmax_gradients():
    # perturbing raw probabilities would break the row-sum precondition, so
    # the finite-difference check runs through softmax, as in real use
    rng = np.random.default_rng(22)
    for _ in range(N_INSTANCES):
        x0 = rng.normal(size=(4, 5)) * 2.0
        labels = rng.integers(0, 5, size=4)
        check_input_gradient(lambda t: cce_loss(softmax_rows(t), labels), x0)


def test_dense_sigmoid_bce_composite_gradient():
    rng = np.random.default_rng(23)
    for _ in range(10):
        w = rng.normal(size=(3, 1))
        x0 = rng.normal(size=(5, 3))
        check_input_gradient(
            lambda t: bce_loss(sigmoid(add(matmul(t, Tensor(w)), 0.1)), 1.0), x0)
