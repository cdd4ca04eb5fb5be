import threading

import numpy as np
import pytest
from scipy.special import expit

from vem import autograd as ag
from vem.rng import Rng


def numeric_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check(build, *shapes, seed=0, tol=1e-6):
    """build(*Vars) -> Var; asserts analytic grads match numeric ones."""
    rng = Rng(seed)
    arrays = [rng.gaussian(s).astype(np.float64) for s in shapes]
    vs = [ag.param(a.copy()) for a in arrays]
    build(*vs).backward()
    for k, (a, v) in enumerate(zip(arrays, vs)):
        def scalar(x, k=k):
            args = [ag.Var(arr) for arr in arrays]
            args[k] = ag.Var(x)
            return float(build(*args).data)
        num = numeric_grad(scalar, a.copy())
        denom = max(np.abs(num).max(), np.abs(v.grad).max(), 1e-8)
        rel = np.abs(v.grad - num).max() / denom
        assert rel < tol, f"operand {k}: rel err {rel:.2e}"


def square_sum(y):
    return (y * y).sum()


def test_add_broadcast():
    check(lambda a, b: square_sum(a + b), (3, 4), (4,))


def test_mul_and_pow():
    check(lambda a, b: (a * b).sum() + (a * a * a).mean(), (2, 5), (2, 5))


def test_sub_div_scalars():
    check(lambda a: ((a - 2.0) * (1.0 / 3.0) + (-a + 1.0)).sum(), (4,))


def test_matmul_2d():
    check(lambda a, b: (a @ b).sum(), (3, 4), (4, 2))


def test_matmul_rejects_1d_operands():
    """A vector times a matrix is `linear`'s job; `Var.matmul` takes stacks of
    matrices only, broadcasting the stack axes."""
    check(lambda a, b: (a @ b).sum(), (2, 3, 4), (4, 2))
    for shapes in [((4,), (4, 3)), ((3, 4), (4,)), ((5,), (5,))]:
        with pytest.raises(ValueError):
            ag.param(np.ones(shapes[0])) @ ag.param(np.ones(shapes[1]))


def test_shape_ops():
    check(lambda a: a.reshape(6, 2).transpose()[1:, :3].sum(), (3, 4))
    check(lambda a: square_sum(a.repeat2()), (2, 3))


def test_reductions():
    check(lambda a: a.sum() * a.mean(), (3, 4))


def test_pointwise():
    check(lambda a: (a.tanh() + a.silu()).sum(), (2, 6))


def test_softmax_layernorm():
    check(lambda a: (a.softmax(axis=-1) * np.arange(4.0)).sum(), (3, 4))
    check(lambda a: (a.layer_norm(np.ones(5), np.zeros(5)) * np.arange(5.0)).sum(), (2, 5),
          tol=1e-5)


def test_linear_gradcheck_2d_and_1d():
    check(lambda x, w, b: square_sum(ag.linear(x, w, b)), (3, 4), (4, 2), (2,))
    check(lambda x, w, b: square_sum(ag.linear(x, w, b)), (4,), (4, 2), (2,))


def test_linear_is_one_node_matching_matmul_plus_bias():
    rng = Rng(6)
    x, w, b = (ag.param(rng.gaussian(s)) for s in [(5, 3), (3, 4), (4,)])
    out = ag.linear(x, w, b)
    assert out._prev == (x, w, b)
    np.testing.assert_allclose(out.data, x.data @ w.data + b.data, rtol=1e-14)


def test_layer_norm_affine_gradcheck():
    check(lambda x, g, b: square_sum(x.layer_norm(g, b) * np.arange(1.0, 6.0)),
          (3, 5), (5,), (5,), tol=1e-5)


def test_silu_float32_matches_expit_reference():
    x = np.linspace(-30.0, 30.0, 120001, dtype=np.float32)
    v = ag.param(x.copy())
    out = v.silu()
    out.sum().backward()
    s = expit(x.astype(np.float64))
    assert out.data.dtype == np.float32 and v.grad.dtype == np.float32
    np.testing.assert_allclose(out.data, x * s, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(v.grad, s + x * s * (1.0 - s), rtol=1e-6, atol=1e-6)


def test_getitem_backward_slice_int_and_repeated_fancy_index():
    """Each picked element's gradient lands on its source; a row picked twice
    gets the sum of both."""
    for idx in [slice(1, 3), 2, (slice(None), 1), (3, slice(0, 2)), np.array([0, 0, 2])]:
        v = ag.param(np.zeros((4, 3)))
        picked = v[idx]
        w = np.arange(1.0, picked.data.size + 1).reshape(picked.shape)
        (picked * w).sum().backward()
        want = np.zeros((4, 3))
        np.add.at(want, idx, w)
        np.testing.assert_array_equal(v.grad, want)
    np.testing.assert_array_equal(want[0], [5.0, 7.0, 9.0])  # rows 0 and 1 of w


def test_shared_gradient_fans_out_through_fused_ops():
    """`+` hands one gradient array to both operands; silu and layer_norm
    read it side by side, in both orders, and must not write into it. All
    of them feed the same linear."""
    def build(x, w, b, gain, bias):
        h = ag.linear(x, w, b)
        p = h.silu() + h.layer_norm(gain, bias)
        q = h.layer_norm(gain, bias) + h.silu()
        return ((p + q * 0.5) * np.arange(12.0).reshape(3, 4)).sum()
    check(build, (3, 4), (4, 4), (4,), (4,), (4,), tol=1e-5)
    h = ag.param(Rng(2).gaussian((3, 4)).astype(np.float64))
    a, c = h.silu(), h.layer_norm(np.ones(4), np.zeros(4))
    (a + c).sum().backward()
    assert a.grad is c.grad


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ValueError, match="channel"):
        ag.conv1d(ag.Var(np.ones((8, 3))), ag.Var(np.ones((4, 2, 3))))


def test_concat():
    check(lambda a, b: square_sum(ag.concat([a, b], axis=1)), (2, 3), (2, 2))


def test_conv1d_padding_stride():
    check(lambda x, w, b: square_sum(ag.conv1d(x, w, b, stride=2, padding=1)),
          (8, 3), (4, 3, 3), (4,), tol=1e-5)


# strides above, equal to and below the kernel width, for the col2im backward
@pytest.mark.parametrize("k,stride,padding",
                         [(3, 2, 1), (1, 1, 0), (1, 2, 0), (5, 1, 2), (5, 3, 0)])
def test_conv1d_matches_direct_loop(k, stride, padding):
    rng = Rng(4)
    x = rng.gaussian((9, 3)).astype(np.float64)
    w = rng.gaussian((4, 3, k)).astype(np.float64)
    b = rng.gaussian((4,)).astype(np.float64)
    xv = ag.param(x.copy())
    out = ag.conv1d(xv, ag.Var(w), ag.Var(b), stride=stride, padding=padding)
    xp = np.pad(x, ((padding, padding), (0, 0)))
    ref = np.zeros(((len(xp) - k) // stride + 1, 4))
    for t in range(ref.shape[0]):
        for o in range(4):
            ref[t, o] = b[o] + (xp[t * stride:t * stride + k].T * w[o]).sum()
    assert out.data.dtype == np.float64
    np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
    # input gradient of sum(out * g): scatter each output row back over its window
    g = rng.gaussian(ref.shape).astype(np.float64)
    (out * ag.Var(g)).sum().backward()
    gref = np.zeros_like(xp)
    for t in range(ref.shape[0]):
        for j in range(k):
            gref[t * stride + j] += w[:, :, j].T @ g[t]
    np.testing.assert_allclose(xv.grad, gref[padding:padding + len(x)], rtol=1e-12, atol=1e-12)


def test_repeat2_duplicates_rows_in_order():
    out = ag.Var(np.arange(6.0).reshape(3, 2)).repeat2().data
    np.testing.assert_array_equal(out, [[0, 1], [0, 1], [2, 3], [2, 3], [4, 5], [4, 5]])


def test_bce_with_logits_matches_formula():
    logits = np.array([-3.0, -0.5, 0.0, 2.0, 30.0])
    t = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    out = ag.bce_with_logits(ag.Var(logits), t).data
    p = 1.0 / (1.0 + np.exp(-logits))
    ref = -(t * np.log(p) + (1 - t) * np.log1p(-p))
    np.testing.assert_allclose(out, ref, atol=1e-9)
    check(lambda x: ag.bce_with_logits(x, t).mean(), (5,))


def test_bce_extreme_logits_finite():
    out = ag.bce_with_logits(ag.Var(np.array([1e4, -1e4])), np.array([0.0, 1.0]))
    assert np.isfinite(out.data).all()
    assert out.data.min() >= 0


def test_backward_needs_scalar():
    v = ag.param(np.ones((2, 2)))
    with pytest.raises(ValueError):
        (v * 2.0).backward()


def test_grad_accumulates_on_reuse():
    v = ag.param(np.array([3.0]))
    (v * v + v).backward()  # d/dv (v^2 + v) = 2v + 1
    np.testing.assert_allclose(v.grad, [7.0])


def test_no_grad_suppresses_tape():
    v = ag.param(np.ones(3))
    with ag.no_grad():
        out = (v * 2.0).sum()
    assert not out.requires_grad
    assert out._backward is None


def test_no_grad_holds_only_in_its_own_thread():
    """One thread holding `no_grad()` open does not stop another thread's ops
    from taping."""
    entered, release = threading.Event(), threading.Event()

    def hold():
        with ag.no_grad():
            entered.set()
            release.wait(10)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(10)
        result = {}
        worker = threading.Thread(target=lambda: result.update(
            out=(ag.param(np.ones(3)) * 2.0).sum(), leaf=ag.param(np.ones(2))))
        worker.start()
        worker.join(10)
        assert not worker.is_alive()
    finally:
        release.set()
        holder.join(10)
    assert not holder.is_alive()
    assert result["out"].requires_grad and result["out"]._prev
    assert result["leaf"].requires_grad


def test_getitem_scatter():
    check(lambda a: square_sum(a[np.array([0, 0, 2])]), (4, 3))


class TwoLayer(ag.Module):
    def __init__(self, rng):
        self.fc1 = ag.Linear(4, 8, rng)
        self.fc2 = ag.Linear(8, 2, rng)

    def __call__(self, x):
        return self.fc2(self.fc1(x).tanh())


def test_module_state_dict_round_trip():
    net = TwoLayer(Rng(5))
    state = net.state_dict()
    other = TwoLayer(Rng(9))
    other.load_state_dict(state)
    x = Rng(1).gaussian((3, 4))
    np.testing.assert_array_equal(net(ag.Var(x)).data, other(ag.Var(x)).data)


def test_load_state_dict_rejects_mismatch():
    net = TwoLayer(Rng(5))
    state = net.state_dict()
    state.pop("fc1.w")
    with pytest.raises(ValueError):
        TwoLayer(Rng(5)).load_state_dict(state)
    bad = net.state_dict()
    bad["fc1.w"] = np.zeros((2, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        TwoLayer(Rng(5)).load_state_dict(bad)


def test_params_are_float32():
    net = TwoLayer(Rng(5))
    assert all(p.data.dtype == np.float32 for p in net.params())


def test_zero_init_layers():
    lin = ag.Linear(3, 4, None)
    conv = ag.Conv1d(2, 2, 1, None)
    assert not lin.w.data.any() and not conv.w.data.any()


def test_adam_minimizes_quadratic():
    v = ag.param(np.array([5.0, -3.0]))
    opt = ag.Adam([v], lr=0.1)
    for _ in range(300):
        opt.zero_grad()
        square_sum(v - np.array([1.0, 2.0])).backward()
        opt.step()
    np.testing.assert_allclose(v.data, [1.0, 2.0], atol=1e-3)


def _adam_reference(p0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam in float64 (Kingma & Ba 2015, algorithm 1)."""
    p = p0.astype(np.float64)
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return p


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_moments_take_param_dtype(dtype):
    v = ag.param(np.ones(3, dtype=dtype))
    opt = ag.Adam([v])
    v.grad = np.full(3, 0.5, dtype=dtype)
    opt.step()
    assert v.data.dtype == dtype
    assert all(a.dtype == dtype for a in opt._m + opt._v)


def test_adam_float32_matches_float64_reference():
    rng = Rng(3)
    p0 = rng.gaussian((4, 5)).astype(np.float32)
    grads = [rng.gaussian((4, 5)).astype(np.float32) for _ in range(50)]
    v = ag.param(p0.copy())
    opt = ag.Adam([v], lr=1e-2)
    for g in grads:
        v.grad = g.copy()
        opt.step()
    assert v.data.dtype == np.float32
    np.testing.assert_allclose(v.data, _adam_reference(p0, grads, lr=1e-2), rtol=1e-5)


def test_adam_skips_param_without_grad():
    a = ag.param(np.ones(2, dtype=np.float32))
    b = ag.param(np.ones(2, dtype=np.float32))
    opt = ag.Adam([a, b], lr=0.1)
    a.grad = b.grad = np.ones(2, dtype=np.float32)
    opt.step()
    b_data, b_m, b_v = b.data.copy(), opt._m[1].copy(), opt._v[1].copy()
    a_data = a.data.copy()
    a.grad, b.grad = np.ones(2, dtype=np.float32), None
    opt.step()
    assert not np.array_equal(a.data, a_data)
    np.testing.assert_array_equal(b.data, b_data)
    np.testing.assert_array_equal(opt._m[1], b_m)
    np.testing.assert_array_equal(opt._v[1], b_v)


SCALAR_OPS = {
    "v*2.0": lambda v: v * 2.0,
    "2.0*v": lambda v: 2.0 * v,
    "v-1": lambda v: v - 1,
    "-v": lambda v: -v,
    "v+2": lambda v: v + 2,
    "v.mean()": lambda v: v.mean(),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(SCALAR_OPS))
def test_python_scalars_keep_var_dtype(op, dtype):
    v = ag.param(np.arange(1.0, 7.0, dtype=dtype).reshape(2, 3))
    out = SCALAR_OPS[op](v)
    assert out.data.dtype == dtype
