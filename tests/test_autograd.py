import threading

import numpy as np
import pytest
from helpers import (AdamPerArray, backward_retaining, conv1d_window_view, params_of,
                     tape_nodes, with_dtype)
from scipy.special import expit

from vem import autograd as ag
from vem.errors import DataError
from vem.parsing import FEATURE_DIM
from vem.rng import Rng
from vem.tbalign import ALIGNER_HIDDEN, AlignerNet
from vem.training import TrainConfig
from vem.tunet import TUNet


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
    """A vector times a matrix is `linear`'s job; `Var.matmul` takes two
    matrices only, and a stack of them is refused too."""
    for shapes in [((4,), (4, 3)), ((3, 4), (4,)), ((5,), (5,)), ((2, 3, 4), (4, 2)),
                   ((3, 4), (2, 4, 3))]:
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
    check(lambda a: (a.softmax() * np.arange(4.0)).sum(), (3, 4))
    check(lambda a: (a.layer_norm(np.ones(5), np.zeros(5)) * np.arange(5.0)).sum(), (2, 5),
          tol=1e-5)


def test_linear_gradcheck_2d_and_1d():
    """The (N, n_in) form is the only one; a vector input is refused."""
    check(lambda x, w, b: square_sum(ag.linear(x, w, b)), (3, 4), (4, 2), (2,))
    rng = Rng(5)
    with pytest.raises(ValueError, match=r"2-D \(N, n_in\) input, got shape \(4,\)"):
        ag.linear(rng.gaussian((4,)), rng.gaussian((4, 2)), rng.gaussian((2,)))


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
    """Each picked element's gradient lands on its source and the rest stay
    zero; an index array, which could pick a row twice, raises TypeError."""
    for idx in [slice(1, 3), 2, (slice(None), 1), (3, slice(0, 2))]:
        v = ag.param(np.zeros((4, 3)))
        picked = v[idx]
        w = np.arange(1.0, picked.data.size + 1).reshape(picked.shape)
        (picked * w).sum().backward()
        want = np.zeros((4, 3))
        want[idx] = w
        np.testing.assert_array_equal(v.grad, want)
    with pytest.raises(TypeError, match="int and slice"):
        ag.param(np.zeros((4, 3)))[np.array([0, 0, 2])]


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
        ag.conv1d(ag.Var(np.ones((8, 3))), ag.Var(np.ones((4, 2, 3))), ag.Var(np.zeros(4)))


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


def _conv_layers(module):
    """Every Conv1d reachable from `module`'s attributes."""
    for val in vars(module).values():
        for item in val if isinstance(val, (list, tuple)) else (val,):
            if isinstance(item, ag.Conv1d):
                yield item
            elif isinstance(item, ag.Module):
                yield from _conv_layers(item)


def _model_conv_configs():
    """(cin, cout, k, stride, padding) of each Conv1d of a default TUNet with
    adapters and of an AlignerNet."""
    unet = TUNet(8, TrainConfig().widths)
    unet.attach_adapters()
    convs = list(_conv_layers(unet)) + list(_conv_layers(AlignerNet(FEATURE_DIM)))
    return sorted({(c.w.shape[1], c.w.shape[0], c.w.shape[2], c.stride, c.padding)
                   for c in convs})


def _conv_outputs(conv, x, w, b, g, stride, padding):
    """Output and x, w, b gradients of sum(conv(x, w, b) * g)."""
    xv, wv, bv = ag.param(x), ag.param(w), ag.param(b)
    out = conv(xv, wv, bv, stride=stride, padding=padding)
    (out * ag.Var(g)).sum().backward()
    return out.data, xv.grad, wv.grad, bv.grad


def _assert_conv_matches_window_view(length, cin, cout, k, stride, padding, seed=5):
    rng = Rng(seed)
    x = rng.gaussian((length, cin)).astype(np.float32)
    w = rng.gaussian((cout, cin, k)).astype(np.float32)
    b = rng.gaussian((cout,)).astype(np.float32)
    g = rng.gaussian(((length + 2 * padding - k) // stride + 1, cout)).astype(np.float32)
    got = _conv_outputs(ag.conv1d, x, w, b, g, stride, padding)
    want = _conv_outputs(conv1d_window_view, x, w, b, g, stride, padding)
    for name, a, e in zip(("out", "x.grad", "w.grad", "b.grad"), got, want):
        assert a.dtype == e.dtype == np.float32, name
        assert a.shape == e.shape and a.tobytes() == e.tobytes(), name


@pytest.mark.parametrize("cin,cout,k,stride,padding", _model_conv_configs())
def test_conv1d_byte_equal_to_window_view_for_model_layers(cin, cout, k, stride, padding):
    for length in (188, 47):
        _assert_conv_matches_window_view(length, cin, cout, k, stride, padding)


# the padding reaches past the input: some taps read no row of x at all
@pytest.mark.parametrize("length,k,stride,padding",
                         [(n, 5, 1, 2) for n in (1, 2, 3, 4)]
                         + [(n, k, 2, k // 2) for n in (1, 2) for k in (3, 5)])
def test_conv1d_byte_equal_to_window_view_at_edge_lengths(length, k, stride, padding):
    _assert_conv_matches_window_view(length, 3, 4, k, stride, padding)


def test_conv1d_rejects_input_shorter_than_kernel():
    with pytest.raises(ValueError, match="shorter than the kernel"):
        ag.conv1d(ag.Var(np.ones((2, 3))), ag.Var(np.ones((4, 3, 5))), ag.Var(np.zeros(4)))


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


# -- backward consumes the tape -------------------------------------------


def _mixed_loss(seed):
    """A scalar over every kind of node: an aligner's BCE (conv1d, silu,
    reshape) plus linear, layer norm, softmax, matmul, a slice,
    concat, repeat2, transpose and tanh, with one activation feeding
    several nodes. Returns (loss, leaves)."""
    r = Rng(seed)
    net = AlignerNet(4, rng=r.fork(1))
    feats, labels = r.gaussian((4, 12)), (r.uniform(12) > 0.5).astype(np.float64)
    with_dtype(net, np.float64)
    h, logits = net(feats)
    n = ALIGNER_HIDDEN
    w, b = ag.param(r.gaussian((n, n))), ag.param(r.gaussian(n))
    g, beta = ag.param(r.gaussian(n)), ag.param(r.gaussian(n))
    y = ag.linear(h, w, b).layer_norm(g, beta)
    att = (y.matmul(h.transpose())).softmax().matmul(h)
    mix = ag.concat([att, y[1:3]], axis=0).repeat2().tanh()
    loss = ag.bce_with_logits(logits, labels).mean() + (mix * mix).mean() + h.sum() * 0.01
    return loss, params_of(net) + [w, b, g, beta]


def test_backward_frees_interior_closures_and_grads():
    loss, leaves = _mixed_loss(1)
    loss.backward()
    interior = tape_nodes(loss)
    assert len(interior) > 20
    assert all(n._backward is None and n.grad is None for n in interior)
    assert all(p.grad is not None for p in leaves)


def test_consumed_backward_leaf_grads_match_retaining_backward():
    """Dropping each closure as soon as it has run changes no gradient bit."""
    loss, leaves = _mixed_loss(2)
    loss.backward()
    ref_loss, ref_leaves = _mixed_loss(2)
    backward_retaining(ref_loss)
    for p, q in zip(leaves, ref_leaves):
        np.testing.assert_array_equal(p.grad, q.grad)


def test_graph_stays_walkable_after_backward():
    """The benchmark tracer walks `_prev` and sums `data` bytes after
    backward() returns: both survive."""
    loss, _ = _mixed_loss(3)
    before = tape_nodes(loss)
    loss.backward()
    after = tape_nodes(loss)
    assert len(after) == len(before) > 20
    assert sum(n.data.nbytes for n in after) == sum(n.data.nbytes for n in before)


def test_second_backward_through_a_consumed_graph_raises():
    loss, leaves = _mixed_loss(4)
    loss.backward()
    first = [p.grad.copy() for p in leaves]
    with pytest.raises(ValueError, match="consumed"):
        loss.backward()
    v = ag.param(np.array([2.0, -1.0]))
    h = v * v
    h.sum().backward()
    with pytest.raises(ValueError, match="consumed"):
        (h * 3.0).sum().backward()   # a new root over a consumed node
    for p, g in zip(leaves, first):  # the refused call changed nothing
        np.testing.assert_array_equal(p.grad, g)


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
    check(lambda a: square_sum(a[1:3]) + square_sum(a[(slice(None), 2)]), (4, 3))
    with pytest.raises(TypeError):
        ag.param(np.ones((4, 3)))[[0, 0, 2]]


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
    assert all(p.data.dtype == np.float32 for p in params_of(net))


def test_zero_init_layers():
    lin = ag.Linear(3, 4, None)
    conv = ag.Conv1d(2, 2, 1, None)
    assert not lin.w.data.any() and not conv.w.data.any()


def test_adam_minimizes_quadratic():
    v = ag.param(np.array([5.0, -3.0]))
    opt = ag.Adam({"v": v}, lr=0.1)
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
    opt = ag.Adam({"v": v})
    v.grad = np.full(3, 0.5, dtype=dtype)
    opt.step()
    assert v.data.dtype == dtype
    assert all(a.dtype == dtype for a in opt._m + opt._v)


def test_adam_float32_matches_float64_reference():
    rng = Rng(3)
    p0 = rng.gaussian((4, 5)).astype(np.float32)
    grads = [rng.gaussian((4, 5)).astype(np.float32) for _ in range(50)]
    v = ag.param(p0.copy())
    opt = ag.Adam({"v": v}, lr=1e-2)
    for g in grads:
        v.grad = g.copy()
        opt.step()
    assert v.data.dtype == np.float32
    np.testing.assert_allclose(v.data, _adam_reference(p0, grads, lr=1e-2), rtol=1e-5)


# float64 with a steady drift: the parameters move far enough that an eps~
# off by k (eps in place of eps / k) misses by ~2e-4; float32 with zero-mean
# gradients: the pre-scaled moments keep float32 within the same rtol
@pytest.mark.parametrize("dtype,drift", [(np.float32, 0.0), (np.float64, 0.5)],
                         ids=["float32", "float64-drift"])
def test_adam_long_run_matches_float64_reference_across_gradient_scales(dtype, drift):
    """3,000 steps, rows of gradients scaled 1e-4 .. 1e2: eps~ = eps / k moves
    about 30x over the run, and on the 1e-4 row it is not negligible."""
    rng = Rng(0)
    scales = (10.0 ** np.linspace(-4, 2, 7))[:, None]
    p0 = (1.0 + 2 * drift + 0.1 * rng.gaussian((7, 6))).astype(dtype)
    grads = [((rng.gaussian((7, 6)) + drift) * scales).astype(dtype) for _ in range(3000)]
    v = ag.param(p0.copy())
    opt = ag.Adam({"v": v}, lr=1e-3)
    for g in grads:
        v.grad = g.copy()
        opt.step()
    assert v.data.dtype == dtype
    np.testing.assert_allclose(v.data, _adam_reference(p0, grads, lr=1e-3), rtol=1e-5)


def _quadratic_loss(v):
    return lambda step: square_sum(v - np.array([1.0, 2.0], dtype=np.float32)) * (1.0 + step)


def test_minimize_matches_the_hand_written_loop():
    a, b = (ag.param(np.array([5.0, -3.0], dtype=np.float32)) for _ in range(2))
    opt = ag.Adam({"a": a}, lr=0.1)
    losses = []
    for step in range(20):
        opt.zero_grad()
        loss = _quadratic_loss(a)(step)
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    assert ag.Adam({"b": b}, lr=0.1).minimize(_quadratic_loss(b), 20) == losses
    assert a.data.tobytes() == b.data.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_minimize_refuses_a_non_finite_loss_before_touching_weights(bad):
    """A non-finite loss raises DataError naming its step; the weights and
    moments keep exactly what the last finite step left."""
    v = ag.param(np.array([5.0, -3.0], dtype=np.float32))
    opt = ag.Adam({"v": v}, lr=0.1)
    before = {}

    def loss_of(step):
        if step < 3:
            return _quadratic_loss(v)(step)
        before.update(p=v.data.tobytes(), m=opt._m[0].tobytes(), v=opt._v[0].tobytes(), t=opt.t)
        return square_sum(v) * bad

    with pytest.raises(DataError, match=f"step 3: loss is {bad}"):
        opt.minimize(loss_of, 6)
    assert before["t"] == opt.t == 3
    assert (v.data.tobytes(), opt._m[0].tobytes(), opt._v[0].tobytes()) == \
        (before["p"], before["m"], before["v"])
    assert v.grad is None


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_minimize_refuses_a_non_finite_gradient_before_touching_weights(bad):
    """A finite loss whose backward yields a non-finite gradient raises
    DataError naming the step and the parameter; the weights, moments and
    `t` keep exactly what the last good step left."""
    u = ag.param(np.zeros(2, dtype=np.float32))
    v = ag.param(np.array([5.0, -3.0], dtype=np.float32))
    opt = ag.Adam({"u": u, "v": v}, lr=0.1)
    big = np.float32(3e38)
    before = {}

    def loss_of(step):
        both = (u + v).sum() * 0.0  # every parameter gets a gradient; u stays 0
        if step < 3:
            return _quadratic_loss(v)(step) + both
        before.update(data=[p.data.tobytes() for p in (u, v)], t=opt.t,
                      m=[a.tobytes() for a in opt._m], v=[a.tobytes() for a in opt._v])
        # a zero loss: d/du = 10 * 3e38 overflows to inf, and d/dv = 0 * inf is nan
        return ((u if bad == "inf" else v * 0.0) * big).sum() * 10.0 + both

    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DataError, match=f"step 3: gradient of {'u' if bad == 'inf' else 'v'} "
                                           "is not finite"):
        opt.minimize(loss_of, 6)
    assert before["t"] == opt.t == 3
    assert [p.data.tobytes() for p in (u, v)] == before["data"]
    assert [a.tobytes() for a in opt._m] == before["m"]
    assert [a.tobytes() for a in opt._v] == before["v"]


def test_minimize_steps_on_when_only_the_gradient_square_sum_overflows():
    """Finite gradients whose float32 sum of squares overflows still step."""
    v = ag.param(np.array([5.0, -3.0, 1.0, 2.0], dtype=np.float32))
    opt = ag.Adam({"v": v}, lr=0.1)
    with np.errstate(over="ignore"):
        opt.minimize(lambda step: (v * np.float32(1e19)).sum(), 1)
        assert np.isinf(np.dot(v.grad, v.grad))
    assert opt.t == 1
    np.testing.assert_allclose(v.data, [4.9, -3.1, 0.9, 1.9], rtol=1e-6)


# -- the flat arena against the per-array oracle -------------------------------


def _twin_params(shapes, dtype, seed=0):
    """The same initial parameters twice, named: for `ag.Adam` and for the
    oracle."""
    r = Rng(seed)
    init = {f"p{i}": r.gaussian(s).astype(dtype) for i, s in enumerate(shapes)}
    return ({k: ag.param(a.copy()) for k, a in init.items()},
            {k: ag.param(a.copy()) for k, a in init.items()})


def _assert_same_adam_state(opt, ref):
    """Byte-equal parameters, m~ and v~, and the same step count."""
    assert opt.t == ref.t
    for name, a, b in (("data", [p.data for p in opt._params], [p.data for p in ref._params]),
                       ("m", opt._m, ref._m), ("v", opt._v, ref._v)):
        for x, y in zip(a, b):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


SHAPES = [(3, 4), (5,), (2, 3, 2), (1,)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_arena_matches_the_per_array_oracle_with_hand_set_grads(dtype, monkeypatch):
    """Hand-set gradients (copied into their slots) and chunk edges inside
    parameters (CHUNK = 7 over sizes 12, 5, 12, 1)."""
    monkeypatch.setattr(ag.Adam, "CHUNK", 7)
    ps, qs = _twin_params(SHAPES, dtype)
    opt, ref = ag.Adam(ps, lr=0.05), AdamPerArray(qs, lr=0.05)
    r = Rng(1)
    for _ in range(6):
        for p, q in zip(ps.values(), qs.values()):
            g = r.gaussian(p.shape).astype(dtype)
            p.grad, q.grad = g.copy(), g.copy()
        opt.step()
        ref.step()
        _assert_same_adam_state(opt, ref)


def _adam_state(opt):
    return ([p.data.tobytes() for p in opt._params], [a.tobytes() for a in opt._m],
            [a.tobytes() for a in opt._v], opt.t)


def test_a_step_with_a_missing_gradient_raises_and_moves_nothing():
    """One `.grad` None: ValueError naming that parameter, and the data,
    m~, v~ and `t` stay byte-equal to what the last step left."""
    ps, _ = _twin_params(SHAPES, np.float32)
    opt = ag.Adam(ps, lr=0.05)
    r = Rng(1)
    for p in ps.values():
        p.grad = r.gaussian(p.shape).astype(np.float32)
    opt.step()
    before = _adam_state(opt)
    for p in ps.values():
        p.grad = r.gaussian(p.shape).astype(np.float32)
    ps["p2"].grad = None
    with pytest.raises(ValueError, match="p2 has no gradient"):
        opt.step()
    assert _adam_state(opt) == before


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_direct_step_with_a_non_finite_gradient_raises_and_moves_nothing(bad):
    """A hand-set `.grad` with one non-finite entry, stepped without
    `minimize`: DataError naming the step and the parameter, and the data,
    m~, v~ and `t` stay byte-equal to what the last step left."""
    ps, _ = _twin_params(SHAPES, np.float32)
    opt = ag.Adam(ps, lr=0.05)
    r = Rng(1)
    for _ in range(2):
        for p in ps.values():
            p.grad = r.gaussian(p.shape).astype(np.float32)
        opt.step()
    before = _adam_state(opt)
    for p in ps.values():
        p.grad = r.gaussian(p.shape).astype(np.float32)
    ps["p2"].grad[1, 2, 0] = bad
    with pytest.raises(DataError, match="step 2: gradient of p2 is not finite"):
        opt.step()
    assert _adam_state(opt) == before


def test_adam_refuses_mixed_dtypes():
    ps = {"a": ag.param(np.ones(2, dtype=np.float32)), "b": ag.param(np.ones(2))}
    with pytest.raises(ValueError, match="one dtype"):
        ag.Adam(ps)
    with pytest.raises(ValueError, match="one dtype"):
        ag.Adam({"i": ag.param(np.arange(3))})


def test_arena_rejects_a_parameter_listed_twice():
    a, b = ag.param(np.ones(2, dtype=np.float32)), ag.param(np.ones(3, dtype=np.float32))
    with pytest.raises(ValueError, match="twice"):
        ag.Adam({"a": a, "b": b, "a2": a})


def test_arena_steps_weights_loaded_after_it_was_built():
    """`load_state_dict` writes into the arena views, so the optimizer built
    before the load steps the loaded weights, as the oracle does."""
    net, ref_net = TwoLayer(Rng(5)), TwoLayer(Rng(5))
    opt = ag.Adam(dict(net.named_params()), lr=0.01)
    ref = AdamPerArray(dict(ref_net.named_params()), lr=0.01)
    state = TwoLayer(Rng(9)).state_dict()
    net.load_state_dict(state)
    ref_net.load_state_dict(state)
    assert all(np.shares_memory(p.data, opt._arena[0]) for p in params_of(net))
    x = Rng(1).gaussian((3, 4)).astype(np.float32)
    for o, n in ((opt, net), (ref, ref_net)):
        o.minimize(lambda step, n=n: square_sum(n(ag.Var(x))), 5)
    _assert_same_adam_state(opt, ref)
    assert net.state_dict().keys() == state.keys()
    assert all(not np.array_equal(net.state_dict()[k], state[k]) for k in state)


def test_a_new_adam_releases_the_old_arena_and_takes_the_data_over():
    """The second optimizer frees the first one's gradient slots (and the
    `.grad` that was a slot) before allocating, then holds every parameter
    in its own arena; the first one, stepped again, raises ValueError and
    moves nothing."""
    net = TwoLayer(Rng(5))
    x = Rng(1).gaussian((3, 4)).astype(np.float32)
    first = ag.Adam(dict(net.named_params()), lr=0.01)
    first.minimize(lambda step: square_sum(net(ag.Var(x))), 2)
    assert all(p.grad is p._gslot for p in params_of(net))
    values = [p.data.copy() for p in params_of(net)]
    second = ag.Adam(dict(net.named_params()), lr=0.01)
    for p, val in zip(params_of(net), values):
        assert p.grad is None
        assert np.shares_memory(p.data, second._arena[0])
        assert np.shares_memory(p._gslot, second._arena[1])
        np.testing.assert_array_equal(p.data, val)
    second.minimize(lambda step: square_sum(net(ag.Var(x))), 1)
    moved = [p.data.tobytes() for p in params_of(net)]
    before = _adam_state(first)
    with pytest.raises(ValueError, match="fc1.w is no longer held in this optimizer's arena"):
        first.step()
    assert [p.data.tobytes() for p in params_of(net)] == moved
    assert _adam_state(first) == before


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
