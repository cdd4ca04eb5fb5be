"""Reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray and records, for every op, a closure that routes the
output gradient back to the inputs. `backward()` on a scalar replays the tape
in reverse topological order. Gradients accumulate into `.grad` (numpy
arrays, never `Var`s; no higher-order derivatives).

Shapes broadcast like numpy; `_unbroadcast` folds gradient axes back down.
Sequence ops are time-major: `conv1d` and `repeat2` run along axis 0 of an
(L, C) array, and `layer_norm`/`softmax` act on the last axis.
Everything runs in the array's own dtype: training uses float32, gradient
checks run the same graphs in float64. A Python int or float met by an op
takes the dtype of the Var it meets (`v * 0.5` on a float32 `v` stays
float32), so scalars never promote a graph; arrays keep their own dtype.

The layer primitives are fused, one tape node each: `linear` (x @ w + b),
`conv1d` (with its bias), `Var.layer_norm` (with its gain and bias) and
`Var.silu`. A gradient that already has its operand's shape is handed on
as the same array, not copied, so one array may be the `.grad` of several
nodes: no backward closure may write into its incoming `g`, and `_accum`
never adds in place.

`no_grad()` disables taping wholesale; sampling loops run inside it so the
graph never grows. The switch is a context variable, so it holds for the
thread (or asyncio task) that opened it and no other.
"""

import contextlib
import contextvars

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError

_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape`, undoing numpy broadcasting; a gradient
    that already has `shape` comes back as the same array."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _sigmoid(x):
    """1 / (1 + exp(-x)) as (tanh(x/2) + 1) / 2: expit's values within a
    float32 ulp, several times faster on float32."""
    s = np.tanh(x * 0.5)
    s += 1.0
    s *= 0.5
    return s


def as_var(x, like=None):
    """`x` as a Var (a Var passes through); a Python int or float takes the
    dtype of `like`, so a scalar never promotes the graph it joins."""
    if isinstance(x, Var):
        return x
    if like is not None and isinstance(x, (int, float)):
        return Var(np.asarray(x, dtype=like.data.dtype))
    return Var(np.asarray(x))


def _node(data, parents, backward):
    """Output of an op: a Var taped to the parents that need a gradient, or a
    plain constant when none does (or taping is off)."""
    out = Var(data)
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


class Var:
    """Array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")
    __array_priority__ = 100  # keep numpy from hijacking ndarray (op) Var

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled.get()
        self._backward = None
        self._prev = ()

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, grad):
        grad = np.asarray(grad, dtype=self.data.dtype)
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = as_var(other, self)
        def back(g):
            self.requires_grad and self._accum(_unbroadcast(g, self.shape))
            other.requires_grad and other._accum(_unbroadcast(g, other.shape))
        return _node(self.data + other.data, (self, other), back)

    __radd__ = __add__

    def __mul__(self, other):
        other = as_var(other, self)
        def back(g):
            self.requires_grad and self._accum(_unbroadcast(g * other.data, self.shape))
            other.requires_grad and other._accum(_unbroadcast(g * self.data, other.shape))
        return _node(self.data * other.data, (self, other), back)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-as_var(other, self))

    def matmul(self, other):
        other = as_var(other)
        if self.ndim == 1 or other.ndim == 1:
            raise ValueError("Var.matmul needs operands of two or more axes; use linear()")
        a, b = self.data, other.data
        def back(g):
            if self.requires_grad:
                ga = g @ np.swapaxes(b, -1, -2)
                self._accum(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ g
                other._accum(_unbroadcast(gb, other.shape))
        return _node(a @ b, (self, other), back)

    __matmul__ = matmul

    # -- shape ops ---------------------------------------------------------

    def reshape(self, *shape):
        old = self.shape
        def back(g):
            self._accum(g.reshape(old))
        return _node(self.data.reshape(shape), (self,), back)

    def transpose(self):
        """Swap the two axes of a 2-D Var."""
        def back(g):
            self._accum(g.T)
        return _node(self.data.T, (self,), back)

    def __getitem__(self, idx):
        basic = all(isinstance(i, (int, slice)) for i in (idx if isinstance(idx, tuple) else (idx,)))
        def back(g):
            full = np.zeros_like(self.data)
            if basic:  # each element picked at most once
                full[idx] = g
            else:
                np.add.at(full, idx, g)
            self._accum(full)
        return _node(self.data[idx], (self,), back)

    def repeat2(self):
        """Duplicate every row along axis 0 (nearest upsample x2 in time)."""
        def back(g):
            self._accum(g.reshape((-1, 2) + g.shape[1:]).sum(axis=1))
        return _node(np.repeat(self.data, 2, axis=0), (self,), back)

    # -- reductions --------------------------------------------------------

    def sum(self):
        """Sum of every element, a 0-d Var."""
        def back(g):
            self._accum(np.broadcast_to(g, self.shape))
        return _node(self.data.sum(), (self,), back)

    def mean(self):
        """Mean of every element, a 0-d Var."""
        return self.sum() * (1.0 / self.data.size)

    # -- pointwise ---------------------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)
        def back(g):
            self._accum(g * (1.0 - out_data ** 2))
        return _node(out_data, (self,), back)

    def silu(self):
        x = self.data
        s = _sigmoid(x)
        def back(g):
            # d/dx x*s(x) = s * (1 + x * (1 - s)), built in one buffer
            d = 1.0 - s
            d *= x
            d += 1.0
            d *= s
            d *= g
            self._accum(d)
        return _node(x * s, (self,), back)

    def softmax(self, axis=-1):
        m = self.data.max(axis=axis, keepdims=True)
        e = np.exp(self.data - m)
        out_data = e / e.sum(axis=axis, keepdims=True)
        def back(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            self._accum(out_data * (g - dot))
        return _node(out_data, (self,), back)

    def layer_norm(self, gain, bias, eps=1e-5):
        """Zero-mean unit-variance over the last axis, then `* gain + bias`."""
        gain, bias = as_var(gain), as_var(bias)
        n = self.shape[-1]
        xhat = self.data - self.data.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(np.einsum("...i,...i->...", xhat, xhat)[..., None] / n + eps)
        xhat *= inv
        def back(g):
            g2 = g.reshape(-1, n)
            gain.requires_grad and gain._accum(np.einsum("ri,ri->i", g2, xhat.reshape(-1, n)))
            bias.requires_grad and bias._accum(g2.sum(axis=0))
            if self.requires_grad:
                gh = g * gain.data
                gx = np.einsum("...i,...i->...", gh, xhat)[..., None] / n
                gh -= gh.mean(axis=-1, keepdims=True)
                gh -= xhat * gx
                gh *= inv
                self._accum(gh)
        return _node(xhat * gain.data + bias.data, (self, gain, bias), back)

    def __repr__(self):
        return f"Var(shape={self.shape}, grad={'set' if self.grad is not None else 'none'})"


def concat(vars_, axis=0):
    vars_ = [as_var(v) for v in vars_]
    sizes = [v.shape[axis] for v in vars_]
    def back(g):
        offset = 0
        for v, n in zip(vars_, sizes):
            if v.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + n)
                v._accum(g[tuple(sl)])
            offset += n
    return _node(np.concatenate([v.data for v in vars_], axis=axis), vars_, back)


def conv1d(x, w, b=None, stride=1, padding=0):
    """1-D convolution (cross-correlation) over time: x (L, Cin), w (Cout, Cin, K)
    -> (Lout, Cout).

    im2col formulation: the columns are one copy of a strided window view,
    both passes are single matmuls, plus k strided slice-adds (col2im) for
    the input gradient, which keeps the tape shallow and the arithmetic
    vectorized.
    """
    x, w = as_var(x), as_var(w)
    length, cin = x.shape
    cout, cin_w, k = w.shape
    if cin != cin_w:
        raise ValueError(f"conv1d channel mismatch: input has {cin}, weight expects {cin_w}")
    if padding:
        xp = np.zeros((length + 2 * padding, cin), dtype=x.data.dtype)
        xp[padding:padding + length] = x.data
    else:
        xp = x.data
    lout = (xp.shape[0] - k) // stride + 1
    # (lout, cin, k) strided windows, copied once into rows ordered like w
    cols = sliding_window_view(xp, k, axis=0)[::stride].reshape(lout, cin * k)
    wm = w.data.reshape(cout, cin * k)
    out = cols @ wm.T
    if b is not None:
        b = as_var(b)
        out = out + b.data

    def back(g):
        if w.requires_grad:
            w._accum((g.T @ cols).reshape(w.shape))
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=0))
        if x.requires_grad:
            gcols = (g @ wm).reshape(lout, cin, k)
            gxp = np.zeros_like(xp)
            span = stride * (lout - 1) + 1
            for j in range(k):
                gxp[j:j + span:stride] += gcols[:, :, j]
            x._accum(gxp[padding:padding + length] if padding else gxp)

    return _node(out, (x, w) + ((b,) if b is not None else ()), back)


def linear(x, w, b):
    """x @ w + b as one node: x (N, n_in) or (n_in,), w (n_in, n_out), b (n_out,)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    out = x.data @ w.data
    out += b.data
    def back(g):
        x.requires_grad and x._accum(g @ w.data.T)
        w.requires_grad and w._accum(np.outer(x.data, g) if x.ndim == 1 else x.data.T @ g)
        b.requires_grad and b._accum(g if g.ndim == 1 else g.sum(axis=0))
    return _node(out, (x, w, b), back)


def bce_with_logits(logits, targets):
    """Elementwise binary cross-entropy on raw logits, the stable form:
    max(x,0) - x*z + log1p(exp(-|x|)). Gradient is sigmoid(x) - z.
    """
    logits = as_var(logits)
    t = np.asarray(targets.data if isinstance(targets, Var) else targets)
    x = logits.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    def back(g):
        logits._accum(g * (_sigmoid(x) - t))
    return _node(out, (logits,), back)


# -- parameter containers --------------------------------------------------


class Module:
    """Base for parameterized blocks; discovers Params by attribute walk."""

    def named_params(self, prefix=""):
        out = []
        for key, val in vars(self).items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(val, Var) and val.requires_grad:
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend(val.named_params(name))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_params(f"{name}.{i}"))
        return out

    def params(self):
        return [p for _, p in self.named_params()]

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_params()}

    def load_state_dict(self, state):
        mine = dict(self.named_params())
        missing = sorted(set(mine) - set(state))
        extra = sorted(set(state) - set(mine))
        if missing or extra:
            raise DataError(f"state mismatch: missing={missing[:4]} extra={extra[:4]}")
        for name, p in mine.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise DataError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


def param(data):
    v = Var(np.asarray(data))
    v.requires_grad = True
    return v


class Linear(Module):
    """x @ w + b. Without an `rng` the weights start at zero (no draws)."""

    def __init__(self, n_in, n_out, rng, dtype=np.float32):
        if rng is None:
            w = np.zeros((n_in, n_out), dtype=dtype)
        else:
            scale = 1.0 / np.sqrt(n_in)
            w = (rng.gaussian((n_in, n_out)) * scale).astype(dtype)
        self.w = param(w)
        self.b = param(np.zeros(n_out, dtype=dtype))

    def __call__(self, x):
        return linear(x, self.w, self.b)


class Conv1d(Module):
    """`conv1d` with learned w, b. Without an `rng` the weights start at zero."""

    def __init__(self, c_in, c_out, k, rng, stride=1, padding=0, dtype=np.float32):
        self.stride = stride
        self.padding = padding
        if rng is None:
            w = np.zeros((c_out, c_in, k), dtype=dtype)
        else:
            scale = 1.0 / np.sqrt(c_in * k)
            w = (rng.gaussian((c_out, c_in, k)) * scale).astype(dtype)
        self.w = param(w)
        self.b = param(np.zeros(c_out, dtype=dtype))

    def __call__(self, x):
        return conv1d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class Adam:
    """Adam (Kingma & Ba 2015, arXiv:1412.6980) with bias correction.

    The moments m and v live beside the param list, one pair per parameter
    in the parameter's own dtype, and every update is in place. The bias
    corrections c1 = 1 - b1^t and c2 = 1 - b2^t fold into two scalars, as in
    PyTorch's single-tensor Adam: p -= (lr / c1) * m / (sqrt(v) / sqrt(c2) + eps).
    Hyperparameters are Python floats, so a float32 parameter is stepped in
    float32 throughout. A parameter whose grad is None is skipped: its data,
    m and v stay as they are.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        self._params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self._params]
        self._v = [np.zeros_like(p.data) for p in self._params]

    def step(self):
        self.t += 1
        step = self.lr / (1 - self.b1 ** self.t)
        c2_sqrt = (1 - self.b2 ** self.t) ** 0.5
        for p, m, v in zip(self._params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.b1
            m += (1 - self.b1) * g
            v *= self.b2
            gg = np.multiply(g, g)
            gg *= 1 - self.b2
            v += gg
            denom = np.sqrt(v)
            denom /= c2_sqrt
            denom += self.eps
            np.divide(m, denom, out=denom)
            denom *= step
            p.data -= denom

    def zero_grad(self):
        for p in self._params:
            p.grad = None
