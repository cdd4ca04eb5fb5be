"""Reverse-mode automatic differentiation over numpy arrays.

A `Var` wraps an ndarray and records, for every op, a closure that routes the
output gradient back to the inputs. `backward()` on a scalar replays the tape
in reverse topological order. Gradients accumulate into `.grad` (numpy
arrays, never `Var`s; no higher-order derivatives).

Backward consumes the tape: as each interior node's closure runs, the node
drops that closure (and the arrays it saved) and its own `.grad`. Leaves
keep `.grad`; every node keeps `.data` and `_prev`, so the graph stays
walkable after backward, but it cannot be replayed: a second backward()
through it raises ValueError. Drop the loss before the next forward starts
and the old graph's activations go with it.

Shapes broadcast like numpy; `_unbroadcast` folds gradient axes back down.
Sequence ops are time-major: `conv1d` and `repeat2` run along axis 0 of an
(L, C) array, and `layer_norm`/`softmax` act on the last axis.
Everything runs in the array's own dtype: modules build float32 parameters,
and gradient checks cast them to float64 to run the same graphs. A Python
int or float met by an op takes the dtype of the Var it meets (`v * 0.5` on
a float32 `v` stays float32), so scalars never promote a graph.

The layer primitives are fused, one tape node each: `linear` (x @ w + b),
`conv1d` (with its bias), `Var.layer_norm` (with its gain and bias) and
`Var.silu`. A gradient that already has its operand's shape is handed on
as the same array, not copied, so one array may be the `.grad` of several
nodes: no backward closure may write into its incoming `g`, and `_accum`
adds in place only into a gradient slot (below), which no other node holds.

`Adam` packs its parameters into one flat arena: each parameter's `.data`
becomes a reshaped view of its slice of one buffer, and its gradient slot
(`_gslot`) a view of the same slice of a second buffer. The kernels that
produce weight gradients (`linear` and `conv1d` w and b, `layer_norm` gain
and bias) write the first gradient of a step straight into the slot with
`out=` (`_grad_buffer`), so the gradients they make are in place by the
time backward() returns. `Adam.step` is the one step path: it copies any
other `.grad` into its slot, refuses a missing or non-finite gradient
before anything moves, and walks the arena in cache-sized chunks.
Modules, `state_dict` and checkpoints see ordinary arrays; code that must
change a parameter writes into `p.data[...]`, as `load_state_dict` does.

The kernels a training step spends its time in keep their passes few:
`conv1d` builds its im2col columns with one strided slice write per tap
and no padded copy of the input, `layer_norm` takes its row means (forward
and backward) as GEMVs against a 1/n vector, and `Adam` keeps its moments
pre-scaled so a step is ten in-place passes per chunk with one scratch
chunk.

`no_grad()` disables taping wholesale; sampling loops run inside it so the
graph never grows. The switch is a context variable, so it holds for the
thread (or asyncio task) that opened it and no other.
"""

import contextlib
import contextvars
import math

import numpy as np
from scipy.linalg.blas import get_blas_funcs

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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "_gslot")
    __array_priority__ = 100  # keep numpy from hijacking ndarray (op) Var

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad) and _grad_enabled.get()
        self._backward = None
        self._prev = ()
        self._gslot = None   # this leaf's view into an Adam gradient arena

    # -- graph plumbing ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def _accum(self, grad):
        grad = np.asarray(grad, dtype=self.data.dtype)
        slot = self._gslot
        if self.grad is None:
            if slot is None:
                self.grad = grad.copy() if grad.base is not None else grad
            else:
                if grad is not slot:
                    slot[...] = grad
                self.grad = slot
        elif self.grad is slot:
            slot += grad
        else:
            self.grad = self.grad + grad

    def _grad_buffer(self, dtype):
        """An array of this Var's shape for a kernel that computes in
        `dtype` to write a gradient into with `out=` before handing it to
        `_accum`: the gradient slot while no gradient has arrived this step
        and the dtypes agree, so the write is the whole accumulation, else a
        fresh array."""
        slot = self._gslot
        if self.grad is None and slot is not None and slot.dtype == dtype:
            return slot
        return np.empty(self.shape, dtype)

    def backward(self):
        """Accumulate d(self)/d(leaf) into the `.grad` of every leaf behind
        this scalar, consuming the graph as it goes.

        Each interior node drops its closure, and with it the arrays the
        closure saved, and its own `.grad` as soon as the closure has run,
        so a step's transient memory peaks once, not twice. Leaves keep
        `.grad`. `_prev` and `.data` stay, so the graph can still be walked
        and measured afterwards. A graph that a backward() has already run
        through (any part of it) raises ValueError rather than silently
        losing that part's gradients.
        """
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
            if node._prev and node._backward is None:
                raise ValueError("backward() through a graph that backward() already consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._prev:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node._backward = node.grad = None

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
            if other is self:  # a square: both terms are one product, made once
                ga = g * self.data
                self._accum(ga)
                self._accum(ga)
                return
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
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError("Var.matmul needs two 2-D operands")
        a, b = self.data, other.data
        def back(g):
            self.requires_grad and self._accum(g @ b.T)
            other.requires_grad and other._accum(a.T @ g)
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
        if not all(isinstance(i, (int, slice)) for i in (idx if isinstance(idx, tuple) else (idx,))):
            raise TypeError(f"Var takes int and slice indices, got {idx!r}")
        def back(g):
            full = np.zeros_like(self.data)
            full[idx] = g  # a basic index picks each element at most once
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

    def softmax(self):
        m = self.data.max(axis=-1, keepdims=True)
        e = np.exp(self.data - m)
        out_data = e / e.sum(axis=-1, keepdims=True)
        def back(g):
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            self._accum(out_data * (g - dot))
        return _node(out_data, (self,), back)

    def layer_norm(self, gain, bias):
        """Zero-mean unit-variance (variance + 1e-5) over the last axis, then `* gain + bias`.

        Every row mean, forward and backward, is a GEMV against a vector of
        1/n in the data's dtype."""
        gain, bias = as_var(gain), as_var(bias)
        n = self.shape[-1]
        mean_w = np.full(n, 1.0 / n, dtype=self.data.dtype)
        xhat = self.data - (self.data @ mean_w)[..., None]
        inv = 1.0 / np.sqrt((np.square(xhat) @ mean_w)[..., None] + 1e-5)
        xhat *= inv
        def back(g):
            g2 = g.reshape(-1, n)
            if gain.requires_grad:
                gain._accum(np.einsum("ri,ri->i", g2, xhat.reshape(-1, n),
                                      out=gain._grad_buffer(g.dtype)))
            bias.requires_grad and bias._accum(np.sum(g2, axis=0, out=bias._grad_buffer(g.dtype)))
            if self.requires_grad:
                gh = g * gain.data
                gx = ((gh * xhat) @ mean_w)[..., None]
                gh -= (gh @ mean_w)[..., None]
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


def conv1d(x, w, b, stride=1, padding=0):
    """1-D convolution (cross-correlation) over time plus a bias: x (L, Cin),
    w (Cout, Cin, K), b (Cout,) -> (Lout, Cout).

    im2col formulation: the columns are a (Lout, Cin, K) array, cin-major
    like w, so both passes are single matmuls against w's own layout. It is
    built with one strided slice write per tap, cols[lo, :, j] =
    x[lo*stride + j - padding], and the rows where a tap reads the padding
    are zeroed, so no padded copy of x is made. Backward adds each tap's
    slice of the column gradient straight into an unpadded input gradient
    (col2im), in tap order.
    """
    x, w, b = as_var(x), as_var(w), as_var(b)
    length, cin = x.shape
    cout, cin_w, k = w.shape
    if cin != cin_w:
        raise ValueError(f"conv1d channel mismatch: input has {cin}, weight expects {cin_w}")
    lout = (length + 2 * padding - k) // stride + 1
    if lout < 1:
        raise ValueError(f"conv1d input of {length} rows is shorter than the kernel")
    # tap j reads x[lo*stride + j - padding] for output rows lo in [lo_j, hi_j)
    taps = []
    for j in range(k):
        off = j - padding
        lo = max(0, -(off // stride))
        hi = max(lo, min(lout, (length - 1 - off) // stride + 1))
        start = lo * stride + off
        taps.append((lo, hi, slice(start, start + (hi - lo) * stride, stride)))
    cols = np.empty((lout, cin, k), dtype=x.data.dtype)
    for j, (lo, hi, rows) in enumerate(taps):
        cols[:lo, :, j] = 0
        cols[hi:, :, j] = 0
        cols[lo:hi, :, j] = x.data[rows]
    cols = cols.reshape(lout, cin * k)
    wm = w.data.reshape(cout, cin * k)
    out = cols @ wm.T + b.data

    def back(g):
        if w.requires_grad:
            gw = w._grad_buffer(g.dtype)
            np.matmul(g.T, cols, out=gw.reshape(cout, cin * k))
            w._accum(gw)
        if b.requires_grad:
            b._accum(np.sum(g, axis=0, out=b._grad_buffer(g.dtype)))
        if x.requires_grad:
            gcols = (g @ wm).reshape(lout, cin, k)
            gx = np.zeros_like(x.data)
            for j, (lo, hi, rows) in enumerate(taps):
                gx[rows] += gcols[lo:hi, :, j]
            x._accum(gx)

    return _node(out, (x, w, b), back)


def linear(x, w, b):
    """x @ w + b as one node: x (N, n_in), w (n_in, n_out), b (n_out,)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    if x.ndim != 2:
        raise ValueError(f"linear needs a 2-D (N, n_in) input, got shape {x.shape}")
    out = x.data @ w.data
    out += b.data
    def back(g):
        x.requires_grad and x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(np.matmul(x.data.T, g, out=w._grad_buffer(g.dtype)))
        if b.requires_grad:
            b._accum(np.sum(g, axis=0, out=b._grad_buffer(g.dtype)))
    return _node(out, (x, w, b), back)


def bce_with_logits(logits, targets):
    """Elementwise binary cross-entropy of raw logits x against an array of
    targets z, stable: max(x,0) - x*z + log1p(exp(-|x|)); gradient sigmoid(x) - z.
    """
    logits = as_var(logits)
    t = np.asarray(targets)
    x = logits.data
    out = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    def back(g):
        logits._accum(g * (_sigmoid(x) - t))
    return _node(out, (logits,), back)


# -- parameter containers --------------------------------------------------


class Module:
    """Base for parameterized blocks. Parameters are found by an attribute
    walk: every `Var` attribute is one, whatever its `requires_grad`, so a
    frozen parameter stays in `state_dict` and the checkpoint."""

    def named_params(self, prefix=""):
        out = []
        for key, val in vars(self).items():
            name = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            if isinstance(val, Var):
                out.append((name, val))
            elif isinstance(val, Module):
                out.extend(val.named_params(name))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_params(f"{name}.{i}"))
        return out

    def state_dict(self):
        return {name: p.data.copy() for name, p in self.named_params()}

    def load_state_dict(self, state):
        mine = dict(self.named_params())
        missing = sorted(set(mine) - set(state))
        extra = sorted(set(state) - set(mine))
        if missing or extra:
            raise DataError(f"state mismatch: {len(missing)} missing {missing[:4]}, "
                            f"{len(extra)} extra {extra[:4]}")
        for name, p in mine.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise DataError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data[...] = arr   # in place: an Adam built over p steps this array


def param(data):
    v = Var(np.asarray(data))
    v.requires_grad = True
    return v


class Linear(Module):
    """x @ w + b. Without an `rng` the weights start at zero (no draws)."""

    def __init__(self, n_in, n_out, rng):
        w = (np.zeros((n_in, n_out)) if rng is None
             else rng.gaussian((n_in, n_out)) * (1.0 / np.sqrt(n_in)))
        self.w = param(w.astype(np.float32))
        self.b = param(np.zeros(n_out, dtype=np.float32))

    def __call__(self, x):
        return linear(x, self.w, self.b)


class Conv1d(Module):
    """`conv1d` with learned w, b. Without an `rng` the weights start at zero."""

    def __init__(self, c_in, c_out, k, rng, stride=1, padding=0):
        self.stride = stride
        self.padding = padding
        w = (np.zeros((c_out, c_in, k)) if rng is None
             else rng.gaussian((c_out, c_in, k)) * (1.0 / np.sqrt(c_in * k)))
        self.w = param(w.astype(np.float32))
        self.b = param(np.zeros(c_out, dtype=np.float32))

    def __call__(self, x):
        return conv1d(x, self.w, self.b, stride=self.stride, padding=self.padding)


class Adam:
    """Adam (Kingma & Ba 2015, arXiv:1412.6980) with bias correction.

    The moments are kept pre-scaled, in the parameters' dtype: `_m` holds
    m / (1 - b1) and `_v` holds v / (1 - b2), so each update is
    m~ = b1 m~ + g, v~ = b2 v~ + g^2 with no multiply of g. The bias
    corrections c1 = 1 - b1^t and c2 = 1 - b2^t and both scales fold into
    two scalars,

        k = sqrt((1 - b2) / c2),  s = lr (1 - b1) / (c1 k),  eps~ = eps / k,
        p -= s * m~ / (sqrt(v~) + eps~),

    which is p -= (lr / c1) m / (sqrt(v / c2) + eps) rearranged: ten in-place
    passes and one scratch array. Hyperparameters are Python floats, so a
    float32 parameter is stepped in float32 throughout.

    The arena. The constructor packs the parameters in dict order into one
    flat buffer and rebinds each `.data` to a reshaped view of its slice.
    Gradients, m~ and v~ get three more flat buffers laid out alike: the
    gradient views are the parameters' `_gslot`s, which the weight-gradient
    kernels write into, and `_m` / `_v` hold the moment views. `step` walks
    the four buffers CHUNK elements at a time, so each chunk takes all ten
    passes while it is in cache, with BLAS scal/axpy for the scale and add
    passes. Every element sees the same operations in the same order as in
    a per-parameter step, so the result is bit-identical to one. A `.grad`
    set by hand is copied into its slot first.

    Only the parameters hold views into the arena (`.data`, `.grad`,
    `_gslot`); `state_dict` hands out copies, and a new value goes into
    `p.data[...]`. A new Adam over a parameter first releases the older
    arena's gradient slot (and a `.grad` that is that slot), then moves the
    data into its own arena.

    `params` is a dict naming the parameters, as `Module.named_params` does,
    so that an error can name the parameter at fault. They share one dtype,
    float32 or float64: mixed or other dtypes, or a parameter listed twice,
    raise ValueError. `step` is the one place a gradient is gathered,
    checked and applied. A step where some `.grad` is None, or some `.data`
    is no longer its arena view (a newer Adam took the parameter over),
    raises ValueError naming the parameter; one where some gradient is not
    finite raises DataError naming the step (`t`) and the parameter. Both
    come before the data, the moments or `t` move.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; only lr varies
    CHUNK = 1 << 15  # elements per chunk of the arena walk

    def __init__(self, params, lr=1e-3):
        self._names, self._params = list(params), list(params.values())
        if len({id(p) for p in self._params}) != len(self._params):
            raise ValueError("Adam: a parameter is listed twice")
        dtypes = {p.data.dtype.name for p in self._params} or {"float32"}
        if len(dtypes) > 1 or not dtypes <= {"float32", "float64"}:
            raise ValueError(f"Adam needs one dtype, float32 or float64, got {sorted(dtypes)}")
        dtype = np.dtype(dtypes.pop())
        self.lr = lr
        self.t = 0
        for p in self._params:  # free an older arena's gradients before allocating
            if p.grad is p._gslot:
                p.grad = None
            p._gslot = None
        self._scal, self._axpy = get_blas_funcs(("scal", "axpy"), dtype=dtype)
        ends = np.cumsum([p.data.size for p in self._params]).tolist()
        n = ends[-1] if ends else 0

        def views(buf):
            return [buf[e - p.data.size:e].reshape(p.shape) for p, e in zip(self._params, ends)]

        data = np.empty(n, dtype)
        self._data_views = views(data)
        for p, view in zip(self._params, self._data_views):
            view[...] = p.data
            p.data = view
        grads = np.zeros(n, dtype)
        for p, view in zip(self._params, views(grads)):
            p._gslot = view
        m, v = np.zeros(n, dtype), np.zeros(n, dtype)
        self._m, self._v = views(m), views(v)
        self._arena = (data, grads, m, v)

    def step(self):
        """Gather, check and apply each parameter's `.grad` (see the class
        docstring for what it refuses)."""
        data, grads, m, v = self._arena
        for name, p, view in zip(self._names, self._params, self._data_views):
            g = p.grad
            if p.data is not view:
                raise ValueError(f"Adam: {name} is no longer held in this optimizer's arena")
            if g is None:
                raise ValueError(f"Adam: {name} has no gradient")
            if g is not p._gslot:
                p._gslot[...] = g
                p.grad = p._gslot
        # one dot clears the usual case; the scan runs only when it is not
        # finite (a square sum that overflowed on finite entries steps on)
        if not math.isfinite(float(np.dot(grads, grads))):
            for name, p in zip(self._names, self._params):
                if not np.isfinite(p.grad).all():
                    raise DataError(f"step {self.t}: gradient of {name} is not finite")
        self.t += 1
        k = ((1 - self.b2) / (1 - self.b2 ** self.t)) ** 0.5
        scale = self.lr * (1 - self.b1) / ((1 - self.b1 ** self.t) * k)
        eps = self.eps / k
        # the ten passes, chunk by chunk; the scale and add passes are BLAS
        # scal and axpy (a = +-1), which round as numpy's in-place *= and +=
        # do (a fused axpy(d, p, a=-scale) would not)
        scal, axpy = self._scal, self._axpy
        scratch = np.empty(min(data.size, self.CHUNK), data.dtype)
        for a in range(0, data.size, self.CHUNK):
            b = min(a + self.CHUNK, data.size)
            p, g, mc, vc, d = data[a:b], grads[a:b], m[a:b], v[a:b], scratch[:b - a]
            scal(self.b1, mc)
            axpy(g, mc)
            scal(self.b2, vc)
            np.multiply(g, g, out=d)
            axpy(d, vc)
            np.sqrt(vc, out=d)
            d += eps
            np.divide(mc, d, out=d)
            scal(scale, d)
            axpy(d, p, a=-1.0)

    def zero_grad(self):
        for p in self._params:
            p.grad = None

    def minimize(self, loss_of, steps):
        """`steps` optimizer steps on the scalar loss Var `loss_of(step)`
        builds; returns the per-step loss values.

        Each step runs zero_grad -> forward -> backward -> step and drops its
        graph before the next forward builds its own. A non-finite loss
        raises DataError naming the step before backward() runs; `step()`
        refuses a non-finite gradient. Either way the parameters, the
        moments and `t` keep the values the previous step left. Steps are
        counted by `t`, which is the loop index for a fresh Adam.
        """
        losses = []
        for i in range(steps):
            self.zero_grad()
            loss = loss_of(i)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DataError(f"step {self.t}: loss is {value}")
            loss.backward()
            self.step()
            losses.append(value)
            del loss  # the step's graph goes before the next forward
        return losses
