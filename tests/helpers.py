"""Shared test utilities: reference implementations and fixture builders."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import expit

from vem import audiofeat as af
from vem import autograd as ag
from vem import beatdet as bd
from vem.audiofeat import SAMPLE_RATE, Waveform
from vem.parsing import (Storyboard, VideoAnnotation, build_frame_features,
                         toy_text_embed, toy_visual_embed)
from vem.timeline import DEFAULT_FPS, TimestampSet


def params_of(*modules):
    """Every parameter Var of `modules`, in `named_params` order."""
    return [p for m in modules for _, p in m.named_params()]


def with_dtype(module, dtype):
    """`module` with every parameter cast to `dtype`, in place: modules build
    float32 parameters, and gradient checks run the same graphs in float64."""
    for p in params_of(module):
        p.data = p.data.astype(dtype)
    return module


def splitmix64_reference(seed, n):
    """Independent pure-python SplitMix64: n raw 64-bit outputs."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z)
    return out


def max_bipartite_matching(a, b, tol_s):
    """Reference maximum matching size via augmenting paths.

    Edges connect a[i] to b[j] when |a[i] - b[j]| <= tol_s.
    """
    adj = [[j for j, y in enumerate(b) if abs(x - y) <= tol_s] for x in a]
    match_of_b = [-1] * len(b)

    def augment(i, seen):
        for j in adj[i]:
            if seen[j]:
                continue
            seen[j] = True
            if match_of_b[j] < 0 or augment(match_of_b[j], seen):
                match_of_b[j] = i
                return True
        return False

    count = 0
    for i in range(len(a)):
        if augment(i, [False] * len(b)):
            count += 1
    return count


def click_track(bpm, duration_s=30.0, seed=0, click_amp=0.8, noise_amp=5e-4,
                phase_s=0.0):
    """Noise bed plus a decaying click burst on every beat of a fixed grid.

    Returns (Waveform, beat_times).
    """
    from vem.rng import Rng
    rng = Rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    y = rng.normal(n).astype(np.float32) * noise_amp
    period = 60.0 / bpm
    t = phase_s
    beats = []
    while t < duration_s - 0.05:
        i = int(round(t * SAMPLE_RATE))
        burst = rng.normal(480).astype(np.float32) * np.exp(-np.arange(480) / 60.0)
        take = min(480, n - i)
        y[i:i + take] += click_amp * burst[:take]
        beats.append(t)
        t += period
    return Waveform(np.clip(y, -1.0, 1.0), SAMPLE_RATE), beats


def make_annotation(duration_s=10.0, bounds=(0.0, 4.0, 10.0), transitions=(4.0,),
                    video_id="fixture"):
    """Hand-built annotation with storyboards between consecutive bounds."""
    boards = []
    for i in range(len(bounds) - 1):
        start, end = bounds[i], bounds[i + 1]
        text = f"scene {i} of {video_id}"
        boards.append(Storyboard(
            start_s=start, duration_s=end - start, text=text,
            text_feat=toy_text_embed(text),
            visual_feat=toy_visual_embed(text)))
    ann = VideoAnnotation(
        video_id=video_id, duration_s=duration_s,
        global_caption=f"caption for {video_id}",
        caption_feat=toy_text_embed(f"caption for {video_id}"),
        emotion_tags=["fixture"], tag_feat=toy_text_embed("fixture"),
        storyboards=boards,
        transitions=TimestampSet(sorted(transitions), duration_s),
        frame_features=None)
    ann.frame_features = build_frame_features(ann)
    return ann


def frame_impulses_loop(ann):
    """Reference channel 0 of `build_frame_features`: per transition, a 1.0
    at frame floor(t * 16) (the clip end on the last frame) and a 0.5 on each
    neighbour that holds less."""
    n = int(np.ceil(ann.duration_s * DEFAULT_FPS))
    out = np.zeros(n, dtype=np.float32)
    for t in ann.transitions.times_s:
        idx = min(int(np.floor(t * DEFAULT_FPS)), n - 1)
        out[idx] = 1.0
        if idx > 0:
            out[idx - 1] = max(out[idx - 1], 0.5)
        if idx + 1 < n:
            out[idx + 1] = max(out[idx + 1], 0.5)
    return out


def synth_impulses_loop(noise, beats):
    """Reference channel 0 of `curation.synth_item`: onto a float32 noise row,
    per beat, add 1.0 at frame floor(t * 16) and 0.4 on each neighbour."""
    out = noise.copy()
    n = len(out)
    for b in beats:
        idx = int(np.floor(b * DEFAULT_FPS))
        out[idx] += 1.0
        if idx > 0:
            out[idx - 1] += 0.4
        if idx + 1 < n:
            out[idx + 1] += 0.4
    return out


def assemble_conditions_loop(ann, time_emb):
    """Reference condition tokens: one (6, D) block per storyboard (stacked
    features, then its start and duration embedding rows), concatenated one
    storyboard at a time."""
    dim = len(ann.caption_feat)
    starts = time_emb.embed([sb.start_s for sb in ann.storyboards])
    durs = time_emb.embed([sb.duration_s for sb in ann.storyboards])
    blocks = []
    for i, sb in enumerate(ann.storyboards):
        static = np.stack([ann.caption_feat, ann.tag_feat, sb.text_feat, sb.visual_feat])
        blocks.append(ag.concat([ag.Var(static.astype(np.float32)),
                                 starts[i].reshape(1, dim), durs[i].reshape(1, dim)], axis=0))
    return ag.concat(blocks, axis=0)


def mel_center_freqs(n_mels=af.N_MELS, fmin=af.FMIN, fmax=af.FMAX):
    """Centre frequency in Hz of each band of `audiofeat.mel_filterbank`."""
    pts = af.mel_to_hz(np.linspace(af.hz_to_mel(fmin), af.hz_to_mel(fmax), n_mels + 2))
    return pts[1:-1]


def forward_step(z_prev, beta_t, eps):
    """One step of the stepwise corruption: sqrt(1-beta) z + sqrt(beta) eps."""
    return np.sqrt(1.0 - beta_t) * z_prev + np.sqrt(beta_t) * eps


def logmel_float64(x):
    """Reference log-mel of 16 kHz samples computed in float64 throughout:
    index-gathered Hann frames, `numpy.fft.rfft`, magnitude, filterbank, log."""
    x = np.asarray(x, dtype=np.float64)
    idx = af.HOP * np.arange(af.frame_count(len(x)))[:, None] + np.arange(af.N_FFT)[None, :]
    mag = np.abs(np.fft.rfft(x[idx] * af._hann(np.float64), axis=1))
    return np.log(mag @ af.mel_filterbank().T + af.LOG_FLOOR)


def track_beats_loop(env, bpm):
    """Reference beat grid: each quarter-hop phase scored by its own
    `np.arange` grid and interpolated sum, one phase at a time."""
    x = env.astype(np.float64)
    rate = bd.ENVELOPE_RATE_HZ
    period = 60.0 * rate / bpm
    n = len(x)

    def grid_energy(phase):
        pos = np.arange(phase, n - 1, period)
        lo = pos.astype(int)
        frac = pos - lo
        return float(np.sum(x[lo] * (1 - frac) + x[lo + 1] * frac))

    phases = np.arange(0.0, period, 0.25)
    scores = [grid_energy(p) for p in phases]
    phase = float(phases[int(np.argmax(scores))])
    beats = np.arange(phase, n, period) / rate + bd.ENVELOPE_T0_S
    return [float(t) for t in beats if t <= n / rate]


def istft_loop(spec):
    """Reference overlap-add inverse: frames added one at a time, the
    squared-window normalization built alongside."""
    n_fft, hop = af.N_FFT, af.HOP
    w = af._hann(np.float64)
    frames = np.fft.irfft(spec, n=n_fft, axis=1) * w[None, :]
    n = n_fft + hop * (spec.shape[0] - 1)
    out = np.zeros(n)
    norm = np.zeros(n)
    for i in range(spec.shape[0]):
        s = i * hop
        out[s:s + n_fft] += frames[i]
        norm[s:s + n_fft] += w ** 2
    return out / np.maximum(norm, 1e-8)


def griffin_lim_loop(m, iters):
    """Reference Griffin-Lim over `istft_loop`, rebuilding its normalization
    on every iteration and taking the phase as mag * (re / |re|)."""
    amp = np.clip(np.exp(m.values.astype(np.float64)) - af.LOG_FLOOR, 0.0, None)
    fb = af.mel_filterbank()
    mag = np.clip(amp @ np.linalg.pinv(fb).T, 0.0, None)
    spec = mag.astype(np.complex128)
    for _ in range(iters):
        x = istft_loop(spec)
        re = np.fft.rfft(af._frames(x) * af._hann(np.float64), axis=1)
        spec = mag * (re / np.maximum(np.abs(re), 1e-12))
    return np.clip(x, -1.0, 1.0).astype(np.float32)


# -- tape walks -------------------------------------------------------------


def tape_nodes(root):
    """The non-leaf nodes on the graph behind `root`, walked through `_prev`
    as the benchmark tracer walks it to count nodes and `data` bytes."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node._prev)
    return out


def backward_retaining(root):
    """Reference backward that replays the tape and keeps it: every closure
    and every interior `.grad` stays, as before backward consumed the tape."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node._prev)
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


# -- unfused autograd oracles: the layer primitives built from plain Var ops --


def linear_unfused(x, w, b):
    """x @ w + b as a matmul node and a broadcast-add node (a 1-D x as one row)."""
    x = ag.as_var(x)
    if x.ndim == 1:
        return (x.reshape(1, -1) @ w).reshape(w.shape[1]) + b
    return x @ w + b


def _row_mean(x):
    """Mean over the last axis, kept as a column: a matmul by a column of 1/n."""
    n = x.shape[-1]
    return x @ ag.Var(np.full((n, 1), 1.0 / n, dtype=x.data.dtype))


def _rsqrt(x):
    """x ** -0.5 with the gradient -0.5 x ** -1.5."""
    out = x.data ** -0.5
    def back(g):
        x._accum(g * -0.5 * out / x.data)
    return ag._node(out, (x,), back)


def layer_norm_unfused(x, gain, bias, eps=1e-5):
    """Centre, scale by (mean square + eps)^-1/2, then `* gain + bias`."""
    xc = x - _row_mean(x)
    return xc * _rsqrt(_row_mean(xc * xc) + eps) * gain + bias


def silu_expit(x):
    """x * expit(x) with the gradient s + x s (1 - s), s = expit(x)."""
    s = expit(x.data)
    def back(g):
        x._accum(g * (s + x.data * s * (1.0 - s)))
    return ag._node(x.data * s, (x,), back)


def conv1d_window_view(x, w, b, stride=1, padding=0):
    """`ag.conv1d` by the window-view im2col: pad x into a copy, take the
    (Lout, Cin, K) windows of a strided view and copy them into the columns;
    backward adds each tap into a padded gradient and crops it."""
    length, cin = x.shape
    cout, _, k = w.shape
    xp = np.zeros((length + 2 * padding, cin), dtype=x.data.dtype)
    xp[padding:padding + length] = x.data
    lout = (xp.shape[0] - k) // stride + 1
    cols = sliding_window_view(xp, k, axis=0)[::stride].reshape(lout, cin * k)
    wm = w.data.reshape(cout, cin * k)
    out = cols @ wm.T + b.data

    def back(g):
        w._accum((g.T @ cols).reshape(w.shape))
        b._accum(g.sum(axis=0))
        gcols = (g @ wm).reshape(lout, cin, k)
        gxp = np.zeros_like(xp)
        span = stride * (lout - 1) + 1
        for j in range(k):
            gxp[j:j + span:stride] += gcols[:, :, j]
        x._accum(gxp[padding:padding + length])

    return ag._node(out, (x, w, b), back)


def use_unfused_ops(monkeypatch):
    """Route every `linear`, `Var.layer_norm` and `Var.silu` of the package
    through the unfused oracles above for the rest of a test."""
    monkeypatch.setattr(ag, "linear", linear_unfused)
    monkeypatch.setattr(ag.Var, "layer_norm", layer_norm_unfused)
    monkeypatch.setattr(ag.Var, "silu", silu_expit)


class AdamPerArray:
    """`ag.Adam` as it ran before the flat arena: one pre-scaled moment pair
    per parameter array and the ten in-place passes run array by array,
    with no gradient check in `minimize`. The oracle the arena must match
    bit for bit; it takes a dict naming the Vars, as `ag.Adam` does, so it
    can stand in for it."""

    b1, b2, eps = ag.Adam.b1, ag.Adam.b2, ag.Adam.eps

    def __init__(self, params, lr=1e-3):
        self._params = list(params.values())
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self._params]
        self._v = [np.zeros_like(p.data) for p in self._params]

    def step(self):
        self.t += 1
        k = ((1 - self.b2) / (1 - self.b2 ** self.t)) ** 0.5
        scale = self.lr * (1 - self.b1) / ((1 - self.b1 ** self.t) * k)
        eps = self.eps / k
        for p, m, v in zip(self._params, self._m, self._v):
            g = p.grad
            m *= self.b1
            m += g
            v *= self.b2
            d = np.multiply(g, g)
            v += d
            np.sqrt(v, out=d)
            d += eps
            np.divide(m, d, out=d)
            d *= scale
            p.data -= d

    def zero_grad(self):
        for p in self._params:
            p.grad = None

    def minimize(self, loss_of, steps):
        losses = []
        for i in range(steps):
            self.zero_grad()
            loss = loss_of(i)
            loss.backward()
            self.step()
            losses.append(float(loss.data))
            del loss
        return losses
