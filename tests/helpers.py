"""Shared test utilities: reference implementations and fixture builders."""

import numpy as np
from scipy.special import expit

from vem import audiofeat as af
from vem import autograd as ag
from vem.audiofeat import SAMPLE_RATE, Waveform
from vem.parsing import (Storyboard, VideoAnnotation, build_frame_features,
                         toy_text_embed, toy_visual_embed)
from vem.timeline import TimestampSet


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
                    video_id="fixture", feature_dim=64, with_frames=True):
    """Hand-built annotation with storyboards between consecutive bounds."""
    boards = []
    for i in range(len(bounds) - 1):
        start, end = bounds[i], bounds[i + 1]
        text = f"scene {i} of {video_id}"
        boards.append(Storyboard(
            index=i, start_s=start, duration_s=end - start, text=text,
            text_feat=toy_text_embed(text, feature_dim),
            visual_feat=toy_visual_embed(text, feature_dim)))
    ann = VideoAnnotation(
        video_id=video_id, duration_s=duration_s,
        global_caption=f"caption for {video_id}",
        caption_feat=toy_text_embed(f"caption for {video_id}", feature_dim),
        emotion_tags=["fixture"], tag_feat=toy_text_embed("fixture", feature_dim),
        storyboards=boards,
        transitions=TimestampSet(sorted(transitions), duration_s),
        frame_features=None)
    if with_frames:
        ann.frame_features = build_frame_features(ann)
    return ann


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
    mag = np.abs(np.fft.rfft(x[idx] * af._hann(af.N_FFT), axis=1))
    return np.log(mag @ af.mel_filterbank().T + af.LOG_FLOOR)


def track_beats_loop(e, bpm):
    """Reference beat grid: each quarter-hop phase scored by its own
    `np.arange` grid and interpolated sum, one phase at a time."""
    x = e.values.astype(np.float64)
    rate = e.hop_rate_hz
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
    beats = np.arange(phase, n, period) / rate + e.t0_s
    return [float(t) for t in beats if t <= e.duration_s]


def istft_loop(spec, n_fft, hop):
    """Reference overlap-add inverse: frames added one at a time, the
    squared-window normalization built alongside."""
    w = af._hann(n_fft)
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
    on every iteration."""
    amp = np.clip(np.exp(m.values.astype(np.float64)) - af.LOG_FLOOR, 0.0, None)
    fb = af.mel_filterbank(m.n_mels, af.N_FFT, m.sample_rate_hz)
    mag = np.clip(amp @ np.linalg.pinv(fb).T, 0.0, None)
    spec = mag.astype(np.complex128)
    for _ in range(iters):
        x = istft_loop(spec, af.N_FFT, m.hop)
        re = np.fft.rfft(af._frames(x, af.N_FFT, m.hop) * af._hann(af.N_FFT), axis=1)
        spec = mag * (re / np.maximum(np.abs(re), 1e-12))
    peak = np.max(np.abs(x))
    return (x / peak if peak > 1.0 else x).astype(np.float32)


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


def use_unfused_ops(monkeypatch):
    """Route every `linear`, `Var.layer_norm` and `Var.silu` of the package
    through the unfused oracles above for the rest of a test."""
    monkeypatch.setattr(ag, "linear", linear_unfused)
    monkeypatch.setattr(ag.Var, "layer_norm", layer_norm_unfused)
    monkeypatch.setattr(ag.Var, "silu", silu_expit)
