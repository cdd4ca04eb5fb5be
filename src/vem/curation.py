"""Corpus curation: the quality gate that admits a (video, music) pair, and
the synthetic paired corpus used for end-to-end experiments.

The synthetic generator builds miniature "edited videos": a click track at a
fixed tempo with a slowly breathing tonal bed per storyboard, transitions
placed exactly on the beats, storyboard boundaries on transition beats, and
a per-frame feature matrix whose first channel carries the transition
impulses. Everything derives from one seed, so corpora are reproducible.
"""

import dataclasses

import numpy as np

from .audiofeat import SAMPLE_RATE, Waveform, estimate_snr
from .errors import DataError
from .parsing import Storyboard, VideoAnnotation, toy_text_embed, toy_visual_embed
from .rng import Rng
from .timeline import DEFAULT_FPS, TimestampSet


@dataclasses.dataclass
class CurationRule:
    min_snr_db: float = 20.0
    max_duration_s: float = 120.0
    max_shots: int = 20

    def __post_init__(self):
        if self.min_snr_db <= 0 or self.max_duration_s <= 0 or self.max_shots <= 0:
            raise DataError("curation thresholds must be positive")


def gate(pair, rules=None):
    """Quality gate; returns (passed, reasons). All failing reasons listed."""
    rules = rules or CurationRule()
    ann, wav = pair
    reasons = []
    snr = estimate_snr(wav)
    if snr < rules.min_snr_db:
        reasons.append(f"snr: {snr:.1f} dB below {rules.min_snr_db:.0f} dB")
    if ann.duration_s > rules.max_duration_s:
        reasons.append(f"duration: {ann.duration_s:.1f} s exceeds {rules.max_duration_s:.0f} s")
    if ann.shot_count > rules.max_shots:
        reasons.append(f"shots: {ann.shot_count} exceeds {rules.max_shots}")
    return (not reasons), reasons


# -- synthetic corpus ------------------------------------------------------


@dataclasses.dataclass
class SynthConfig:
    duration_range_s: tuple = (10.0, 16.0)


TEMPO_RANGE_BPM = (90.0, 140.0)
STORYBOARD_RANGE = (2, 4)
FEATURE_CHANNELS = 8
CLICK_AMP = 0.6
BED_AMP = 0.12
NOISE_AMP = 5e-4
AM_RATE_HZ = 0.35
_MOODS = ("calm", "bright", "driving", "dark", "warm", "tense")
_ROOTS = (220.0, 277.18, 329.63, 392.0)


def synth_item(item_rng, cfg):
    """One (annotation, waveform) pair from a dedicated random stream."""
    lo, hi = cfg.duration_range_s
    duration = lo + (hi - lo) * float(item_rng.uniform(1)[0])
    t_lo, t_hi = TEMPO_RANGE_BPM
    tempo = t_lo + (t_hi - t_lo) * float(item_rng.uniform(1)[0])
    period = 60.0 / tempo
    phase = float(item_rng.uniform(1)[0]) * period
    beats = []
    t = phase
    while t < duration - 0.05:
        beats.append(t)
        t += period

    n_sb = int(item_rng.integers(STORYBOARD_RANGE[0], STORYBOARD_RANGE[1] + 1, 1)[0])
    bounds = [0.0]
    for j in range(1, n_sb):
        target = duration * j / n_sb
        bounds.append(min(beats, key=lambda b: abs(b - target)))
    bounds.append(duration)

    mood_idx = item_rng.integers(0, len(_MOODS), n_sb)
    sbs = []
    for j in range(n_sb):
        text = f"scene {j} {_MOODS[int(mood_idx[j])]} tempo{int(round(tempo))}"
        sbs.append(Storyboard(
            index=j, start_s=bounds[j], duration_s=bounds[j + 1] - bounds[j], text=text,
            text_feat=toy_text_embed(text), visual_feat=toy_visual_embed(text)))
    caption = f"synthetic montage tempo{int(round(tempo))}"
    tags = ["synthetic", _MOODS[int(mood_idx[0])]]

    n_samp = int(round(duration * SAMPLE_RATE))
    ts = np.arange(n_samp) / SAMPLE_RATE
    audio = NOISE_AMP * item_rng.normal(n_samp)
    for sb in sbs:
        root = _ROOTS[int(item_rng.integers(0, len(_ROOTS), 1)[0])]
        seg = (ts >= sb.start_s) & (ts < sb.end_s)
        tt = ts[seg] - sb.start_s
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * AM_RATE_HZ * tt))
        audio[seg] += BED_AMP * env * (
            np.sin(2.0 * np.pi * root * tt) + 0.5 * np.sin(2.0 * np.pi * root * 1.5 * tt))
    burst_len = 480  # 30 ms
    burst = item_rng.normal(burst_len) * np.exp(-np.arange(burst_len) / 120.0) * CLICK_AMP
    for b in beats:
        i0 = int(round(b * SAMPLE_RATE))
        i1 = min(i0 + burst_len, n_samp)
        audio[i0:i1] += burst[:i1 - i0]
    audio = np.clip(audio, -1.0, 1.0)

    n_frames = int(np.ceil(duration * DEFAULT_FPS))
    ff = np.zeros((FEATURE_CHANNELS, n_frames), dtype=np.float32)
    ff += 0.02 * item_rng.normal(ff.size).reshape(ff.shape).astype(np.float32)
    for b in beats:
        idx = int(np.floor(b * DEFAULT_FPS))
        ff[0, idx] += 1.0
        if idx > 0:
            ff[0, idx - 1] += 0.4
        if idx + 1 < n_frames:
            ff[0, idx + 1] += 0.4
    frame_t = (np.arange(n_frames) + 0.5) / DEFAULT_FPS
    for sb in sbs:
        inside = (frame_t >= sb.start_s) & (frame_t < sb.end_s)
        ff[1, inside] = (frame_t[inside] - sb.start_s) / sb.duration_s
        ff[2, inside] = (sb.index + 1) / n_sb
    ff[3] = frame_t / duration

    ann = VideoAnnotation(
        video_id=f"synth_{int(item_rng.integers(0, 1 << 31, 1)[0]):08x}",
        duration_s=duration,
        global_caption=caption, caption_feat=toy_text_embed(caption),
        emotion_tags=tags, tag_feat=toy_text_embed(" ".join(tags)),
        storyboards=sbs, transitions=TimestampSet(beats, duration),
        frame_features=ff)
    return ann, Waveform(audio.astype(np.float32), SAMPLE_RATE)


def synth_corpus(n, seed, cfg=None):
    """n deterministic (annotation, waveform) pairs; transitions sit exactly
    on the generated beats, so ground-truth transition-beat agreement is
    high by construction."""
    if n < 1:
        raise DataError(f"need n >= 1, got {n}")
    cfg = cfg or SynthConfig()
    master = Rng(seed)
    return [synth_item(master.fork(i + 1), cfg) for i in range(n)]
