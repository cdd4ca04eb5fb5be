"""Corpus curation: the quality gate that admits a (video, music) pair, and
the synthetic paired corpus used for end-to-end experiments.

The gate is one fixed policy, not a setting: a pair passes when its audio's
SNR is at least MIN_SNR_DB (20 dB), its clip lasts at most MAX_CLIP_S
(120 s) and it has at most MAX_SHOTS (20) storyboards.

The synthetic generator builds miniature "edited videos": a click track at a
fixed tempo with a slowly breathing tonal bed per storyboard, transitions
placed exactly on the beats, storyboard boundaries on transition beats, and
a per-frame feature matrix whose first channel carries the transition
impulses. Everything derives from one seed, so corpora are reproducible.
"""

import dataclasses

import numpy as np

from .audiofeat import HOP, MAX_DURATION_S, N_FFT, SAMPLE_RATE, Waveform, estimate_snr
from .beatdet import MIN_ENVELOPE_S
from .errors import DataError
from .parsing import (FEATURE_CHANNELS, Storyboard, VideoAnnotation, toy_text_embed,
                      toy_visual_embed, write_storyboard_channels)
from .rng import Rng
from .timeline import TimestampSet, from_timestamps


# the onset envelope of an n-sample clip spans n - (N_FFT - HOP) samples, so
# this is the shortest clip that carries a beat grid; `beats_within` gives a
# shorter one no beats
MIN_SYNTH_S = MIN_ENVELOPE_S + (N_FFT - HOP) / SAMPLE_RATE

MIN_SNR_DB = 20.0
MAX_CLIP_S = 120.0
MAX_SHOTS = 20


def _shown(value, limit):
    """`value` to one decimal when that text lies on `value`'s side of
    `limit`, else in full: an SNR of 19.99 dB reads 19.99, not 20.0."""
    text = f"{value:.1f}"
    return text if (float(text) - limit) * (value - limit) > 0 else repr(float(value))


def gate(pair):
    """Quality gate; returns (passed, reasons). All failing reasons listed.

    A pair fails when its SNR is under MIN_SNR_DB, its annotation lasts
    longer than MAX_CLIP_S or has more than MAX_SHOTS storyboards. A clip
    shorter than MIN_SYNTH_S fails on duration, since it carries no beat
    grid (stage A would train on all-zero labels for it), and gets no SNR
    estimate. A reason gives the measured value to one decimal, or in full
    where one decimal would round it onto its limit.
    """
    ann, wav = pair
    reasons = []
    if wav.duration_s < MIN_SYNTH_S:
        reasons.append(f"duration: {wav.duration_s:.1f} s under {MIN_SYNTH_S:g} s")
    else:
        snr = estimate_snr(wav)
        if snr < MIN_SNR_DB:
            reasons.append(f"snr: {_shown(snr, MIN_SNR_DB)} dB below {MIN_SNR_DB:.0f} dB")
    if ann.duration_s > MAX_CLIP_S:
        reasons.append(f"duration: {_shown(ann.duration_s, MAX_CLIP_S)} s exceeds "
                       f"{MAX_CLIP_S:.0f} s")
    if len(ann.storyboards) > MAX_SHOTS:
        reasons.append(f"shots: {len(ann.storyboards)} exceeds {MAX_SHOTS}")
    return (not reasons), reasons


# -- synthetic corpus ------------------------------------------------------


@dataclasses.dataclass
class SynthConfig:
    """The range a synthetic clip's duration is drawn from. `synth_corpus`
    uses the default; only `synth_item`'s own callers set another, the
    benchmark's fixed-duration clips among them."""

    duration_range_s: tuple = (10.0, 16.0)

    def __post_init__(self):
        lo, hi = self.duration_range_s
        if not lo <= hi <= MAX_DURATION_S:  # a longer clip is one no reader takes
            raise DataError(f"duration range [{lo}, {hi}] must be ordered and end by "
                            f"{MAX_DURATION_S:g} s")
        if lo < MIN_SYNTH_S:
            raise DataError(f"clips must last at least {MIN_SYNTH_S:g} s for beat tracking, "
                            f"got {lo}")


TEMPO_RANGE_BPM = (90.0, 140.0)
STORYBOARD_RANGE = (2, 4)
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
    transitions = TimestampSet(beats, duration)

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
            start_s=bounds[j], duration_s=bounds[j + 1] - bounds[j], text=text,
            text_feat=toy_text_embed(text), visual_feat=toy_visual_embed(text)))
    caption = f"synthetic montage tempo{int(round(tempo))}"
    tags = ["synthetic", _MOODS[int(mood_idx[0])]]

    n_samp = int(round(duration * SAMPLE_RATE))
    ts = np.arange(n_samp) / SAMPLE_RATE
    audio = NOISE_AMP * item_rng.normal(n_samp)
    for sb in sbs:
        root = _ROOTS[int(item_rng.integers(0, len(_ROOTS), 1)[0])]
        seg = sb.covers(ts)
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

    hits = from_timestamps(transitions).astype(np.float32)
    ff = np.zeros((FEATURE_CHANNELS, len(hits)), dtype=np.float32)
    ff += 0.02 * item_rng.normal(ff.size).reshape(ff.shape).astype(np.float32)
    # beats lie at least 6 frames apart (140 BPM at 16 fps), so no frame takes two terms
    ff[0] += hits
    ff[0, 1:] += 0.4 * hits[:-1]
    ff[0, :-1] += 0.4 * hits[1:]
    write_storyboard_channels(ff, sbs, duration)

    ann = VideoAnnotation(
        video_id=f"synth_{int(item_rng.integers(0, 1 << 31, 1)[0]):08x}",
        duration_s=duration,
        global_caption=caption, caption_feat=toy_text_embed(caption),
        emotion_tags=tags, tag_feat=toy_text_embed(" ".join(tags)),
        storyboards=sbs, transitions=transitions,
        frame_features=ff)
    return ann, Waveform(audio.astype(np.float32), SAMPLE_RATE)


def synth_corpus(n, seed):
    """A generator of n deterministic (annotation, waveform) pairs at the
    default `SynthConfig` range, pair i from `Rng(seed).fork(i + 1)`, each
    made when it is asked for, so a caller that keeps none holds no corpus in
    memory; transitions sit exactly on the generated beats, so ground-truth
    transition-beat agreement is high by construction. A caller that needs
    another range calls `synth_item` itself."""
    cfg = SynthConfig()
    master = Rng(seed)
    for i in range(n):
        yield synth_item(master.fork(i + 1), cfg)
