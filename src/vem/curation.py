"""Corpus curation: quality gates, beat alignment, clip segmentation, and
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
from .timeline import DEFAULT_FPS, TimestampSet, align_to_nearest_beat


@dataclasses.dataclass
class CurationRule:
    min_snr_db: float = 20.0
    max_duration_s: float = 120.0
    max_shots: int = 20
    clip_len_range_s: tuple = (20.0, 60.0)
    clip_shot_range: tuple = (2, 20)

    def __post_init__(self):
        if self.min_snr_db <= 0 or self.max_duration_s <= 0 or self.max_shots <= 0:
            raise DataError("curation thresholds must be positive")
        if self.clip_len_range_s[0] >= self.clip_len_range_s[1] or self.clip_shot_range[0] > self.clip_shot_range[1]:
            raise DataError("curation ranges must be non-empty")


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


def align_pair(ann, beats):
    """Snap transitions to their nearest beats; storyboard boundaries that
    sat on a moved transition move with it (continuity rule), everything
    else stays put.
    """
    if len(beats) == 0:
        raise DataError("cannot align to an empty beat set")
    moved = {}
    for t in ann.transitions.times_s:
        snapped = align_to_nearest_beat(TimestampSet([t], ann.duration_s), beats)
        moved[t] = snapped.times_s[0]
    new_tr = TimestampSet(sorted(set(moved.values())), ann.duration_s)

    bounds = [s.start_s for s in ann.storyboards] + [ann.storyboards[-1].end_s]
    new_bounds = []
    for b in bounds:
        hit = next((t for t in moved if abs(t - b) < 1e-6), None)
        new_bounds.append(moved[hit] if hit is not None else b)
    sbs = []
    for i, sb in enumerate(ann.storyboards):
        start, end = new_bounds[i], new_bounds[i + 1]
        if end - start <= 0:
            raise DataError(f"alignment collapsed storyboard {i} to non-positive duration")
        sbs.append(dataclasses.replace(sb, start_s=start, duration_s=end - start))
    return dataclasses.replace(ann, transitions=new_tr, storyboards=sbs)


def _clip_annotation(ann, t0, t1, suffix):
    """Restrict an annotation to [t0, t1) and re-zero its clock."""
    dur = t1 - t0
    sbs = []
    for sb in ann.storyboards:
        lo, hi = max(sb.start_s, t0), min(sb.end_s, t1)
        if hi - lo > 1e-9:
            sbs.append(dataclasses.replace(
                sb, index=len(sbs), start_s=lo - t0, duration_s=hi - lo))
    tr = [t - t0 for t in ann.transitions.times_s if t0 <= t < t1]
    ff = ann.frame_features
    if ff is not None:
        a = int(np.floor(t0 * DEFAULT_FPS))
        b = min(int(np.ceil(t1 * DEFAULT_FPS)), ff.shape[1])
        ff = ff[:, a:b]
        want = int(np.ceil(dur * DEFAULT_FPS))
        if ff.shape[1] > want:
            ff = ff[:, :want]
        elif ff.shape[1] < want:
            ff = np.pad(ff, ((0, 0), (0, want - ff.shape[1])))
    return dataclasses.replace(
        ann, video_id=f"{ann.video_id}_{suffix}", duration_s=dur,
        storyboards=sbs, transitions=TimestampSet(tr, dur), frame_features=ff)


def segment_clips(ann, beats, rules=None):
    """Cut a long video into clips on beat timestamps, greedy left-to-right.

    Each cut takes the LATEST beat that keeps the clip inside the length
    range with an admissible shot count; a tail shorter than the minimum is
    discarded. A video already inside the length range comes back whole.
    """
    rules = rules or CurationRule()
    lo, hi = rules.clip_len_range_s
    smin, smax = rules.clip_shot_range

    def shots_in(t0, t1):
        return sum(1 for s in ann.storyboards if min(s.end_s, t1) - max(s.start_s, t0) > 1e-9)

    def check_shots(t0, t1):
        n = shots_in(t0, t1)
        return smin <= n <= smax

    if ann.duration_s <= hi:
        if ann.duration_s < lo:
            raise DataError(f"length: video of {ann.duration_s:.1f} s is shorter than {lo:.0f} s")
        if not check_shots(0.0, ann.duration_s):
            raise DataError(f"shot range: video has {shots_in(0, ann.duration_s)} shots, "
                            f"need {smin}-{smax}")
        return [ann]

    bt = sorted(beats.times_s)
    clips = []
    cur = 0.0
    while ann.duration_s - cur > hi:
        cands = [b for b in bt if lo <= b - cur <= hi and check_shots(cur, b)]
        if not cands:
            in_len = [b for b in bt if lo <= b - cur <= hi]
            what = "shot range" if in_len else "length: no beat inside the clip window"
            raise DataError(f"no valid cut after {cur:.1f} s ({what} unsatisfiable)")
        nxt = cands[-1]
        clips.append(_clip_annotation(ann, cur, nxt, f"clip{len(clips)}"))
        cur = nxt
    rem = ann.duration_s - cur
    if rem >= lo and check_shots(cur, ann.duration_s):
        clips.append(_clip_annotation(ann, cur, ann.duration_s, f"clip{len(clips)}"))
    return clips


# -- synthetic corpus ------------------------------------------------------


@dataclasses.dataclass
class SynthConfig:
    duration_range_s: tuple = (10.0, 16.0)
    tempo_range_bpm: tuple = (90.0, 140.0)
    storyboard_range: tuple = (2, 4)
    feature_channels: int = 8
    click_amp: float = 0.6
    bed_amp: float = 0.12
    noise_amp: float = 5e-4
    am_rate_hz: float = 0.35


_MOODS = ("calm", "bright", "driving", "dark", "warm", "tense")
_ROOTS = (220.0, 277.18, 329.63, 392.0)


def synth_item(item_rng, cfg):
    """One (annotation, waveform) pair from a dedicated random stream."""
    lo, hi = cfg.duration_range_s
    duration = lo + (hi - lo) * float(item_rng.uniform(1)[0])
    t_lo, t_hi = cfg.tempo_range_bpm
    tempo = t_lo + (t_hi - t_lo) * float(item_rng.uniform(1)[0])
    period = 60.0 / tempo
    phase = float(item_rng.uniform(1)[0]) * period
    beats = []
    t = phase
    while t < duration - 0.05:
        beats.append(t)
        t += period

    n_sb = int(item_rng.integers(cfg.storyboard_range[0], cfg.storyboard_range[1] + 1, 1)[0])
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
    audio = cfg.noise_amp * item_rng.normal(n_samp)
    for sb in sbs:
        root = _ROOTS[int(item_rng.integers(0, len(_ROOTS), 1)[0])]
        seg = (ts >= sb.start_s) & (ts < sb.end_s)
        tt = ts[seg] - sb.start_s
        env = 0.5 * (1.0 - np.cos(2.0 * np.pi * cfg.am_rate_hz * tt))
        audio[seg] += cfg.bed_amp * env * (
            np.sin(2.0 * np.pi * root * tt) + 0.5 * np.sin(2.0 * np.pi * root * 1.5 * tt))
    burst_len = 480  # 30 ms
    burst = item_rng.normal(burst_len) * np.exp(-np.arange(burst_len) / 120.0) * cfg.click_amp
    for b in beats:
        i0 = int(round(b * SAMPLE_RATE))
        i1 = min(i0 + burst_len, n_samp)
        audio[i0:i1] += burst[:i1 - i0]
    audio = np.clip(audio, -1.0, 1.0)

    n_frames = int(np.ceil(duration * DEFAULT_FPS))
    ff = np.zeros((cfg.feature_channels, n_frames), dtype=np.float32)
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
        if cfg.feature_channels > 1:
            ff[1, inside] = (frame_t[inside] - sb.start_s) / sb.duration_s
        if cfg.feature_channels > 2:
            ff[2, inside] = (sb.index + 1) / n_sb
    if cfg.feature_channels > 3:
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
