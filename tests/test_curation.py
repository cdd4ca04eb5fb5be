import hashlib

import numpy as np
import pytest
from helpers import make_annotation, synth_impulses_loop

from vem import curation as cu
from vem.audiofeat import MAX_DURATION_S, SAMPLE_RATE, Waveform, logmel
from vem.beatdet import beats_within
from vem.errors import DataError
from vem.parsing import load_manifest, save_manifest
from vem.rng import Rng
from vem.timeline import transitions_beats_iou


def quiet_wave(duration_s=30.0, seed=0):
    """Loud tone bursts over a faint floor: high SNR by construction."""
    r = Rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    y = r.normal(n).astype(np.float32) * 1e-4
    t = np.arange(n) / SAMPLE_RATE
    on = (t % 1.0) < 0.5
    y[on] += 0.5 * np.sin(2 * np.pi * 440.0 * t[on]).astype(np.float32)
    return Waveform(np.clip(y, -1, 1), SAMPLE_RATE)


def noisy_wave(duration_s=30.0, seed=1):
    r = Rng(seed)
    n = int(duration_s * SAMPLE_RATE)
    return Waveform((r.normal(n) * 0.3).astype(np.float32), SAMPLE_RATE)


# -- gate ------------------------------------------------------------------


def test_gate_passes_clean_pair():
    ann = make_annotation(30.0, (0.0, 10.0, 20.0, 30.0), (10.0, 20.0))
    passed, reasons = cu.gate((ann, quiet_wave()))
    assert passed and reasons == []


def test_gate_rejects_long_video():
    bounds = tuple(np.linspace(0.0, 130.0, 5))
    ann = make_annotation(130.0, bounds, (bounds[1],))
    passed, reasons = cu.gate((ann, quiet_wave(130.0)))
    assert not passed
    assert any(r.startswith("duration") for r in reasons)


def test_gate_rejects_too_many_shots():
    bounds = tuple(np.linspace(0.0, 60.0, 22))   # 21 storyboards
    ann = make_annotation(60.0, bounds, (bounds[1],))
    passed, reasons = cu.gate((ann, quiet_wave(60.0)))
    assert not passed
    assert any(r.startswith("shots") for r in reasons)


def test_gate_rejects_low_snr():
    ann = make_annotation(30.0, (0.0, 15.0, 30.0), (15.0,))
    passed, reasons = cu.gate((ann, noisy_wave()))
    assert not passed
    assert any(r.startswith("snr") for r in reasons)


def test_gate_lists_every_failing_reason():
    bounds = tuple(np.linspace(0.0, 130.0, 23))
    ann = make_annotation(130.0, bounds, (bounds[1],))
    passed, reasons = cu.gate((ann, noisy_wave(130.0)))
    assert not passed and len(reasons) == 3


@pytest.mark.parametrize("duration_s", [0.8, 3.0, cu.MIN_SYNTH_S - 1e-3])
def test_gate_fails_clips_too_short_for_beat_tracking(monkeypatch, duration_s):
    """A clip shorter than MIN_SYNTH_S fails on duration with no SNR
    estimate: 3 s used to pass and then stop stage A, and 0.8 s is too short
    for the estimate, which used to raise."""
    def no_snr(w):
        raise AssertionError("SNR estimated")

    monkeypatch.setattr(cu, "estimate_snr", no_snr)
    ann = make_annotation(duration_s, (0.0, duration_s), ())
    wav = Waveform(quiet_wave().samples[:int(duration_s * SAMPLE_RATE)], SAMPLE_RATE)
    passed, reasons = cu.gate((ann, wav))
    assert not passed
    assert reasons == [f"duration: {wav.duration_s:.1f} s under {cu.MIN_SYNTH_S:g} s"]


def test_gate_estimates_snr_from_min_synth_s():
    n = int(np.ceil(cu.MIN_SYNTH_S * SAMPLE_RATE))
    ann = make_annotation(n / SAMPLE_RATE, (0.0, n / SAMPLE_RATE), ())
    assert cu.gate((ann, Waveform(quiet_wave().samples[:n], SAMPLE_RATE))) == (True, [])
    assert cu.gate((ann, Waveform(noisy_wave().samples[:n], SAMPLE_RATE)))[1][0].startswith("snr")


_JUST_UNDER_SNR = float(np.nextafter(cu.MIN_SNR_DB, -np.inf))
_JUST_PAST_CLIP = float(np.nextafter(cu.MAX_CLIP_S, np.inf))


@pytest.mark.parametrize("snr, duration_s, shots, reasons", [
    (cu.MIN_SNR_DB, cu.MAX_CLIP_S, cu.MAX_SHOTS, []),
    (_JUST_UNDER_SNR, cu.MAX_CLIP_S, cu.MAX_SHOTS, ["snr: 19.999999999999996 dB below 20 dB"]),
    (19.99, cu.MAX_CLIP_S, cu.MAX_SHOTS, ["snr: 19.99 dB below 20 dB"]),
    (18.4, cu.MAX_CLIP_S, cu.MAX_SHOTS, ["snr: 18.4 dB below 20 dB"]),
    (cu.MIN_SNR_DB, _JUST_PAST_CLIP, cu.MAX_SHOTS,
     ["duration: 120.00000000000001 s exceeds 120 s"]),
    (cu.MIN_SNR_DB, 120.04, cu.MAX_SHOTS, ["duration: 120.04 s exceeds 120 s"]),
    (cu.MIN_SNR_DB, cu.MAX_CLIP_S, cu.MAX_SHOTS + 1, ["shots: 21 exceeds 20"]),
], ids=["at-every-limit", "snr-just-under", "snr-19.99", "snr-18.4", "clip-just-past",
        "clip-120.04", "one-shot-more"])
def test_gate_boundaries(monkeypatch, snr, duration_s, shots, reasons):
    """The fixed policy: a pair at each limit passes, and one step past any
    limit fails with that limit's reason alone. A reason never reads as a
    pass: where one decimal would round the value onto its limit, it is
    given in full."""
    monkeypatch.setattr(cu, "estimate_snr", lambda w: snr)
    ann = make_annotation(duration_s, tuple(np.linspace(0.0, duration_s, shots + 1)), ())
    assert len(ann.storyboards) == shots
    assert cu.gate((ann, quiet_wave(10.0))) == (not reasons, reasons)


# -- synthetic corpus ------------------------------------------------------


def test_synth_corpus_deterministic():
    a = list(cu.synth_corpus(3, seed=7))
    b = list(cu.synth_corpus(3, seed=7))
    for (ann_a, wav_a), (ann_b, wav_b) in zip(a, b):
        assert ann_a.video_id == ann_b.video_id
        assert ann_a.transitions.times_s == ann_b.transitions.times_s
        np.testing.assert_array_equal(wav_a.samples, wav_b.samples)
        np.testing.assert_array_equal(ann_a.frame_features, ann_b.frame_features)
    c = list(cu.synth_corpus(3, seed=8))
    assert a[0][0].video_id != c[0][0].video_id


@pytest.mark.parametrize("hi", [MAX_DURATION_S + 100, 1e15])
def test_synth_config_refuses_clips_no_reader_takes(hi):
    """A clip past MAX_DURATION_S is one `load_wav` and `load_manifest`
    refuse, and synthesizing it ran out of memory or for hours: the config
    refuses it before a sample is drawn, and admits the bound itself."""
    with pytest.raises(DataError, match="must be ordered and end by"):
        cu.SynthConfig(duration_range_s=(10.0, hi))
    cu.SynthConfig(duration_range_s=(10.0, MAX_DURATION_S))


@pytest.mark.parametrize("lo, hi, refusal", [
    (0.01, 0.02, "must last at least"), (16.0, 10.0, "must be ordered"),
    (4.0, 16.0, "must last at least"), (cu.MIN_SYNTH_S - 1e-3, 10.0, "must last at least"),
    (np.nan, np.nan, "must be ordered"), (5.0, np.nan, "must be ordered"),
    (5.0, np.inf, "must be ordered"),
], ids=["too-short", "reversed", "4-s", "just-under-bound", "nan", "nan-max", "inf-max"])
def test_synth_config_refuses_bad_ranges(lo, hi, refusal):
    """A range that is out of order, not finite or starts below MIN_SYNTH_S
    is refused before a sample is drawn."""
    with pytest.raises(DataError, match=refusal):
        cu.SynthConfig(duration_range_s=(lo, hi))


def test_shortest_synth_clip_keeps_beat_tracking():
    # MIN_SYNTH_S leaves exactly 4 s of onset envelope, enough for the tempo search
    assert cu.MIN_SYNTH_S == pytest.approx(4.048)
    for seed in range(4):
        ann, wav = cu.synth_item(Rng(seed), cu.SynthConfig((cu.MIN_SYNTH_S, cu.MIN_SYNTH_S)))
        assert len(beats_within(logmel(wav), ann.duration_s)) > 0


def test_synth_item_structure():
    ann, wav = cu.synth_item(Rng(42), cu.SynthConfig())
    assert 10.0 <= ann.duration_s <= 16.0
    assert 2 <= len(ann.storyboards) <= 4
    assert wav.sample_rate_hz == SAMPLE_RATE
    assert len(wav.samples) == int(round(ann.duration_s * SAMPLE_RATE))
    assert np.abs(wav.samples).max() <= 1.0
    # transitions describe the beat grid: constant period in [90, 140] BPM
    ts = ann.transitions.times_s
    gaps = np.diff(ts)
    assert gaps.std() < 1e-6
    bpm = 60.0 / gaps.mean()
    assert 90.0 - 1e-6 <= bpm <= 140.0 + 1e-6
    # boundaries of interior storyboards sit exactly on transition beats
    for sb in ann.storyboards[1:]:
        assert min(abs(sb.start_s - t) for t in ts) < 1e-9


def test_synth_item_output_is_pinned():
    """SHA-256 over everything `synth_item` emits for four fixed streams: a
    change to the generator's constants or its draw order moves it."""
    h = hashlib.sha256()
    items = [cu.synth_item(Rng(s), cu.SynthConfig()) for s in (0, 7, 42)]
    items.append(cu.synth_item(Rng(3), cu.SynthConfig(duration_range_s=(12.0, 12.0))))
    for ann, wav in items:
        h.update(wav.samples.tobytes())
        h.update(ann.frame_features.tobytes())
        h.update(np.asarray(ann.transitions.times_s, dtype=np.float64).tobytes())
        h.update(repr([(sb.start_s, sb.duration_s, sb.text) for sb in ann.storyboards]).encode())
        h.update(repr((ann.video_id, ann.duration_s, ann.global_caption,
                       ann.emotion_tags)).encode())
    assert h.hexdigest() == "83f7ee1fe68173bf273120ef080ce9cc7f68b02ddf4dcc6afeb5ed3ce7ad6a22"


@pytest.mark.parametrize("seed,duration_range_s", [
    (0, (10.0, 16.0)), (7, (10.0, 16.0)), (3, (12.0, 12.0)), (5, (cu.MIN_SYNTH_S, cu.MIN_SYNTH_S)),
], ids=["seed0", "seed7", "12s", "shortest"])
def test_synth_impulses_match_the_per_beat_loop(monkeypatch, seed, duration_range_s):
    """Channel 0 of a synthetic clip, built from the one 16 fps raster, is
    bit-identical to the per-beat loop it replaced, run on the same noise
    draw (recorded as `synth_item` makes it)."""
    draws = []
    normal = Rng.normal
    monkeypatch.setattr(Rng, "normal", lambda self, n: draws.append(normal(self, n)) or draws[-1])
    ann, _ = cu.synth_item(Rng(seed), cu.SynthConfig(duration_range_s))
    ff = ann.frame_features
    (draw,) = [d for d in draws if d.size == ff.size]
    noise = np.zeros(ff.shape, dtype=np.float32)
    noise += 0.02 * draw.reshape(ff.shape).astype(np.float32)
    want = synth_impulses_loop(noise[0], ann.transitions.times_s)
    assert ff[0].tobytes() == want.tobytes()
    assert ff[4:].tobytes() == noise[4:].tobytes()


def test_synth_manifests_survive_strict_loading(tmp_path):
    for i, (ann, _) in enumerate(cu.synth_corpus(3, seed=5)):
        path = tmp_path / f"m{i}.json"
        save_manifest(path, ann)
        loaded = load_manifest(path)
        assert loaded.video_id == ann.video_id
        assert len(loaded.storyboards) == len(ann.storyboards)


def test_synth_pairs_have_high_transition_beat_agreement():
    corpus = cu.synth_corpus(4, seed=11)
    for ann, wav in corpus:
        beats = beats_within(logmel(wav), ann.duration_s)
        assert transitions_beats_iou(ann.transitions, beats) >= 0.8
