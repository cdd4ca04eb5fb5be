import hashlib

import numpy as np
import pytest
from helpers import make_annotation

from vem import curation as cu
from vem.audiofeat import SAMPLE_RATE, Waveform, logmel
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
    ann = make_annotation(130.0, bounds, (bounds[1],), with_frames=False)
    passed, reasons = cu.gate((ann, quiet_wave(130.0)))
    assert not passed
    assert any(r.startswith("duration") for r in reasons)


def test_gate_rejects_too_many_shots():
    bounds = tuple(np.linspace(0.0, 60.0, 22))   # 21 storyboards
    ann = make_annotation(60.0, bounds, (bounds[1],), with_frames=False)
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
    ann = make_annotation(130.0, bounds, (bounds[1],), with_frames=False)
    passed, reasons = cu.gate((ann, noisy_wave(130.0)))
    assert not passed and len(reasons) == 3


def test_gate_monotone_in_thresholds():
    ann = make_annotation(30.0, (0.0, 10.0, 20.0, 30.0), (10.0, 20.0))
    wav = quiet_wave()
    tight = cu.CurationRule(min_snr_db=30.0, max_duration_s=25.0, max_shots=2)
    loose = cu.CurationRule(min_snr_db=10.0, max_duration_s=200.0, max_shots=50)
    passed_tight, _ = cu.gate((ann, wav), tight)
    passed_loose, _ = cu.gate((ann, wav), loose)
    assert not passed_tight and passed_loose


def test_rule_validation():
    with pytest.raises(DataError):
        cu.CurationRule(min_snr_db=0.0)


# -- synthetic corpus ------------------------------------------------------


def test_synth_corpus_deterministic():
    a = cu.synth_corpus(3, seed=7)
    b = cu.synth_corpus(3, seed=7)
    for (ann_a, wav_a), (ann_b, wav_b) in zip(a, b):
        assert ann_a.video_id == ann_b.video_id
        assert ann_a.transitions.times_s == ann_b.transitions.times_s
        np.testing.assert_array_equal(wav_a.samples, wav_b.samples)
        np.testing.assert_array_equal(ann_a.frame_features, ann_b.frame_features)
    c = cu.synth_corpus(3, seed=8)
    assert a[0][0].video_id != c[0][0].video_id


def test_synth_corpus_needs_positive_n():
    with pytest.raises(DataError):
        cu.synth_corpus(0, seed=1)


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
