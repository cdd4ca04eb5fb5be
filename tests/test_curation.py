import numpy as np
import pytest
from helpers import make_annotation

from vem import curation as cu
from vem.audiofeat import SAMPLE_RATE, Waveform, logmel
from vem.beatdet import beats_within
from vem.errors import DataError
from vem.parsing import load_manifest, save_manifest
from vem.rng import Rng
from vem.timeline import (TimestampSet, match_count, transitions_beats_iou)


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
    with pytest.raises(DataError):
        cu.CurationRule(clip_len_range_s=(60.0, 20.0))
    with pytest.raises(DataError):
        cu.CurationRule(clip_shot_range=(5, 2))


# -- align_pair ------------------------------------------------------------


def test_align_noop_when_already_on_beats():
    ann = make_annotation(10.0, (0.0, 4.0, 10.0), (4.0,))
    beats = TimestampSet([2.0, 4.0, 6.0, 8.0], 10.0)
    out = cu.align_pair(ann, beats)
    assert out.transitions.times_s == [4.0]
    assert [s.start_s for s in out.storyboards] == [0.0, 4.0]


def test_align_moves_transition_and_boundary_together():
    ann = make_annotation(3.0, (0.0, 1.23, 3.0), (1.23,))
    beats = TimestampSet([1.0, 1.5], 3.0)
    out = cu.align_pair(ann, beats)
    assert out.transitions.times_s == [1.0]
    assert out.storyboards[0].duration_s == pytest.approx(1.0)
    assert out.storyboards[1].start_s == pytest.approx(1.0)
    assert out.storyboards[1].duration_s == pytest.approx(2.0)


def test_align_leaves_non_transition_boundaries():
    # boundary at 5.0 has no transition on it, so it must not move
    ann = make_annotation(10.0, (0.0, 2.1, 5.0, 10.0), (2.1,))
    beats = TimestampSet([2.0, 4.0, 6.0, 8.0], 10.0)
    out = cu.align_pair(ann, beats)
    assert out.storyboards[1].start_s == pytest.approx(2.0)
    assert out.storyboards[2].start_s == pytest.approx(5.0)


def test_align_postcondition_every_transition_on_a_beat():
    r = Rng(13)
    beats = TimestampSet(sorted(float(b) for b in np.arange(0.5, 29.5, 0.5)), 30.0)
    for k in range(10):
        times = sorted(set(round(float(t), 3) for t in 1.0 + 28.0 * r.uniform(3)))
        bounds = (0.0,) + tuple(times) + (30.0,)
        ann = make_annotation(30.0, bounds, times, with_frames=False)
        out = cu.align_pair(ann, beats)
        assert match_count(out.transitions, beats, 1e-9) == len(out.transitions.times_s)


def test_align_empty_beats_error():
    ann = make_annotation()
    with pytest.raises(DataError):
        cu.align_pair(ann, TimestampSet([], 10.0))


def test_align_collapse_error():
    # both bounds snap onto the same beat, squeezing the middle board to zero
    ann = make_annotation(10.0, (0.0, 4.9, 5.1, 10.0), (4.9, 5.1))
    with pytest.raises(DataError):
        cu.align_pair(ann, TimestampSet([5.0], 10.0))


# -- segment_clips ---------------------------------------------------------


def half_second_beats(duration_s):
    return TimestampSet([float(b) for b in np.arange(0.5, duration_s, 0.5)
                         if b < duration_s], duration_s)


def test_segment_90s_into_two_clips():
    bounds = tuple(float(b) for b in np.linspace(0.0, 90.0, 10))  # 9 shots
    ann = make_annotation(90.0, bounds, bounds[1:-1], with_frames=False)
    clips = cu.segment_clips(ann, half_second_beats(90.0))
    assert len(clips) == 2
    for c in clips:
        assert 20.0 <= c.duration_s <= 60.0
        assert 2 <= c.shot_count <= 20


def test_segment_cuts_on_beats_and_tiles():
    bounds = tuple(float(b) for b in np.linspace(0.0, 130.0, 14))
    ann = make_annotation(130.0, bounds, bounds[1:-1], with_frames=False)
    beats = half_second_beats(130.0)
    clips = cu.segment_clips(ann, beats)
    assert sum(c.duration_s for c in clips) <= 130.0 + 1e-9
    cur = 0.0
    for c in clips:
        cut = cur + c.duration_s
        cur = cut
        if cut < 130.0 - 1e-9:    # interior cuts sit on the beat grid
            assert min(abs(cut - b) for b in beats.times_s) < 1e-9
    assert 130.0 - cur < 20.0     # only a sub-minimum tail may be dropped


def test_segment_in_range_video_returned_whole():
    bounds = (0.0, 20.0, 50.0)
    ann = make_annotation(50.0, bounds, (20.0,), with_frames=False)
    clips = cu.segment_clips(ann, half_second_beats(50.0))
    assert len(clips) == 1 and clips[0] is ann


def test_segment_single_shot_error():
    ann = make_annotation(30.0, (0.0, 30.0), (), with_frames=False)
    with pytest.raises(DataError, match="shot range"):
        cu.segment_clips(ann, half_second_beats(30.0))


def test_segment_too_short_error():
    ann = make_annotation(10.0, (0.0, 4.0, 10.0), (4.0,), with_frames=False)
    with pytest.raises(DataError, match="length"):
        cu.segment_clips(ann, half_second_beats(10.0))


def test_segment_no_cut_error_mentions_constraint():
    # beats exist only outside the admissible window after 0 s
    bounds = tuple(float(b) for b in np.linspace(0.0, 90.0, 10))
    ann = make_annotation(90.0, bounds, bounds[1:-1], with_frames=False)
    beats = TimestampSet([5.0, 80.0], 90.0)
    with pytest.raises(DataError, match="no valid cut"):
        cu.segment_clips(ann, beats)


def test_segment_clip_clocks_restart_at_zero():
    bounds = tuple(float(b) for b in np.linspace(0.0, 90.0, 10))
    ann = make_annotation(90.0, bounds, bounds[1:-1], with_frames=True)
    clips = cu.segment_clips(ann, half_second_beats(90.0))
    for c in clips:
        assert c.storyboards[0].start_s < 1e-9 + 0.0 or c.storyboards[0].start_s >= 0.0
        assert all(0.0 <= t <= c.duration_s for t in c.transitions.times_s)
        last = c.storyboards[-1]
        assert last.end_s == pytest.approx(c.duration_s, abs=1e-6)
        assert c.frame_features.shape[1] == int(np.ceil(c.duration_s * 16.0))


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
