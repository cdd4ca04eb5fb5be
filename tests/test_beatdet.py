import numpy as np
import pytest

from vem import audiofeat as af
from vem import beatdet as bd
from vem.errors import DataError
from vem.rng import Rng
from vem.timeline import TimestampSet, f_measure

from helpers import click_track, track_beats_loop

SR = af.SAMPLE_RATE


def envelope_of(samples):
    return bd.spectral_flux(af.logmel(af.Waveform(samples, SR)))


def test_flux_constant_spectrogram_is_zero():
    m = af.MelSpectrogram(np.full((40, 60), -3.0), af.HOP, SR, 60)
    env = bd.spectral_flux(m)
    assert env.dtype == np.float32
    np.testing.assert_allclose(env, 0.0, atol=1e-9)


def test_flux_needs_two_windows():
    m = af.MelSpectrogram(np.zeros((1, 60)), af.HOP, SR, 60)
    with pytest.raises(DataError):
        bd.spectral_flux(m)


def test_flux_single_loud_frame_peaks_there():
    vals = np.full((50, 60), np.log(af.LOG_FLOOR), dtype=np.float32)
    vals[23] = 0.0
    env = bd.spectral_flux(af.MelSpectrogram(vals, af.HOP, SR, 60))
    assert int(np.argmax(env)) == 23
    assert env[23] > 0


def test_flux_click_train_peaks_at_spacing():
    w, _ = click_track(120, duration_s=8.0)  # clicks every 0.5 s
    env = envelope_of(w.samples)
    rate = bd.ENVELOPE_RATE_HZ
    peak_hops = [i for i in range(1, len(env) - 1) if env[i] > 0.5 * env.max()]
    times = sorted(peak_hops)
    gaps = np.diff([t / rate for t in times])
    big = gaps[gaps > 0.1]  # collapse multi-hop peak clusters
    assert np.abs(big - 0.5).max() < 0.05


def test_flux_survives_huge_values():
    vals = np.zeros((80, 60), dtype=np.float32)
    vals[40] = 500.0  # would overflow exp without the cap
    env = bd.spectral_flux(af.MelSpectrogram(vals, af.HOP, SR, 60))
    assert np.isfinite(env).all()


@pytest.mark.parametrize("bpm", [90, 110, 120, 140])
def test_tempo_on_clicks(bpm):
    w, _ = click_track(bpm, duration_s=30.0)
    est = bd.estimate_tempo(envelope_of(w.samples))
    assert abs(est - bpm) <= 2.0


def test_tempo_rejects_silence():
    with pytest.raises(DataError):
        bd.estimate_tempo(envelope_of(np.zeros(8 * SR, dtype=np.float32)))


def test_tempo_rejects_short_envelope():
    with pytest.raises(DataError):
        bd.estimate_tempo(np.abs(Rng(0).gaussian(100)).astype(np.float32))


def test_tempo_rejects_nonfinite():
    vals = np.ones(1000, dtype=np.float32)
    vals[5] = np.inf
    with pytest.raises(DataError):
        bd.estimate_tempo(vals)


def test_track_beats_phase_and_period():
    w, _ = click_track(120, duration_s=8.0, phase_s=0.25)
    env = envelope_of(w.samples)
    beats = bd.track_beats(env, 120.0)
    duration_s = len(env) / bd.ENVELOPE_RATE_HZ
    assert beats == sorted(beats)
    assert all(0.0 <= b <= duration_s for b in beats)
    grid = np.arange(0.25, duration_s - 0.5, 0.5)
    near = [min(abs(b - g) for b in beats) for g in grid]
    assert max(near) < 0.03


def test_track_beats_rejects_bpm_outside_range():
    env = np.ones(500, dtype=np.float32)
    with pytest.raises(DataError):
        bd.track_beats(env, 20.0)


def test_track_beats_matches_per_phase_loop():
    """The one-pass phase search picks the grid that scoring each phase on its
    own `np.arange` grid picks, across the tempo range."""
    r = Rng(21)
    for bpm in np.linspace(50.0, 220.0, 23):  # most periods fall off the quarter-hop lattice
        n = int(r.integers(300, 2000)[0])
        env = (r.uniform(n) ** 4).astype(np.float32)
        assert bd.track_beats(env, bpm) == track_beats_loop(env, bpm)


def test_track_beats_grid_point_on_last_sample():
    """At 100 BPM and 62.5 Hz a beat is 37.5 hops. With 76 samples, phase 0's
    third grid point lands exactly on index n - 1 = 75; with 77, phase 1.0's
    lands on 76. Neither may be scored, since it has no right neighbour. A
    2-sample envelope spans ENVELOPE_T0_S, so its one beat sits there."""
    r = Rng(22)
    for n in (76, 77):
        for _ in range(10):
            env = r.uniform(n).astype(np.float32)
            assert bd.track_beats(env, 100.0) == track_beats_loop(env, 100.0)
    assert bd.track_beats(np.zeros(2, dtype=np.float32), 100.0) == [bd.ENVELOPE_T0_S]


def test_shift_equivariance():
    w, _ = click_track(100, duration_s=10.0)
    hop_s = af.HOP / SR
    k = 12
    shifted = np.concatenate([np.zeros(k * af.HOP, dtype=np.float32), w.samples])
    b0, _ = bd.detect_beats(af.logmel(af.Waveform(w.samples, SR)))
    b1, _ = bd.detect_beats(af.logmel(af.Waveform(shifted, SR)))
    n = min(len(b0), len(b1) - 1)
    # skip the first shifted beat: the leading silence can host one extra
    off = np.array(b1[-n:]) - np.array(b0[-n:])
    assert np.abs(off - k * hop_s).max() <= hop_s + 1e-6


@pytest.mark.parametrize("bpm", [90, 110, 120, 140])
def test_f_measure_on_click_tracks(bpm):
    w, truth = click_track(bpm, duration_s=30.0)
    beats, est = bd.detect_beats(af.logmel(af.Waveform(w.samples, SR)))
    dur = w.duration_s
    got = TimestampSet([b for b in beats if b <= dur], dur)
    f = f_measure(got, TimestampSet(truth, dur))
    assert f >= 0.95
    assert abs(est - bpm) <= 2.0
