import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.signal import firwin, resample_poly

from vem import audiofeat as af
from vem.errors import DataError
from vem.rng import Rng

from helpers import griffin_lim_loop, logmel_float64, mel_center_freqs

SR = af.SAMPLE_RATE


def sine(freq, duration_s=1.0, sr=SR, amp=0.5):
    t = np.arange(int(duration_s * sr)) / sr
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


# -- types -----------------------------------------------------------------


def test_waveform_validation():
    with pytest.raises(DataError):
        af.Waveform(np.zeros((2, 3)), SR)
    with pytest.raises(DataError):
        af.Waveform(np.array([0.0, np.nan]), SR)
    with pytest.raises(DataError):
        af.Waveform(np.zeros(4), 0)
    assert af.Waveform(np.zeros(SR), SR).duration_s == 1.0


def test_mel_type_checks_bins():
    with pytest.raises(DataError):
        af.MelSpectrogram(np.zeros((5, 13)), af.HOP, SR, 60)
    assert af.MelSpectrogram(np.zeros((5, 60)), af.HOP, SR, 60).values.shape == (5, 60)


@pytest.mark.parametrize("geometry", [(300, SR, 60), (af.HOP, 22050, 60), (af.HOP, SR, 30)])
def test_mel_spectrogram_rejects_other_geometry(geometry):
    """Every helper reads HOP, SAMPLE_RATE and N_MELS, so a spectrogram
    tagged with any other hop, rate or bin count cannot be built."""
    with pytest.raises(DataError, match="package"):
        af.MelSpectrogram(np.zeros((5, geometry[2])), *geometry)


# -- wav io ----------------------------------------------------------------


def test_wav_silence_round_trip(tmp_path):
    p = tmp_path / "s.wav"
    af.save_wav(p, af.Waveform(np.zeros(SR), SR))
    w = af.load_wav(p)
    assert w.sample_rate_hz == SR
    assert len(w.samples) == SR
    assert not w.samples.any()


def test_wav_round_trip_quantization(tmp_path):
    p = tmp_path / "r.wav"
    x = sine(440, 0.25)
    af.save_wav(p, af.Waveform(x, SR))
    back = af.load_wav(p).samples
    assert np.abs(back - x).max() < 1.0 / 32000


def test_pcm16_scaling_endpoints(tmp_path):
    import struct
    pcm = struct.pack("<2h", -32768, 32767)
    blob = (b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVEfmt " +
            struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 2, 2, 16) +
            b"data" + struct.pack("<I", len(pcm)) + pcm)
    p = tmp_path / "e.wav"
    p.write_bytes(blob)
    w = af.load_wav(p)
    np.testing.assert_allclose(w.samples, [-1.0, 32767.0 / 32768.0], atol=1e-7)


def test_stereo_averaged_to_mono(tmp_path):
    import struct
    frames = struct.pack("<4h", 16384, -16384, 16384, -16384)  # L=+0.5 R=-0.5
    blob = (b"RIFF" + struct.pack("<I", 36 + len(frames)) + b"WAVEfmt " +
            struct.pack("<IHHIIHH", 16, 1, 2, SR, SR * 4, 4, 16) +
            b"data" + struct.pack("<I", len(frames)) + frames)
    p = tmp_path / "st.wav"
    p.write_bytes(blob)
    w = af.load_wav(p)
    assert len(w.samples) == 2
    np.testing.assert_allclose(w.samples, 0.0, atol=1e-7)


def test_load_wav_rejects_garbage(tmp_path):
    p = tmp_path / "g.wav"
    p.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(DataError):
        af.load_wav(p)


def test_load_wav_rejects_unsupported_codec(tmp_path):
    import struct
    blob = (b"RIFF" + struct.pack("<I", 36) + b"WAVEfmt " +
            struct.pack("<IHHIIHH", 16, 7, 1, SR, SR, 1, 8) +
            b"data" + struct.pack("<I", 0))
    p = tmp_path / "u.wav"
    p.write_bytes(blob)
    with pytest.raises(DataError):
        af.load_wav(p)


def test_load_wav_rejects_short_fmt_chunk(tmp_path):
    import struct
    blob = (b"RIFF" + struct.pack("<I", 28) + b"WAVEfmt " + struct.pack("<I", 8) +
            struct.pack("<HHI", 1, 1, SR) + b"data" + struct.pack("<I", 0))
    p = tmp_path / "short.wav"
    p.write_bytes(blob)
    with pytest.raises(DataError):
        af.load_wav(p)


@pytest.mark.parametrize("rate", [1, 2, 3, 7, 8])
def test_load_wav_refuses_audio_past_longest_clip(tmp_path, rate):
    """A 12 s clip whose header claims a rate of a few Hz lasts hours; it is
    refused on load, before resampling to 16 kHz would build gigabytes (2.88
    GiB for the log-mel input at 8 Hz). The bound is exact in samples."""
    n = 193_088
    p = tmp_path / "slow.wav"
    af.save_wav(p, af.Waveform(np.zeros(n, dtype=np.float32), rate))
    with pytest.raises(DataError, match=f"{n} samples at {rate} Hz"):
        af.load_wav(p)
    limit = int(rate * af.MAX_DURATION_S)
    af.save_wav(p, af.Waveform(np.zeros(limit, dtype=np.float32), rate))
    assert af.load_wav(p).duration_s == af.MAX_DURATION_S


def test_load_wav_extensible_matches_plain_pcm(tmp_path):
    import struct
    pcm = (np.arange(-40, 40, dtype="<i2") * 409).tobytes()
    guid_tail = bytes.fromhex("000000001000800000aa00389b71")

    def write(name, fmt_body):
        p = tmp_path / name
        p.write_bytes(b"RIFF" + struct.pack("<I", 20 + len(fmt_body) + len(pcm)) + b"WAVEfmt " +
                      struct.pack("<I", len(fmt_body)) + fmt_body + b"data" +
                      struct.pack("<I", len(pcm)) + pcm)
        return p

    base = struct.pack("<IIHH", SR, 2 * SR, 2, 16)
    plain = af.load_wav(write("plain.wav", struct.pack("<HH", 1, 1) + base))
    ext = struct.pack("<HH", 0xFFFE, 1) + base + struct.pack("<HHI", 22, 16, 4)
    loaded = af.load_wav(write("ext.wav", ext + struct.pack("<H", 1) + guid_tail))
    np.testing.assert_array_equal(loaded.samples, plain.samples)
    assert loaded.sample_rate_hz == SR
    for name, body in [("float16.wav", ext + struct.pack("<H", 3) + guid_tail),
                       ("short.wav", ext[:18])]:
        with pytest.raises(DataError):
            af.load_wav(write(name, body))


# -- resampling ------------------------------------------------------------


def test_resample_identity():
    w = af.Waveform(sine(440, 0.5), SR)
    out = af.resample(w, SR)
    np.testing.assert_array_equal(out.samples, w.samples)


def test_resample_length_rule():
    w = af.Waveform(np.zeros(44100 + 137, dtype=np.float32), 44100)
    out = af.resample(w, 16000)
    assert len(out.samples) == round(len(w.samples) * 16000 / 44100)


def test_resample_preserves_tone():
    w = af.Waveform(sine(440, 1.0, sr=32000), 32000)
    out = af.resample(w, 16000)
    mag = af.stft_magnitude(out.samples).mean(axis=0)
    peak_hz = np.argmax(mag) * SR / af.N_FFT
    assert abs(peak_hz - 440.0) <= SR / af.N_FFT


def test_upsample_stays_band_limited():
    x = (Rng(3).gaussian(8000 * 2) * 0.2).astype(np.float32)
    out = af.resample(af.Waveform(x, 8000), 16000)
    spec = np.abs(np.fft.rfft(out.samples.astype(np.float64))) ** 2
    freqs = np.fft.rfftfreq(len(out.samples), 1.0 / 16000)
    hi = spec[freqs > 4100].mean()
    lo = spec[(freqs > 200) & (freqs < 3900)].mean()
    assert 10 * math.log10(hi / lo) < -40


RATE_PAIRS = ([(src, SR) for src in (8000, 11025, 22050, 24000, 32000, 44100, 48000, 96000,
                                      192000)]
              + [(SR, 44100), (SR, 48000)])


@pytest.mark.parametrize("src,dst", RATE_PAIRS)
def test_resample_matches_resample_poly(src, dst):
    """Oracle: scipy's resample_poly with the same Kaiser FIR, trimmed to the
    round(n * dst / src) samples `resample` promises."""
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    m = max(up, down)
    taps = firwin(80 * m + 1, 0.97 / m, window=("kaiser", 7.0))
    signal = (0.3 * Rng(src + dst).gaussian(12 * src + 11)).astype(np.float32)
    for n in (0, 1, 2, 3, 50, len(signal)):
        x = signal[:n]
        want = round(n * dst / src)
        ref = resample_poly(x.astype(np.float64), up, down, window=taps)[:want]
        got = af.resample(af.Waveform(x, src), dst).samples
        assert got.dtype == np.float32 and len(got) == want, (n, len(got), want)
        np.testing.assert_allclose(got, ref.astype(np.float32), rtol=0, atol=1e-7)


def test_large_resample_plans_are_not_cached():
    """44101 Hz reduces to 16000/44101, a 34 MB plan: it is designed per call,
    never kept, and its output still matches the `resample_poly` oracle; a
    22.05 kHz plan (0.3 MB) is still cached."""
    up, down = 16000, 44101
    x = (0.3 * Rng(17).gaussian(44101)).astype(np.float32)
    got = af.resample(af.Waveform(x, 44101), SR).samples
    assert (up, down) not in af._plans
    taps = firwin(80 * down + 1, 0.97 / down, window=("kaiser", 7.0))
    ref = resample_poly(x.astype(np.float64), up, down, window=taps)[:SR]
    np.testing.assert_allclose(got, ref.astype(np.float32), rtol=0, atol=1e-7)
    af.resample(af.Waveform(x[:22050], 22050), SR)
    assert af._plans[320, 441].nbytes <= af._PLAN_CACHE_BYTES


# -- stft / mel ------------------------------------------------------------


def test_framing_formula_random_lengths():
    r = Rng(7)
    for _ in range(50):
        n = int(r.integers(af.N_FFT, 50000)[0])
        mag = af.stft_magnitude(np.zeros(n))
        assert mag.shape == (1 + (n - af.N_FFT) // af.HOP, af.N_FFT // 2 + 1)


def test_stft_rejects_short_input():
    with pytest.raises(DataError):
        af.stft_magnitude(np.zeros(af.N_FFT - 1))


def gathered_frames(x):
    """Oracle framing: Hann-weighted frames gathered through an index matrix."""
    w = af.frame_count(len(x))
    idx = af.HOP * np.arange(w)[:, None] + np.arange(af.N_FFT)[None, :]
    return x[idx] * af._hann(np.float64)[None, :]


def test_parseval_on_random_signal():
    x = Rng(11).gaussian(5000)
    frames = gathered_frames(x)
    p_time = (frames ** 2).sum()
    spec = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    p_freq = (2 * spec.sum() - spec[:, 0].sum() - spec[:, -1].sum()) / af.N_FFT
    assert abs(p_freq - p_time) / p_time < 0.01


def test_filterbank_shape_and_bounds():
    fb = af.mel_filterbank()
    assert fb.shape == (60, af.N_FFT // 2 + 1)
    assert fb.min() >= 0.0 and fb.max() <= 1.0 + 1e-12
    assert (fb.max(axis=1) > 0).all()  # no dead bands


def test_logmel_silence_hits_floor():
    m = af.logmel(af.Waveform(np.zeros(SR), SR))
    np.testing.assert_allclose(m.values, math.log(af.LOG_FLOOR), atol=1e-5)


@pytest.mark.parametrize("k", [20, 30, 45])
def test_logmel_center_tone_peaks_in_band(k):
    freq = mel_center_freqs()[k]
    m = af.logmel(af.Waveform(sine(freq, 1.0), SR))
    assert (np.argmax(m.values, axis=1) == k).all()


def test_logmel_framing_10s():
    m = af.logmel(af.Waveform(np.zeros(10 * SR), SR))
    assert m.values.shape == (622, 60)


def test_logmel_requires_16k():
    with pytest.raises(DataError):
        af.logmel(af.Waveform(np.zeros(8000), 8000))


def test_logmel_deterministic():
    w = af.Waveform(sine(523.25, 0.5) + 0.01 * Rng(1).gaussian(SR // 2).astype(np.float32), SR)
    a = af.logmel(w).values
    b = af.logmel(w).values
    np.testing.assert_array_equal(a, b)


def test_logmel_matches_gather_framing_oracle():
    """The oracle framing, then the float32 magnitude STFT, the filterbank
    and the log, as the pipeline is defined: the same bits at any number of
    blocks and any remainder."""
    fb = af.mel_filterbank().astype(np.float32)
    for frames in (1, 16, 65, 66, 185, 809):
        x = (0.3 * Rng(12).gaussian(af.N_FFT + af.HOP * (frames - 1) + 100)).astype(np.float32)
        idx = af.HOP * np.arange(frames)[:, None] + np.arange(af.N_FFT)[None, :]
        mag = np.abs(scipy.fft.rfft(x[idx] * af._hann(np.float64).astype(np.float32), axis=1))
        np.testing.assert_array_equal(af.stft_magnitude(x), mag)
        ref = np.log(mag @ fb.T + np.float32(af.LOG_FLOOR))
        np.testing.assert_array_equal(af.logmel(af.Waveform(x, SR)).values, ref)


def test_logmel_float32_stays_near_float64_reference(synth_pair, small_corpus):
    """The float32 analysis moves a log-mel by far less than the PCM16
    quantization of its input does (up to 0.14), on synthetic clips and on
    noise."""
    clips = [synth_pair[1].samples] + [w.samples for _, w in small_corpus]
    for x in clips + [(0.3 * Rng(15).gaussian(5 * SR)).astype(np.float32)]:
        got = af.logmel(af.Waveform(x, SR)).values
        assert got.dtype == np.float32
        assert np.abs(got - logmel_float64(x)).max() <= 1e-3


def test_mel_filterbank_returns_fresh_writable_array():
    x = (0.3 * Rng(13).gaussian(2 * SR)).astype(np.float32)
    before = af.logmel(af.Waveform(x, SR)).values
    fb = af.mel_filterbank()
    assert fb.flags.writeable
    fb[:] = 7.0
    assert af.mel_filterbank().max() <= 1.0
    np.testing.assert_array_equal(af.logmel(af.Waveform(x, SR)).values, before)


def test_cached_constants_are_read_only_and_bounded():
    plan = af._resample_plan(160, 441)
    cached = ([af._hann(np.float64), af._mel_fb(np.float64),
               af._hann(np.float32), af._mel_fb(np.float32)]
              + [taps for _, _, taps in plan.blocks])
    for a in cached:
        with pytest.raises(ValueError):
            a[0] = 1.0
    for cache in (af._hann, af._mel_fb):
        assert 0 < cache.cache_info().maxsize <= 16
    # 17 rates k kHz reduce to 17 small pairs: the least recently used goes
    af._plans.clear()
    for k in range(17, 34):
        af.resample(af.Waveform(np.zeros(k * 100, np.float32), k * 1000), SR)
    assert len(af._plans) == 16 and (16, 17) not in af._plans


def test_mixed_rate_manifest_designs_each_filter_once(monkeypatch):
    """A dataset that cycles through the common source rates hits the plan
    cache on every clip after the first of each rate."""
    rates = [8000, 11025, 22050, 24000, 32000, 44100, 48000, 96000]
    design, designed = af._design_plan, []
    monkeypatch.setattr(af, "_design_plan", lambda *pair: designed.append(pair) or design(*pair))
    af._plans.clear()
    for _ in range(3):
        for src in rates:
            af.resample(af.Waveform(np.zeros(src // 10, np.float32), src), SR)
    assert len(designed) == len(rates)


def _peak_beyond_result_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def test_kernels_build_no_whole_signal_temporaries():
    """`resample`, `stft_magnitude` and `estimate_snr` work through a minute of
    audio in buffers of well under 2 MB besides their result, so their cost
    does not include faulting in fresh whole-signal arrays on every call."""
    x = (0.3 * Rng(14).gaussian(60 * 44100)).astype(np.float32)
    af.resample(af.Waveform(x[:100], 44100), SR)  # designs the FIR outside the trace
    assert _peak_beyond_result_bytes(lambda: af.resample(af.Waveform(x, 44100), SR).samples) < 2e6
    y = x[:60 * SR]
    assert _peak_beyond_result_bytes(lambda: af.stft_magnitude(y)) < 2e6
    w = af.Waveform(y, SR)
    assert _peak_beyond_result_bytes(lambda: np.float64(af.estimate_snr(w))) < 2e6


# -- griffin-lim -----------------------------------------------------------


def test_griffin_lim_recovers_tone():
    m = af.logmel(af.Waveform(sine(440, 1.0), SR))
    rec = af.griffin_lim(m, iters=40)
    mag = af.stft_magnitude(rec.samples).mean(axis=0)
    peak_hz = np.argmax(mag) * SR / af.N_FFT
    assert abs(peak_hz - 440.0) <= SR / af.N_FFT


def test_griffin_lim_silence():
    m = af.logmel(af.Waveform(np.zeros(SR), SR))
    rec = af.griffin_lim(m, iters=5)
    assert float(np.sqrt((rec.samples ** 2).mean())) < 1e-3


def test_griffin_lim_iteration_improves():
    w = af.Waveform(sine(440, 0.5) + sine(660, 0.5, amp=0.25), SR)
    m = af.logmel(w)
    def err(iters):
        rec = af.griffin_lim(m, iters=iters)
        back = af.logmel(af.Waveform(rec.samples[:len(w.samples)], SR))
        n = min(back.values.shape[0], m.values.shape[0])
        return float(np.abs(back.values[:n] - m.values[:n]).mean())
    assert err(60) <= err(1) + 1e-9


def test_griffin_lim_matches_frame_loop():
    """Segment slice-adds, a normalization built once per call and the
    phase step re * (mag / |re|) match adding one frame at a time and
    mag * (re / |re|). The phase step rounds differently (relative 4e-16 in
    float64), so the samples are compared to 1e-9, not bit for bit."""
    x = (0.3 * Rng(16).gaussian(12 * SR)).astype(np.float32)
    m = af.logmel(af.Waveform(x, SR))
    np.testing.assert_allclose(af.griffin_lim(m, iters=3).samples, griffin_lim_loop(m, 3),
                               rtol=1e-9, atol=0)


def test_griffin_lim_rejects_zero_iters():
    m = af.logmel(af.Waveform(np.zeros(SR), SR))
    with pytest.raises(DataError):
        af.griffin_lim(m, iters=0)


# -- snr -------------------------------------------------------------------


def test_snr_needs_one_second():
    with pytest.raises(DataError):
        af.estimate_snr(af.Waveform(np.zeros(SR // 2), SR))


def test_snr_silence_is_inf():
    assert af.estimate_snr(af.Waveform(np.zeros(SR), SR)) == math.inf


def test_snr_clean_tone_with_gaps_is_high():
    # tone over a near-silent floor: quietest frames read the floor
    x = np.concatenate([sine(440, 1.6), (1e-4 * Rng(2).gaussian(int(0.4 * SR))).astype(np.float32)])
    snr = af.estimate_snr(af.Waveform(x, SR))
    assert snr > 40.0


def test_snr_tone_in_silence_hits_sentinel():
    x = np.concatenate([sine(440, 1.6), np.zeros(int(0.4 * SR), dtype=np.float32)])
    assert af.estimate_snr(af.Waveform(x, SR)) == math.inf


def test_snr_equal_noise_fails_gate():
    a = 0.3
    x = sine(440, 2.0, amp=a) + (a * Rng(5).gaussian(2 * SR)).astype(np.float32)
    snr = af.estimate_snr(af.Waveform(x, SR))
    assert 0.0 <= snr < 6.0
    assert snr < 20.0


def test_snr_wall_to_wall_tone_near_zero():
    snr = af.estimate_snr(af.Waveform(sine(440, 2.0), SR))
    assert abs(snr) < 1.0


def test_import_vem_does_not_load_scipy_signal():
    """`scipy.signal` is most of the time `import vem` took; only a
    resampler design needs it, and `_design_plan` imports it there."""
    code = "\n".join([
        "import sys", "import numpy as np", "import vem, vem.cli",
        "loaded = 'scipy.signal' in sys.modules",
        "vem.audiofeat.resample(vem.audiofeat.Waveform(np.zeros(441, np.float32), 44100), 16000)",
        "print(loaded, 'scipy.signal' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(af.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["False", "True"]

