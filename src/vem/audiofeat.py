"""Waveform I/O and the spectrogram pipeline.

Analysis chain: resample to 16 kHz -> frame (1024-sample periodic Hann,
hop 256, no centering) -> magnitude STFT -> 60-band triangular filterbank on
the HTK mel scale (2595*log10(1+f/700)) over 0-8 kHz -> log(amp + 1e-5).
The log floor keeps silence finite: an all-zero signal maps to a constant
log(1e-5) spectrogram.

Inversion is Griffin-Lim over a pseudo-inverse of the filterbank; it stands
in for a neural vocoder, so it only has to be spectrally faithful, not
pretty.
"""

import dataclasses
import math
import struct

import numpy as np
from scipy.signal import firwin, resample_poly

from .errors import DataError

SAMPLE_RATE = 16000
N_FFT = 1024
HOP = 256
N_MELS = 60
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-5


@dataclasses.dataclass
class Waveform:
    samples: np.ndarray  # float32, mono, nominally in [-1, 1]
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise DataError(f"waveform must be mono 1-D, got shape {self.samples.shape}")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("waveform contains non-finite samples")

    @property
    def duration_s(self):
        return len(self.samples) / self.sample_rate_hz


@dataclasses.dataclass
class MelSpectrogram:
    values: np.ndarray  # (windows, n_mels), log-amplitude
    hop: int
    sample_rate_hz: int
    n_mels: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2 or self.values.shape[1] != self.n_mels:
            raise DataError(f"mel matrix shape {self.values.shape} disagrees with n_mels={self.n_mels}")

    @property
    def frames_per_second(self):
        return self.sample_rate_hz / self.hop


# -- WAV I/O ---------------------------------------------------------------


def load_wav(path):
    """Parse a RIFF/WAVE file: PCM16 or float32, mono or stereo (averaged).
    WAVE_FORMAT_EXTENSIBLE files carry the codec in their sub-format GUID.

    PCM16 scaling divides by 32768, so -32768 lands exactly on -1.0. A
    trailing partial sample in the data chunk is dropped.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise DataError(f"not a RIFF/WAVE file (offset 0: {raw[:4]!r})")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4:pos + 8])
        body = raw[pos + 8:pos + 8 + size]
        if len(body) != size:
            raise DataError(f"truncated chunk {cid!r} at offset {pos}")
        if cid == b"fmt ":
            if size < 16:
                raise DataError(f"fmt chunk at offset {pos} has {size} bytes, needs 16")
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None:
        raise DataError("missing fmt chunk")
    if data is None:
        raise DataError("missing data chunk")
    codec, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if codec == 0xFFFE and len(fmt) >= 40:
        (codec,) = struct.unpack("<H", fmt[24:26])  # leading code of the sub-format GUID
    if codec == 1 and bits == 16:
        pcm = np.frombuffer(data, dtype="<i2", count=len(data) // 2)
        x = pcm.astype(np.float32) / 32768.0
    elif codec == 3 and bits == 32:
        x = np.frombuffer(data, dtype="<f4", count=len(data) // 4).astype(np.float32)
    else:
        raise DataError(f"unsupported codec (format={codec}, bits={bits}) at offset 20")
    if channels < 1:
        raise DataError("zero channels")
    if channels > 1:
        x = x[: (len(x) // channels) * channels].reshape(-1, channels).mean(axis=1)
    return Waveform(x, rate)


def save_wav(path, w):
    """Write mono PCM16 little-endian."""
    x = np.clip(w.samples, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 36 + len(pcm)))
        fh.write(b"WAVEfmt ")
        fh.write(struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate_hz,
                             w.sample_rate_hz * 2, 2, 16))
        fh.write(b"data")
        fh.write(struct.pack("<I", len(pcm)))
        fh.write(pcm)


def resample(w, target_hz):
    """Band-limited resampling; output length = round(n * target / source).

    The anti-alias FIR is longer than scipy's default and its cutoff sits
    just under the band edge, so imaging above the new Nyquist stays below
    -40 dB instead of smearing through a wide transition band.
    """
    if target_hz <= 0:
        raise DataError(f"target rate must be positive, got {target_hz}")
    if target_hz == w.sample_rate_hz:
        return Waveform(w.samples.copy(), w.sample_rate_hz)
    g = math.gcd(int(target_hz), int(w.sample_rate_hz))
    up, down = target_hz // g, w.sample_rate_hz // g
    m = max(up, down)
    taps = firwin(80 * m + 1, 0.97 / m, window=("kaiser", 7.0))
    y = resample_poly(w.samples.astype(np.float64), up, down, window=taps)
    want = round(len(w.samples) * target_hz / w.sample_rate_hz)
    if len(y) < want:
        y = np.pad(y, (0, want - len(y)))
    return Waveform(y[:want].astype(np.float32), target_hz)


# -- STFT / mel ------------------------------------------------------------


def hann_window(n=N_FFT):
    """Periodic Hann: 0.5 - 0.5 cos(2 pi k / n)."""
    return (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)).astype(np.float64)


def frame_count(n_samples, n_fft=N_FFT, hop=HOP):
    if n_samples < n_fft:
        raise DataError(f"waveform of {n_samples} samples is shorter than one {n_fft}-sample window")
    return 1 + (n_samples - n_fft) // hop


def stft_magnitude(samples, n_fft=N_FFT, hop=HOP):
    """(windows, n_fft//2+1) magnitude array; left-aligned frames, no padding."""
    samples = np.asarray(samples, dtype=np.float64)
    w = frame_count(len(samples), n_fft, hop)
    idx = hop * np.arange(w)[:, None] + np.arange(n_fft)[None, :]
    frames = samples[idx] * hann_window(n_fft)[None, :]
    return np.abs(np.fft.rfft(frames, axis=1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels=N_MELS, n_fft=N_FFT, sr=SAMPLE_RATE, fmin=FMIN, fmax=FMAX):
    """(n_mels, n_fft//2+1) triangular filters, unit peak, HTK mel spacing."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sr)
    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    fb = np.zeros((n_mels, len(freqs)))
    for m in range(n_mels):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


def mel_center_freqs(n_mels=N_MELS, fmin=FMIN, fmax=FMAX):
    pts = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    return pts[1:-1]


def logmel(w, n_fft=N_FFT, hop=HOP, n_mels=N_MELS):
    """Log-amplitude mel spectrogram of a 16 kHz waveform."""
    if w.sample_rate_hz != SAMPLE_RATE:
        raise DataError(f"expected {SAMPLE_RATE} Hz input, got {w.sample_rate_hz} (resample first)")
    mag = stft_magnitude(w.samples, n_fft, hop)
    fb = mel_filterbank(n_mels, n_fft, w.sample_rate_hz)
    vals = np.log(mag @ fb.T + LOG_FLOOR)
    return MelSpectrogram(vals.astype(np.float32), hop, w.sample_rate_hz, n_mels)


# -- inversion -------------------------------------------------------------


def _istft_from_complex(spec, n_fft, hop):
    """Overlap-add inverse with squared-window normalization."""
    w = hann_window(n_fft)
    frames = np.fft.irfft(spec, n=n_fft, axis=1) * w[None, :]
    n = n_fft + hop * (spec.shape[0] - 1)
    out = np.zeros(n)
    norm = np.zeros(n)
    for i in range(spec.shape[0]):
        s = i * hop
        out[s:s + n_fft] += frames[i]
        norm[s:s + n_fft] += w ** 2
    return out / np.maximum(norm, 1e-8)


def griffin_lim(m, iters=60):
    """Waveform from a log-mel matrix by iterative phase reconstruction.

    Mel amplitudes are mapped back to linear-frequency magnitudes through the
    filterbank pseudo-inverse (clipped at zero), then classic Griffin-Lim
    alternates between enforcing that magnitude and STFT consistency. Phase
    starts at zero so output is deterministic.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    amp = np.exp(m.values.astype(np.float64)) - LOG_FLOOR
    amp = np.clip(amp, 0.0, None)
    fb = mel_filterbank(m.n_mels, N_FFT, m.sample_rate_hz)
    mag = np.clip(amp @ np.linalg.pinv(fb).T, 0.0, None)  # (W, bins)
    spec = mag.astype(np.complex128)
    x = None
    for _ in range(iters):
        x = _istft_from_complex(spec, N_FFT, m.hop)
        re = np.fft.rfft(
            x[m.hop * np.arange(mag.shape[0])[:, None] + np.arange(N_FFT)[None, :]]
            * hann_window()[None, :],
            axis=1,
        )
        phase = re / np.maximum(np.abs(re), 1e-12)
        spec = mag * phase
    peak = np.max(np.abs(x)) if len(x) else 0.0
    if peak > 1.0:
        x = x / peak
    return Waveform(x.astype(np.float32), m.sample_rate_hz)


# -- curation signal quality ----------------------------------------------


def estimate_snr(w, frame_len=1024):
    """SNR estimate in dB: mean frame energy over 10th-percentile frame energy.

    The noise floor is read from the quietest frames, so the measure needs
    material with gaps or beds between events; a wall-to-wall constant tone
    scores near 0 dB by design. Digital silence (zero noise floor) returns
    +inf, which gates treat as a pass.
    """
    x = w.samples.astype(np.float64)
    if len(x) < w.sample_rate_hz:
        raise DataError("need at least 1 s of audio for an SNR estimate")
    n = (len(x) // frame_len) * frame_len
    energy = (x[:n].reshape(-1, frame_len) ** 2).mean(axis=1)
    p_signal = float(energy.mean())
    p_noise = float(np.percentile(energy, 10))
    if p_noise <= 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_noise)
