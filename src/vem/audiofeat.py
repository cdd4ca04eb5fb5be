"""Waveform I/O and the spectrogram pipeline.

Analysis chain: resample to 16 kHz -> frame (1024-sample periodic Hann,
hop 256, no centering) -> magnitude STFT -> 60-band triangular filterbank on
the HTK mel scale (2595*log10(1+f/700)) over 0-8 kHz -> log(amp + 1e-5).
The log floor keeps silence finite: an all-zero signal maps to a constant
log(1e-5) spectrogram. That geometry is the only one: every helper reads the
constants, and a `MelSpectrogram` keeps its hop, rate and bins as checked tags.

Both hot kernels read strided views of the signal and walk it a piece at a
time through small reused buffers, so their working set stays in cache and
no whole-signal temporary is built; their constants are built once and
cached read-only. `resample` is a polyphase FIR run as a blocked GEMM: one
period of `up` outputs consumes `down` inputs, so a block of consecutive
outputs reads the same input window `down` samples further on each period,
and one BLAS call multiplies that window sequence by the block's taps. One
rule admits a rate pair: its plan would hold at most MAX_PLAN_BYTES, checked
before any filter is designed; every admitted plan is cached. 11,127, 22,254
and 44,101 Hz, a few Hz off common rates, need filters of millions of taps
and are refused. The STFT takes every HOP-th window of a
`sliding_window_view`, a block of frames at a time; the Hann window and the
filterbank are cached.

The STFT and the mel projection run in float32 (the resampler and
Griffin-Lim in float64): inputs are PCM16 or float32, and PCM16 quantization
alone moves a float64 log-mel by up to 0.14, float32 arithmetic by 2e-4
(maxima over synthetic 10-16 s clips).

Inversion is Griffin-Lim over a pseudo-inverse of the filterbank; it stands
in for a neural vocoder, so it only has to be spectrally faithful, not
pretty.
"""

import dataclasses
import functools
import math
import struct

import numpy as np
import scipy.fft
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .container import open_replacing
from .errors import DataError

SAMPLE_RATE = 16000
N_FFT = 1024
HOP = 256
N_MELS = 60
FMIN = 0.0
FMAX = 8000.0
LOG_FLOOR = 1e-5
MAX_DURATION_S = 3600.0  # longest clip a WAV or a manifest may hold: 1.8 MB of frame features


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
    values: np.ndarray  # (windows, N_MELS), log-amplitude
    hop: int  # the three tags must read HOP, SAMPLE_RATE and N_MELS
    sample_rate_hz: int
    n_mels: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        tags, shape = (self.hop, self.sample_rate_hz, self.n_mels), self.values.shape
        if tags != (HOP, SAMPLE_RATE, N_MELS) or len(shape) != 2 or shape[1] != N_MELS:
            raise DataError(f"mel of shape {shape} tagged (hop, rate, bins) {tags} is not "
                            f"(windows, {N_MELS}) at the package's {(HOP, SAMPLE_RATE, N_MELS)}")


# -- WAV I/O ---------------------------------------------------------------


def load_wav(path):
    """Parse a RIFF/WAVE file: PCM16 or float32, mono or stereo (averaged).
    WAVE_FORMAT_EXTENSIBLE files carry the codec in their sub-format GUID.

    PCM16 scaling divides by 32768, so -32768 lands exactly on -1.0. A
    trailing partial sample in the data chunk is dropped. The chunks are
    walked by their headers, and audio longer than MAX_DURATION_S is refused
    on the data chunk's size before its body is read: a long file costs no
    memory, and a header rate of a few Hz cannot make the resampler build
    gigabytes from a small file.
    """
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12 or head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise DataError(f"not a RIFF/WAVE file (offset 0: {head[:4]!r})")
        end = fh.seek(0, 2)
        pos = 12
        fmt = None
        data = None  # (offset, size) of the body
        while pos + 8 <= end:
            fh.seek(pos)
            cid, size = struct.unpack("<4sI", fh.read(8))
            if pos + 8 + size > end:
                raise DataError(f"truncated chunk {cid!r} at offset {pos}")
            if cid == b"fmt ":
                if size < 16:
                    raise DataError(f"fmt chunk at offset {pos} has {size} bytes, needs 16")
                fmt = fh.read(min(size, 40))
            elif cid == b"data":
                data = (pos + 8, size)
            pos += 8 + size + (size & 1)
        if fmt is None:
            raise DataError("missing fmt chunk")
        if data is None:
            raise DataError("missing data chunk")
        codec, channels, rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
        if codec == 0xFFFE and len(fmt) >= 40:
            (codec,) = struct.unpack("<H", fmt[24:26])  # leading code of the sub-format GUID
        if (codec, bits) not in ((1, 16), (3, 32)):
            raise DataError(f"unsupported codec (format={codec}, bits={bits}) at offset 20")
        if channels < 1:
            raise DataError("zero channels")
        if rate < 1:
            raise DataError(f"sample rate must be positive, got {rate}")
        block = channels * bits // 8
        frames = data[1] // block
        if frames > rate * MAX_DURATION_S:
            raise DataError(f"{frames} samples at {rate} Hz last {frames / rate:.0f} s, "
                            f"longer than {MAX_DURATION_S:.0f} s")
        fh.seek(data[0])
        body = bytearray(frames * block)
        fh.readinto(body)
    if codec == 1:
        x = np.frombuffer(body, dtype="<i2").astype(np.float32)
        x /= 32768.0
    else:
        x = np.frombuffer(body, dtype="<f4")
    if channels > 1:
        x = x.reshape(-1, channels).mean(axis=1)
    return Waveform(x, rate)


def write_wav(fh, w):
    """Write mono PCM16 little-endian into the open binary file `fh`: the
    header, then the samples, with no joined copy of the two."""
    x = np.clip(w.samples, -1.0, 1.0)
    x *= 32767.0
    pcm = np.round(x, out=x).astype("<i2")
    fh.write(struct.pack("<4sI8sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVEfmt ", 16, 1, 1,
                         w.sample_rate_hz, w.sample_rate_hz * 2, 2, 16, b"data", pcm.nbytes))
    fh.write(pcm)


def save_wav(path, w):
    """`write_wav` through `container.open_replacing`."""
    with open_replacing(path) as fh:
        write_wav(fh, w)


def _frozen(a):
    """Mark a cached array read-only, so no caller can change it for the next."""
    a.setflags(write=False)
    return a


_BLOCK = 16  # outputs per GEMM block of the resampler
_CHUNK = 32768  # input samples one round of the resampler's GEMMs reads
# most bytes the plan of one rate pair may hold; 16 plans are cached, so at most
# 128 MiB stays pinned. Of the admitted source rates, 44,056 Hz holds the most: 4.0 MiB.
MAX_PLAN_BYTES = 8 << 20


@dataclasses.dataclass(frozen=True)
class _ResamplePlan:
    """Polyphase GEMM for one reduced rate pair.

    Output k is sum_n x[n] * h[k*down + half - n*up], with h the FIR scaled
    by `up` and `half` its centre: the output `resample_poly` keeps after it
    drops its pre-pad and pre-remove samples. Rows of the GEMM are
    super-periods of b periods: `period` = b*up outputs reading `stride` =
    b*down new inputs. b is the least number of periods for which `stride`
    covers the widest window a block of `_BLOCK` outputs can read, so each
    window view has unit column stride and lda >= width, which BLAS takes
    without a copy.

    The rows run in chunks that read about `_CHUNK` inputs: each chunk is
    copied once into a small zero-padded float64 buffer, and every block's
    GEMM reads it from cache instead of streaming the whole signal again.
    """

    period: int  # outputs per row
    stride: int  # inputs per row
    blocks: tuple  # (first output in the row, first input - lo, taps (width, outputs))
    lo: int  # first input row 0 reads; negative inputs are zeros
    width: int  # inputs one row's windows span

    def __call__(self, x, n_out):
        """The first `n_out` outputs for input `x`, as float32."""
        rows = -(-n_out // self.period)
        chunk = max(1, _CHUNK // self.stride)  # rows per GEMM
        n = (chunk - 1) * self.stride + self.width  # inputs one chunk reads
        buf = np.empty(n)
        y = np.empty((chunk, self.period))
        step = buf.strides[0]
        gemms = [(as_strided(buf[off:], shape=(chunk, taps.shape[0]),
                             strides=(self.stride * step, step), writeable=False),
                  taps, y[:, first:first + taps.shape[1]])
                 for first, off, taps in self.blocks]
        out = np.empty((rows, self.period), dtype=np.float32)
        for r0 in range(0, rows, chunk):
            a = self.lo + r0 * self.stride  # input index of buf[0]
            i0 = min(n, max(0, -a))
            i1 = max(i0, min(n, len(x) - a))
            buf[:i0] = 0.0
            buf[i0:i1] = x[a + i0:a + i1]
            buf[i1:] = 0.0
            for view, taps, yb in gemms:
                np.matmul(view, taps, out=yb)
            r = min(chunk, rows - r0)
            out[r0:r0 + r] = y[:r]
        return out.reshape(-1)[:n_out]


def _block_span(up, down):
    """(most FIR taps any one phase uses, input samples the widest block of
    `_BLOCK` consecutive outputs reads, periods per GEMM row) of a reduced
    rate pair."""
    ntaps = -(-(80 * max(up, down) + 1) // up)
    widest = ntaps + -(-(_BLOCK - 1) * down // up)
    return ntaps, widest, -(-widest // down)


def _plan_bytes(up, down):
    """Bytes the `_ResamplePlan` of a reduced rate pair would hold at most,
    from integers alone: its distinct block layouts times the widest window
    times `_BLOCK` float64 columns. Full blocks start `_BLOCK` outputs apart,
    so their phases repeat every up / gcd(up, _BLOCK) blocks; a short last
    block is one layout more."""
    _, widest, b = _block_span(up, down)
    period = b * up
    layouts = min(period // _BLOCK, up // math.gcd(up, _BLOCK)) + (period % _BLOCK > 0)
    return layouts * widest * _BLOCK * 8


@functools.lru_cache(maxsize=16)
def _design_plan(up, down):
    """Design the FIR of a reduced rate pair and lay out its `_ResamplePlan`;
    the 16 most recently used plans are kept."""
    from scipy.signal import firwin  # imported here: it is most of `import vem`

    m = max(up, down)
    h = firwin(80 * m + 1, 0.97 / m, window=("kaiser", 7.0)) * up
    half = (len(h) - 1) // 2
    ntaps, _, b = _block_span(up, down)
    period = b * up
    blocks, shared = [], {}
    for first in range(0, period, _BLOCK):
        # A block one period later reads the same taps `down` inputs later.
        key = (first % up, min(_BLOCK, period - first))
        if key not in shared:
            t = np.arange(key[0], key[0] + key[1]) * down + half
            n0, phase = t // up, t % up  # newest input each output reads, and its phase
            start = int(n0[0]) - ntaps + 1
            j = n0[:, None] - start - np.arange(int(n0[-1]) - start + 1)[None, :]
            tap = phase[:, None] + j * up
            live = (j >= 0) & (tap < len(h))
            taps = np.where(live, h[np.where(live, tap, 0)], 0.0)
            shared[key] = (start, _frozen(np.ascontiguousarray(taps.T)))
        start, taps = shared[key]
        blocks.append((first, start + first // up * down, taps))
    lo = min(start for _, start, _ in blocks)
    hi = max(start + taps.shape[0] for _, start, taps in blocks)
    return _ResamplePlan(period, b * down,
                         tuple((first, start - lo, taps) for first, start, taps in blocks),
                         lo, hi - lo)


def resample(w, target_hz):
    """Band-limited resampling; output length = round(n * target / source).

    The anti-alias FIR is longer than scipy's default and its cutoff sits
    just under the band edge, so imaging above the new Nyquist stays below
    -40 dB instead of smearing through a wide transition band: a Kaiser
    (beta 7) window of 80*max(up, down)+1 taps, cutoff 0.97/max(up, down),
    the filter and alignment `scipy.signal.resample_poly` would apply.

    It runs as a polyphase GEMM (`_ResamplePlan`): blocks of 16 consecutive
    outputs per period, each one float64 matrix product of a strided view of
    the input windows with that block's taps, over chunks of rows that stay
    in cache. One rule admits a reduced `(up, down)` pair: its plan would hold
    at most MAX_PLAN_BYTES, a bound `_plan_bytes` takes from integers before
    any filter or plan array is built. Every admitted plan is cached. A pair
    over the bound raises `DataError`: 11,127, 22,254 and 44,101 Hz to 16 kHz
    (11.2, 8.1 and 32.0 MiB plans) are refused, as is any header rate that
    would need gigabytes.
    """
    if target_hz <= 0:
        raise DataError(f"target rate must be positive, got {target_hz}")
    if target_hz == w.sample_rate_hz:
        return Waveform(w.samples.copy(), w.sample_rate_hz)
    src, dst = int(w.sample_rate_hz), int(target_hz)
    g = math.gcd(dst, src)
    up, down = dst // g, src // g
    size = _plan_bytes(up, down)
    if size > MAX_PLAN_BYTES:
        raise DataError(f"{src} Hz to {dst} Hz reduces to {up}/{down}, whose resampler plan would "
                        f"hold up to {size / 2**20:,.1f} MiB, above {MAX_PLAN_BYTES >> 20} MiB")
    want = round(len(w.samples) * target_hz / w.sample_rate_hz)
    return Waveform(_design_plan(up, down)(w.samples, want), target_hz)


# -- STFT / mel ------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _hann(dtype):
    """Periodic Hann, 0.5 - 0.5 cos(2 pi k / N_FFT), in float64, cast, read-only."""
    return _frozen((0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)).astype(dtype))


def frame_count(n_samples):
    if n_samples < N_FFT:
        raise DataError(f"waveform of {n_samples} samples is shorter than one {N_FFT}-sample window")
    return 1 + (n_samples - N_FFT) // HOP


_STFT_BLOCK = 64  # frames per rfft call; the block's buffers (0.5 MB) stay in cache


def _frames(samples):
    """(windows, N_FFT) view of every HOP-th window of `samples`: left-aligned,
    no padding, no copy."""
    frame_count(len(samples))
    return sliding_window_view(samples, N_FFT)[::HOP]


def stft_magnitude(samples):
    """(windows, N_FFT//2+1) magnitudes of every HOP-th window, left-aligned, no padding.

    float32 throughout, the precision of PCM16 input (module docstring):
    `_STFT_BLOCK` frames at a time go through one reused window buffer and a
    complex64 `scipy.fft.rfft`, so no whole-signal temporaries are built.
    """
    frames = _frames(np.asarray(samples, dtype=np.float32))
    w = _hann(np.float32)
    mag = np.empty((len(frames), N_FFT // 2 + 1), dtype=np.float32)
    block = min(_STFT_BLOCK, len(frames))
    windowed = np.empty((block, N_FFT), dtype=np.float32)
    for i in range(0, len(frames), block):
        k = min(block, len(frames) - i)
        np.multiply(frames[i:i + k], w, out=windowed[:k])
        np.abs(scipy.fft.rfft(windowed[:k], axis=1), out=mag[i:i + k])
    return mag


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """(N_MELS, N_FFT//2+1) triangular filters, unit peak, HTK mel spacing
    from FMIN to FMAX."""
    freqs = np.fft.rfftfreq(N_FFT, d=1.0 / SAMPLE_RATE)
    pts = mel_to_hz(np.linspace(hz_to_mel(FMIN), hz_to_mel(FMAX), N_MELS + 2))
    fb = np.zeros((N_MELS, len(freqs)))
    for m in range(N_MELS):
        lo, mid, hi = pts[m], pts[m + 1], pts[m + 2]
        up = (freqs - lo) / (mid - lo)
        down = (hi - freqs) / (hi - mid)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


@functools.lru_cache(maxsize=4)
def _mel_fb(dtype):
    """`mel_filterbank`, cast, read-only."""
    return _frozen(mel_filterbank().astype(dtype))


def logmel(w):
    """Log-amplitude mel spectrogram of a 16 kHz waveform at N_FFT, HOP and
    N_MELS: a float32 GEMM of the float32 magnitudes, then the floor and log
    in place (module docstring)."""
    if w.sample_rate_hz != SAMPLE_RATE:
        raise DataError(f"expected {SAMPLE_RATE} Hz input, got {w.sample_rate_hz} (resample first)")
    fb = _mel_fb(np.float32)
    vals = stft_magnitude(w.samples) @ fb.T
    vals += np.float32(LOG_FLOOR)
    np.log(vals, out=vals)
    return MelSpectrogram(vals, HOP, SAMPLE_RATE, N_MELS)


# -- inversion -------------------------------------------------------------


def _overlap_add(frames):
    """Sum of the (count, N_FFT) rows of `frames`, row i starting at sample
    i*HOP: one slice-add per HOP-long segment (HOP divides N_FFT) into (count,
    HOP) rows, last segment first, so each sample sums its frames in order."""
    count = len(frames)
    segments = N_FFT // HOP
    out = np.zeros((count + segments - 1, HOP))
    for j in reversed(range(segments)):
        out[j:j + count] += frames[:, j * HOP:(j + 1) * HOP]
    return out.reshape(-1)


def griffin_lim(m, iters):
    """Waveform from a log-mel matrix by iterative phase reconstruction.

    Mel amplitudes are mapped back to linear-frequency magnitudes through the
    filterbank pseudo-inverse (clipped at zero), then classic Griffin-Lim
    alternates between enforcing that magnitude and STFT consistency. Phase
    starts at zero so output is deterministic. It runs in float64.

    A reconstruction with a NaN or inf sample is refused with DataError.
    Otherwise samples are clipped at ±1, which keeps the level of the mel it
    was given; dividing by the peak would lower the whole clip for a few
    isolated spikes.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    amp = np.exp(m.values.astype(np.float64)) - LOG_FLOOR
    amp = np.clip(amp, 0.0, None)
    fb = _mel_fb(np.float64)
    mag = np.clip(amp @ np.linalg.pinv(fb).T, 0.0, None)  # (W, bins)
    spec = mag.astype(np.complex128)
    w = _hann(np.float64)
    # the overlap-add inverse divides by the squared-window overlap-add
    norm = np.maximum(_overlap_add(np.broadcast_to(w ** 2, (len(mag), N_FFT))), 1e-8)
    x = None
    for _ in range(iters):
        x = _overlap_add(np.fft.irfft(spec, n=N_FFT, axis=1) * w) / norm
        re = np.fft.rfft(_frames(x) * w, axis=1)
        spec = re * (mag / np.maximum(np.abs(re), 1e-12))  # mag * unit phase, one complex pass
    if not np.isfinite(x).all():
        raise DataError("Griffin-Lim reconstruction has non-finite samples")
    return Waveform(np.clip(x, -1.0, 1.0).astype(np.float32), SAMPLE_RATE)


# -- curation signal quality ----------------------------------------------


def estimate_snr(w):
    """SNR estimate in dB: mean frame energy over 10th-percentile frame energy,
    over whole 1024-sample frames.

    The noise floor is read from the quietest frames, so the measure needs
    material with gaps or beds between events; a wall-to-wall constant tone
    scores near 0 dB by design. Digital silence (zero noise floor) returns
    +inf, which gates treat as a pass. Energies accumulate in float64 from a
    float32 view of the frames, so no whole-signal copy is made.
    """
    if len(w.samples) < w.sample_rate_hz:
        raise DataError("need at least 1 s of audio for an SNR estimate")
    f = w.samples[:len(w.samples) // 1024 * 1024].reshape(-1, 1024)
    energy = np.einsum("ij,ij->i", f, f, dtype=np.float64) / 1024
    p_signal = float(energy.mean())
    p_noise = float(np.percentile(energy, 10))
    if p_noise <= 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_noise)
