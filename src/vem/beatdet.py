"""Beat detection: spectral flux onsets, autocorrelation tempo, grid phase.

The tracker assumes near-constant tempo (grid of period 60/bpm at the best
phase) rather than dynamic programming over a tempo curve. Click-aligned
editorial content is metronomic enough for that; expressive rubato is out of
scope.

Precision note: a raw integer-lag autocorrelation peak quantizes tempo to
the hop rate, and over 30 s even a 1% period error drifts the far end of the
grid by several hundred ms. `estimate_tempo` therefore refines the period
with parabolic interpolation at the peak and re-estimates it from the
highest usable lag multiple. The onset envelope is a float32 array, one value
per spectrogram window: ENVELOPE_RATE_HZ values a second from ENVELOPE_T0_S.

`detect_beats` refuses a spectrogram it cannot fit a grid to with
`DataError`; `beats_within` is the one rule for the beats a clip has, which
every metric and label reads: no beat grid means no beats, and a beat past
the clip's end does not count.
"""

import numpy as np

from .audiofeat import HOP, N_FFT, SAMPLE_RATE
from .errors import DataError
from .timeline import TimestampSet

_BPM_LO, _BPM_HI = 50.0, 220.0
_BPM_PREF_LO, _BPM_PREF_HI = 80.0, 160.0
MIN_ENVELOPE_S = 4.0  # shortest onset envelope tempo estimation accepts
ENVELOPE_RATE_HZ = SAMPLE_RATE / HOP
# Index i sits at window i's centre, where an impulse contributes most under
# the Hann taper (window-start timestamps read transients ~2 hops early).
ENVELOPE_T0_S = 0.5 * N_FFT / SAMPLE_RATE


def spectral_flux(m):
    """Half-wave-rectified positive mel-amplitude differences, summed over
    bins: the float32 onset envelope, index i for spectrogram window i."""
    if m.values.shape[0] < 2:
        raise DataError("need at least 2 spectrogram windows for flux")
    # cap keeps exp finite on degenerate (e.g. model-generated) inputs
    amp = np.exp(np.clip(m.values.astype(np.float64), None, 32.0))
    diff = np.clip(amp[1:] - amp[:-1], 0.0, None).sum(axis=1)
    # float32 like the spectrogram; tempo and beat times depend on the cast
    return np.concatenate([[0.0], diff]).astype(np.float32)  # keep index == window index


def _autocorr(x):
    n = len(x)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    ac = np.fft.irfft(f * np.conj(f), size)[:n]
    return ac


def _parabolic_offset(y_prev, y_peak, y_next):
    denom = y_prev - 2.0 * y_peak + y_next
    if denom >= 0:
        return 0.0
    return float(np.clip(0.5 * (y_prev - y_next) / denom, -0.5, 0.5))


def estimate_tempo(env):
    """Tempo in BPM from envelope autocorrelation, searched over 50-220 BPM.

    Octave ambiguity breaks toward the 80-160 BPM band: a half/double
    partner inside the band wins whenever its correlation is within 80% of
    the raw peak.
    """
    if len(env) / ENVELOPE_RATE_HZ < MIN_ENVELOPE_S:
        raise DataError(f"need at least {MIN_ENVELOPE_S:g} s of envelope for tempo estimation")
    x = env.astype(np.float64)
    if not np.isfinite(x).all():
        raise DataError("no periodicity: non-finite onset envelope")
    if np.ptp(x) <= 1e-12:
        raise DataError("no periodicity: flat onset envelope")
    x = x - x.mean()
    ac = _autocorr(x)
    if ac[0] <= 0:
        raise DataError("no periodicity: zero-power envelope")
    ac = ac / ac[0]

    rate = ENVELOPE_RATE_HZ
    lag_min = max(2, int(np.floor(60.0 * rate / _BPM_HI)))
    lag_max = min(len(ac) - 2, int(np.ceil(60.0 * rate / _BPM_LO)))
    if lag_max <= lag_min:
        raise DataError("envelope too short for the tempo search range")
    window = ac[lag_min:lag_max + 1]
    if np.max(window) <= 0:
        raise DataError("no periodicity: no positive autocorrelation peak in range")

    def score_at(lag):
        return ac[lag] if lag_min <= lag <= lag_max else -np.inf

    best = lag_min + int(np.argmax(window))
    # octave tie-break: prefer a partner lag landing in the 80-160 BPM band.
    # halving/doubling an integer lag can miss the true peak by one bin, so
    # each partner is the local maximum over its immediate neighborhood
    if not (_BPM_PREF_LO <= 60.0 * rate / best <= _BPM_PREF_HI):
        for approx in (best // 2, best * 2):
            cands = [p for p in (approx - 1, approx, approx + 1)
                     if p >= 2 and _BPM_PREF_LO <= 60.0 * rate / p <= _BPM_PREF_HI]
            if not cands:
                continue
            partner = max(cands, key=score_at)
            if score_at(partner) >= 0.8 * ac[best]:
                best = partner
                break

    # sub-hop refinement: parabolic at the peak, then read the period off the
    # highest in-range multiple of it (error divides by the multiple)
    lag = best + _parabolic_offset(ac[best - 1], ac[best], ac[best + 1])
    k_max = (len(ac) - 2) // best
    for k in range(min(k_max, 8), 1, -1):
        approx = int(round(lag * k))
        lo = max(1, approx - best // 4)
        hi = min(len(ac) - 2, approx + best // 4)
        if hi <= lo:
            continue
        sub = lo + int(np.argmax(ac[lo:hi + 1]))
        if ac[sub] <= 0:
            continue
        refined = sub + _parabolic_offset(ac[sub - 1], ac[sub], ac[sub + 1])
        lag = refined / k
        break

    bpm = 60.0 * rate / lag
    return float(np.clip(bpm, _BPM_LO, _BPM_HI))


def track_beats(env, bpm):
    """Timestamps of a fixed-tempo beat grid at the phase that maximizes
    summed envelope energy. Phase is searched at quarter-hop resolution, in
    one pass: a (phases, beats) grid, row p + k*((p + period) - p) as
    `np.arange` steps, masked at or past n - 1, one lerp gather, one row sum.
    """
    if not (_BPM_LO <= bpm <= _BPM_HI):
        raise DataError(f"bpm {bpm} outside supported range [{_BPM_LO}, {_BPM_HI}]")
    x = env.astype(np.float64)
    rate = ENVELOPE_RATE_HZ
    period = 60.0 * rate / bpm  # hops per beat
    n = len(x)

    phases = np.arange(0.0, period, 0.25)
    step = (phases + period) - phases
    pos = phases[:, None] + np.arange(np.ceil((n - 1) / period)) * step[:, None]
    live = pos < n - 1
    lo = np.where(live, pos, 0.0).astype(int)
    frac = pos - lo
    scores = np.where(live, x[lo] * (1 - frac) + x[lo + 1] * frac, 0.0).sum(axis=1)
    phase = float(phases[int(np.argmax(scores))])

    beats = np.arange(phase, n, period) / rate + ENVELOPE_T0_S
    return [float(t) for t in beats if t <= n / rate]


def detect_beats(m):
    """Full chain on a log-mel spectrogram: flux -> tempo -> beat grid.

    Returns (beat timestamps, bpm).
    """
    env = spectral_flux(m)
    bpm = estimate_tempo(env)
    return track_beats(env, bpm), bpm


def beats_within(m, duration_s):
    """The beats a clip has: those detected in [0, duration_s], or none when
    `detect_beats` refuses the spectrogram (a flat or zero-power envelope, no
    positive autocorrelation peak, under MIN_ENVELOPE_S of envelope)."""
    try:
        beats, _ = detect_beats(m)
    except DataError:
        beats = []
    return TimestampSet([b for b in beats if b <= duration_s], duration_s)
