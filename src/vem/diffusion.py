"""Latent diffusion core: schedule, forward process, loss, sampler, codec.

The noise schedule is the fixed linear one of DDPM: beta_t runs evenly from
BETA_START = 1e-4 at t = 1 to BETA_END = 0.02 at t = T, and only T varies.
The forward process corrupts a latent z0 by z_t = sqrt(abar_t) z0 +
sqrt(1-abar_t) eps; training regresses the noise; sampling walks the
timesteps back with the posterior mean of the eps-parameterization and
posterior variance beta_t (1-abar_{t-1}) / (1-abar_t). When the sampler is
asked for fewer steps than the schedule has, it runs on an evenly strided
timestep subsequence (always containing both endpoints) with effective
per-stride alphas, which degenerates to the full recursion at steps == T.
Both the loss and the sampler condition the denoiser on two inputs: the
(6N, D) condition-token Var and the base-resolution `StoryboardMask`.

The latent codec replaces a learned autoencoder with an exactly invertible
map: non-overlapping patches of 4 spectrogram windows x 60 mel bins are
flattened to 240 channels and passed through a fixed signed permutation
(orthogonal, so norms survive and decode inverts bit-exactly). One latent
frame covers 4 hops: 62.5 / 4 = 15.625 latent frames per second. That rate,
`LATENT_FPS`, is the one latent clock: `sgcatt.build_mask` reads it, and no
latent or mask carries a rate of its own.
"""

import dataclasses

import numpy as np

from . import autograd as ag
from .audiofeat import HOP, LOG_FLOOR, N_MELS, SAMPLE_RATE, MelSpectrogram
from .errors import DataError
from .rng import Rng

PATCH = 4
LATENT_CHANNELS = PATCH * N_MELS            # 240
LATENT_FPS = (SAMPLE_RATE / HOP) / PATCH    # 15.625
BETA_START, BETA_END = 1e-4, 0.02


@dataclasses.dataclass
class NoiseSchedule:
    T: int
    alpha_bar: np.ndarray  # index t-1 holds abar_t = prod_{s<=t} (1 - beta_s)

    def abar(self, t):
        """alpha_bar at step t, with the t=0 convention abar_0 = 1."""
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])


def make_schedule(T):
    if T < 1:
        raise DataError(f"need T >= 1, got {T}")
    beta = np.linspace(BETA_START, BETA_END, T, dtype=np.float64)
    return NoiseSchedule(T, np.cumprod(1.0 - beta))


@dataclasses.dataclass
class Latent:
    values: np.ndarray     # (channels, frames), one frame per 1 / LATENT_FPS seconds
    n_windows: int = None  # pre-padding spectrogram windows, for exact decode


def q_sample(z0, t, eps, sched):
    """Closed-form corruption to step t."""
    if not 1 <= t <= sched.T:
        raise DataError(f"step {t} outside [1, {sched.T}]")
    ab = sched.abar(t)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def training_loss(model, z0, tokens, base_mask, rng, sched, aligner_feats=None):
    """Noise-regression objective at a uniformly drawn step.

    Returns the scalar loss Var (mean squared error over elements between
    the drawn noise and the model's estimate); call .backward() on it for
    gradients. z0 is a plain (C, L) array in standardized latent units;
    `tokens` is the (6N, D) condition Var and `base_mask` the storyboard
    mask at the latent's length.
    """
    z0 = np.asarray(z0)
    t = int(rng.integers(1, sched.T + 1, 1)[0])
    eps = rng.gaussian(z0.shape).astype(z0.dtype)
    zt = q_sample(z0, t, eps, sched).astype(z0.dtype)
    pred = model(zt, t, tokens, base_mask, aligner_feats=aligner_feats)
    diff = pred - ag.Var(eps)
    return (diff * diff).mean()


def strided_timesteps(T, steps):
    """Evenly spaced step subsequence from T down to 1, endpoints included."""
    if not 1 <= steps <= T:
        raise DataError(f"steps {steps} outside [1, {T}]")
    if steps == 1:
        return [T]
    ts = np.unique(np.round(np.linspace(1, T, steps)).astype(int))
    return list(ts[::-1])


def sample(model, tokens, base_mask, shape, steps, rng, sched, aligner_feats=None):
    """Ancestral sampling from pure noise; deterministic given the rng.

    `tokens` and `base_mask` condition every step as in `training_loss`.
    Returns a (C, L) array in standardized latent units.
    """
    ts = strided_timesteps(sched.T, steps)
    z = rng.gaussian(shape)
    with ag.no_grad():
        for i, t in enumerate(ts):
            t_prev = ts[i + 1] if i + 1 < len(ts) else 0
            ab_t = sched.abar(t)
            ab_prev = sched.abar(t_prev)
            alpha_eff = ab_t / ab_prev
            beta_eff = 1.0 - alpha_eff
            eps_hat = model(z, t, tokens, base_mask, aligner_feats=aligner_feats).data
            mu = (z - beta_eff / np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(alpha_eff)
            if t_prev > 0:
                var = beta_eff * (1.0 - ab_prev) / (1.0 - ab_t)
                z = (mu + np.sqrt(var) * rng.gaussian(shape)).astype(np.float32)
            else:
                z = mu.astype(np.float32)
    return z


# -- latent codec ----------------------------------------------------------


def _codec_maps():
    """Fixed signed permutation on the channel axis, seeded once."""
    r = Rng(0xC0DEC)
    perm = np.array(r.shuffle(list(range(LATENT_CHANNELS))), dtype=np.int64)
    signs = np.where(r.uniform(LATENT_CHANNELS) < 0.5, -1.0, 1.0).astype(np.float32)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(LATENT_CHANNELS)
    return perm, signs, inv


_PERM, _SIGNS, _INV_PERM = _codec_maps()


def latent_encode(m):
    """MelSpectrogram -> Latent. Windows are padded to a multiple of 4 with
    the log floor so the patchify is exact; the pad is remembered for decode.
    """
    if m.n_mels != N_MELS:
        raise DataError(f"codec expects {N_MELS} mel bins, got {m.n_mels}")
    vals = m.values.astype(np.float32)
    w = vals.shape[0]
    padded = ((w + PATCH - 1) // PATCH) * PATCH
    if padded != w:
        pad = np.full((padded - w, N_MELS), np.log(LOG_FLOOR), dtype=np.float32)
        vals = np.concatenate([vals, pad], axis=0)
    patches = vals.reshape(padded // PATCH, PATCH * N_MELS).T   # (240, L)
    z = _SIGNS[:, None] * patches[_PERM]
    return Latent(z, n_windows=w)


def latent_decode(z):
    """Latent -> MelSpectrogram, inverting the permutation bit-exactly and
    cropping any encode-time padding."""
    vals = np.asarray(z.values, dtype=np.float32)
    if vals.shape[0] != LATENT_CHANNELS:
        raise DataError(f"latent has {vals.shape[0]} channels, codec expects {LATENT_CHANNELS}")
    patches = (_SIGNS[:, None] * vals)[_INV_PERM]               # undo sign then perm
    mel = patches.T.reshape(vals.shape[1] * PATCH, N_MELS)
    if z.n_windows is not None:
        mel = mel[:z.n_windows]
    return MelSpectrogram(mel, HOP, SAMPLE_RATE, N_MELS)


def latent_len_for_duration(duration_s):
    """ceil(duration * LATENT_FPS): latent frames covering a clip."""
    return int(np.ceil(duration_s * LATENT_FPS))
