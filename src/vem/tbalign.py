"""Transition-beat aligner and the zero-initialized modulation adapter.

The aligner is a small temporal-conv net over per-frame feature vectors
(16 fps): two kernel-5 convolutions to ALIGNER_HIDDEN channels, then a
kernel-1 head to one logit per frame. It trains with BCE against
intersection labels (frames where a visual transition coincides with a
music beat). Its penultimate activations, interpolated to latent
resolution, are what the adapter consumes.

The adapter maps those ALIGNER_HIDDEN-wide activations through two
zero-initialized linear layers to per-frame scale and shift, applied as
z + gamma*z + beta. Zero init makes a freshly attached adapter an exact
no-op, so bolting it onto a trained diffusion model cannot disturb it until
fine-tuning moves the weights.

`train_aligner` matches each clip's labels to its frames once, before its
loop; `AlignerNet` refuses features of another width, and `apply_adapter`
features of another length, which would otherwise broadcast.
"""

import functools
import operator

import numpy as np

from . import autograd as ag
from .errors import DataError
from .rng import Rng

ALIGNER_HIDDEN = 32
ALIGNER_LR = 1e-3


class AlignerNet(ag.Module):
    """Per-frame transition-beat classifier; without an `rng` every weight
    starts at zero (no draws)."""

    def __init__(self, feat_dim, rng=None):
        self.feat_dim = feat_dim
        self.conv1 = ag.Conv1d(feat_dim, ALIGNER_HIDDEN, 5, rng, padding=2)
        self.conv2 = ag.Conv1d(ALIGNER_HIDDEN, ALIGNER_HIDDEN, 5, rng, padding=2)
        self.head = ag.Conv1d(ALIGNER_HIDDEN, 1, 1, rng)

    def __call__(self, frame_features):
        """(feat_dim, frames) features -> (penultimate activations, time-major
        (frames, ALIGNER_HIDDEN), and logits (frames,))."""
        x = np.asarray(frame_features)
        if x.ndim != 2 or x.shape[0] != self.feat_dim:
            raise DataError(f"expected ({self.feat_dim}, frames) features, got {x.shape}")
        h = self.conv1(ag.Var(x.T)).silu()
        h = self.conv2(h).silu()
        logits = self.head(h)                         # (frames, 1)
        return h, logits.reshape(x.shape[1])


def aligner_loss(net, frame_features, label_frames):
    """Mean BCE over frames, computed from logits in the stable form."""
    _, logits = net(frame_features)
    labels = np.asarray(label_frames, dtype=logits.data.dtype)
    return ag.bce_with_logits(logits, labels).mean()


def train_aligner(dataset, steps, seed):
    """Full-batch Adam training, at ALIGNER_LR, of an ALIGNER_HIDDEN-wide net
    on (frame_features, label_frames) pairs.

    Returns (net, per-step losses). Deterministic in the seed.
    """
    if not dataset:
        raise DataError("empty aligner dataset")
    feat_dim = dataset[0][0].shape[0]
    for feats, labels in dataset:
        if feats.shape[0] != feat_dim:
            raise DataError(f"inconsistent feature dims {feats.shape[0]} vs {feat_dim}")
        if feats.shape[1] != len(labels):
            raise DataError(f"features cover {feats.shape[1]} frames, labels {len(labels)}")
    net = AlignerNet(feat_dim, rng=Rng(seed).fork(1))

    def loss_of(_):
        terms = (aligner_loss(net, feats, labels) for feats, labels in dataset)
        return functools.reduce(operator.add, terms) * (1.0 / len(dataset))

    return net, ag.Adam(dict(net.named_params()), lr=ALIGNER_LR).minimize(loss_of, steps)


def linear_interp(values, num_out):
    """Resample an array along axis 0 (time-major: (length, ...)) to
    `num_out` rows.

    Endpoint-preserving: output positions are spread over [0, n_in - 1], so
    the first and last input rows survive exactly. A length-1 input is
    broadcast.
    """
    values = np.asarray(values)
    n_in = values.shape[0]
    num_out = int(num_out)
    if num_out < 1:
        raise ValueError("num_out must be >= 1")
    if n_in == 1:
        return np.repeat(values, num_out, axis=0)
    pos = np.linspace(0.0, n_in - 1.0, num_out)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo).astype(values.dtype if values.dtype.kind == "f" else np.float64)
    frac = frac.reshape((num_out,) + (1,) * (values.ndim - 1))
    return values[lo] * (1.0 - frac) + values[hi] * frac


def aligner_features(net, frame_features, latent_len):
    """Penultimate activations resampled to the latent clock, as a constant
    (latent_len, ALIGNER_HIDDEN) array (the aligner is frozen wherever these
    are consumed).
    """
    with ag.no_grad():
        pen, _ = net(frame_features)
    return linear_interp(pen.data.astype(np.float64), latent_len).astype(np.float32)


class AdapterParams(ag.Module):
    """Two zero-initialized per-frame linear maps (kernel-1 convolutions)
    from the ALIGNER_HIDDEN aligner features to latent channels, emitting
    gamma and beta.
    """

    def __init__(self, channels):
        self.gamma = ag.Linear(ALIGNER_HIDDEN, channels, None)
        self.beta = ag.Linear(ALIGNER_HIDDEN, channels, None)


def apply_adapter(z, feats, p):
    """Per-frame modulation z + gamma*z + beta.

    Time-major: z is an (L, channels) Var or array, feats an
    (L, ALIGNER_HIDDEN) array. gamma/beta come from p's linear maps applied
    at each frame.
    """
    z = ag.as_var(z)
    feats = np.asarray(feats)
    if feats.shape[0] != z.shape[0]:
        raise DataError(f"adapter features cover {feats.shape[0]} frames, latent has {z.shape[0]}")
    ft = ag.Var(feats.astype(p.gamma.w.data.dtype))
    gamma = p.gamma(ft)                                 # (L, channels)
    beta = p.beta(ft)
    return z + gamma * z + beta
