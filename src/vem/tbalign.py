"""Transition-beat aligner and the zero-initialized modulation adapter.

The aligner is a small temporal-conv net over per-frame feature vectors
(16 fps): two kernel-5 convolutions to a hidden width, then a kernel-1 head
to one logit per frame. It trains with BCE against intersection labels
(frames where a visual transition coincides with a music beat). Its
penultimate activations, interpolated to latent resolution, are what the
adapter consumes.

The adapter maps those activations through two zero-initialized linear
layers to per-frame scale and shift, applied as z + gamma*z + beta. Zero
init makes a freshly attached adapter an exact no-op, so bolting it onto a
trained diffusion model cannot disturb it until fine-tuning moves the
weights.
"""

import numpy as np

from . import autograd as ag
from .errors import DataError
from .numcore import linear_interp
from .rng import Rng

ALIGNER_HIDDEN = 32
ALIGNER_LR = 1e-3


class AlignerNet(ag.Module):
    """Per-frame transition-beat classifier; without an `rng` every weight
    starts at zero (no draws)."""

    def __init__(self, feat_dim, hidden=ALIGNER_HIDDEN, rng=None, dtype=np.float32):
        self.feat_dim = feat_dim
        self.hidden = hidden
        self.conv1 = ag.Conv1d(feat_dim, hidden, 5, rng, padding=2, dtype=dtype)
        self.conv2 = ag.Conv1d(hidden, hidden, 5, rng, padding=2, dtype=dtype)
        self.head = ag.Conv1d(hidden, 1, 1, rng, dtype=dtype)

    def forward(self, frame_features):
        """(feat_dim, frames) features -> (penultimate activations, time-major
        (frames, hidden), and logits (frames,))."""
        x = np.asarray(frame_features)
        if x.ndim != 2 or x.shape[0] != self.feat_dim:
            raise DataError(f"expected ({self.feat_dim}, frames) features, got {x.shape}")
        h = self.conv1(ag.Var(x.T)).silu()
        h = self.conv2(h).silu()
        logits = self.head(h)                         # (frames, 1)
        return h, logits.reshape(x.shape[1])


def aligner_loss(net, frame_features, label_frames):
    """Mean BCE over frames, computed from logits in the stable form."""
    _, logits = net.forward(frame_features)
    labels = np.asarray(label_frames, dtype=logits.data.dtype)
    if labels.shape != logits.shape:
        raise DataError(f"label length {labels.shape} != logit length {logits.shape}")
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
    opt = ag.Adam(net.params(), lr=ALIGNER_LR)
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        total = None
        for feats, labels in dataset:
            term = aligner_loss(net, feats, labels)
            total = term if total is None else total + term
        loss = total * (1.0 / len(dataset))
        loss.backward()
        opt.step()
        losses.append(float(loss.data))
    return net, losses


def aligner_features(net, frame_features, latent_len):
    """Penultimate activations resampled to the latent clock, as a constant
    (latent_len, hidden) array (the aligner is frozen wherever these are
    consumed).
    """
    with ag.no_grad():
        pen, _ = net.forward(frame_features)
    return linear_interp(pen.data.astype(np.float64), latent_len).astype(np.float32)


class AdapterParams(ag.Module):
    """Two zero-initialized per-frame linear maps (kernel-1 convolutions)
    from aligner hidden width to latent channels, emitting gamma and beta.
    """

    def __init__(self, hidden, channels, dtype=np.float32):
        self.gamma_w = ag.param(np.zeros((hidden, channels), dtype=dtype))
        self.gamma_b = ag.param(np.zeros(channels, dtype=dtype))
        self.beta_w = ag.param(np.zeros((hidden, channels), dtype=dtype))
        self.beta_b = ag.param(np.zeros(channels, dtype=dtype))


def apply_adapter(z, feats, p):
    """Per-frame modulation z + gamma*z + beta.

    Time-major: z is an (L, channels) Var or array, feats an (L, hidden)
    array. gamma/beta come from p's linear maps applied at each frame.
    """
    z = ag.as_var(z)
    feats = np.asarray(feats)
    if feats.shape[0] != z.shape[0]:
        raise DataError(f"adapter features cover {feats.shape[0]} frames, latent has {z.shape[0]}")
    ft = ag.Var(feats.astype(p.gamma_w.data.dtype))
    gamma = ag.linear(ft, p.gamma_w, p.gamma_b)         # (L, channels)
    beta = ag.linear(ft, p.beta_w, p.beta_b)
    return z + gamma * z + beta
