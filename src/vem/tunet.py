"""Transformer-UNet denoiser over (channels, latent frames) tensors.

`TUNet.__call__` takes and returns channel-major (C, L) arrays, the codec's
layout. Inside, every activation is a time-major (L, C) Var: the latent is
transposed once on entry and once on exit, layer norm and the linear maps
act on the last (channel) axis, convolutions run along axis 0, and skips
concatenate on axis 1.

Encoder and decoder levels are the same `Level`: residual block (with the
diffusion-step embedding injected) -> plain self-attention transformer block
-> storyboard-guided cross-attention block. Encoder levels may first pass
through the modulation adapter, fed the time-major (L, hidden) aligner
features resampled to the level's length. Levels are bridged by stride-2
convolutions down and repeat+conv up, with channel-concat skips. The
conditions arrive as the (6N, D) token Var of `sgcatt.assemble_conditions`
and the base-resolution `StoryboardMask`; `sgcatt.level_masks` OR-pools the
mask by 2^level to follow the latent clock.

The output convolution is zero-initialized, so an untrained net predicts
zero noise and the initial training loss sits near E||eps||^2 = 1.

Latent length is padded to a multiple of 2^(levels-1) internally (zero rows
for the latent, all-zero mask rows for the padding) and cropped on the way out;
callers never see the padding.
"""

import itertools

import numpy as np

from . import autograd as ag
from .errors import DataError
from .numcore import linear_interp
from .sgcatt import attention_logits, level_masks, sg_cross_attention
from .tbalign import ALIGNER_HIDDEN, AdapterParams, apply_adapter


def sinusoidal_step_embedding(t, dim):
    """Classic fixed sin/cos embedding of an integer diffusion step."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = float(t) * freqs
    return np.concatenate([np.sin(args), np.cos(args)]).astype(np.float32)


class ChannelNorm(ag.Module):
    """Per-position layer norm over channels with a learned affine part."""

    def __init__(self, channels, dtype=np.float32):
        self.g = ag.param(np.ones(channels, dtype=dtype))
        self.b = ag.param(np.zeros(channels, dtype=dtype))

    def __call__(self, x):
        return x.layer_norm(self.g, self.b)


class ResBlock(ag.Module):
    def __init__(self, c_in, c_out, temb_dim, rng, dtype=np.float32):
        self.norm1 = ChannelNorm(c_in, dtype)
        self.conv1 = ag.Conv1d(c_in, c_out, 3, rng, padding=1, dtype=dtype)
        self.temb_proj = ag.Linear(temb_dim, c_out, rng, dtype=dtype)
        self.norm2 = ChannelNorm(c_out, dtype)
        self.conv2 = ag.Conv1d(c_out, c_out, 3, rng, padding=1, dtype=dtype)
        self.skip = None if c_in == c_out else ag.Conv1d(c_in, c_out, 1, rng, dtype=dtype)

    def __call__(self, x, temb_act):
        h = self.conv1(self.norm1(x).silu())
        h = h + self.temb_proj(temb_act)
        h = self.conv2(self.norm2(h).silu())
        s = x if self.skip is None else self.skip(x)
        return s + h


class FeedForward(ag.Module):
    def __init__(self, c, rng, dtype=np.float32):
        self.norm = ChannelNorm(c, dtype)
        self.lin1 = ag.Linear(c, 2 * c, rng, dtype=dtype)
        self.lin2 = ag.Linear(2 * c, c, rng, dtype=dtype)

    def __call__(self, x):
        return x + self.lin2(self.lin1(self.norm(x)).silu())


class SelfAttnBlock(ag.Module):
    """Pre-norm single-head self-attention over time, plus a feed-forward."""

    def __init__(self, c, rng, dtype=np.float32):
        self.norm = ChannelNorm(c, dtype)
        self.wq = ag.Linear(c, c, rng, dtype=dtype)
        self.wk = ag.Linear(c, c, rng, dtype=dtype)
        self.wv = ag.Linear(c, c, rng, dtype=dtype)
        self.wo = ag.Linear(c, c, rng, dtype=dtype)
        self.ffn = FeedForward(c, rng, dtype)

    def __call__(self, x):
        t = self.norm(x)
        q, k, v = self.wq(t), self.wk(t), self.wv(t)
        return self.ffn(x + self.wo(attention_logits(q, k).softmax(axis=-1) @ v))


class SGCAttBlock(ag.Module):
    """Cross-attention from latent positions to condition tokens, restricted
    by the storyboard mask; the final transformer block of each level.
    """

    def __init__(self, c, cond_dim, rng, dtype=np.float32):
        self.norm = ChannelNorm(c, dtype)
        self.wq = ag.Linear(c, c, rng, dtype=dtype)
        self.wk = ag.Linear(cond_dim, c, rng, dtype=dtype)
        self.wv = ag.Linear(cond_dim, c, rng, dtype=dtype)
        self.wo = ag.Linear(c, c, rng, dtype=dtype)
        self.ffn = FeedForward(c, rng, dtype)

    def __call__(self, x, tokens, mask):
        out = sg_cross_attention(self.wq(self.norm(x)), self.wk(tokens), self.wv(tokens), mask)
        return self.ffn(x + self.wo(out))


class Level(ag.Module):
    """Encoder levels keep their width (c_in == c_out); decoder levels take
    the upsampled path concatenated with the skip (c_in == 2 * c_out)."""

    def __init__(self, c_in, c_out, cond_dim, temb_dim, rng, dtype=np.float32):
        self.res = ResBlock(c_in, c_out, temb_dim, rng, dtype)
        self.selfattn = SelfAttnBlock(c_out, rng, dtype)
        self.sgc = SGCAttBlock(c_out, cond_dim, rng, dtype)

    def __call__(self, x, temb_act, tokens, mask):
        x = self.res(x, temb_act)
        x = self.selfattn(x)
        return self.sgc(x, tokens, mask)


class TUNet(ag.Module):
    """Denoiser: eps prediction from (z_t, step, condition tokens, mask)."""

    def __init__(self, in_channels, cond_dim, widths, temb_dim=128, rng=None, dtype=np.float32):
        if temb_dim % 2:
            raise ValueError(f"temb_dim must be even (sin/cos pairs), got {temb_dim}")
        self.in_channels = in_channels
        self.cond_dim = cond_dim
        self.widths = tuple(widths)
        self.temb_dim = temb_dim
        self.levels = len(self.widths)

        # one forked stream per block; without an rng every weight starts at zero
        r = (None if rng is None else rng.fork(i) for i in itertools.count())
        self.temb_lin1 = ag.Linear(temb_dim, temb_dim, next(r), dtype=dtype)
        self.temb_lin2 = ag.Linear(temb_dim, temb_dim, next(r), dtype=dtype)
        self.in_conv = ag.Conv1d(in_channels, self.widths[0], 3, next(r), padding=1, dtype=dtype)
        self.enc = [Level(w, w, cond_dim, temb_dim, next(r), dtype) for w in self.widths]
        self.down = [ag.Conv1d(self.widths[i], self.widths[i + 1], 3, next(r),
                               stride=2, padding=1, dtype=dtype)
                     for i in range(self.levels - 1)]
        self.up = [ag.Conv1d(self.widths[i + 1], self.widths[i], 3, next(r), padding=1, dtype=dtype)
                   for i in reversed(range(self.levels - 1))]
        self.dec = [Level(2 * self.widths[i], self.widths[i], cond_dim, temb_dim, next(r), dtype)
                    for i in reversed(range(self.levels - 1))]
        self.out_norm = ChannelNorm(self.widths[0], dtype)
        # zero-initialized (no rng): an untrained net predicts zero noise
        self.out_conv = ag.Conv1d(self.widths[0], in_channels, 3, None, padding=1, dtype=dtype)
        # global 1x1 residual from the raw input latent, gated per channel by
        # the step embedding: without it the denoiser cannot express the
        # near-identity maps high-noise steps need once trunk width drops
        # below the latent channel count, and training stalls near loss 1
        self.res_proj = ag.Conv1d(in_channels, in_channels, 1, None, dtype=dtype)
        self.res_gate = ag.Linear(temb_dim, in_channels, None, dtype=dtype)
        self.adapters = None  # set by attach_adapters for the fine-tune stage

    def attach_adapters(self, aligner_hidden=ALIGNER_HIDDEN, dtype=np.float32):
        self.adapters = [AdapterParams(aligner_hidden, w, dtype) for w in self.widths]

    def __call__(self, z, step, tokens, base_mask, aligner_feats=None):
        z = ag.as_var(z)
        if z.ndim != 2 or z.shape[0] != self.in_channels:
            raise DataError(f"latent shape {z.shape} != ({self.in_channels}, L)")
        length = z.shape[1]
        if base_mask.grid.shape[0] != length:
            raise DataError(f"mask rows {base_mask.grid.shape[0]} != latent length {length}")
        if tokens.shape[1] != self.cond_dim:
            raise DataError(f"condition dim {tokens.shape[1]} != {self.cond_dim}")

        mult = 2 ** (self.levels - 1)
        padded = ((length + mult - 1) // mult) * mult
        x = z.transpose()
        if padded != length:
            pad = ag.Var(np.zeros((padded - length, self.in_channels), dtype=z.data.dtype))
            x = ag.concat([x, pad], axis=0)
        z_in = x
        masks = level_masks(base_mask, padded, self.levels)

        temb = ag.Var(sinusoidal_step_embedding(step, self.temb_dim).astype(z.data.dtype))
        temb = self.temb_lin2(self.temb_lin1(temb).silu())
        temb_act = temb.silu()  # computed once, shared by every ResBlock

        x = self.in_conv(x)
        skips = []
        for lvl in range(self.levels):
            if self.adapters is not None and aligner_feats is not None:
                feats = linear_interp(np.asarray(aligner_feats, dtype=np.float64), x.shape[0])
                x = apply_adapter(x, feats, self.adapters[lvl])
            x = self.enc[lvl](x, temb_act, tokens, masks[lvl])
            if lvl < self.levels - 1:
                skips.append(x)
                x = self.down[lvl](x)

        for i, lvl in enumerate(reversed(range(self.levels - 1))):
            x = self.up[i](x.repeat2())
            x = ag.concat([x, skips[lvl]], axis=1)
            x = self.dec[i](x, temb_act, tokens, masks[lvl])

        gate = self.res_gate(temb) + 1.0
        x = self.out_conv(self.out_norm(x).silu()) + self.res_proj(z_in) * gate
        if padded != length:
            x = x[:length]
        return x.transpose()
