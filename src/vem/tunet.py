"""Transformer-UNet denoiser over (channels, latent frames) tensors.

`TUNet.__call__` takes and returns channel-major (C, L) arrays, the codec's
layout. The latent width C is the codec's `diffusion.LATENT_CHANNELS`: the
denoiser has no channel count of its own. Inside, every activation is a
time-major (L, C) Var: the latent is transposed once on entry and once on
exit, layer norm and the linear maps act on the last (channel) axis,
convolutions run along axis 0, and skips concatenate on axis 1.

Encoder and decoder levels are the same `Level`: residual block (with the
TEMB_DIM-wide diffusion-step embedding injected) -> plain self-attention
transformer block -> storyboard-guided cross-attention block. Encoder levels
may first pass through the modulation adapter, fed the time-major
(L, tbalign.ALIGNER_HIDDEN) aligner features resampled to the level's
length. Levels are bridged by stride-2
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
from .diffusion import LATENT_CHANNELS
from .errors import DataError
from .sgcatt import attention_logits, level_masks, sg_cross_attention
from .tbalign import AdapterParams, apply_adapter, linear_interp

TEMB_DIM = 128  # width of the diffusion-step embedding and its MLP
# longest padded latent a forward takes: self-attention holds an L x L
# matrix per level, 64 MiB in float32 at 4096 frames (262 s), while
# curation.MAX_CLIP_S (120 s) is 1,875 frames. Padding grows as
# 2^(levels-1), so the bound also caps the depth: at most 13 levels can run
MAX_LATENT_LEN = 4096
# deepest net a forward can run, as the bound above states: 2^(levels-1)
# frames of padding must fit MAX_LATENT_LEN (`training.TrainConfig` refuses more)
MAX_LEVELS = MAX_LATENT_LEN.bit_length()
# largest sum of squared channel widths stage B builds a denoiser at
# (`training.TrainConfig` refuses more): 24x the default's 86,016, and it
# admits (256, 512, 1024). A level's maps are w x w blocks, so a wide net
# holds 20 to 51 weights per unit of the sum: at the bound, a net of at most
# 13 levels (the deepest that runs, above) holds under 512 MiB of float32
# weights, adapters included
MAX_WIDTH_SQUARES = 1 << 21


def sinusoidal_step_embedding(t, dim):
    """Classic fixed sin/cos embedding of an integer diffusion step."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    args = float(t) * freqs
    return np.concatenate([np.sin(args), np.cos(args)]).astype(np.float32)


class ChannelNorm(ag.Module):
    """Per-position layer norm over channels with a learned affine part."""

    def __init__(self, channels):
        self.g = ag.param(np.ones(channels, dtype=np.float32))
        self.b = ag.param(np.zeros(channels, dtype=np.float32))

    def __call__(self, x):
        return x.layer_norm(self.g, self.b)


class ResBlock(ag.Module):
    def __init__(self, c_in, c_out, rng):
        self.norm1 = ChannelNorm(c_in)
        self.conv1 = ag.Conv1d(c_in, c_out, 3, rng, padding=1)
        self.temb_proj = ag.Linear(TEMB_DIM, c_out, rng)
        self.norm2 = ChannelNorm(c_out)
        self.conv2 = ag.Conv1d(c_out, c_out, 3, rng, padding=1)
        self.skip = None if c_in == c_out else ag.Conv1d(c_in, c_out, 1, rng)

    def __call__(self, x, temb_act):
        h = self.conv1(self.norm1(x).silu())
        h = h + self.temb_proj(temb_act)
        h = self.conv2(self.norm2(h).silu())
        s = x if self.skip is None else self.skip(x)
        return s + h


class FeedForward(ag.Module):
    def __init__(self, c, rng):
        self.norm = ChannelNorm(c)
        self.lin1 = ag.Linear(c, 2 * c, rng)
        self.lin2 = ag.Linear(2 * c, c, rng)

    def __call__(self, x):
        return x + self.lin2(self.lin1(self.norm(x)).silu())


class SGCAttBlock(ag.Module):
    """Cross-attention from latent positions to condition tokens, restricted
    by the storyboard mask; the final transformer block of each level.
    Keys and values are read from `kv_dim`-wide inputs.
    """

    def __init__(self, c, kv_dim, rng):
        self.norm = ChannelNorm(c)
        self.wq = ag.Linear(c, c, rng)
        self.wk = ag.Linear(kv_dim, c, rng)
        self.wv = ag.Linear(kv_dim, c, rng)
        self.wo = ag.Linear(c, c, rng)
        self.ffn = FeedForward(c, rng)

    def __call__(self, x, tokens, mask):
        out = sg_cross_attention(self.wq(self.norm(x)), self.wk(tokens), self.wv(tokens), mask)
        return self.ffn(x + self.wo(out))


class SelfAttnBlock(SGCAttBlock):
    """Pre-norm single-head self-attention over time, plus a feed-forward:
    the same sub-modules, with keys and values read from the latent."""

    def __init__(self, c, rng):
        super().__init__(c, c, rng)

    def __call__(self, x):
        t = self.norm(x)
        q, k, v = self.wq(t), self.wk(t), self.wv(t)
        return self.ffn(x + self.wo(attention_logits(q, k).softmax() @ v))


class Level(ag.Module):
    """Encoder levels keep their width (c_in == c_out); decoder levels take
    the upsampled path concatenated with the skip (c_in == 2 * c_out)."""

    def __init__(self, c_in, c_out, cond_dim, rng):
        self.res = ResBlock(c_in, c_out, rng)
        self.selfattn = SelfAttnBlock(c_out, rng)
        self.sgc = SGCAttBlock(c_out, cond_dim, rng)

    def __call__(self, x, temb_act, tokens, mask):
        x = self.res(x, temb_act)
        x = self.selfattn(x)
        return self.sgc(x, tokens, mask)


class TUNet(ag.Module):
    """Denoiser: eps prediction from (z_t, step, condition tokens, mask)."""

    def __init__(self, cond_dim, widths, rng=None):
        self.cond_dim = cond_dim
        self.widths = tuple(widths)
        self.levels = len(self.widths)

        # one forked stream per block; without an rng every weight starts at zero
        r = (None if rng is None else rng.fork(i) for i in itertools.count())
        self.temb_lin1 = ag.Linear(TEMB_DIM, TEMB_DIM, next(r))
        self.temb_lin2 = ag.Linear(TEMB_DIM, TEMB_DIM, next(r))
        self.in_conv = ag.Conv1d(LATENT_CHANNELS, self.widths[0], 3, next(r), padding=1)
        self.enc = [Level(w, w, cond_dim, next(r)) for w in self.widths]
        self.down = [ag.Conv1d(self.widths[i], self.widths[i + 1], 3, next(r), stride=2, padding=1)
                     for i in range(self.levels - 1)]
        self.up = [ag.Conv1d(self.widths[i + 1], self.widths[i], 3, next(r), padding=1)
                   for i in reversed(range(self.levels - 1))]
        self.dec = [Level(2 * self.widths[i], self.widths[i], cond_dim, next(r))
                    for i in reversed(range(self.levels - 1))]
        self.out_norm = ChannelNorm(self.widths[0])
        # zero-initialized (no rng): an untrained net predicts zero noise
        self.out_conv = ag.Conv1d(self.widths[0], LATENT_CHANNELS, 3, None, padding=1)
        # global 1x1 residual from the raw input latent, gated per channel by
        # the step embedding: without it the denoiser cannot express the
        # near-identity maps high-noise steps need once trunk width drops
        # below the latent channel count, and training stalls near loss 1
        self.res_proj = ag.Conv1d(LATENT_CHANNELS, LATENT_CHANNELS, 1, None)
        self.res_gate = ag.Linear(TEMB_DIM, LATENT_CHANNELS, None)
        self.adapters = None  # set by attach_adapters for the fine-tune stage

    def attach_adapters(self):
        self.adapters = [AdapterParams(w) for w in self.widths]

    def __call__(self, z, step, tokens, base_mask, aligner_feats=None):
        z = ag.as_var(z)
        length = z.shape[1]
        mult = 2 ** (self.levels - 1)
        padded = ((length + mult - 1) // mult) * mult
        if padded > MAX_LATENT_LEN:
            raise DataError(f"latent length {length} exceeds {MAX_LATENT_LEN} frames "
                            f"once padded to {padded}")
        if base_mask.grid.shape[0] != length:
            raise DataError(f"mask rows {base_mask.grid.shape[0]} != latent length {length}")

        x = z.transpose()
        if padded != length:
            pad = ag.Var(np.zeros((padded - length, LATENT_CHANNELS), dtype=z.data.dtype))
            x = ag.concat([x, pad], axis=0)
        z_in = x
        masks = level_masks(base_mask, padded, self.levels)

        temb = ag.Var(sinusoidal_step_embedding(step, TEMB_DIM)[None].astype(z.data.dtype))
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
