"""Storyboard-guided cross-attention: condition tokens, masks, attention.

Each storyboard contributes six condition tokens in fixed order: global
caption, global tags, storyboard text, storyboard visual, start-time
embedding, duration embedding. The global tokens are repeated into every
storyboard's block so each latent position can always reach them through its
own storyboard's span. The denoiser reads exactly two inputs from here: the
(6N, D) token Var and the mask grid.

The mask grid has one row per latent time position and one column per
token: row x may attend token y iff x's time falls inside token y's
storyboard interval [s, s+d). The mask is applied additively, -1e9 on
masked logits, because a {0,1} mask multiplied into the logits does NOT
disable entries: a zeroed logit still gets weight exp(0) after softmax.
"""

import dataclasses

import numpy as np

from . import autograd as ag
from .diffusion import LATENT_FPS
from .errors import DataError

TOKENS_PER_STORYBOARD = 6


@dataclasses.dataclass
class StoryboardMask:
    """A binary (latent positions, tokens) grid, stored as uint8.

    It stays a type, not a bare array, for two reasons: the uint8 cast
    happens once, where a grid is made, and `bench/tracer.py` reads `.grid`
    off the mask argument of `sg_cross_attention`.
    """

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.uint8)


def assemble_conditions(ann, time_emb):
    """(6N, D) token Var in the fixed six-token-per-storyboard layout.

    Time embeddings come through the trainable embedder, so the tokens carry
    gradient; the four text/visual tokens are constants.
    """
    boards = ann.storyboards
    n = len(boards)
    if n == 0:
        raise DataError("annotation has no storyboards")
    dim = len(ann.caption_feat)
    if time_emb.dim != dim:
        raise DataError(f"time embedder dim {time_emb.dim} != feature dim {dim}")
    for i, sb in enumerate(boards):
        for feat in (ann.tag_feat, sb.text_feat, sb.visual_feat):
            if np.shape(feat) != (dim,):
                raise DataError(f"storyboard {i} feature shape {np.shape(feat)} != ({dim},)")
    static = np.empty((n, 4, dim), dtype=np.float32)
    static[:, 0] = ann.caption_feat
    static[:, 1] = ann.tag_feat
    static[:, 2] = [sb.text_feat for sb in boards]
    static[:, 3] = [sb.visual_feat for sb in boards]
    starts = time_emb.embed([sb.start_s for sb in boards]).reshape(n, 1, dim)
    durs = time_emb.embed([sb.duration_s for sb in boards]).reshape(n, 1, dim)
    tokens = ag.concat([ag.Var(static), starts, durs], axis=1)
    return tokens.reshape(n * TOKENS_PER_STORYBOARD, dim)


def build_mask(ann, latent_len):
    """Base-resolution mask: position x (time x / LATENT_FPS) sees token y
    iff that time lies in y's storyboard interval.

    Latents produced by the codec run one frame short of
    ceil(duration * fps), because STFT framing drops the partial window at
    the clip tail; the sampler's latents run the full ceil(duration * fps).
    """
    times = np.arange(latent_len) / LATENT_FPS
    grid = np.zeros((latent_len, len(ann.storyboards) * TOKENS_PER_STORYBOARD), dtype=np.uint8)
    for i, sb in enumerate(ann.storyboards):
        rows = (times >= sb.start_s) & (times < sb.end_s)
        grid[rows, i * TOKENS_PER_STORYBOARD:(i + 1) * TOKENS_PER_STORYBOARD] = 1
    return StoryboardMask(grid)


def level_masks(mask, padded_len, levels):
    """The mask at each of `levels` UNet levels: rows zero-padded to
    `padded_len` (positions past the clip see no token), then OR-pooled over
    blocks of 2^l rows at level l. `padded_len` is a multiple of
    2^(levels-1); the token axis is untouched.
    """
    rows, tokens = mask.grid.shape
    grid = np.zeros((padded_len, tokens), dtype=np.uint8)
    grid[:rows] = mask.grid
    return [StoryboardMask(grid.reshape(padded_len >> lvl, 1 << lvl, tokens).max(axis=1))
            for lvl in range(levels)]


def attention_logits(q, k):
    """Scaled dot products q k^T / sqrt(d_key), (X, d_key) x (Y, d_key) -> (X, Y)."""
    return (q @ k.transpose()) * float(1.0 / np.sqrt(k.shape[1]))


def sg_cross_attention(q, k, v, mask):
    """Masked single-head attention, (X, d_key) x (Y, d_key) x (Y, d_val).

    Masked logits get -1e9 before softmax; rows whose every token is masked
    return exact zero vectors.
    """
    q, k, v = ag.as_var(q), ag.as_var(k), ag.as_var(v)
    xq, dk = q.shape
    yk, dk2 = k.shape
    yv, _ = v.shape
    if dk != dk2 or yk != yv:
        raise DataError(f"attention shape mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if mask.grid.shape != (xq, yk):
        raise DataError(f"mask shape {mask.grid.shape} != (query {xq}, token {yk})")
    bias = (mask.grid.astype(np.float32) - 1.0) * 1e9
    attn = (attention_logits(q, k) + ag.Var(bias)).softmax(axis=-1)
    live = mask.grid.any(axis=1).astype(np.float32)[:, None]
    return (attn * ag.Var(live)) @ v
