"""Storyboard-guided cross-attention: condition assembly, masks, attention.

Each storyboard contributes six condition tokens in fixed order: global
caption, global tags, storyboard text, storyboard visual, start-time
embedding, duration embedding. The global tokens are repeated into every
storyboard's block so each latent position can always reach them through its
own storyboard's span.

The mask grid has one row per latent time position and one column per
token: row x may attend token y iff x's time falls inside token y's
storyboard interval [s, s+d). The mask is applied additively, -1e9 on
masked logits, because a {0,1} mask multiplied into the logits does NOT
disable entries: a zeroed logit still gets weight exp(0) after softmax.
"""

import dataclasses

import numpy as np

from . import autograd as ag
from .errors import DataError

TOKENS_PER_STORYBOARD = 6


@dataclasses.dataclass
class ConditionBundle:
    tokens: ag.Var  # (N * 6, D)
    spans: list     # per token: (start_s, end_s) of its storyboard
    storyboard_count: int

    @property
    def dim(self):
        return self.tokens.shape[1]


@dataclasses.dataclass
class StoryboardMask:
    grid: np.ndarray  # (latent positions, tokens), binary
    latent_fps: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.uint8)


def assemble_conditions(ann, time_emb):
    """Token matrix per the fixed 6-token-per-storyboard layout.

    Time embeddings come through the trainable embedder, so the bundle
    participates in gradient flow; the four text/visual tokens are constants.
    """
    n = len(ann.storyboards)
    if n == 0:
        raise DataError("annotation has no storyboards")
    dim = len(ann.caption_feat)
    if time_emb.dim != dim:
        raise DataError(f"time embedder dim {time_emb.dim} != feature dim {dim}")
    starts = time_emb.embed([s.start_s for s in ann.storyboards])      # (N, D)
    durs = time_emb.embed([s.duration_s for s in ann.storyboards])     # (N, D)
    blocks = []
    spans = []
    for i, sb in enumerate(ann.storyboards):
        static = np.stack([
            ann.caption_feat, ann.tag_feat, sb.text_feat, sb.visual_feat,
        ]).astype(np.float32)
        if static.shape[1] != dim:
            raise DataError(f"storyboard {i} feature dim {static.shape[1]} != {dim}")
        blocks.append(ag.concat([
            ag.Var(static),
            starts[i].reshape(1, dim),
            durs[i].reshape(1, dim),
        ], axis=0))
        spans.extend([(sb.start_s, sb.end_s)] * TOKENS_PER_STORYBOARD)
    return ConditionBundle(ag.concat(blocks, axis=0), spans, n)


def zero_conditions(ann, dim):
    """All-zero stand-in bundle with the same token layout (unconditional
    baseline for ablations)."""
    n = len(ann.storyboards)
    spans = []
    for sb in ann.storyboards:
        spans.extend([(sb.start_s, sb.end_s)] * TOKENS_PER_STORYBOARD)
    return ConditionBundle(ag.Var(np.zeros((n * TOKENS_PER_STORYBOARD, dim), dtype=np.float32)),
                           spans, n)


def build_mask(ann, latent_len, latent_fps):
    """Base-resolution mask: position x (time x / latent_fps) sees token y
    iff that time lies in y's storyboard interval.

    Latents produced by the codec run one frame short of
    ceil(duration * fps), because STFT framing drops the partial window at
    the clip tail; the sampler's latents run the full ceil(duration * fps).
    """
    times = np.arange(latent_len) / latent_fps
    grid = np.zeros((latent_len, len(ann.storyboards) * TOKENS_PER_STORYBOARD), dtype=np.uint8)
    for i, sb in enumerate(ann.storyboards):
        rows = (times >= sb.start_s) & (times < sb.end_s)
        grid[rows, i * TOKENS_PER_STORYBOARD:(i + 1) * TOKENS_PER_STORYBOARD] = 1
    return StoryboardMask(grid, latent_fps)


def pad_mask_rows(m, new_len):
    """Extend the latent axis with all-zero rows (positions past the clip)."""
    x, y = m.grid.shape
    if new_len < x:
        raise DataError(f"cannot pad mask from {x} rows down to {new_len}")
    if new_len == x:
        return m
    grid = np.zeros((new_len, y), dtype=np.uint8)
    grid[:x] = m.grid
    return StoryboardMask(grid, m.latent_fps)


def downsample_mask(m, factor):
    """OR-pool blocks of `factor` rows; token axis untouched."""
    if factor == 1:
        return m
    x, y = m.grid.shape
    if x % factor != 0:
        raise DataError(f"mask rows {x} not divisible by {factor}; pad first")
    grid = m.grid.reshape(x // factor, factor, y).max(axis=1)
    return StoryboardMask(grid, m.latent_fps / factor)


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

