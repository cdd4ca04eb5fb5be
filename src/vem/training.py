"""Staged training, checkpoints, and sampling glue.

Stage A trains the transition-beat aligner alone (the latent codec is a
fixed invertible map, so there is nothing to pre-train on the audio side).
Stage B trains the diffusion denoiser with storyboard conditioning, adapter
excluded. Stage C freezes the aligner, bolts zero-initialized adapters onto
the encoder levels, and fine-tunes the denoiser jointly with them.

A run varies only in `TrainConfig`: the seed, the denoiser widths, the
schedule length T and each stage's step count. Everything else is a
constant of the code that uses it: the learning rates (here and in
`tbalign`), the beta endpoints (`diffusion`), and the module sizes:
`parsing.FEATURE_DIM` and `parsing.TIME_HIDDEN` for the condition
embedders, `tunet.TEMB_DIM` for the step embedding, and
`tbalign.ALIGNER_HIDDEN` for the aligner and its adapters. Every stage
runs its optimizer steps through `autograd.Adam.minimize`.

Checkpoints are tensor-container files with a JSON metadata header. An
aligner's meta holds its stage tag, `feat_dim` and `seed`. A diffusion
model's holds the stage tag ("diffusion" or "adapter"), `T`, `widths`,
`cond_dim` and the corpus latent standardization `latent_mean` /
`latent_std`; loading rebuilds the exact model from these and ignores any
other key. Each size in the meta must match the stored tensors, and `T`
must not exceed `diffusion.MAX_T`, before any module is built from them.
Diffusion operates on standardized latents, so samples are de-standardized
before decoding.
"""

import dataclasses

import numpy as np

from . import autograd as ag
from .audiofeat import logmel
from .beatdet import ENVELOPE_RATE_HZ, beats_within
from .container import load_tensors, save_tensors
from .diffusion import (LATENT_CHANNELS, MAX_T, Latent, latent_decode, latent_encode,
                        latent_len_for_duration, sample, training_loss)
from .errors import DataError, StageOrderError
from .parsing import TimeEmbedder
from .rng import Rng
from .sgcatt import TOKENS_PER_STORYBOARD, StoryboardMask, assemble_conditions, build_mask
from .tbalign import AlignerNet, aligner_features, train_aligner
from .timeline import from_timestamps, transitions_beats_iou
from .tunet import TUNet

DIFFUSION_LR = 1e-3
ADAPTER_LR = 5e-4


@dataclasses.dataclass
class TrainConfig:
    seed: int = 0
    widths: tuple = (64, 128, 256)
    T: int = 1000
    aligner_steps: int = 400
    diffusion_steps: int = 800
    adapter_steps: int = 400

    # every optimizer step draws one noise/timestep sample; a class constant,
    # not a field, for the benchmark's per-step clock that reads it
    diffusion_draws = adapter_draws = 1

    def __post_init__(self):
        # refused here, before a stage reads and encodes its corpus
        if not 1 <= self.T <= MAX_T:
            raise DataError(f"need 1 <= T <= {MAX_T}, got {self.T}")


def intersection_labels(ann, wav):
    """Frames where an annotated transition meets a detected music beat."""
    beats = beats_within(logmel(wav), ann.duration_s)
    return from_timestamps(ann.transitions) & from_timestamps(beats)


# -- stage A ---------------------------------------------------------------


def train_stage_aligner(corpus, cfg):
    """corpus: list of (VideoAnnotation, Waveform). Returns (net, losses)."""
    if not corpus:
        raise DataError("empty corpus")
    dataset = []
    for ann, wav in corpus:
        labels = intersection_labels(ann, wav)
        n = min(ann.frame_features.shape[1], len(labels))
        dataset.append((ann.frame_features[:, :n], labels[:n]))
    return train_aligner(dataset, cfg.aligner_steps, cfg.seed)


# -- stages B and C --------------------------------------------------------


def _prepare_latents(corpus, stats=None, aligner=None):
    """Encode every waveform; returns (items, mean, std). Each item is an
    (ann, z0, mask, afeats) tuple: the latent standardized by `stats` =
    (mean, std), or by the corpus's own scalar mean and std when `stats` is
    None; its storyboard mask; and the aligner's features on the latent
    clock, None without an `aligner`."""
    latents = [latent_encode(logmel(wav)).values for _, wav in corpus]
    if stats is None:
        vals = np.concatenate([z.ravel() for z in latents]).astype(np.float64)
        stats = float(vals.mean()), float(vals.std())
        if stats[1] <= 0:
            raise DataError("degenerate corpus: zero latent variance")
    mean, std = stats
    items = []
    for (ann, _), z in zip(corpus, latents):
        length = z.shape[1]
        afeats = None if aligner is None else aligner_features(aligner, ann.frame_features, length)
        items.append((ann, ((z - mean) / std).astype(np.float32), build_mask(ann, length), afeats))
    return items, mean, std


def _run_diffusion_loop(items, unet, temb, T, steps, lr, rng):
    """One optimizer step per noise/timestep draw, cycling the corpus."""

    def loss_of(step):
        ann, z0, mask, afeats = items[step % len(items)]
        return training_loss(unet, z0, assemble_conditions(ann, temb), mask, rng, T,
                             aligner_feats=afeats)

    params = dict(unet.named_params("unet") + temb.named_params("time_embedder"))
    return ag.Adam(params, lr=lr).minimize(loss_of, steps)


def train_stage_diffusion(corpus, cfg):
    """Stage B. Returns (unet, time embedder, meta, losses)."""
    if not corpus:
        raise DataError("empty corpus")
    items, mean, std = _prepare_latents(corpus)
    master = Rng(cfg.seed)
    ann, z0 = items[0][:2]
    dim = len(ann.caption_feat)
    unet = TUNet(z0.shape[0], dim, cfg.widths, rng=master.fork(1))
    temb = TimeEmbedder(dim, rng=master.fork(2))
    losses = _run_diffusion_loop(items, unet, temb, cfg.T, cfg.diffusion_steps, DIFFUSION_LR,
                                 master.fork(3))
    meta = {"stage": "diffusion", "T": cfg.T, "widths": list(unet.widths), "cond_dim": dim,
            "latent_mean": mean, "latent_std": std}
    return unet, temb, meta, losses


def train_stage_adapter(corpus, cfg, aligner, unet, temb, meta):
    """Stage C: attach zero-init adapters, freeze the aligner, fine-tune.

    Mutates unet/temb in place; returns (unet, temb, meta, losses).
    """
    if not corpus:
        raise DataError("empty corpus")
    if meta.get("stage") not in ("diffusion", "adapter"):
        raise StageOrderError(f"adapter stage needs a diffusion checkpoint, got {meta.get('stage')!r}")
    # keep the standardization the base model was trained with
    items, _, _ = _prepare_latents(corpus, (meta["latent_mean"], meta["latent_std"]), aligner)
    if unet.adapters is None:
        unet.attach_adapters()
    master = Rng(cfg.seed + 1)
    losses = _run_diffusion_loop(items, unet, temb, cfg.T, cfg.adapter_steps, ADAPTER_LR,
                                 master.fork(3))
    return unet, temb, dict(meta, stage="adapter"), losses


def three_stage_train(corpus, cfg):
    """Full pipeline; returns a dict with the aligner, model, meta, losses."""
    aligner, a_losses = train_stage_aligner(corpus, cfg)
    unet, temb, meta, b_losses = train_stage_diffusion(corpus, cfg)
    unet, temb, meta, c_losses = train_stage_adapter(corpus, cfg, aligner, unet, temb, meta)
    return {"aligner": aligner, "unet": unet, "time_embedder": temb, "meta": meta,
            "losses": {"aligner": a_losses, "diffusion": b_losses, "adapter": c_losses}}


# -- checkpoints -----------------------------------------------------------


def _positive_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v > 0


def _check_meta(path, meta, ints, floats=()):
    """Reject checkpoint metadata that cannot rebuild the model it describes."""
    for key in ints:
        if not _positive_int(meta.get(key)):
            raise DataError(f"{path}: meta {key!r} must be a positive int, got {meta.get(key)!r}")
    for key in floats:
        v = meta.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not np.isfinite(v):
            raise DataError(f"{path}: meta {key!r} must be a finite number, got {v!r}")


def _stored_dim(path, tensors, key, axis):
    """Axis `axis` of the stored tensor `key`: what a meta size is checked
    against before any module is built from it."""
    t = tensors.get(key)
    if t is None or t.ndim <= axis:
        raise DataError(f"{path}: tensor {key!r} is missing or has too few axes")
    return t.shape[axis]


def _check_meta_dim(path, meta, key, stored):
    if meta[key] != stored:
        raise DataError(f"{path}: meta {key!r} is {meta[key]!r}, the stored tensors hold {stored!r}")


def save_aligner(path, net, cfg):
    save_tensors(path, net.state_dict(), {"stage": "aligner", "feat_dim": net.feat_dim,
                                          "seed": cfg.seed})


def load_aligner(path):
    tensors, meta = load_tensors(path)
    if meta.get("stage") != "aligner":
        raise StageOrderError(f"{path} is not an aligner checkpoint (stage={meta.get('stage')!r})")
    _check_meta(path, meta, ("feat_dim",))
    _check_meta_dim(path, meta, "feat_dim", _stored_dim(path, tensors, "conv1.w", 1))
    net = AlignerNet(meta["feat_dim"])
    net.load_state_dict(tensors)
    return net, meta


def save_diffusion(path, unet, temb, meta):
    tensors = {f"unet.{k}": v for k, v in unet.state_dict().items()}
    tensors.update({f"time_embedder.{k}": v for k, v in temb.state_dict().items()})
    save_tensors(path, tensors, meta)


def load_diffusion(path):
    tensors, meta = load_tensors(path)
    if meta.get("stage") not in ("diffusion", "adapter"):
        raise StageOrderError(f"{path} is not a diffusion checkpoint (stage={meta.get('stage')!r})")
    _check_meta(path, meta, ("cond_dim", "T"), ("latent_mean", "latent_std"))
    if meta["latent_std"] <= 0:
        raise DataError(f"{path}: meta 'latent_std' must be positive, got {meta['latent_std']!r}")
    widths = meta.get("widths")
    if not isinstance(widths, list) or not widths or not all(map(_positive_int, widths)):
        raise DataError(f"{path}: meta 'widths' must be a non-empty list of positive ints, "
                        f"got {widths!r}")
    if meta["T"] > MAX_T:
        raise DataError(f"{path}: meta 'T' must be at most {MAX_T}, got {meta['T']!r}")
    # every size a module is built with must match the file, so that the
    # allocations are bounded by what was stored
    stored = [_stored_dim(path, tensors, "unet.in_conv.w", 0)]
    while f"unet.down.{len(stored) - 1}.w" in tensors:
        stored.append(_stored_dim(path, tensors, f"unet.down.{len(stored) - 1}.w", 0))
    _check_meta_dim(path, meta, "widths", stored)
    _check_meta_dim(path, meta, "cond_dim", _stored_dim(path, tensors, "time_embedder.w2", 1))
    unet = TUNet(LATENT_CHANNELS, meta["cond_dim"], widths)
    if meta["stage"] == "adapter":
        unet.attach_adapters()
    unet.load_state_dict({k[len("unet."):]: v for k, v in tensors.items()
                          if k.startswith("unet.")})
    temb = TimeEmbedder(meta["cond_dim"])
    temb.load_state_dict({k[len("time_embedder."):]: v for k, v in tensors.items()
                          if k.startswith("time_embedder.")})
    return unet, temb, meta


# -- sampling and the end-to-end measure -----------------------------------


def sample_mel(unet, temb, meta, ann, steps, seed, aligner=None, conditioned=True):
    """Generate a spectrogram for one annotation.

    conditioned=False is the ablation baseline: all-zero condition tokens,
    an all-ones mask (no storyboard structure reaches the model), and no
    aligner features.
    """
    length = latent_len_for_duration(ann.duration_s)
    if conditioned:
        tokens = assemble_conditions(ann, temb)
        mask = build_mask(ann, length)
    else:
        n_tok = TOKENS_PER_STORYBOARD * len(ann.storyboards)
        tokens = ag.Var(np.zeros((n_tok, unet.cond_dim), dtype=np.float32))
        mask = StoryboardMask(np.ones((length, n_tok), dtype=np.uint8))
    afeats = None
    if conditioned and aligner is not None and unet.adapters is not None:
        afeats = aligner_features(aligner, ann.frame_features, length)
    z = sample(unet, tokens, mask, (unet.in_channels, length), steps, Rng(seed), int(meta["T"]),
               aligner_feats=afeats)
    z = z * float(meta["latent_std"]) + float(meta["latent_mean"])
    return latent_decode(Latent(z.astype(np.float32)))


def generation_tb_iou(mel, ann):
    """TB_IoU of the annotation's transitions against beats detected in a
    generated spectrogram; detector failures count as 0 (no beats found).
    """
    try:
        bm = beats_within(mel, len(mel.values) / ENVELOPE_RATE_HZ)
    except DataError:
        return 0.0
    return transitions_beats_iou(ann.transitions, bm)
