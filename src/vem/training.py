"""Staged training, checkpoints, and sampling glue.

Stage A trains the transition-beat aligner alone (the latent codec is a
fixed invertible map, so there is nothing to pre-train on the audio side).
Stage B trains the diffusion denoiser with storyboard conditioning, adapter
excluded. Stage C freezes the aligner, bolts zero-initialized adapters onto
the encoder levels, and fine-tunes the denoiser jointly with them.

A run varies only in `TrainConfig`: the seed, the denoiser widths, the
schedule length T and each stage's step count. Each setting has one owner:
stage B builds the denoiser at `cfg.widths` and trains it on `cfg.T`, and
from then on the checkpoint owns both. Stage C and the sampler read the
sizes off its tensors and T off its meta, so stage C takes only its seed
and step count from `cfg`. Everything else is a constant of the code that
uses it: the learning rates (here and in `tbalign`), the beta endpoints
(`diffusion`), and the module sizes: `parsing.FEATURE_DIM` and
`parsing.TIME_HIDDEN` for the condition embedders, `tunet.TEMB_DIM` for the
step embedding, and `tbalign.ALIGNER_HIDDEN` for the aligner and its
adapters. Every stage runs its optimizer steps through
`autograd.Adam.minimize`.

Checkpoints are tensor-container files with a JSON metadata header, and a
checkpoint is its tensors: every module size is read off a stored weight
shape, checked before any module is built, and the meta holds only what
the tensors cannot say. An aligner's meta holds its stage tag and `seed`.
A diffusion model's holds the stage tag ("diffusion" or "adapter"), `T`,
which must not exceed `diffusion.MAX_T`, and the corpus latent
standardization `latent_mean` / `latent_std`. Loading ignores any other
key, such as the sizes older writers stored. Diffusion operates on
standardized latents, so samples are de-standardized before decoding.

A diffusion checkpoint's tensor names have one owner, the module tree
`_DiffusionModel`: Adam's parameter names, `save_diffusion` and
`load_diffusion` all read them off it, so a missing or stray tensor is
refused by its full name. `bench/checks._model_state` spells the same names.
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
from .parsing import TimeEmbedder, finite_number
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


class _DiffusionModel(ag.Module):
    """The tree that names a diffusion checkpoint's `unet.*` and `time_embedder.*`."""

    def __init__(self, unet, temb):
        self.unet = unet
        self.time_embedder = temb


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

    return ag.Adam(dict(_DiffusionModel(unet, temb).named_params()), lr=lr).minimize(loss_of, steps)


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
    meta = {"stage": "diffusion", "T": cfg.T, "latent_mean": mean, "latent_std": std}
    return unet, temb, meta, losses


def train_stage_adapter(corpus, cfg, aligner, unet, temb, meta):
    """Stage C: attach zero-init adapters, freeze the aligner, fine-tune.

    The model is tuned on the schedule and the latent standardization its
    checkpoint `meta` holds, which the sampler runs later; `cfg` supplies
    only the seed and `adapter_steps`. Mutates unet/temb in place; returns
    (unet, temb, meta, losses), the meta a fresh {stage, T, latent_mean,
    latent_std}.
    """
    if not corpus:
        raise DataError("empty corpus")
    if meta.get("stage") not in ("diffusion", "adapter"):
        raise StageOrderError(f"adapter stage needs a diffusion checkpoint, got {meta.get('stage')!r}")
    T, mean, std = meta["T"], meta["latent_mean"], meta["latent_std"]
    items, _, _ = _prepare_latents(corpus, (mean, std), aligner)
    if unet.adapters is None:
        unet.attach_adapters()
    master = Rng(cfg.seed + 1)
    losses = _run_diffusion_loop(items, unet, temb, T, cfg.adapter_steps, ADAPTER_LR,
                                 master.fork(3))
    return unet, temb, {"stage": "adapter", "T": T, "latent_mean": mean, "latent_std": std}, losses


def three_stage_train(corpus, cfg):
    """Full pipeline; returns a dict with the aligner, model, meta, losses."""
    aligner, a_losses = train_stage_aligner(corpus, cfg)
    unet, temb, meta, b_losses = train_stage_diffusion(corpus, cfg)
    unet, temb, meta, c_losses = train_stage_adapter(corpus, cfg, aligner, unet, temb, meta)
    return {"aligner": aligner, "unet": unet, "time_embedder": temb, "meta": meta,
            "losses": {"aligner": a_losses, "diffusion": b_losses, "adapter": c_losses}}


# -- checkpoints -----------------------------------------------------------


def _check_meta(path, meta):
    """Reject diffusion metadata that cannot drive the model it goes with."""
    T = meta.get("T")
    if type(T) is not int or not 1 <= T <= MAX_T:  # exact type: a JSON true is a bool
        raise DataError(f"{path}: meta 'T' must be an int in [1, {MAX_T}], got {T!r}")
    for key in ("latent_mean", "latent_std"):
        v = meta.get(key)
        if not finite_number(v):
            raise DataError(f"{path}: meta {key!r} must be a finite number, got {v!r}")
    if meta["latent_std"] <= 0:
        raise DataError(f"{path}: meta 'latent_std' must be positive, got {meta['latent_std']!r}")


def _stored_shape(path, tensors, key, rank):
    """The shape of the stored tensor `key`, which must have `rank` non-zero
    axes: a module size is read off it before anything is built."""
    t = tensors.get(key)
    if t is None or t.ndim != rank or not t.size:
        raise DataError(f"{path}: tensor {key!r} is missing, not {rank}-D, or empty")
    return t.shape


def save_aligner(path, net, cfg):
    save_tensors(path, net.state_dict(), {"stage": "aligner", "seed": cfg.seed})


def load_aligner(path):
    tensors, meta = load_tensors(path)
    if meta.get("stage") != "aligner":
        raise StageOrderError(f"{path} is not an aligner checkpoint (stage={meta.get('stage')!r})")
    net = AlignerNet(_stored_shape(path, tensors, "conv1.w", 3)[1])
    net.load_state_dict(tensors)
    return net, meta


def save_diffusion(path, unet, temb, meta):
    save_tensors(path, _DiffusionModel(unet, temb).state_dict(), meta)


def load_diffusion(path):
    tensors, meta = load_tensors(path)
    if meta.get("stage") not in ("diffusion", "adapter"):
        raise StageOrderError(f"{path} is not a diffusion checkpoint (stage={meta.get('stage')!r})")
    _check_meta(path, meta)
    # a level's width is the side of its square self-attention query map, and
    # every level's condition-key map must be (cond_dim, width): these are a
    # level's largest weights, so the model built is bounded by the bytes stored
    cond_dim = _stored_shape(path, tensors, "unet.enc.0.sgc.wk.w", 2)[0]
    widths = []
    while not widths or f"unet.enc.{len(widths)}.selfattn.wq.w" in tensors:
        level = f"unet.enc.{len(widths)}"
        width = _stored_shape(path, tensors, f"{level}.selfattn.wq.w", 2)[0]
        for key, want in ((f"{level}.selfattn.wq.w", (width, width)),
                          (f"{level}.sgc.wk.w", (cond_dim, width))):
            if _stored_shape(path, tensors, key, 2) != want:
                raise DataError(f"{path}: tensor {key!r} must be {want}, got {tensors[key].shape}")
        widths.append(width)
    unet = TUNet(LATENT_CHANNELS, cond_dim, widths)
    if meta["stage"] == "adapter":
        unet.attach_adapters()
    temb = TimeEmbedder(cond_dim)
    _DiffusionModel(unet, temb).load_state_dict(tensors)
    return unet, temb, meta


# -- sampling and the end-to-end measure -----------------------------------


def sample_mel(unet, temb, meta, ann, steps, seed, aligner=None, conditioned=True):
    """Generate a spectrogram for one annotation.

    conditioned=False is the ablation baseline: all-zero condition tokens,
    an all-ones mask (no storyboard structure reaches the model), and no
    aligner features. A de-standardized latent that is not finite raises
    DataError.
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
    with np.errstate(over="ignore"):
        z = (z * float(meta["latent_std"]) + float(meta["latent_mean"])).astype(np.float32)
    if not np.isfinite(z).all():
        raise DataError("sampled latent is not finite: the checkpoint's weights or its "
                        "latent_mean / latent_std overflow")
    return latent_decode(Latent(z))


def generation_tb_iou(mel, ann):
    """TB_IoU of the annotation's transitions against beats detected in a
    generated spectrogram; detector failures count as 0 (no beats found).
    """
    try:
        bm = beats_within(mel, len(mel.values) / ENVELOPE_RATE_HZ)
    except DataError:
        return 0.0
    return transitions_beats_iou(ann.transitions, bm)
