"""Staged training, checkpoints, and sampling glue.

Stage A trains the transition-beat aligner alone (the latent codec is a
fixed invertible map, so there is nothing to pre-train on the audio side).
Stage B trains the diffusion denoiser with storyboard conditioning, adapter
excluded. Stage C freezes the aligner, bolts zero-initialized adapters onto
the encoder levels, and fine-tunes the denoiser jointly with them.

Checkpoints are tensor-container files whose JSON metadata header carries
the schedule, architecture dims, the latent standardization constants, and
the stage tag; loading reconstructs the exact model. Diffusion operates on
standardized latents (corpus scalar mean/std), so samples must be
de-standardized before decoding.
"""

import dataclasses

import numpy as np

from . import autograd as ag
from .audiofeat import logmel
from .beatdet import beats_within
from .container import load_tensors, save_tensors
from .diffusion import (LATENT_CHANNELS, Latent, latent_decode, latent_encode,
                        latent_len_for_duration, make_schedule, sample, training_loss)
from .errors import DataError, StageOrderError
from .parsing import TimeEmbedder, build_frame_features
from .rng import Rng
from .sgcatt import TOKENS_PER_STORYBOARD, StoryboardMask, assemble_conditions, build_mask
from .tbalign import aligner_features, train_aligner
from .timeline import DEFAULT_FPS, from_timestamps, intersect, transitions_beats_iou
from .tunet import TUNet


@dataclasses.dataclass
class TrainConfig:
    seed: int = 0
    feature_dim: int = 64
    time_hidden: int = 32
    aligner_hidden: int = 32
    aligner_steps: int = 400
    aligner_lr: float = 1e-3
    widths: tuple = (64, 128, 256)
    temb_dim: int = 128
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    diffusion_steps: int = 800
    diffusion_lr: float = 1e-3
    diffusion_draws: int = 1
    adapter_steps: int = 400
    adapter_lr: float = 5e-4
    adapter_draws: int = 1

    def schedule(self):
        return make_schedule(self.T, self.beta_start, self.beta_end)


def frame_features_of(ann):
    ff = ann.frame_features
    return np.asarray(ff, dtype=np.float32) if ff is not None else build_frame_features(ann)


def intersection_labels(ann, wav):
    """Frames where an annotated transition meets a detected music beat."""
    video_tl = from_timestamps(ann.transitions, DEFAULT_FPS)
    music_tl = from_timestamps(beats_within(logmel(wav), ann.duration_s), DEFAULT_FPS)
    return intersect(video_tl, music_tl).frames


# -- stage A ---------------------------------------------------------------


def train_stage_aligner(corpus, cfg):
    """corpus: list of (VideoAnnotation, Waveform). Returns (net, losses)."""
    if not corpus:
        raise DataError("empty corpus")
    dataset = []
    for ann, wav in corpus:
        feats = frame_features_of(ann)
        labels = intersection_labels(ann, wav)
        n = min(feats.shape[1], len(labels))
        dataset.append((feats[:, :n], labels[:n]))
    return train_aligner(dataset, steps=cfg.aligner_steps, lr=cfg.aligner_lr,
                         seed=cfg.seed, hidden=cfg.aligner_hidden)


# -- stages B and C --------------------------------------------------------


def _prepare_latents(corpus, stats=None):
    """Encode every waveform; returns (items, mean, std) with items holding
    latents standardized by `stats` = (mean, std), or by the corpus's own
    scalar mean and std when `stats` is None, and masks on the latent clock."""
    latents = [latent_encode(logmel(wav)).values for _, wav in corpus]
    if stats is None:
        vals = np.concatenate([z.ravel() for z in latents]).astype(np.float64)
        stats = float(vals.mean()), float(vals.std())
        if stats[1] <= 0:
            raise DataError("degenerate corpus: zero latent variance")
    mean, std = stats
    items = [{"ann": ann, "z0": ((z - mean) / std).astype(np.float32),
              "mask": build_mask(ann, z.shape[1])}
             for (ann, _), z in zip(corpus, latents)]
    return items, mean, std


def _diffusion_meta(cfg, unet, mean, std, stage):
    return {
        "stage": stage, "T": cfg.T, "beta_start": cfg.beta_start, "beta_end": cfg.beta_end,
        "widths": list(unet.widths), "temb_dim": unet.temb_dim,
        "in_channels": unet.in_channels, "cond_dim": unet.cond_dim,
        "latent_mean": mean, "latent_std": std,
        "feature_dim": cfg.feature_dim, "time_hidden": cfg.time_hidden,
        "aligner_hidden": cfg.aligner_hidden if stage == "adapter" else None,
    }


def _run_diffusion_loop(items, unet, temb, cfg, steps, lr, rng, feats_key=None,
                        draws=1):
    """One optimizer step averages `draws` independent noise/timestep draws,
    cycling the corpus between draws; gradient noise drops accordingly.
    """
    sched = cfg.schedule()
    opt = ag.Adam(unet.params() + temb.params(), lr=lr)
    losses = []
    for step in range(steps):
        opt.zero_grad()
        total = None
        for d in range(draws):
            it = items[(step * draws + d) % len(items)]
            tokens = assemble_conditions(it["ann"], temb)
            loss = training_loss(unet, it["z0"], tokens, it["mask"], rng, sched,
                                 aligner_feats=it.get(feats_key) if feats_key else None)
            total = loss if total is None else total + loss
        if draws > 1:
            total = total * (1.0 / draws)
        total.backward()
        opt.step()
        losses.append(float(total.data))
    return losses


def train_stage_diffusion(corpus, cfg):
    """Stage B. Returns (unet, time embedder, meta, losses)."""
    if not corpus:
        raise DataError("empty corpus")
    items, mean, std = _prepare_latents(corpus)
    master = Rng(cfg.seed)
    in_channels = items[0]["z0"].shape[0]
    unet = TUNet(in_channels, cfg.feature_dim, widths=cfg.widths,
                 temb_dim=cfg.temb_dim, rng=master.fork(1))
    temb = TimeEmbedder(cfg.feature_dim, hidden=cfg.time_hidden, rng=master.fork(2))
    losses = _run_diffusion_loop(items, unet, temb, cfg,
                                 cfg.diffusion_steps, cfg.diffusion_lr, master.fork(3),
                                 draws=cfg.diffusion_draws)
    return unet, temb, _diffusion_meta(cfg, unet, mean, std, "diffusion"), losses


def train_stage_adapter(corpus, cfg, aligner, unet, temb, meta):
    """Stage C: attach zero-init adapters, freeze the aligner, fine-tune.

    Mutates unet/temb in place; returns (unet, temb, meta, losses).
    """
    if not corpus:
        raise DataError("empty corpus")
    if meta.get("stage") not in ("diffusion", "adapter"):
        raise StageOrderError(f"adapter stage needs a diffusion checkpoint, got {meta.get('stage')!r}")
    # keep the standardization the base model was trained with
    items, _, _ = _prepare_latents(corpus, (meta["latent_mean"], meta["latent_std"]))
    for it in items:
        it["afeats"] = aligner_features(aligner, frame_features_of(it["ann"]),
                                        it["z0"].shape[1])
    if unet.adapters is None:
        unet.attach_adapters(cfg.aligner_hidden)
    master = Rng(cfg.seed + 1)
    losses = _run_diffusion_loop(items, unet, temb, cfg,
                                 cfg.adapter_steps, cfg.adapter_lr, master.fork(3),
                                 feats_key="afeats", draws=cfg.adapter_draws)
    new_meta = dict(meta)
    new_meta["stage"] = "adapter"
    new_meta["aligner_hidden"] = cfg.aligner_hidden
    return unet, temb, new_meta, losses


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


def save_aligner(path, net, cfg):
    meta = {"stage": "aligner", "feat_dim": net.feat_dim, "hidden": net.hidden,
            "seed": cfg.seed}
    save_tensors(path, net.state_dict(), meta)


def load_aligner(path):
    from .tbalign import AlignerNet
    tensors, meta = load_tensors(path)
    if meta.get("stage") != "aligner":
        raise StageOrderError(f"{path} is not an aligner checkpoint (stage={meta.get('stage')!r})")
    _check_meta(path, meta, ("feat_dim", "hidden"))
    net = AlignerNet(meta["feat_dim"], hidden=meta["hidden"])
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
    adapter = meta["stage"] == "adapter"
    _check_meta(path, meta, ("in_channels", "cond_dim", "temb_dim", "feature_dim", "time_hidden",
                             "T") + (("aligner_hidden",) if adapter else ()),
                ("beta_start", "beta_end", "latent_mean", "latent_std"))
    if meta["latent_std"] <= 0:
        raise DataError(f"{path}: meta 'latent_std' must be positive, got {meta['latent_std']!r}")
    widths = meta.get("widths")
    if not isinstance(widths, list) or not widths or not all(map(_positive_int, widths)):
        raise DataError(f"{path}: meta 'widths' must be a non-empty list of positive ints, "
                        f"got {widths!r}")
    if meta["temb_dim"] % 2:
        raise DataError(f"{path}: meta 'temb_dim' must be even, got {meta['temb_dim']}")
    if meta["in_channels"] != LATENT_CHANNELS:
        raise DataError(f"{path}: in_channels {meta['in_channels']} != {LATENT_CHANNELS}")
    unet = TUNet(meta["in_channels"], meta["cond_dim"], widths=widths, temb_dim=meta["temb_dim"])
    if adapter:
        unet.attach_adapters(meta["aligner_hidden"])
    unet.load_state_dict({k[len("unet."):]: v for k, v in tensors.items()
                          if k.startswith("unet.")})
    temb = TimeEmbedder(meta["feature_dim"], hidden=meta["time_hidden"])
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
    sched = make_schedule(int(meta["T"]), float(meta["beta_start"]), float(meta["beta_end"]))
    length = latent_len_for_duration(ann.duration_s)
    if conditioned:
        tokens = assemble_conditions(ann, temb)
        mask = build_mask(ann, length)
    else:
        n_tok = TOKENS_PER_STORYBOARD * len(ann.storyboards)
        tokens = ag.Var(np.zeros((n_tok, int(meta["feature_dim"])), dtype=np.float32))
        mask = StoryboardMask(np.ones((length, n_tok), dtype=np.uint8))
    afeats = None
    if conditioned and aligner is not None and unet.adapters is not None:
        afeats = aligner_features(aligner, frame_features_of(ann), length)
    z = sample(unet, tokens, mask, (unet.in_channels, length), steps, Rng(seed), sched,
               aligner_feats=afeats)
    z = z * float(meta["latent_std"]) + float(meta["latent_mean"])
    return latent_decode(Latent(z.astype(np.float32)))


def generation_tb_iou(mel, ann, tol_s=0.5):
    """TB_IoU of the annotation's transitions against beats detected in a
    generated spectrogram; detector failures count as 0 (no beats found).
    """
    try:
        bm = beats_within(mel, mel.values.shape[0] / mel.frames_per_second)
    except DataError:
        return 0.0
    return transitions_beats_iou(ann.transitions, bm, tol_s)
