"""Annotation manifests and the toy feature embedders.

A video arrives as a JSON manifest describing three levels: one global
caption + emotion tags, a list of storyboards (start, duration, text), and
frame-level transition timestamps. Feature vectors either ride along in a
tensor-container sidecar (so real encoder outputs can drop in) or are
synthesized here by deterministic bag-of-tokens hash embedders.

Manifest schema (exact keys):

    {video_id, duration_s,
     global: {caption, tags: [...]},
     storyboards: [{start_s, duration_s, text}],
     transitions_s: [...],
     features?: path-to-sidecar}

Sidecar entries: "caption_feat", "tag_feat", "storyboard.{i}.text_feat",
"storyboard.{i}.visual_feat", optional "frame_features" (channels x frames
at 16 fps).
"""

import dataclasses
import json
import os
import sys

import numpy as np

from . import autograd as ag
from .container import load_tensors, save_tensors
from .errors import ManifestError
from .timeline import DEFAULT_FPS, TimestampSet

FEATURE_DIM = 64


@dataclasses.dataclass
class Storyboard:
    index: int
    start_s: float
    duration_s: float
    text: str
    text_feat: np.ndarray
    visual_feat: np.ndarray

    @property
    def end_s(self):
        return self.start_s + self.duration_s


@dataclasses.dataclass
class VideoAnnotation:
    video_id: str
    duration_s: float
    global_caption: str
    caption_feat: np.ndarray
    emotion_tags: list
    tag_feat: np.ndarray
    storyboards: list
    transitions: TimestampSet
    frame_features: np.ndarray = None  # (channels, frames) at 16 fps, optional

    @property
    def shot_count(self):
        return len(self.storyboards)


# -- toy embedders ---------------------------------------------------------


def _fnv1a64(s):
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def toy_text_embed(text, dim=FEATURE_DIM):
    """Bag-of-tokens hash embedding: each token adds +-1 to one of `dim`
    buckets (bucket and sign from a fixed 64-bit FNV-1a hash), then the
    vector is L2-normalized. Token order does not matter; empty text maps
    to the zero vector.
    """
    if dim < 8:
        raise ValueError(f"embedding dim must be >= 8, got {dim}")
    out = np.zeros(dim, dtype=np.float32)
    for tok in text.lower().split():
        h = _fnv1a64(tok)
        sign = 1.0 if (h >> 63) == 0 else -1.0
        out[h % dim] += sign
    norm = float(np.linalg.norm(out))
    return out / norm if norm > 0 else out


def toy_visual_embed(text, dim=FEATURE_DIM):
    """Visual-channel stand-in: same hash embedder under a namespace prefix,
    so "sunset" as imagery and "sunset" as caption text get distinct vectors.
    """
    return toy_text_embed(" ".join("vis:" + t for t in text.lower().split()), dim)


class TimeEmbedder(ag.Module):
    """Two-layer MLP from a scalar time in seconds to a `dim` vector.

    Input is scaled by 1/30 so clip-scale times stay inside tanh's linear
    region. With all-zero weights every time maps to the output bias.
    """

    INPUT_SCALE = 1.0 / 30.0

    def __init__(self, dim=FEATURE_DIM, hidden=32, rng=None, dtype=np.float32):
        if rng is None:
            self.w1 = ag.param(np.zeros((1, hidden), dtype=dtype))
            self.w2 = ag.param(np.zeros((hidden, dim), dtype=dtype))
        else:
            self.w1 = ag.param(rng.gaussian((1, hidden)).astype(dtype))
            self.w2 = ag.param((rng.gaussian((hidden, dim)) / np.sqrt(hidden)).astype(dtype))
        self.b1 = ag.param(np.zeros(hidden, dtype=dtype))
        self.b2 = ag.param(np.zeros(dim, dtype=dtype))
        self.dim = dim

    def embed(self, times):
        """times: scalar or sequence of seconds -> (n, dim) Var."""
        arr = np.atleast_1d(np.asarray(times, dtype=self.w1.data.dtype))
        if np.any(arr < 0):
            raise ValueError(f"time must be non-negative, got {arr.min()}")
        x = ag.Var(arr[:, None] * self.INPUT_SCALE)
        h = ag.linear(x, self.w1, self.b1).tanh()
        return ag.linear(h, self.w2, self.b2)


# -- manifest I/O ----------------------------------------------------------


def _require(doc, field, path):
    if not isinstance(doc, dict):
        raise ManifestError(path.rstrip(".") or "(document)", "must be a JSON object")
    if field not in doc:
        raise ManifestError(f"{path}{field}", "missing")
    return doc[field]


def _finite(x):
    """A JSON number that converts to a finite float (NaN, inf and huge ints fail)."""
    return isinstance(x, (int, float)) and abs(x) <= sys.float_info.max


def _number(doc, field, path):
    val = _require(doc, field, path)
    if not _finite(val):
        raise ManifestError(f"{path}{field}", f"must be a finite number, got {val!r}")
    return val


def load_manifest(path):
    """Read and validate a manifest; attach features from the sidecar or the
    toy embedders. Raises ManifestError naming the offending field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ManifestError("(document)", f"invalid JSON: {exc}") from exc

    video_id = str(_require(doc, "video_id", ""))
    duration = _number(doc, "duration_s", "")
    if duration <= 0:
        raise ManifestError("duration_s", f"must be positive, got {duration!r}")
    glob = _require(doc, "global", "")
    caption = str(_require(glob, "caption", "global."))
    tags = _require(glob, "tags", "global.")
    if not isinstance(tags, list):
        raise ManifestError("global.tags", "must be a list")

    sidecar = {}
    if doc.get("features"):
        fpath = doc["features"]
        if not isinstance(fpath, str):
            raise ManifestError("features", f"must be a sidecar path, got {fpath!r}")
        if not os.path.isabs(fpath):
            fpath = os.path.join(os.path.dirname(os.path.abspath(path)), fpath)
        if not os.path.exists(fpath):
            raise ManifestError("features", f"sidecar not found: {fpath}")
        sidecar, _ = load_tensors(fpath)

    def feat(key, fallback, ndim=1):
        if key not in sidecar:
            return fallback()
        v = sidecar[key]
        if v.ndim != ndim or v.size == 0 or not np.isfinite(v).all():
            raise ManifestError(key, f"must be a non-empty finite {ndim}-D array, "
                                     f"got shape {v.shape}")
        return v

    caption_feat = feat("caption_feat", lambda: toy_text_embed(caption))
    tag_feat = feat("tag_feat", lambda: toy_text_embed(" ".join(map(str, tags))))

    raw_sbs = _require(doc, "storyboards", "")
    if not isinstance(raw_sbs, list) or not raw_sbs:
        raise ManifestError("storyboards", "must be a non-empty list")
    sbs = []
    prev_end = -np.inf
    for i, sb in enumerate(raw_sbs):
        where = f"storyboards[{i}]."
        start = _number(sb, "start_s", where)
        dur = _number(sb, "duration_s", where)
        text = str(_require(sb, "text", where))
        if dur <= 0:
            raise ManifestError(f"{where}duration_s", f"must be positive, got {dur}")
        if start < 0 or start + dur > duration + 1e-9:
            raise ManifestError(f"{where}start_s",
                                f"span [{start}, {start + dur}] outside [0, {duration}]")
        if start < prev_end - 1e-9:
            raise ManifestError(f"{where}start_s",
                                f"overlaps previous storyboard ending at {prev_end}")
        prev_end = start + dur
        sbs.append(Storyboard(
            index=i, start_s=float(start), duration_s=float(dur), text=text,
            text_feat=feat(f"storyboard.{i}.text_feat", lambda t=text: toy_text_embed(t)),
            visual_feat=feat(f"storyboard.{i}.visual_feat", lambda t=text: toy_visual_embed(t)),
        ))

    dims = {len(caption_feat), len(tag_feat)}
    dims.update(len(s.text_feat) for s in sbs)
    dims.update(len(s.visual_feat) for s in sbs)
    if len(dims) != 1:
        raise ManifestError("features", f"inconsistent feature dims {sorted(dims)}")

    raw_tr = _require(doc, "transitions_s", "")
    if not isinstance(raw_tr, list) or not all(_finite(t) for t in raw_tr):
        raise ManifestError("transitions_s", "must be a list of finite numbers")
    tr = sorted(float(t) for t in raw_tr)
    if tr and (tr[0] < 0 or tr[-1] > duration):
        raise ManifestError("transitions_s", f"values outside [0, {duration}]")

    frame_features = feat("frame_features", lambda: None, ndim=2)
    return VideoAnnotation(
        video_id=video_id, duration_s=float(duration),
        global_caption=caption, caption_feat=np.asarray(caption_feat, dtype=np.float32),
        emotion_tags=[str(t) for t in tags], tag_feat=np.asarray(tag_feat, dtype=np.float32),
        storyboards=sbs, transitions=TimestampSet(tr, float(duration)),
        frame_features=frame_features,
    )


def save_manifest(path, ann):
    """Write the manifest JSON; feature vectors go to a sidecar next to it so
    a round-trip restores them exactly.
    """
    sidecar = os.path.splitext(path)[0] + ".feat.vemt"
    doc = {
        "video_id": ann.video_id,
        "duration_s": ann.duration_s,
        "global": {"caption": ann.global_caption, "tags": list(ann.emotion_tags)},
        "storyboards": [
            {"start_s": s.start_s, "duration_s": s.duration_s, "text": s.text}
            for s in ann.storyboards
        ],
        "transitions_s": list(ann.transitions.times_s),
        "features": os.path.basename(sidecar),
    }
    tensors = {"caption_feat": ann.caption_feat, "tag_feat": ann.tag_feat}
    for s in ann.storyboards:
        tensors[f"storyboard.{s.index}.text_feat"] = s.text_feat
        tensors[f"storyboard.{s.index}.visual_feat"] = s.visual_feat
    if ann.frame_features is not None:
        tensors["frame_features"] = ann.frame_features
    save_tensors(sidecar, tensors)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def build_frame_features(ann):
    """Derive an (8, frames) feature matrix at DEFAULT_FPS from the annotation
    alone, for manifests without a precomputed frame_features sidecar entry.

    Channel 0 carries a transition impulse smeared over one frame each side;
    channels 1-3 encode storyboard phase/index and clip position so the
    matrix is not degenerate; the rest stay zero.
    """
    n = int(np.ceil(ann.duration_s * DEFAULT_FPS))
    out = np.zeros((8, n), dtype=np.float32)
    for t in ann.transitions.times_s:
        idx = min(int(np.floor(t * DEFAULT_FPS)), n - 1)
        out[0, idx] = 1.0
        if idx > 0:
            out[0, idx - 1] = max(out[0, idx - 1], 0.5)
        if idx + 1 < n:
            out[0, idx + 1] = max(out[0, idx + 1], 0.5)
    times = (np.arange(n) + 0.5) / DEFAULT_FPS
    for s in ann.storyboards:
        inside = (times >= s.start_s) & (times < s.end_s)
        out[1, inside] = (times[inside] - s.start_s) / s.duration_s
        out[2, inside] = (s.index + 1) / max(len(ann.storyboards), 1)
    out[3] = times / max(ann.duration_s, 1e-9)
    return out
