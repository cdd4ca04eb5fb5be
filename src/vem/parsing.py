"""Annotation manifests and the toy feature embedders.

A video arrives as a JSON manifest describing three levels: one global
caption + emotion tags, a list of storyboards (start, duration, text), and
frame-level transition timestamps. Feature vectors either ride along in a
tensor-container sidecar (so real encoder outputs can drop in) or are
synthesized here: text and visual vectors by deterministic bag-of-tokens
hash embedders, frame features by `build_frame_features` from the
transitions and storyboards.

Manifest schema (exact keys):

    {video_id, duration_s,
     global: {caption, tags: [...]},
     storyboards: [{start_s, duration_s, text}],   # 1 to MAX_STORYBOARDS
     transitions_s: [...],
     features?: path-to-sidecar}

Sidecar entries: "caption_feat", "tag_feat", "storyboard.{i}.text_feat",
"storyboard.{i}.visual_feat", "frame_features" (channels x frames at 16 fps).
Each entry is optional; a missing one is synthesized. "frame_features" must
have ceil(duration_s * 16) frames, the length of `timeline.from_timestamps`.
"""

import dataclasses
import json
import os
import sys

import numpy as np

from . import autograd as ag
from .audiofeat import MAX_DURATION_S
from .container import load_tensors, open_replacing, save_tensors
from .errors import DataError
from .sgcatt import TOKENS_PER_STORYBOARD
from .timeline import DEFAULT_FPS, TimestampSet, from_timestamps
from .tunet import MAX_LATENT_LEN

FEATURE_DIM = 64  # width of the toy text and visual embeddings
TIME_HIDDEN = 32  # hidden width of the TimeEmbedder MLP
FEATURE_CHANNELS = 8  # rows of a frame-feature matrix, laid out by `build_frame_features`
# how far a storyboard may run past the clip's end, or overlap the previous one
SPAN_SLACK_S = 1e-9
# most storyboards a manifest may hold: SG-CAtt's bias is a dense float32
# (latent frames, 6 x storyboards) map, 4096 x 4092 x 4 B = 64 MiB at 682
# storyboards and MAX_LATENT_LEN frames, no more than one self-attention map
MAX_STORYBOARDS = MAX_LATENT_LEN // TOKENS_PER_STORYBOARD


@dataclasses.dataclass
class Storyboard:
    start_s: float
    duration_s: float
    text: str
    text_feat: np.ndarray
    visual_feat: np.ndarray

    @property
    def end_s(self):
        return self.start_s + self.duration_s

    def covers(self, times):
        """Which of an array of times fall in the half-open span [start, end)."""
        return (times >= self.start_s) & (times < self.end_s)


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
    frame_features: np.ndarray  # (channels, frames) float32 at 16 fps


# -- toy embedders ---------------------------------------------------------


def _fnv1a64(s):
    h = 0xCBF29CE484222325
    for byte in s.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def toy_text_embed(text):
    """Bag-of-tokens hash embedding: each token adds +-1 to one of
    FEATURE_DIM buckets (bucket and sign from a fixed 64-bit FNV-1a hash),
    then the vector is L2-normalized. Token order does not matter; empty text
    maps to the zero vector.
    """
    out = np.zeros(FEATURE_DIM, dtype=np.float32)
    for tok in text.lower().split():
        h = _fnv1a64(tok)
        sign = 1.0 if (h >> 63) == 0 else -1.0
        out[h % FEATURE_DIM] += sign
    norm = float(np.linalg.norm(out))
    return out / norm if norm > 0 else out


def toy_visual_embed(text):
    """Visual-channel stand-in: same hash embedder under a namespace prefix,
    so "sunset" as imagery and "sunset" as caption text get distinct vectors.
    """
    return toy_text_embed(" ".join("vis:" + t for t in text.lower().split()))


class TimeEmbedder(ag.Module):
    """Two-layer MLP, TIME_HIDDEN wide, from a scalar time in seconds to a
    `dim` vector.

    Input is scaled by 1/30 so clip-scale times stay inside tanh's linear
    region. With all-zero weights every time maps to the output bias.
    """

    INPUT_SCALE = 1.0 / 30.0

    def __init__(self, dim=FEATURE_DIM, rng=None):
        self.lin1 = ag.Linear(1, TIME_HIDDEN, rng)
        self.lin2 = ag.Linear(TIME_HIDDEN, dim, rng)
        self.dim = dim

    def embed(self, times):
        """times: scalar or sequence of seconds -> (n, dim) Var."""
        arr = np.atleast_1d(np.asarray(times, dtype=self.lin1.w.data.dtype))
        x = ag.Var(arr[:, None] * self.INPUT_SCALE)
        return self.lin2(self.lin1(x).tanh())


# -- manifest I/O ----------------------------------------------------------


def _require(doc, field, path):
    if not isinstance(doc, dict):
        raise DataError(f"{path.rstrip('.') or '(document)'}: must be a JSON object")
    if field not in doc:
        raise DataError(f"{path}{field}: missing")
    return doc[field]


def finite_number(x):
    """A JSON number that converts to a finite float (bool, NaN, inf and huge
    ints fail): the one rule for numbers read from a manifest or a
    checkpoint's meta."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _number(doc, field, path):
    val = _require(doc, field, path)
    if not finite_number(val):
        raise DataError(f"{path}{field}: must be a finite number, got {val!r}")
    return val


def load_manifest(path):
    """Read and validate a manifest; attach features from the sidecar or the
    toy embedders. Raises DataError whose message starts with the offending
    field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"(document): invalid JSON: {exc}") from exc

    video_id = str(_require(doc, "video_id", ""))
    duration = _number(doc, "duration_s", "")
    if not 0 < duration <= MAX_DURATION_S:
        raise DataError(f"duration_s: must be in (0, {MAX_DURATION_S}], got {duration!r}")
    glob = _require(doc, "global", "")
    caption = str(_require(glob, "caption", "global."))
    tags = _require(glob, "tags", "global.")
    if not isinstance(tags, list):
        raise DataError("global.tags: must be a list")

    sidecar = {}
    if doc.get("features"):
        fpath = doc["features"]
        if not isinstance(fpath, str):
            raise DataError(f"features: must be a sidecar path, got {fpath!r}")
        if not os.path.isabs(fpath):
            fpath = os.path.join(os.path.dirname(os.path.abspath(path)), fpath)
        if not os.path.exists(fpath):
            raise DataError(f"features: sidecar not found: {fpath}")
        sidecar, _ = load_tensors(fpath)

    def feat(key, fallback, ndim=1):
        if key not in sidecar:
            return fallback()
        v = sidecar[key]
        if v.ndim != ndim or v.size == 0 or not np.isfinite(v).all():
            raise DataError(f"{key}: must be a non-empty finite {ndim}-D array, "
                            f"got shape {v.shape}")
        return v

    caption_feat = feat("caption_feat", lambda: toy_text_embed(caption))
    tag_feat = feat("tag_feat", lambda: toy_text_embed(" ".join(map(str, tags))))

    raw_sbs = _require(doc, "storyboards", "")
    if not isinstance(raw_sbs, list) or not raw_sbs:
        raise DataError("storyboards: must be a non-empty list")
    if len(raw_sbs) > MAX_STORYBOARDS:
        raise DataError(f"storyboards: {len(raw_sbs)} is more than the {MAX_STORYBOARDS} allowed")
    sbs = []
    prev_end = -np.inf
    for i, sb in enumerate(raw_sbs):
        where = f"storyboards[{i}]."
        start = _number(sb, "start_s", where)
        dur = _number(sb, "duration_s", where)
        text = str(_require(sb, "text", where))
        if dur <= 0:
            raise DataError(f"{where}duration_s: must be positive, got {dur}")
        if start < 0 or start + dur > duration + SPAN_SLACK_S:
            raise DataError(f"{where}start_s: span [{start}, {start + dur}] "
                            f"outside [0, {duration}]")
        if start < prev_end - SPAN_SLACK_S:
            raise DataError(f"{where}start_s: overlaps previous storyboard ending at {prev_end}")
        prev_end = start + dur
        sbs.append(Storyboard(
            start_s=float(start), duration_s=float(dur), text=text,
            text_feat=feat(f"storyboard.{i}.text_feat", lambda t=text: toy_text_embed(t)),
            visual_feat=feat(f"storyboard.{i}.visual_feat", lambda t=text: toy_visual_embed(t)),
        ))

    dims = {len(caption_feat), len(tag_feat)}
    dims.update(len(s.text_feat) for s in sbs)
    dims.update(len(s.visual_feat) for s in sbs)
    if len(dims) != 1:
        raise DataError(f"features: inconsistent feature dims {sorted(dims)}")

    raw_tr = _require(doc, "transitions_s", "")
    if not isinstance(raw_tr, list) or not all(finite_number(t) for t in raw_tr):
        raise DataError("transitions_s: must be a list of finite numbers")
    tr = sorted(float(t) for t in raw_tr)
    if tr and (tr[0] < 0 or tr[-1] > duration):
        raise DataError(f"transitions_s: values outside [0, {duration}]")

    ann = VideoAnnotation(
        video_id=video_id, duration_s=float(duration),
        global_caption=caption, caption_feat=np.asarray(caption_feat, dtype=np.float32),
        emotion_tags=[str(t) for t in tags], tag_feat=np.asarray(tag_feat, dtype=np.float32),
        storyboards=sbs, transitions=TimestampSet(tr, float(duration)),
        frame_features=None,
    )
    ann.frame_features = feat("frame_features", lambda: build_frame_features(ann), ndim=2)
    have, frames = ann.frame_features.shape[1], len(from_timestamps(ann.transitions))
    if have != frames:
        raise DataError(f"frame_features: {have} frames, but a {duration:g} s clip has {frames}")
    return ann


def save_manifest(path, ann):
    """Write the manifest JSON; feature vectors go to a sidecar next to it so
    a round-trip restores them exactly. The JSON is serialized and written
    to its temporary file before the sidecar replaces its old file, and it
    replaces its own last, so a save that cannot serialize or write the JSON
    leaves an existing pair as it was. A manifest path that is a directory
    is refused before anything is written, so the sidecar stays as it was.
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
    tensors = {"caption_feat": ann.caption_feat, "tag_feat": ann.tag_feat,
               "frame_features": ann.frame_features}
    for i, s in enumerate(ann.storyboards):
        tensors[f"storyboard.{i}.text_feat"] = s.text_feat
        tensors[f"storyboard.{i}.visual_feat"] = s.visual_feat
    with open_replacing(path) as fh:
        fh.write(json.dumps(doc, indent=1).encode("utf-8"))
        fh.flush()  # a full disk fails here, before the sidecar is replaced
        save_tensors(sidecar, tensors)


def build_frame_features(ann):
    """Derive a (FEATURE_CHANNELS, frames) feature matrix at DEFAULT_FPS
    from the annotation alone; `load_manifest` fills it in when the sidecar
    has no frame_features.

    Channel 0 carries a transition impulse smeared over one frame each side;
    channels 1-3 are `write_storyboard_channels`' so the matrix is not
    degenerate; the rest stay zero.
    """
    hits = from_timestamps(ann.transitions)
    out = np.zeros((FEATURE_CHANNELS, len(hits)), dtype=np.float32)
    out[0] = hits
    np.maximum(out[0, 1:], 0.5 * hits[:-1], out=out[0, 1:])
    np.maximum(out[0, :-1], 0.5 * hits[1:], out=out[0, :-1])
    write_storyboard_channels(out, ann.storyboards, ann.duration_s)
    return out


def write_storyboard_channels(out, storyboards, duration_s):
    """Overwrite channels 1-3 of a (channels, frames) matrix at DEFAULT_FPS,
    sampled at frame centres: the phase inside each storyboard (0 at its
    start, rising to 1 at its end), the storyboard's index (i + 1) / count,
    and the position in the clip, t / duration. Frames outside every
    storyboard keep their channel 1 and 2 values.
    """
    times = (np.arange(out.shape[1]) + 0.5) / DEFAULT_FPS
    for i, s in enumerate(storyboards):
        inside = s.covers(times)
        out[1, inside] = (times[inside] - s.start_s) / s.duration_s
        out[2, inside] = (i + 1) / len(storyboards)
    out[3] = times / max(duration_s, 1e-9)
