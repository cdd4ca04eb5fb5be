"""Output checks and the fixed-seed behaviour fingerprint.

A failed check fails the run; a failed op does not. The fingerprint is a
small fixed-seed three-stage training run followed by one short sampler
call. Its stage-B/C loss trajectory and a checksum of the sampled latent are
stored in `fingerprint.json` and every `train` and `generate` run compares
against them:

- each loss must match within LOSS_RTOL (relative). Float32 sums taken in a
  different order, e.g. by another BLAS kernel or thread count, move the
  losses by about 1e-6;
- the latent's L2 norm and absolute sum must match within LATENT_RTOL
  (relative) and its signed sum within LATENT_RTOL of the absolute sum.

A change that alters the model's behaviour on purpose (the bounded sampler
of ROADMAP item 2, say) regenerates the reference with
`python3 bench/write_fingerprint.py` and says so.
"""

import json
import math
import os

import numpy as np

from vem import curation, diffusion, training
from vem.rng import Rng

FINGERPRINT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint.json")
LOSS_RTOL = 1e-4
LATENT_RTOL = 1e-3

_SEED = 0
_CLIPS = 2
_CLIP_S = 10.0
_STEPS = {"aligner_steps": 5, "diffusion_steps": 6, "adapter_steps": 6}
_SAMPLER_STEPS = 4


def synth_clips(seed, n, duration_s, stream=0):
    """n synthetic (annotation, waveform) pairs of one fixed duration.

    The seed sets each clip's content (tempo, storyboards, noise); the
    duration is fixed so that run-to-run spread measures the program, not
    the luck of the clip-length draw.
    """
    cfg = curation.SynthConfig(duration_range_s=(duration_s, duration_s))
    master = Rng(seed)
    return [curation.synth_item(master.fork(stream + i + 1), cfg) for i in range(n)]


def compute_fingerprint():
    corpus = synth_clips(_SEED, _CLIPS, _CLIP_S)
    cfg = training.TrainConfig(seed=_SEED, **_STEPS)
    res = training.three_stage_train(corpus, cfg)
    mel = training.sample_mel(res["unet"], res["time_embedder"], res["meta"], corpus[0][0],
                              _SAMPLER_STEPS, _SEED, aligner=res["aligner"])
    z = diffusion.latent_encode(mel).values.astype(np.float64)
    return {
        "losses": {"diffusion": res["losses"]["diffusion"], "adapter": res["losses"]["adapter"]},
        "latent": {"shape": list(z.shape), "sum": float(z.sum()),
                   "abs_sum": float(np.abs(z).sum()), "l2": float(np.sqrt((z * z).sum()))},
    }


def compare_fingerprint(got, ref):
    """List of mismatches between two fingerprints (empty when they agree)."""
    bad = []
    for stage in ("diffusion", "adapter"):
        a, b = got["losses"][stage], ref["losses"][stage]
        if len(a) != len(b):
            bad.append(f"{stage}: {len(a)} losses, reference has {len(b)}")
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            if not (math.isfinite(x) and abs(x - y) <= LOSS_RTOL * abs(y)):
                bad.append(f"{stage} loss {i}: {x!r} vs reference {y!r}")
    za, zb = got["latent"], ref["latent"]
    if za["shape"] != zb["shape"]:
        bad.append(f"latent shape {za['shape']} vs reference {zb['shape']}")
    for key in ("abs_sum", "l2"):
        if not abs(za[key] - zb[key]) <= LATENT_RTOL * abs(zb[key]):
            bad.append(f"latent {key}: {za[key]!r} vs reference {zb[key]!r}")
    if not abs(za["sum"] - zb["sum"]) <= LATENT_RTOL * zb["abs_sum"]:
        bad.append(f"latent sum: {za['sum']!r} vs reference {zb['sum']!r}")
    return bad


def check_fingerprint():
    with open(FINGERPRINT_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    return compare_fingerprint(compute_fingerprint(), ref)


def state_mismatches(a, b):
    """Names whose tensors differ between two {name: array} dicts, bit for bit."""
    names = sorted(set(a) | set(b))
    return [n for n in names
            if n not in a or n not in b or a[n].dtype != b[n].dtype
            or a[n].shape != b[n].shape or a[n].tobytes() != b[n].tobytes()]


def _model_state(unet, temb):
    state = {f"unet.{k}": v for k, v in unet.state_dict().items()}
    state.update({f"time_embedder.{k}": v for k, v in temb.state_dict().items()})
    return state


def roundtrip_mismatches(saved, loaded):
    """Differences between a (unet, time embedder, meta) model before a
    checkpoint save and after the load."""
    bad = state_mismatches(_model_state(*saved[:2]), _model_state(*loaded[:2]))
    if saved[2] != loaded[2]:
        bad.append("meta")
    return bad


def codec_mismatches(mels):
    """Indices of spectrograms that latent encode -> decode does not return
    bit for bit."""
    bad = []
    for i, m in enumerate(mels):
        back = diffusion.latent_decode(diffusion.latent_encode(m))
        if back.values.shape != m.values.shape or back.values.tobytes() != m.values.tobytes():
            bad.append(i)
    return bad
