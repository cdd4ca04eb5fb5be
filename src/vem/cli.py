"""Command-line front end.

Subcommands cover the whole pipeline: feature extraction (features, beats),
corpus work (synth, curate), the three training stages (train --stage),
generation (sample), metric reports (eval), and the inference-step sweep
(sweep-steps). Every run echoes its configuration to
<out-dir>/run_config.json (sample and sweep-steps again, with the step
counts the checkpoint's T sets). A command writes only under --out-dir, by
names it derives from its inputs; `sample --wav-out` names the one file
outside it. An adapter checkpoint's aligner is the aligner.vemt beside it:
`train --stage adapter` reads that file from --out-dir and writes
adapter.vemt there, and `sample` and `sweep-steps` read it beside the
checkpoint they are given. Every file a command writes goes through
`container.open_replacing`, so it replaces its target whole or leaves it as
it was. A command computes every output before it writes any, except
`synth`: it makes and writes one pair at a time, each WAV before its
manifest, so its memory does not grow with --n. `sample --wav-out` saves
the mel inside the WAV's block: a failure in either write leaves both
targets as they were.
Figures-grade outputs are CSV files. Option defaults are read from the code
that owns them, and `train` takes --widths and --t-steps for --stage
diffusion only: stage C reads both off the checkpoint it tunes. `curate`
takes no options: it applies `curation.gate`'s fixed policy to each pair.
`synth` takes only --n: it writes `curation.synth_corpus`'s default corpus.
`sweep-steps` leaves its recon_error column empty without --ref-wav.

`curate`, `train` and `eval` read a corpus directory through one reader.
Every `<stem>.json` in it is a manifest, except `*.beats.json` event files
and `run_config.json`. Each manifest needs its `<stem>.wav`, which must
hold at least one 1024-sample STFT window at 16 kHz, and the manifest's
`duration_s` must agree with the WAV's length to within one 16 fps frame;
otherwise the command exits 3, and an error met reading a manifest or WAV
names that file. A generated `<stem>.gen.wav` beside them is not a corpus
file: `eval` reads it when present, unchecked.

`eval` takes each clip's log-mel once, from the reference WAV and from its
`.gen.wav`; a clip with no `.gen.wav` uses its reference in its place, so a
corpus with no generated audio scores as perfect (`fad` 0). `evalsuite`
defines every score it reports: one row per clip and asked-for metric, then
one `(corpus)` row for `fad`.

Exit codes: 0 ok, 2 usage (argparse, or a train flag its stage ignores),
3 data error, 4 stage-order error.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys

import numpy as np

from .audiofeat import (SAMPLE_RATE, frame_count, griffin_lim, load_wav, logmel, resample,
                        save_wav, write_wav)
from .beatdet import detect_beats
from .container import open_replacing, save_tensors
from .curation import gate, synth_corpus
from .errors import DataError, StageOrderError
from .evalsuite import CLIP_METRICS, clip_scores, frechet_distance
from .parsing import load_manifest, save_manifest
from .timeline import DEFAULT_FPS, DEFAULT_TOL_S, TimestampSet
from .training import (TrainConfig, generation_tb_iou, load_aligner, load_diffusion,
                       sample_mel, save_aligner, save_diffusion, train_stage_adapter,
                       train_stage_aligner, train_stage_diffusion)


def _positive_int(text):
    """argparse type: an int >= 1; anything else is a usage error (exit 2)."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _positive_ints(text):
    """argparse type: a comma list of ints >= 1."""
    return tuple(_positive_int(x) for x in text.split(","))


_METRIC_NAMES = [*CLIP_METRICS, "fad"]


def build_parser():
    p = argparse.ArgumentParser(
        prog="vem",
        description="Video-to-music alignment toolkit: spectrogram features, beat "
                    "tracking, corpus curation, staged diffusion training, sampling, "
                    "and rhythmic evaluation metrics.")
    p.add_argument("--seed", type=int, default=0, help="master random seed (default 0)")
    p.add_argument("--out-dir", default="vem_out", help="output directory (default vem_out)")
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("features", help="log-mel spectrogram of a WAV file")
    q.add_argument("wav")

    q = sub.add_parser("beats", help="detect beats in a WAV file")
    q.add_argument("wav")

    q = sub.add_parser("curate", help="quality-gate a corpus directory of manifest+wav pairs")
    q.add_argument("corpus")

    q = sub.add_parser("synth", help="generate a synthetic paired corpus")
    q.add_argument("--n", type=_positive_int, required=True, help="number of pairs")

    q = sub.add_parser("train", help="run one training stage on a corpus directory")
    q.add_argument("--stage", choices=("aligner", "diffusion", "adapter"), required=True)
    q.add_argument("--corpus", required=True)
    q.add_argument("--steps", type=_positive_int,
                   help="override the stage's default step count")
    q.add_argument("--widths", type=_positive_ints,
                   help="denoiser channel widths, comma list; --stage diffusion only "
                        f"(default {','.join(map(str, TrainConfig.widths))})")
    q.add_argument("--t-steps", type=_positive_int,
                   help=f"diffusion schedule length; --stage diffusion only (default {TrainConfig.T})")

    q = sub.add_parser("sample", help="generate music for a manifest from a checkpoint")
    q.add_argument("ckpt")
    q.add_argument("manifest")
    q.add_argument("--steps", type=_positive_int,
                   help="inference steps (default 200, capped at the checkpoint's T)")
    q.add_argument("--unconditional", action="store_true",
                   help="ablation: zero conditions, no storyboard mask, no aligner")
    q.add_argument("--wav-out", help="also reconstruct audio to this path")

    q = sub.add_parser("eval", help="metric CSV for a directory of manifest/ref/gen files")
    q.add_argument("dir")
    q.add_argument("--metrics", default="b_iou,tb_iou",
                   help=f"comma list from {','.join(_METRIC_NAMES)}")
    q.add_argument("--tol-s", type=float, default=DEFAULT_TOL_S,
                   help="matching tolerance (default %(default)s s)")

    q = sub.add_parser("sweep-steps", help="sample at several step counts, report errors")
    q.add_argument("ckpt")
    q.add_argument("manifest")
    q.add_argument("--steps", type=_positive_ints,
                   help="comma list of step counts (default 1,50,200, capped at T)")
    q.add_argument("--ref-wav", help="reference audio: recon_error is the log-mel MSE "
                                     "against it (without it, recon_error is empty)")
    return p


_RUN_CONFIG = "run_config.json"


def _write_text(path, text):
    with open_replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def _echo_config(args):
    os.makedirs(args.out_dir, exist_ok=True)
    _write_text(os.path.join(args.out_dir, _RUN_CONFIG), json.dumps(vars(args), indent=1, default=str))


def _load_wav_16k(path):
    w = load_wav(path)
    return w if w.sample_rate_hz == SAMPLE_RATE else resample(w, SAMPLE_RATE)


def _stem(path):
    return os.path.splitext(os.path.basename(path))[0]


@contextlib.contextmanager
def _reading(filename):
    """Prefix a DataError raised while reading `filename` with its name."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{filename}: {exc}") from exc


def _corpus_pairs(corpus_dir):
    """Yield (annotation, 16 kHz waveform, stem) per manifest of a corpus
    directory, in name order, by the rules the module docstring states."""
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".json")
                   and not f.endswith(".beats.json") and f != _RUN_CONFIG)
    if not names:
        raise DataError(f"no manifests found in {corpus_dir}")
    for name in names:
        stem = name[:-5]
        wav_path = os.path.join(corpus_dir, stem + ".wav")
        if not os.path.exists(wav_path):
            raise DataError(f"manifest {name} has no paired {stem}.wav")
        with _reading(name):
            ann = load_manifest(os.path.join(corpus_dir, name))
        with _reading(stem + ".wav"):
            wav = _load_wav_16k(wav_path)
            frame_count(len(wav.samples))  # refuses a clip shorter than one STFT window
        if abs(ann.duration_s - wav.duration_s) > 1.0 / DEFAULT_FPS:
            raise DataError(f"manifest {name} gives duration_s {ann.duration_s:g} s, but "
                            f"{stem}.wav lasts {wav.duration_s:g} s")
        yield ann, wav, stem


def _write_csv(out_dir, name, header, rows):
    path = os.path.join(out_dir, name)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header, *rows])
    _write_text(path, buf.getvalue())
    return path


def _save_mel(path, mel, **meta):
    meta = {"hop": mel.hop, "sample_rate_hz": mel.sample_rate_hz, "n_mels": mel.n_mels, **meta}
    save_tensors(path, {"mel": mel.values}, meta)


# -- subcommand bodies -----------------------------------------------------


def _cmd_features(args):
    mel = logmel(_load_wav_16k(args.wav))
    out = os.path.join(args.out_dir, _stem(args.wav) + ".mel.vemt")
    _save_mel(out, mel)
    print(f"mel {mel.values.shape[0]}x{mel.values.shape[1]} -> {out}")


def _cmd_beats(args):
    w = _load_wav_16k(args.wav)
    beats, bpm = detect_beats(logmel(w))
    out = os.path.join(args.out_dir, _stem(args.wav) + ".beats.json")
    ts = TimestampSet(beats, w.duration_s)
    _write_text(out, json.dumps({"fps": DEFAULT_FPS, "duration_s": ts.duration_s,
                                 "events": ts.times_s}))
    print(f"{len(beats)} beats at {bpm:.1f} BPM -> {out}")


def _cmd_curate(args):
    rows = []
    for ann, wav, _ in _corpus_pairs(args.corpus):
        passed, reasons = gate((ann, wav))
        rows.append([ann.video_id, "pass" if passed else "fail", "; ".join(reasons)])
    out = _write_csv(args.out_dir, "curation.csv", ["video_id", "status", "reasons"], rows)
    kept = sum(1 for r in rows if r[1] == "pass")
    print(f"{kept}/{len(rows)} pass -> {out}")


def _cmd_synth(args):
    """Write each pair as it is made, its WAV before its manifest: a run
    stopped part-way leaves whole pairs and at most a stray WAV, which the
    corpus reader ignores."""
    corpus_dir = os.path.join(args.out_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    for i, (ann, wav) in enumerate(synth_corpus(args.n, args.seed)):
        stem = os.path.join(corpus_dir, f"item_{i:03d}")
        save_wav(stem + ".wav", wav)
        save_manifest(stem + ".json", ann)
    print(f"{args.n} pairs -> {corpus_dir}")


def _cmd_train(args):
    # main() filled in every setting its stage reads and refused the others
    cfg = TrainConfig(seed=args.seed, widths=args.widths or TrainConfig.widths,
                      T=args.t_steps or TrainConfig.T, aligner_steps=args.steps,
                      diffusion_steps=args.steps, adapter_steps=args.steps)
    pairs = [(ann, wav) for ann, wav, _ in _corpus_pairs(args.corpus)]
    ckpt = {stage: os.path.join(args.out_dir, f"{stage}.vemt")
            for stage in ("aligner", "diffusion", "adapter")}
    if args.stage == "aligner":
        net, losses = train_stage_aligner(pairs, cfg)
        save_aligner(ckpt["aligner"], net, cfg)
    elif args.stage == "diffusion":
        unet, temb, meta, losses = train_stage_diffusion(pairs, cfg)
        save_diffusion(ckpt["diffusion"], unet, temb, meta)
    else:
        for stage in ("aligner", "diffusion"):
            if not os.path.exists(ckpt[stage]):
                raise StageOrderError(f"adapter stage needs {stage}.vemt "
                                      f"(run --stage {stage} first)")
        aligner, _ = load_aligner(ckpt["aligner"])
        unet, temb, meta, losses = train_stage_adapter(pairs, cfg, aligner,
                                                       *load_diffusion(ckpt["diffusion"]))
        save_diffusion(ckpt["adapter"], unet, temb, meta)

    _write_csv(args.out_dir, f"train_{args.stage}_loss.csv", ["step", "loss"],
               [[i, f"{v:.6f}"] for i, v in enumerate(losses)])
    print(f"stage {args.stage}: {len(losses)} steps, final loss {losses[-1]:.4f} "
          f"-> {ckpt[args.stage]}")


def _load_sampler(args, conditioned):
    """What `sample` and `sweep-steps` read: the checkpoint, the aligner its
    adapters need when conditioned, and the manifest. That aligner is the
    aligner.vemt beside the checkpoint, the one stage C tuned the adapters
    against."""
    unet, temb, meta = load_diffusion(args.ckpt)
    aligner = None
    if unet.adapters is not None and conditioned:
        path = os.path.join(os.path.dirname(os.path.abspath(args.ckpt)), "aligner.vemt")
        if not os.path.exists(path):
            raise StageOrderError(f"checkpoint carries adapters but no aligner found at {path}; "
                                  "`vem train --stage adapter` reads the aligner from, and "
                                  "writes adapter.vemt into, that directory")
        aligner, _ = load_aligner(path)
    return unet, temb, meta, aligner, load_manifest(args.manifest)


def _cmd_sample(args):
    unet, temb, meta, aligner, ann = _load_sampler(args, not args.unconditional)
    steps = args.steps = args.steps or min(200, int(meta["T"]))
    _echo_config(args)  # again: the checkpoint's T sets the default step count
    mel = sample_mel(unet, temb, meta, ann, steps, args.seed, aligner=aligner,
                     conditioned=not args.unconditional)
    wav = griffin_lim(mel, iters=40) if args.wav_out else None  # may refuse: before any write
    out = os.path.join(args.out_dir, f"{_stem(args.manifest)}.gen.mel.vemt")
    with open_replacing(args.wav_out) if args.wav_out else contextlib.nullcontext() as fh:
        if args.wav_out:
            write_wav(fh, wav)
        _save_mel(out, mel, steps=steps, seed=args.seed)  # replaced before the WAV is
    print(f"sampled {mel.values.shape[0]} windows ({steps} steps) -> {out}"
          + (f" + {args.wav_out}" if args.wav_out else ""))


def _cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    bad = [m for m in metrics if m not in _METRIC_NAMES]
    if bad or not metrics:
        what = f"unknown metrics {bad}" if bad else "no metrics named"
        raise DataError(f"{what}; choose from {sorted(_METRIC_NAMES)}")
    per_clip = [m for m in metrics if m in CLIP_METRICS]
    rows, ref_frames, gen_frames = [], [], []
    for ann, wav, stem in _corpus_pairs(args.dir):
        gen_path = os.path.join(args.dir, stem + ".gen.wav")
        ref_mel = gen_mel = logmel(wav)
        if os.path.exists(gen_path):
            with _reading(stem + ".gen.wav"):
                gen_mel = logmel(_load_wav_16k(gen_path))
        if "fad" in metrics:
            ref_frames.append(ref_mel.values)
            gen_frames.append(gen_mel.values)
        if per_clip:
            scores = clip_scores(ann, ref_mel, gen_mel, args.tol_s)
            rows += [[ann.video_id, m, f"{scores[m]:.4f}"] for m in per_clip]
    if "fad" in metrics:
        fad = frechet_distance(np.concatenate(ref_frames), np.concatenate(gen_frames))
        rows.append(["(corpus)", "fad", f"{fad:.4f}"])

    out = _write_csv(args.out_dir, "metrics.csv", ["video_id", "metric", "value"], rows)
    print(f"{len(rows)} metric rows -> {out}")


def _cmd_sweep(args):
    unet, temb, meta, aligner, ann = _load_sampler(args, True)
    args.steps = args.steps or sorted({min(s, int(meta["T"])) for s in (1, 50, 200)})
    _echo_config(args)  # again: the checkpoint's T sets the default step counts
    ref_mel = logmel(_load_wav_16k(args.ref_wav)) if args.ref_wav else None
    rows = []
    for steps in args.steps:
        mel = sample_mel(unet, temb, meta, ann, steps, args.seed, aligner=aligner)
        err = ""
        if ref_mel is not None:
            n = min(mel.values.shape[0], ref_mel.values.shape[0])
            err = f"{np.mean((mel.values[:n] - ref_mel.values[:n]) ** 2):.6f}"
        rows.append([steps, err, f"{generation_tb_iou(mel, ann):.4f}"])
    out = _write_csv(args.out_dir, "sweep_steps.csv", ["steps", "recon_error", "tb_iou"], rows)
    print(f"{len(rows)} sweep rows -> {out}")


_BODIES = {
    "features": _cmd_features, "beats": _cmd_beats, "curate": _cmd_curate,
    "synth": _cmd_synth, "train": _cmd_train, "sample": _cmd_sample,
    "eval": _cmd_eval, "sweep-steps": _cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "train":
        ignored = [flag for flag, value in (("--widths", args.widths), ("--t-steps", args.t_steps))
                   if value is not None]
        if ignored and args.stage != "diffusion":
            parser.error(f"--stage {args.stage} does not take {' or '.join(ignored)}: they size "
                         "and schedule the denoiser, which only --stage diffusion builds")
        # filled in here, so the echoed run config says what a default run used
        args.steps = args.steps or getattr(TrainConfig, f"{args.stage}_steps")
        if args.stage == "diffusion":
            args.widths = args.widths or TrainConfig.widths
            args.t_steps = args.t_steps or TrainConfig.T
    try:
        _echo_config(args)
        _BODIES[args.cmd](args)
    except StageOrderError as exc:
        print(f"error: stage-order: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
