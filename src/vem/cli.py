"""Command-line front end.

Subcommands cover the whole pipeline: feature extraction (features, beats),
corpus work (synth, curate), the three training stages (train --stage),
generation (sample), metric reports (eval), and the inference-step sweep
(sweep-steps). Every run echoes its configuration to
<out-dir>/run_config.json, which no command reads as a manifest; a command
computes every output before it writes any, and figures-grade outputs are
CSV files. Option defaults are read from the code that owns them, and
`train` takes --widths and --t-steps for --stage diffusion only: stage C
reads both off the checkpoint it tunes.

Exit codes: 0 ok, 2 usage (argparse, or a train flag its stage ignores),
3 data error, 4 stage-order error.
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from .audiofeat import SAMPLE_RATE, griffin_lim, load_wav, logmel, resample, save_wav
from .beatdet import beats_within, detect_beats
from .container import load_tensors, save_tensors
from .curation import CurationRule, SynthConfig, gate, synth_corpus
from .errors import DataError, StageOrderError
from .evalsuite import StoryboardScores, frechet_distance, inception_score, mean_kld, tw_score
from .parsing import load_manifest, save_manifest
from .timeline import (DEFAULT_TOL_S, TimestampSet, beats_iou, save_events_json,
                       transitions_beats_iou)
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
    q.add_argument("--mel-out", help="tensor-container output path (default <out-dir>/<stem>.mel.vemt)")

    q = sub.add_parser("beats", help="detect beats in a WAV file")
    q.add_argument("wav")
    q.add_argument("--json-out", help="events JSON output path (default <out-dir>/<stem>.beats.json)")

    q = sub.add_parser("curate", help="quality-gate a corpus directory of manifest+wav pairs")
    q.add_argument("corpus")
    q.add_argument("--min-snr-db", type=float, default=CurationRule.min_snr_db,
                   help="lowest SNR that passes (default %(default)s dB)")
    q.add_argument("--max-duration-s", type=float, default=CurationRule.max_duration_s,
                   help="longest clip that passes (default %(default)s s)")
    q.add_argument("--max-shots", type=_positive_int, default=CurationRule.max_shots,
                   help="most shots that pass (default %(default)s)")

    q = sub.add_parser("synth", help="generate a synthetic paired corpus")
    q.add_argument("--n", type=_positive_int, required=True, help="number of pairs")
    dur_min, dur_max = SynthConfig.duration_range_s
    q.add_argument("--dur-min", type=float, default=dur_min,
                   help="shortest clip (default %(default)s s)")
    q.add_argument("--dur-max", type=float, default=dur_max,
                   help="longest clip (default %(default)s s)")

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
    q.add_argument("--aligner", help="aligner checkpoint (default: aligner.vemt beside ckpt)")
    q.add_argument("--unconditional", action="store_true",
                   help="ablation: zero conditions, no storyboard mask, no aligner")
    q.add_argument("--wav-out", help="also reconstruct audio to this path")

    q = sub.add_parser("eval", help="metric CSV for a directory of manifest/ref/gen files")
    q.add_argument("dir")
    q.add_argument("--metrics", default="b_iou,tb_iou",
                   help="comma list from b_iou,tb_iou,tw,fad,is,kld")
    q.add_argument("--emb-a", help="tensor container with 'embeddings'/'probs' (set A)")
    q.add_argument("--emb-b", help="tensor container with 'embeddings'/'probs' (set B)")
    q.add_argument("--tol-s", type=float, default=DEFAULT_TOL_S,
                   help="matching tolerance (default %(default)s s)")

    q = sub.add_parser("sweep-steps", help="sample at several step counts, report errors")
    q.add_argument("ckpt")
    q.add_argument("manifest")
    q.add_argument("--steps", type=_positive_ints,
                   help="comma list of step counts (default 1,50,200, capped at T)")
    q.add_argument("--ref-wav", help="reference audio for reconstruction error")
    q.add_argument("--aligner")
    return p


_RUN_CONFIG = "run_config.json"


def _echo_config(args):
    os.makedirs(args.out_dir, exist_ok=True)
    with open(os.path.join(args.out_dir, _RUN_CONFIG), "w", encoding="utf-8") as fh:
        json.dump(vars(args), fh, indent=1, default=str)


def _load_wav_16k(path):
    w = load_wav(path)
    return w if w.sample_rate_hz == SAMPLE_RATE else resample(w, SAMPLE_RATE)


def _manifest_names(directory):
    """Sorted manifest file names in a directory (beat-event files and the
    run_config.json a vem run echoes there excluded)."""
    names = sorted(f for f in os.listdir(directory) if f.endswith(".json")
                   and not f.endswith(".beats.json") and f != _RUN_CONFIG)
    if not names:
        raise DataError(f"no manifests found in {directory}")
    return names


def _corpus_pairs(corpus_dir):
    pairs = []
    for name in _manifest_names(corpus_dir):
        stem = name[:-5]
        wav_path = os.path.join(corpus_dir, stem + ".wav")
        if not os.path.exists(wav_path):
            raise DataError(f"manifest {name} has no paired {stem}.wav")
        ann = load_manifest(os.path.join(corpus_dir, name))
        pairs.append((ann, _load_wav_16k(wav_path)))
    return pairs


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


# -- subcommand bodies -----------------------------------------------------


def _cmd_features(args):
    w = _load_wav_16k(args.wav)
    mel = logmel(w)
    stem = os.path.splitext(os.path.basename(args.wav))[0]
    out = args.mel_out or os.path.join(args.out_dir, stem + ".mel.vemt")
    save_tensors(out, {"mel": mel.values},
                 {"hop": mel.hop, "sample_rate_hz": mel.sample_rate_hz, "n_mels": mel.n_mels})
    print(f"mel {mel.values.shape[0]}x{mel.values.shape[1]} -> {out}")
    return 0


def _cmd_beats(args):
    w = _load_wav_16k(args.wav)
    beats, bpm = detect_beats(logmel(w))
    stem = os.path.splitext(os.path.basename(args.wav))[0]
    out = args.json_out or os.path.join(args.out_dir, stem + ".beats.json")
    save_events_json(out, TimestampSet([b for b in beats if b <= w.duration_s], w.duration_s))
    print(f"{len(beats)} beats at {bpm:.1f} BPM -> {out}")
    return 0


def _cmd_curate(args):
    rules = CurationRule(min_snr_db=args.min_snr_db, max_duration_s=args.max_duration_s,
                         max_shots=args.max_shots)
    rows = []
    for ann, wav in _corpus_pairs(args.corpus):
        passed, reasons = gate((ann, wav), rules)
        rows.append([ann.video_id, "pass" if passed else "fail", "; ".join(reasons)])
    out = os.path.join(args.out_dir, "curation.csv")
    _write_csv(out, ["video_id", "status", "reasons"], rows)
    kept = sum(1 for r in rows if r[1] == "pass")
    print(f"{kept}/{len(rows)} pass -> {out}")
    return 0


def _cmd_synth(args):
    cfg = SynthConfig(duration_range_s=(args.dur_min, args.dur_max))
    corpus = synth_corpus(args.n, args.seed, cfg)
    corpus_dir = os.path.join(args.out_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    for i, (ann, wav) in enumerate(corpus):
        stem = os.path.join(corpus_dir, f"item_{i:03d}")
        save_manifest(stem + ".json", ann)
        save_wav(stem + ".wav", wav)
    print(f"{len(corpus)} pairs -> {corpus_dir}")
    return 0


def _cmd_train(args):
    # main() filled in every setting its stage reads and refused the others
    cfg = TrainConfig(seed=args.seed, widths=args.widths or TrainConfig.widths,
                      T=args.t_steps or TrainConfig.T, aligner_steps=args.steps,
                      diffusion_steps=args.steps, adapter_steps=args.steps)
    pairs = _corpus_pairs(args.corpus)
    os.makedirs(args.out_dir, exist_ok=True)
    aligner_path = os.path.join(args.out_dir, "aligner.vemt")
    diffusion_path = os.path.join(args.out_dir, "diffusion.vemt")
    adapter_path = os.path.join(args.out_dir, "adapter.vemt")

    if args.stage == "aligner":
        net, losses = train_stage_aligner(pairs, cfg)
        save_aligner(aligner_path, net, cfg)
        out, ckpt = losses, aligner_path
    elif args.stage == "diffusion":
        unet, temb, meta, losses = train_stage_diffusion(pairs, cfg)
        save_diffusion(diffusion_path, unet, temb, meta)
        out, ckpt = losses, diffusion_path
    else:
        if not os.path.exists(aligner_path):
            raise StageOrderError("adapter stage needs aligner.vemt (run --stage aligner first)")
        if not os.path.exists(diffusion_path):
            raise StageOrderError("adapter stage needs diffusion.vemt (run --stage diffusion first)")
        aligner, _ = load_aligner(aligner_path)
        unet, temb, meta = load_diffusion(diffusion_path)
        unet, temb, meta, losses = train_stage_adapter(pairs, cfg, aligner, unet, temb, meta)
        save_diffusion(adapter_path, unet, temb, meta)
        out, ckpt = losses, adapter_path

    _write_csv(os.path.join(args.out_dir, f"train_{args.stage}_loss.csv"),
               ["step", "loss"], [[i, f"{v:.6f}"] for i, v in enumerate(out)])
    print(f"stage {args.stage}: {len(out)} steps, final loss {out[-1]:.4f} -> {ckpt}")
    return 0


def _load_sampler(args):
    unet, temb, meta = load_diffusion(args.ckpt)
    aligner = None
    if unet.adapters is not None and not getattr(args, "unconditional", False):
        path = args.aligner or os.path.join(os.path.dirname(os.path.abspath(args.ckpt)),
                                            "aligner.vemt")
        if not os.path.exists(path):
            raise StageOrderError(f"checkpoint carries adapters but no aligner found at {path}")
        aligner, _ = load_aligner(path)
    return unet, temb, meta, aligner


def _cmd_sample(args):
    unet, temb, meta, aligner = _load_sampler(args)
    steps = args.steps or min(200, int(meta["T"]))
    ann = load_manifest(args.manifest)
    mel = sample_mel(unet, temb, meta, ann, steps, args.seed, aligner=aligner,
                     conditioned=not args.unconditional)
    wav = griffin_lim(mel, iters=40) if args.wav_out else None  # may refuse: before any write
    stem = os.path.splitext(os.path.basename(args.manifest))[0]
    out = os.path.join(args.out_dir, f"{stem}.gen.mel.vemt")
    save_tensors(out, {"mel": mel.values},
                 {"hop": mel.hop, "sample_rate_hz": mel.sample_rate_hz, "n_mels": mel.n_mels,
                  "steps": steps, "seed": args.seed})
    line = f"sampled {mel.values.shape[0]} windows ({steps} steps) -> {out}"
    if wav is not None:
        save_wav(args.wav_out, wav)
        line += f" + {args.wav_out}"
    print(line)
    return 0


def _storyboard_tw(ann, gen_beats, tol_s):
    scores, durs = [], []
    for sb in ann.storyboards:
        tv = [t for t in ann.transitions.times_s if sb.start_s <= t < sb.end_s]
        bm = [b for b in gen_beats.times_s if sb.start_s <= b < sb.end_s]
        scores.append(transitions_beats_iou(TimestampSet(tv, ann.duration_s),
                                            TimestampSet(bm, ann.duration_s), tol_s))
        durs.append(sb.duration_s)
    return tw_score(StoryboardScores(scores, durs, ann.duration_s))


def _cmd_eval(args):
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    known = {"b_iou", "tb_iou", "tw", "fad", "is", "kld"}
    bad = [m for m in metrics if m not in known]
    if bad:
        raise DataError(f"unknown metrics {bad}; choose from {sorted(known)}")
    per_file = [m for m in metrics if m in ("b_iou", "tb_iou", "tw")]
    rows = []

    def one(name):
        stem = name[:-5]
        ann = load_manifest(os.path.join(args.dir, stem + ".json"))
        ref_path = os.path.join(args.dir, stem + ".wav")
        gen_path = os.path.join(args.dir, stem + ".gen.wav")
        if not os.path.exists(ref_path):
            raise DataError(f"{stem}.json has no reference {stem}.wav")
        ref_beats = _beats_of(ref_path)
        gen_beats = _beats_of(gen_path) if os.path.exists(gen_path) else ref_beats
        out = []
        for m in per_file:
            if m == "b_iou":
                val = beats_iou(ref_beats, gen_beats, args.tol_s)
            elif m == "tb_iou":
                val = transitions_beats_iou(ann.transitions, gen_beats, args.tol_s)
            else:
                val = _storyboard_tw(ann, gen_beats, args.tol_s)
            out.append([ann.video_id, m, f"{val:.4f}"])
        return out

    if per_file:
        for name in _manifest_names(args.dir):
            rows.extend(one(name))

    corpus_metrics = [m for m in metrics if m in ("fad", "is", "kld")]
    if corpus_metrics:
        if not (args.emb_a and args.emb_b):
            raise DataError("fad/is/kld need --emb-a and --emb-b tensor containers")
        ta, _ = load_tensors(args.emb_a)
        tb, _ = load_tensors(args.emb_b)
        for m in corpus_metrics:
            if m == "fad":
                val = frechet_distance(_entry(ta, "embeddings", args.emb_a),
                                       _entry(tb, "embeddings", args.emb_b))
            elif m == "is":
                val = inception_score(_entry(ta, "probs", args.emb_a))
            else:
                val = mean_kld(_entry(ta, "probs", args.emb_a), _entry(tb, "probs", args.emb_b))
            rows.append(["(corpus)", m, f"{val:.4f}"])

    out = os.path.join(args.out_dir, "metrics.csv")
    _write_csv(out, ["video_id", "metric", "value"], rows)
    print(f"{len(rows)} metric rows -> {out}")
    return 0


def _entry(tensors, key, path):
    if key not in tensors:
        raise DataError(f"{path} has no {key!r} entry")
    return tensors[key]


def _beats_of(path):
    wav = _load_wav_16k(path)
    return beats_within(logmel(wav), wav.duration_s)


def _cmd_sweep(args):
    unet, temb, meta, aligner = _load_sampler(args)
    ann = load_manifest(args.manifest)
    ref_mel = logmel(_load_wav_16k(args.ref_wav)) if args.ref_wav else None
    rows = []
    for steps in args.steps or sorted({min(s, int(meta["T"])) for s in (1, 50, 200)}):
        mel = sample_mel(unet, temb, meta, ann, steps, args.seed, aligner=aligner)
        if ref_mel is not None:
            n = min(mel.values.shape[0], ref_mel.values.shape[0])
            err = float(np.mean((mel.values[:n] - ref_mel.values[:n]) ** 2))
        else:
            err = float(np.mean(np.abs(mel.values)))
        tb = generation_tb_iou(mel, ann)
        rows.append([steps, f"{err:.6f}", f"{tb:.4f}"])
    out = os.path.join(args.out_dir, "sweep_steps.csv")
    _write_csv(out, ["steps", "recon_error", "tb_iou"], rows)
    print(f"{len(rows)} sweep rows -> {out}")
    return 0


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
        return _BODIES[args.cmd](args)
    except StageOrderError as exc:
        print(f"error: stage-order: {exc}", file=sys.stderr)
        return 4
    except (DataError, OSError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
