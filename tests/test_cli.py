import csv
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import click_track

from vem import audiofeat, cli, curation
from vem.audiofeat import (MAX_DURATION_S, MAX_PLAN_BYTES, SAMPLE_RATE, MelSpectrogram,
                           Waveform, load_wav, resample, save_wav)
from vem.beatdet import detect_beats
from vem.container import load_tensors, save_tensors
from vem.curation import MAX_CLIP_S, MIN_SYNTH_S
from vem.diffusion import MAX_T
from vem.errors import DataError
from vem.evalsuite import frechet_distance
from vem.parsing import FEATURE_DIM, TimeEmbedder, build_frame_features, load_manifest
from vem.rng import Rng
from vem.tbalign import ALIGNER_HIDDEN
from vem.training import TrainConfig, generation_tb_iou, intersection_labels, save_diffusion
from vem.tunet import MAX_LEVELS, MAX_WIDTH_SQUARES, TEMB_DIM, TUNet


def run(argv, out_dir):
    return cli.main(["--out-dir", str(out_dir)] + argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A tiny synthetic corpus laid out the way the CLI expects."""
    out = tmp_path_factory.mktemp("cli_corpus")
    rc = cli.main(["--out-dir", str(out), "--seed", "21", "synth", "--n", "2"])
    assert rc == 0
    return out / "corpus"


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir):
    """All three stages trained at toy size through the CLI; the sizes and
    the schedule go to the diffusion stage, which alone takes them."""
    out = tmp_path_factory.mktemp("cli_train")
    common = ["--out-dir", str(out), "--seed", "3"]
    base = ["train", "--corpus", str(corpus_dir), "--steps", "6"]
    assert cli.main(common + base + ["--stage", "aligner"]) == 0
    assert cli.main(common + base + ["--stage", "diffusion", "--widths", "8", "--t-steps", "50"]) == 0
    assert cli.main(common + base + ["--stage", "adapter"]) == 0
    return out


# -- help and exit codes ---------------------------------------------------


def test_top_level_help_matches_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    got = capsys.readouterr().out
    want = open(os.path.join(os.path.dirname(__file__), "data", "cli_help.txt"),
                encoding="utf-8").read()
    assert got == want


def test_eval_metrics_help_lists_the_metric_tables(tmp_path, capsys):
    """The --metrics help and the unknown-metric message name exactly the
    per-clip table's metrics and the corpus metric `fad`."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    metrics = next(a for a in subs.choices["eval"]._actions if "--metrics" in a.option_strings)
    names = [*cli.CLIP_METRICS, "fad"]
    assert names == cli._METRIC_NAMES == ["b_iou", "tb_iou", "tw", "fad"]
    assert metrics.help == "comma list from " + ",".join(names)
    os.makedirs(tmp_path / "empty")
    assert run(["eval", str(tmp_path / "empty"), "--metrics", "bogus"], tmp_path) == 3
    assert capsys.readouterr().err == (f"error: data: unknown metrics ['bogus']; "
                                       f"choose from {sorted(names)}\n")


def test_every_flag_appears_in_subcommand_help():
    parser = cli.build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, sp in subs.choices.items():
        text = sp.format_help()
        for action in sp._actions:
            for opt in action.option_strings:
                if opt.startswith("--"):
                    assert opt in text, (name, opt)


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["beats"])   # missing positional
    assert exc.value.code == 2


def test_missing_file_exits_3(tmp_path):
    assert run(["beats", str(tmp_path / "nope.wav")], tmp_path) == 3


@pytest.mark.parametrize("argv", [
    lambda ckpt, d: ["features", d],
    lambda ckpt, d: ["sample", ckpt, d, "--steps", "2"],
], ids=["features", "sample-manifest"])
def test_directory_as_input_exits_3(tmp_path, trained_dir, capsys, argv):
    rc = run(argv(str(trained_dir / "diffusion.vemt"), str(tmp_path)), tmp_path)
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: data: ")


def test_stage_order_violation_exits_4(tmp_path, corpus_dir):
    rc = run(["train", "--stage", "adapter", "--corpus", str(corpus_dir), "--steps", "2"], tmp_path)
    assert rc == 4


@pytest.mark.parametrize("flag,value", [("--widths", "8"), ("--t-steps", "50")])
@pytest.mark.parametrize("stage", ["aligner", "adapter"])
def test_train_refuses_size_flags_a_stage_would_ignore(tmp_path, capsys, stage, flag, value):
    """Only the diffusion stage builds the denoiser, so only it takes its
    widths and schedule: any other stage refuses them as a usage error,
    naming the flag, before it reads the corpus (which does not exist here)
    or writes anything."""
    with pytest.raises(SystemExit) as exc:
        run(["train", "--stage", stage, "--corpus", str(tmp_path / "no-such-dir"), flag, value],
            tmp_path / "out")
    assert exc.value.code == 2
    assert f"--stage {stage} does not take {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--stage", "aligner", "--corpus", "c", "--steps", "-1"],
    ["train", "--stage", "aligner", "--corpus", "c", "--steps", "0"],
    ["train", "--stage", "aligner", "--corpus", "c", "--widths", "a"],
    ["train", "--stage", "aligner", "--corpus", "c", "--widths", "8,0"],
    ["sweep-steps", "ckpt.vemt", "m.json", "--steps", "a"],
    ["sweep-steps", "ckpt.vemt", "m.json", "--steps", "1,,2"],
    ["train", "--stage", "aligner", "--corpus", "c", "--t-steps", "-3"],
    ["sample", "ckpt.vemt", "m.json", "--steps", "0"],
    ["synth", "--n", "0"],
], ids=["steps-negative", "steps-zero", "widths-word", "widths-zero", "sweep-word",
        "sweep-empty-item", "t-steps-negative", "sample-steps-zero", "synth-n-zero"])
def test_bad_numbers_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv, tmp_path)
    assert exc.value.code == 2


def test_run_config_echo(tmp_path):
    run(["beats", str(tmp_path / "nope.wav")], tmp_path)   # fails late, echoes first
    doc = json.load(open(tmp_path / "run_config.json", encoding="utf-8"))
    assert doc["cmd"] == "beats" and "seed" in doc


@pytest.mark.parametrize("stage", ["aligner", "diffusion", "adapter"])
def test_train_run_config_is_the_config_the_stage_ran(tmp_path, corpus_dir, trained_dir,
                                                      monkeypatch, stage):
    """A default `train` echoes the step count, and for --stage diffusion the
    widths and T, that its stage received; the stage is stubbed, so no
    default-length run happens."""
    for name in ("aligner.vemt", "diffusion.vemt"):
        shutil.copy(trained_dir / name, tmp_path / name)
    received = []

    def stub(pairs, cfg, *rest):
        received.append(cfg)
        raise DataError("stubbed stage")

    monkeypatch.setattr(cli, f"train_stage_{stage}", stub)
    assert run(["train", "--stage", stage, "--corpus", str(corpus_dir)], tmp_path) == 3
    cfg, = received
    doc = json.load(open(tmp_path / "run_config.json", encoding="utf-8"))
    ran = {"seed": cfg.seed, "steps": getattr(cfg, f"{stage}_steps"), "widths": None,
           "t_steps": None}
    if stage == "diffusion":
        ran.update(widths=list(cfg.widths), t_steps=cfg.T)
    assert {k: doc[k] for k in ran} == ran
    assert doc["steps"] == getattr(TrainConfig, f"{stage}_steps")


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "exit-3"])
@pytest.mark.parametrize("cmd,steps", [("sample", 50), ("sweep-steps", [1, 50])])
def test_sampler_run_config_names_the_steps_it_ran(tmp_path, corpus_dir, trained_dir,
                                                   monkeypatch, cmd, steps, fails):
    """A default `sample` or `sweep-steps` on a T = 50 checkpoint echoes the
    step counts its sampler receives, also when the sampler then fails."""
    sample, received = cli.sample_mel, []

    def recorder(unet, temb, meta, ann, n, *rest, **kw):
        received.append(n)
        if fails:
            raise DataError("stubbed sampler")
        return sample(unet, temb, meta, ann, n, *rest, **kw)

    monkeypatch.setattr(cli, "sample_mel", recorder)
    rc = run([cmd, str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json")],
             tmp_path)
    assert rc == (3 if fails else 0)
    doc = json.load(open(tmp_path / "run_config.json", encoding="utf-8"))
    assert doc["steps"] == steps
    assert received == (steps if isinstance(steps, list) else [steps])[:1 if fails else None]


@pytest.mark.parametrize("argv", [
    lambda d: ["curate", d],
    lambda d: ["eval", d],
    lambda d: ["train", "--stage", "aligner", "--corpus", d, "--steps", "1"],
], ids=["curate", "eval", "train"])
def test_run_config_is_not_read_as_a_manifest(tmp_path, corpus_dir, argv):
    """With --out-dir on the corpus itself, the run_config.json each command
    echoes there first is not taken for a manifest."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    assert run(argv(str(corpus)), corpus) == 0
    assert (corpus / "run_config.json").exists()


@pytest.mark.parametrize("argv", [
    lambda d: ["curate", d],
    lambda d: ["train", "--stage", "aligner", "--corpus", d, "--steps", "1"],
    lambda d: ["eval", d, "--metrics", "b_iou,tb_iou,tw"],
], ids=["curate", "train", "eval"])
def test_corpus_commands_read_through_one_reader(tmp_path, corpus_dir, monkeypatch, argv):
    """curate, train and eval read a corpus through `_corpus_pairs` alone:
    pointed at an empty directory, with a recorder in the reader's place
    that serves the pairs of another corpus, each command consumes every
    pair the recorder yields and nothing else."""
    reader, calls, served = cli._corpus_pairs, [], []

    def recorder(directory):
        calls.append(directory)
        for ann, wav, stem in reader(str(corpus_dir)):
            served.append(ann.video_id)
            yield ann, wav, stem

    monkeypatch.setattr(cli, "_corpus_pairs", recorder)
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run(argv(str(empty)), tmp_path / "out") == 0
    assert calls == [str(empty)]
    assert served == [load_manifest(corpus_dir / f"item_00{i}.json").video_id for i in (0, 1)]
    assert sorted(os.listdir(empty)) == []


# -- features / beats ------------------------------------------------------


def test_features_writes_container(tmp_path):
    wav, _ = click_track(120.0, duration_s=4.0)
    save_wav(tmp_path / "clip.wav", wav)
    assert run(["features", str(tmp_path / "clip.wav")], tmp_path) == 0
    tensors, meta = load_tensors(tmp_path / "clip.mel.vemt")
    assert tensors["mel"].shape[1] == 60
    assert meta["sample_rate_hz"] == SAMPLE_RATE


def _huge_rate(path):
    """Set the WAV header rate to a prime, 4,294,967,291 Hz."""
    raw = bytearray(path.read_bytes())
    raw[24:28] = (4_294_967_291).to_bytes(4, "little")  # fmt chunk sample rate
    path.write_bytes(bytes(raw))


def test_features_huge_header_rate_exits_3(tmp_path, capsys):
    """A prime 4,294,967,291 Hz header would need a 3 TiB resampler plan."""
    path = tmp_path / "clip.wav"
    save_wav(path, Waveform(np.zeros(2048, dtype=np.float32), SAMPLE_RATE))
    _huge_rate(path)
    assert run(["features", str(path)], tmp_path) == 3
    err = capsys.readouterr().err
    assert "16000/4294967291, whose resampler plan would hold" in err and err.count("\n") == 1


# (offset, width in bytes) of each fmt and data chunk header field save_wav writes
_WAV_HEADER_FIELDS = {"fmt-size": (16, 4), "format": (20, 2), "channels": (22, 2),
                      "rate": (24, 4), "byte-rate": (28, 4), "block-align": (32, 2),
                      "bits": (34, 2), "data-size": (40, 4)}
_WAV_HEADER_VALUES = [0, 1, 2, 3, 7, 8, 15, 16, 17, 24, 32, 1000, 44100, 65535, 2**31 - 1,
                      2**32 - 1]


@pytest.fixture(scope="module")
def clip_wav_bytes(tmp_path_factory):
    """A 7.5 s noise clip as save_wav writes it."""
    path = tmp_path_factory.mktemp("clip") / "clip.wav"
    save_wav(path, Waveform(0.1 * Rng(4).gaussian(120_000), SAMPLE_RATE))
    return path.read_bytes()


@pytest.mark.parametrize("field,value", [
    (field, v) for field, (_, width) in _WAV_HEADER_FIELDS.items()
    for v in _WAV_HEADER_VALUES if v < 2 ** (8 * width)]
    # 16000 * 2^17 reduces to 1/131072, a 1.5 GiB resampler plan; 1,024,000 Hz
    # reduces to 1/64, a 0.7 MiB one
    + [("rate", 2_097_152_000), ("rate", 1_024_000)])
def test_features_wav_header_boundary_values(tmp_path, monkeypatch, capsys, clip_wav_bytes,
                                             field, value):
    """Each fmt/data header field of a 7.5 s clip set to a boundary value:
    `vem features` writes a mel or exits 3 with one error line. A rate of
    32 Hz or less makes the clip last past MAX_DURATION_S, which is refused
    before the resampler would build it (gigabytes at a few Hz); a rate whose
    resampler plan would hold more than MAX_PLAN_BYTES is refused before the
    plan is designed."""
    path = tmp_path / "clip.wav"
    offset, width = _WAV_HEADER_FIELDS[field]
    raw = bytearray(clip_wav_bytes)
    raw[offset:offset + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(raw))

    def bounded_resample(w, target_hz):
        assert w.duration_s <= MAX_DURATION_S, f"resampling {w.duration_s:.0f} s of audio"
        return resample(w, target_hz)

    design_plan = audiofeat._design_plan

    def bounded_plan(up, down):
        bound = audiofeat._plan_bytes(up, down)
        assert bound <= MAX_PLAN_BYTES, f"designing a plan of up to {bound} bytes"
        plan = design_plan(up, down)
        held = sum(taps.nbytes for taps in {id(t): t for _, _, t in plan.blocks}.values())
        assert held <= bound, f"a plan of {held} bytes, over its bound {bound}"
        return plan

    monkeypatch.setattr(cli, "resample", bounded_resample)
    monkeypatch.setattr(audiofeat, "_design_plan", bounded_plan)
    rc = run(["features", str(path)], tmp_path)
    err = capsys.readouterr().err
    assert rc in (0, 3), err
    if rc == 3:
        assert err.startswith("error: data: ") and err.count("\n") == 1, err


def test_beats_writes_events_json(tmp_path):
    """The events document is the 16 fps grid rate, the clip's length and
    the beat times `detect_beats` finds, in the bytes `json.dumps` gives."""
    wav, beats = click_track(120.0, duration_s=10.0)
    save_wav(tmp_path / "clk.wav", wav)
    assert run(["beats", str(tmp_path / "clk.wav")], tmp_path) == 0
    found, _ = detect_beats(audiofeat.logmel(load_wav(tmp_path / "clk.wav")))
    doc = {"fps": 16.0, "duration_s": 10.0, "events": [float(t) for t in found]}
    assert (tmp_path / "clk.beats.json").read_text(encoding="utf-8") == json.dumps(doc)
    assert abs(len(doc["events"]) - len(beats)) <= 1


# -- synth / curate --------------------------------------------------------


def test_synth_layout_and_determinism(tmp_path, corpus_dir):
    names = sorted(os.listdir(corpus_dir))
    assert names == ["item_000.feat.vemt", "item_000.json", "item_000.wav",
                     "item_001.feat.vemt", "item_001.json", "item_001.wav"]
    rc = cli.main(["--out-dir", str(tmp_path), "--seed", "21", "synth", "--n", "2"])
    assert rc == 0
    for name in names:
        a = open(corpus_dir / name, "rb").read()
        b = open(tmp_path / "corpus" / name, "rb").read()
        assert a == b, name


def _corpus_digest(corpus):
    """The SHA-256 over the sorted names and bytes of a corpus's files."""
    digest = hashlib.sha256()
    for path in sorted(corpus.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _synth_range(monkeypatch, duration_range_s):
    """Make `synth_corpus` draw its clips from `duration_range_s`."""
    config = curation.SynthConfig
    monkeypatch.setattr(curation, "SynthConfig", lambda: config(duration_range_s))


def test_synth_corpus_bytes_are_pinned(tmp_path, monkeypatch):
    """A small corpus of 6-7 s clips."""
    _synth_range(monkeypatch, (6.0, 7.0))
    assert run(["--seed", "3", "synth", "--n", "2"], tmp_path) == 0
    assert _corpus_digest(tmp_path / "corpus") == (
        "9016edd91887edefe3dbf55b37ed223dee8a93ca2ab48cf99b5fac8d48642462")


def test_default_synth_corpus_bytes_are_pinned(tmp_path):
    """The corpus `synth` writes at the default durations."""
    assert run(["--seed", "3", "synth", "--n", "2"], tmp_path) == 0
    assert _corpus_digest(tmp_path / "corpus") == (
        "ff3f4aefdbde9fc3b3b725e4eeda464aca6c94ebee74984dd671b827011aa76c")
    config = json.loads((tmp_path / "run_config.json").read_text(encoding="utf-8"))
    assert sorted(config) == ["cmd", "n", "out_dir", "seed"]


def test_synth_takes_no_duration_flag(tmp_path):
    """`synth` writes the one corpus the pipeline takes: a duration flag is
    a usage error, and nothing is written."""
    with pytest.raises(SystemExit) as exc:
        run(["synth", "--n", "1", "--dur-min", "6"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "corpus").exists()
    assert not (tmp_path / "run_config.json").exists()


def test_synth_holds_one_pair_at_a_time(tmp_path, monkeypatch):
    """Pairs are written and dropped as they are made, so the traced peak
    barely grows from 2 to 20 pairs of 6 s (about 0.4 MB a pair if held)."""
    _synth_range(monkeypatch, (6.0, 6.0))
    peaks = []
    tracemalloc.start()
    try:
        for n in (2, 20):
            tracemalloc.reset_peak()
            assert run(["synth", "--n", str(n)], tmp_path / str(n)) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2_000_000, peaks


def test_interrupted_synth_leaves_a_corpus_curate_reads(tmp_path, monkeypatch):
    """A WAV write that fails stops `synth` before that pair's manifest, so
    the pairs written before it still make a corpus."""
    calls = []

    def full_disk_on_third(path, wav):
        calls.append(path)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        save_wav(path, wav)

    monkeypatch.setattr(cli, "save_wav", full_disk_on_third)
    assert run(["synth", "--n", "4"], tmp_path) == 3
    monkeypatch.undo()
    assert run(["curate", str(tmp_path / "corpus")], tmp_path) == 0
    assert len(read_csv(tmp_path / "curation.csv")) == 3


def test_curate_report(tmp_path, corpus_dir):
    assert run(["curate", str(corpus_dir)], tmp_path) == 0
    rows = read_csv(tmp_path / "curation.csv")
    assert rows[0] == ["video_id", "status", "reasons"]
    assert len(rows) == 3
    assert all(r[1] in ("pass", "fail") for r in rows[1:])


def test_curate_takes_no_thresholds(tmp_path, corpus_dir):
    """The gate is a fixed policy: a threshold flag is a usage error, and
    nothing is written."""
    with pytest.raises(SystemExit) as exc:
        run(["curate", str(corpus_dir), "--max-shots", "3"], tmp_path)
    assert exc.value.code == 2
    assert not (tmp_path / "curation.csv").exists()


@pytest.mark.parametrize("duration", [1e9, 1e300])
def test_curate_huge_manifest_duration_exits_3(tmp_path, corpus_dir, capsys, duration):
    """A declared duration past MAX_DURATION_S is refused before frame
    features are built for it (477 GiB at 1e9 s)."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    shutil.copy(corpus_dir / "item_000.wav", corpus / "item_000.wav")
    doc = json.loads((corpus_dir / "item_000.json").read_text())
    (corpus / "item_000.json").write_text(json.dumps(dict(doc, duration_s=duration)))
    assert run(["curate", str(corpus)], tmp_path) == 3
    assert "duration_s" in capsys.readouterr().err


@pytest.mark.parametrize("duration_s", [0.8, 3.0])
def test_curate_fails_clips_too_short_for_beat_tracking(tmp_path, corpus_dir, duration_s):
    """A 3 s clip fails on duration, where it used to pass and then stop
    `train --stage aligner`; a 0.8 s one, too short for an SNR estimate,
    used to stop all of `curate`."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    save_wav(corpus / "short.wav", click_track(120.0, duration_s=duration_s)[0])
    _one_shot_manifest(corpus / "short.json", duration_s, video_id="short")
    assert run(["curate", str(corpus)], tmp_path) == 0
    rows = {r[0]: r[1:] for r in read_csv(tmp_path / "curation.csv")[1:]}
    assert len(rows) == 3
    assert rows["short"] == ["fail", f"duration: {duration_s:.1f} s under {MIN_SYNTH_S:g} s"]


def _with_duration(corpus, stem, duration_s):
    """Rewrite manifest `stem` of `corpus` to declare `duration_s`, with one
    storyboard over it, the transitions inside it and no feature sidecar."""
    path = corpus / f"{stem}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.update(duration_s=duration_s,
               storyboards=[{"start_s": 0.0, "duration_s": duration_s, "text": "one shot"}],
               transitions_s=[t for t in doc["transitions_s"] if t <= duration_s])
    del doc["features"]
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.fixture(scope="module")
def short_manifest_corpus(tmp_path_factory):
    """Two 10-16 s clips, the first declaring 5 s in its manifest."""
    out = tmp_path_factory.mktemp("short_manifest")
    assert cli.main(["--out-dir", str(out), "--seed", "3", "synth", "--n", "2"]) == 0
    _with_duration(out / "corpus", "item_000", 5.0)
    return out / "corpus"


@pytest.mark.parametrize("argv,output", [
    (["curate"], "curation.csv"),
    (["train", "--stage", "aligner", "--steps", "2", "--corpus"], "train_aligner_loss.csv"),
    (["train", "--stage", "diffusion", "--steps", "2", "--widths", "8", "--t-steps", "50",
      "--corpus"], "train_diffusion_loss.csv"),
    (["train", "--stage", "adapter", "--steps", "2", "--corpus"], "train_adapter_loss.csv"),
    (["eval", "--metrics", "b_iou,tb_iou,tw"], "metrics.csv"),
], ids=["curate", "train-aligner", "train-diffusion", "train-adapter", "eval"])
def test_manifest_duration_disagreeing_with_wav_exits_3(tmp_path, trained_dir,
                                                        short_manifest_corpus, capsys, argv,
                                                        output):
    """A manifest that declares 5 s beside a 10-16 s WAV is refused by the
    corpus reader, which names both durations, before any output is
    written. It used to be curated, trained on (stage C spread 80 aligner
    frames over 167 latent frames) and scored without a word."""
    for name in ("aligner.vemt", "diffusion.vemt"):
        shutil.copy(trained_dir / name, tmp_path / name)
    wav_s = load_wav(short_manifest_corpus / "item_000.wav").duration_s
    assert run(argv + [str(short_manifest_corpus)], tmp_path) == 3
    assert capsys.readouterr().err == ("error: data: manifest item_000.json gives duration_s "
                                       f"5 s, but item_000.wav lasts {wav_s:g} s\n")
    assert not (tmp_path / output).exists()


@pytest.mark.parametrize("delta_s,rc", [(0.06, 0), (-0.06, 0), (0.07, 3), (-0.07, 3)])
def test_manifest_duration_agrees_with_wav_to_one_frame(tmp_path, corpus_dir, delta_s, rc):
    """The reader takes a manifest whose duration is within one 16 fps
    frame (0.0625 s) of its WAV's, and refuses one further off."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    _with_duration(corpus, "item_001", load_wav(corpus / "item_001.wav").duration_s + delta_s)
    assert run(["curate", str(corpus)], tmp_path) == rc


def _sub_window_clip(corpus, stem):
    """Replace clip `stem` of `corpus` with 480 samples (0.03 s) and a
    manifest that declares as much."""
    save_wav(corpus / f"{stem}.wav", Waveform(np.zeros(480, dtype=np.float32), SAMPLE_RATE))
    _with_duration(corpus, stem, 0.03)


def _negative_storyboard(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["storyboards"][0]["duration_s"] = -1
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("spoil,err", [
    (lambda c: _negative_storyboard(c / "item_001.json"),
     "item_001.json: storyboards[0].duration_s: must be positive, got -1"),
    (lambda c: (c / "item_001.wav").write_bytes(b"garbage"),
     "item_001.wav: not a RIFF/WAVE file"),
    (lambda c: _huge_rate(c / "item_001.wav"),
     "item_001.wav: 4294967291 Hz to 16000 Hz reduces to"),
    (lambda c: _sub_window_clip(c, "item_001"),
     "item_001.wav: waveform of 480 samples is shorter than one 1024-sample window"),
], ids=["manifest", "wav", "resample", "sub-window"])
@pytest.mark.parametrize("argv,output", [
    (["curate"], "curation.csv"),
    (["train", "--stage", "aligner", "--steps", "1", "--corpus"], "train_aligner_loss.csv"),
    (["eval", "--metrics", "b_iou,tb_iou,tw"], "metrics.csv"),
], ids=["curate", "train", "eval"])
def test_corpus_error_names_its_file(tmp_path, corpus_dir, capsys, spoil, err, argv, output):
    """An error met reading one clip of a corpus names the file it came
    from; it used to print the manifest field or WAV fault alone. A clip
    shorter than one STFT window is refused by the reader too: `curate`
    used to fail it on duration, and `train` and `eval` to stop on it
    naming no file."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    spoil(corpus)
    assert run(argv + [str(corpus)], tmp_path / "out") == 3
    out = capsys.readouterr().err
    assert out.startswith(f"error: data: {err}") and out.count("\n") == 1, out
    assert not (tmp_path / "out" / output).exists()


@pytest.mark.parametrize("argv", [
    lambda d: ["eval", d, "--tol-s", "nan"],
], ids=["eval-tol"])
def test_nan_thresholds_exit_3(tmp_path, corpus_dir, capsys, argv):
    assert run(argv(str(corpus_dir)), tmp_path) == 3
    assert capsys.readouterr().err.startswith("error: data: ")


# -- train / sample / sweep ------------------------------------------------


def test_train_without_frame_features(tmp_path, corpus_dir):
    """A sidecar with no frame_features entry loads with the matrix
    build_frame_features derives, and stage A trains on it."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    for side in corpus.glob("*.feat.vemt"):
        tensors, meta = load_tensors(side)
        del tensors["frame_features"]
        save_tensors(side, tensors, meta)
    ann = load_manifest(corpus / "item_000.json")
    np.testing.assert_array_equal(ann.frame_features, build_frame_features(ann))
    assert run(["train", "--stage", "aligner", "--corpus", str(corpus), "--steps", "2"],
               tmp_path / "out") == 0
    assert (tmp_path / "out" / "aligner.vemt").exists()


def test_train_on_sidecars_cut_short_exits_3(tmp_path, capsys):
    """A sidecar whose frame_features cover the first 40 frames (2.5 s) of a
    10-16 s clip is refused when it is read, before stage A could train on
    the cut or stage C stretch it over the whole clip."""
    assert cli.main(["--out-dir", str(tmp_path), "--seed", "3", "synth", "--n", "2"]) == 0
    corpus = tmp_path / "corpus"
    need = load_manifest(corpus / "item_000.json").frame_features.shape[1]
    for side in corpus.glob("*.feat.vemt"):
        tensors, meta = load_tensors(side)
        tensors["frame_features"] = tensors["frame_features"][:, :40]
        save_tensors(side, tensors, meta)
    capsys.readouterr()
    assert run(["train", "--stage", "aligner", "--corpus", str(corpus), "--steps", "2"],
               tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: data: ")
    assert re.search(rf"frame_features: 40 frames, .* has {need}\n", err)
    assert not (tmp_path / "out" / "aligner.vemt").exists()


def test_train_aligner_on_a_silent_clip(tmp_path, corpus_dir):
    """A clip with no beat grid has no beats, so stage A trains on all-zero
    labels for it; a silent WAV used to stop the stage with exit 3."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    n = load_wav(corpus / "item_000.wav").samples.size
    save_wav(corpus / "item_000.wav", Waveform(np.zeros(n, dtype=np.float32), SAMPLE_RATE))
    assert run(["train", "--stage", "aligner", "--corpus", str(corpus), "--steps", "2"],
               tmp_path / "out") == 0
    labels = intersection_labels(load_manifest(corpus / "item_000.json"),
                                 load_wav(corpus / "item_000.wav"))
    assert labels.size and not labels.any()


def test_train_artifacts(trained_dir):
    for name in ("aligner.vemt", "diffusion.vemt", "adapter.vemt",
                 "train_aligner_loss.csv", "train_diffusion_loss.csv",
                 "train_adapter_loss.csv"):
        assert (trained_dir / name).exists(), name
    rows = read_csv(trained_dir / "train_diffusion_loss.csv")
    assert rows[0] == ["step", "loss"] and len(rows) == 7


def test_sample_from_checkpoint(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_000.json")
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), manifest,
              "--steps", "3"], tmp_path)
    assert rc == 0
    tensors, meta = load_tensors(tmp_path / "item_000.gen.mel.vemt")
    assert tensors["mel"].shape[1] == 60 and meta["steps"] == 3


def test_sample_default_steps_capped_at_schedule(tmp_path, corpus_dir, trained_dir):
    """The default 200 steps drop to the checkpoint's T (50); an explicit
    count above T is still an error."""
    ckpt, manifest = str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json")
    assert run(["sample", ckpt, manifest], tmp_path) == 0
    _, meta = load_tensors(tmp_path / "item_000.gen.mel.vemt")
    assert meta["steps"] == 50
    assert run(["sample", ckpt, manifest, "--steps", "51"], tmp_path) == 3


def _adapter_in(directory, trained_dir):
    """The trained adapter.vemt copied into `directory`, where `vem sample`
    then reads its aligner as aligner.vemt."""
    return str(shutil.copy(trained_dir / "adapter.vemt", directory / "adapter.vemt"))


def test_sample_adapter_checkpoint_needs_aligner(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_000.json")
    ckpt = _adapter_in(tmp_path, trained_dir)
    rc = run(["sample", ckpt, manifest, "--steps", "3"], tmp_path)
    assert rc == 4
    shutil.copy(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt")
    rc = run(["sample", ckpt, manifest, "--steps", "3"], tmp_path)
    assert rc == 0


def _edited(src, dst, edit_tensors=None, **meta_update):
    """Copy checkpoint `src` to `dst`, with `edit_tensors` applied to its
    tensors and `meta_update` to its meta."""
    tensors, meta = load_tensors(src)
    if edit_tensors is not None:
        edit_tensors(tensors)
    save_tensors(dst, tensors, dict(meta, **meta_update))
    return str(dst)


def test_sample_non_square_attention_weight_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    ckpt = _edited(trained_dir / "diffusion.vemt", tmp_path / "bad.vemt",
                   lambda t: t.update({"unet.enc.0.selfattn.wq.w": np.zeros((8, 9))}))
    rc = run(["sample", ckpt, str(corpus_dir / "item_000.json"), "--steps", "2"], tmp_path)
    assert rc == 3
    assert "'unet.enc.0.selfattn.wq.w' must be (8, 8)" in capsys.readouterr().err


def _old_key_names(t):
    """Rename to the keys stored before the time embedder and the adapters
    were built from `Linear`: `time_embedder.w1`, `adapters.<i>.gamma_w`, ..."""
    for key in list(t):
        old = re.sub(r"^time_embedder\.lin(\d)\.([wb])$", r"time_embedder.\2\1", key)
        t[re.sub(r"(\.adapters\.\d+\.\w+)\.([wb])$", r"\1_\2", old)] = t.pop(key)


@pytest.mark.parametrize("edit,err", [
    (lambda t: t.update({"junk": np.zeros(3), "unet_typo.in_conv.w": t["unet.in_conv.w"]}),
     "0 missing [], 2 extra ['junk', 'unet_typo.in_conv.w']"),
    (_old_key_names,
     "8 missing ['time_embedder.lin1.b', 'time_embedder.lin1.w', 'time_embedder.lin2.b', "
     "'time_embedder.lin2.w'], 8 extra ['time_embedder.b1', 'time_embedder.b2', "
     "'time_embedder.w1', 'time_embedder.w2']"),
], ids=["stray-tensor", "old-key-names"])
def test_sample_checkpoint_with_other_tensor_names_exits_3(tmp_path, corpus_dir, trained_dir,
                                                           capsys, edit, err):
    """Every stored tensor belongs to the model: one outside it, under a
    misspelt prefix or under an old name is refused instead of ignored, with
    counts of what is missing and extra and the first names in full."""
    ckpt = _edited(trained_dir / "adapter.vemt", tmp_path / "names.vemt", edit)
    rc = run(["sample", ckpt, str(corpus_dir / "item_000.json"), "--steps", "2"], tmp_path)
    assert rc == 3
    assert capsys.readouterr().err == f"error: data: state mismatch: {err}\n"


@pytest.mark.parametrize("bad,tensor,err", [
    ({"T": 10**12}, None, "'T' must be"),
    ({"widths": [64]}, ("unet.in_conv.w", (64, 240, 3)), "shape mismatch for unet.in_conv.w"),
    ({"cond_dim": 5000}, ("time_embedder.lin2.w", (32, 5000)),
     "shape mismatch for time_embedder.lin2.w"),
], ids=["T", "widths", "cond-dim"])
def test_sample_oversized_checkpoint_meta_exits_3(tmp_path, corpus_dir, trained_dir, capsys,
                                                  bad, tensor, err):
    """A schedule past MAX_T is refused, and an oversized size in the meta
    sizes nothing, even when one tensor agrees with it: every size is read off
    each level's largest weights, so the widened tensor is refused by name
    before anything is allocated at its size."""
    edit = None if tensor is None else lambda t: t.update({tensor[0]: np.zeros(tensor[1])})
    ckpt = _edited(trained_dir / "diffusion.vemt", tmp_path / "big.vemt", edit, **bad)
    rc = run(["sample", ckpt, str(corpus_dir / "item_000.json"), "--steps", "2"], tmp_path)
    assert rc == 3
    out = capsys.readouterr().err
    assert out.startswith("error: data: ") and err in out


def test_sample_wav_out_refused_leaves_no_partial_write(tmp_path, corpus_dir, trained_dir,
                                                         capsys, monkeypatch):
    """A vocoder refusal exits 3 before either output is written; so does a
    --wav-out in a directory that does not exist, and a mel that cannot be
    written leaves no WAV behind either."""
    def vocoder_refuses(mel, iters):
        raise DataError("Griffin-Lim reconstruction has non-finite samples")

    with monkeypatch.context() as patch:
        patch.setattr(cli, "griffin_lim", vocoder_refuses)
        rc = run(["sample", str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json"),
                  "--steps", "2", "--wav-out", str(tmp_path / "gen.wav")], tmp_path)
    assert rc == 3
    assert "non-finite samples" in capsys.readouterr().err
    assert not (tmp_path / "item_000.gen.mel.vemt").exists()
    assert not (tmp_path / "gen.wav").exists()

    out = tmp_path / "out"
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--wav-out", str(tmp_path / "missing" / "gen.wav")], out)
    assert rc == 3
    assert "No such file or directory" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["run_config.json"]

    def full_disk(*args, **kwargs):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_save_mel", full_disk)
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--wav-out", str(out / "gen.wav")], out)
    assert rc == 3
    assert "No space left" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["run_config.json"]


def test_sample_failed_mel_leaves_the_old_wav(tmp_path, corpus_dir, trained_dir, capsys):
    """The mel is saved inside the WAV's block: a mel path that is a
    directory exits 3, and an existing --wav-out stays byte for byte."""
    out = tmp_path / "out"
    (out / "item_000.gen.mel.vemt").mkdir(parents=True)
    wav_out = tmp_path / "gen.wav"
    wav_out.write_bytes(b"the previous take")
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--wav-out", str(wav_out)], out)
    assert rc == 3
    assert "Is a directory" in capsys.readouterr().err
    assert wav_out.read_bytes() == b"the previous take"
    assert sorted(os.listdir(tmp_path)) == ["gen.wav", "out"]
    assert sorted(os.listdir(out)) == ["item_000.gen.mel.vemt", "run_config.json"]


def test_sample_wav_out_directory_writes_nothing(tmp_path, corpus_dir, trained_dir, capsys):
    """A --wav-out that is a directory is refused before its block runs, so
    the mel saved inside it is never written."""
    out = tmp_path / "out"
    wav_out = tmp_path / "gen.wav"
    wav_out.mkdir()
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--wav-out", str(wav_out)], out)
    assert rc == 3
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["run_config.json"]
    assert list(wav_out.iterdir()) == []


def test_sample_aligner_without_conv1_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    _edited(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt",
            lambda t: t.pop("conv1.w"), feat_dim=10**9)
    rc = run(["sample", _adapter_in(tmp_path, trained_dir), str(corpus_dir / "item_000.json"),
              "--steps", "2"], tmp_path)
    assert rc == 3
    assert "tensor 'conv1.w' is missing" in capsys.readouterr().err


@pytest.mark.parametrize("edit,meta_update", [
    (None, {"latent_mean": 1e308}),
    (lambda t: t["unet.out_conv.b"].__setitem__(0, np.nan), {}),
], ids=["latent-mean-1e308", "nan-out-conv-bias"])
def test_sample_non_finite_latent_exits_3(tmp_path, corpus_dir, trained_dir, capsys, edit,
                                          meta_update):
    """A checkpoint whose sampled latent overflows or turns NaN writes no
    spectrogram."""
    ckpt = _edited(trained_dir / "diffusion.vemt", tmp_path / "d.vemt", edit, **meta_update)
    rc = run(["sample", ckpt, str(corpus_dir / "item_000.json"), "--steps", "2"], tmp_path)
    assert rc == 3
    assert "sampled latent is not finite" in capsys.readouterr().err
    assert not (tmp_path / "item_000.gen.mel.vemt").exists()


_MISSING = object()
_BOUNDARY_VALUES = {"missing": _MISSING, "true": True, "nan": float("nan"), "inf": float("inf"),
                    "-inf": float("-inf"), "0": 0, "-1": -1, "2**63": 2**63, "2**64": 2**64,
                    "10**400": 10**400, "1e308": 1e308, "x": "x", "[]": [], "{}": {}}


@pytest.mark.parametrize("value", _BOUNDARY_VALUES)
@pytest.mark.parametrize("ckpt,key", [("diffusion", "stage"), ("diffusion", "T"),
                                      ("diffusion", "latent_mean"), ("diffusion", "latent_std"),
                                      ("aligner", "stage"), ("aligner", "seed")])
def test_sample_checkpoint_meta_boundary_values(tmp_path, corpus_dir, trained_dir, capsys, ckpt,
                                                key, value):
    """Each meta key a checkpoint keeps, missing or set to a boundary value of
    each JSON kind: `vem sample` samples a finite spectrogram, or exits 3
    (4 for a stage tag) with one error line and no traceback. The aligner is
    read as aligner.vemt beside an adapter checkpoint."""
    value = _BOUNDARY_VALUES[value]
    tensors, meta = load_tensors(trained_dir / f"{ckpt}.vemt")
    meta.pop(key) if value is _MISSING else meta.update({key: value})
    save_tensors(tmp_path / f"{ckpt}.vemt", tensors, meta)
    sampled = (_adapter_in(tmp_path, trained_dir) if ckpt == "aligner"
               else str(tmp_path / "diffusion.vemt"))
    rc = run(["sample", sampled, str(corpus_dir / "item_000.json"), "--steps", "1"], tmp_path)
    err = capsys.readouterr().err
    assert rc in ((0, 3, 4) if key == "stage" else (0, 3)), err
    if rc == 0:
        mel, _ = load_tensors(tmp_path / "item_000.gen.mel.vemt")
        assert np.isfinite(mel["mel"]).all()
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("nested", ["ckpt", "manifest"])
def test_sample_deeply_nested_json_exits_3(tmp_path, corpus_dir, trained_dir, capsys, nested):
    ckpt, manifest = trained_dir / "diffusion.vemt", corpus_dir / "item_000.json"
    if nested == "ckpt":
        blob = b"[" * 200_000
        ckpt = tmp_path / "nested.vemt"
        ckpt.write_bytes(b"VEMT\x02" + len(blob).to_bytes(4, "little") + blob)
    else:
        manifest = tmp_path / "nested.json"
        manifest.write_text("[" * 200_000)
    rc = run(["sample", str(ckpt), str(manifest), "--steps", "2"], tmp_path)
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: data: ")


def _framing_edit(raw, field, value):
    """A version-2 container's bytes `raw` with one framing field edited: the
    header's, or the first entry's. `value` maps the field's old value to its
    new one; a "duplicate name" repeats the first entry at the end."""
    u32 = lambda at: int.from_bytes(raw[at:at + 4], "little")
    entry = 9 + u32(5)
    rank_at = entry + 4 + u32(entry)
    if field == "magic":
        return value + raw[4:]
    if field == "version":
        return raw[:4] + bytes([value]) + raw[5:]
    if field == "wide dims":  # rank 10,000, every dim 2**32 - 1
        return raw[:rank_at] + (10_000).to_bytes(4, "little") + b"\xff" * 40_000 + raw[rank_at + 4:]
    if field == "duplicate name":
        dims = [u32(rank_at + 4 * k) for k in range(1, u32(rank_at) + 1)]
        return raw + raw[entry:rank_at + 4 * (1 + len(dims) + int(np.prod(dims)))]
    at = {"json_len": 5, "name_len": entry, "rank": rank_at, "dims": rank_at + 4}[field]
    return raw[:at] + value(u32(at)).to_bytes(4, "little") + raw[at + 4:]


_FRAMING_CASES = {
    "magic-other": ("magic", b"VEMX"), "magic-cut": ("magic", b""),
    "version-0": ("version", 0), "version-1": ("version", 1), "version-3": ("version", 3),
    **{f"{field}-{name}": (field, edit) for field in ("json_len", "name_len", "rank", "dims")
       for name, edit in (("0", lambda n: 0), ("short", lambda n: n - 1),
                          ("long", lambda n: n + 1), ("max", lambda n: 2**32 - 1))},
    "dims-wide": ("wide dims", None), "duplicate-name": ("duplicate name", None),
}


@pytest.mark.parametrize("case", _FRAMING_CASES)
def test_sample_container_framing_boundary_values(tmp_path, corpus_dir, trained_dir, capsys,
                                                  case):
    """Each framing field of a checkpoint, off by one either way, zero or at
    its largest value, 10,000 dims of 2**32 - 1, and the first entry
    repeated under its own name: `vem sample` exits 3 with one error line
    and writes nothing but its run config. A repeated name used to load the
    later entry without a word, and the wide dims to stop on a ValueError
    from formatting their 96,000-digit byte count."""
    field, value = _FRAMING_CASES[case]
    raw = (trained_dir / "diffusion.vemt").read_bytes()
    (tmp_path / "ckpt.vemt").write_bytes(_framing_edit(raw, field, value))
    out = tmp_path / "out"
    rc = run(["sample", str(tmp_path / "ckpt.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "1"], out)
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error: data: ") and err.count("\n") == 1, err
    assert os.listdir(out) == ["run_config.json"]


@pytest.fixture(scope="module")
def short_clip(tmp_path_factory):
    """One clip just long enough for beat tracking and its manifest, shared
    by the manifest boundary table."""
    out = tmp_path_factory.mktemp("short_clip")
    wav, _ = click_track(120.0, duration_s=MIN_SYNTH_S + 0.5)
    save_wav(out / "clip.wav", wav)
    doc = {"video_id": "clip", "duration_s": wav.duration_s,
           "global": {"caption": "one take", "tags": ["calm"]},
           "storyboards": [{"start_s": 0.0, "duration_s": wav.duration_s, "text": "one shot"}],
           "transitions_s": [1.0, 2.5]}
    return out / "clip.wav", doc


_DEEP = object()  # a value nested 100,000 lists deep
_MANIFEST_VALUES = dict(_BOUNDARY_VALUES, deep=_DEEP)
_MANIFEST_FIELDS = ["video_id", "duration_s", "global", "global.caption", "global.tags",
                    "global.tags.0", "storyboards", "storyboards.0", "storyboards.0.start_s",
                    "storyboards.0.duration_s", "storyboards.0.text", "transitions_s",
                    "transitions_s.0", "features"]


@pytest.mark.parametrize("value", _MANIFEST_VALUES)
@pytest.mark.parametrize("field", _MANIFEST_FIELDS)
def test_corpus_manifest_boundary_values(tmp_path, capsys, short_clip, field, value):
    """Each manifest field, missing, set to a boundary value of each JSON
    kind, or nested past the parser's depth: `vem curate` and `vem eval`
    each write a report with one row per clip and finite metrics, or exit 3
    with one error line, no traceback and no report."""
    wav_path, doc = short_clip
    doc = json.loads(json.dumps(doc))
    *parents, key = (int(k) if k.isdigit() else k for k in field.split("."))
    holder = doc
    for k in parents:
        holder = holder[k]
    value = _MANIFEST_VALUES[value]
    if value is _MISSING:
        holder.pop(key) if isinstance(holder, list) else holder.pop(key, None)
    else:
        holder[key] = "\0deep" if value is _DEEP else value
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "clip.json").write_text(json.dumps(doc).replace('"\\u0000deep"',
                                                              "[" * 100_000 + "]" * 100_000))
    os.symlink(wav_path, corpus / "clip.wav")
    for argv, report in ((["curate", str(corpus)], "curation.csv"),
                         (["eval", str(corpus), "--metrics", "b_iou,tb_iou,tw"], "metrics.csv")):
        rc = run(argv, tmp_path)
        err = capsys.readouterr().err
        assert rc in (0, 3), err
        if rc == 3:
            assert err.startswith("error: data: ") and err.count("\n") == 1, err
            assert not (tmp_path / report).exists()
            continue
        rows = read_csv(tmp_path / report)[1:]
        if argv[0] == "curate":
            assert len(rows) == 1 and rows[0][1] in ("pass", "fail")
        else:
            assert [r[1] for r in rows] == ["b_iou", "tb_iou", "tw"]
            assert all(np.isfinite(float(r[2])) for r in rows), rows


def _one_shot_manifest(path, duration_s, video_id="long"):
    path.write_text(json.dumps({
        "video_id": video_id, "duration_s": duration_s,
        "global": {"caption": "one long take", "tags": ["calm"]},
        "storyboards": [{"start_s": 0.0, "duration_s": duration_s, "text": "one shot"}],
        "transitions_s": []}))
    return str(path)


def _run_under_memory_limit(argv):
    """`vem` run in a child process under a 2.5 GB address-space limit."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))\n"
            "from vem import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code] + argv, env=env, capture_output=True,
                          text=True, timeout=300)


def test_sample_overlong_latent_exits_3_under_memory_limit(tmp_path, trained_dir):
    """A valid 3000 s manifest needs a 46,875-frame latent, whose attention
    matrix alone is 8.2 GiB: under a 2.5 GB address-space limit `vem sample`
    exits 3 with one error line, not with a MemoryError traceback."""
    proc = _run_under_memory_limit(
        ["--out-dir", str(tmp_path), "sample", str(trained_dir / "diffusion.vemt"),
         _one_shot_manifest(tmp_path / "long.json", 3000.0), "--steps", "1"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: data: latent length 46875 exceeds")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def _deep_checkpoint(path, levels):
    """A diffusion checkpoint of `levels` width-1 levels: 618 KB at 20."""
    unet, temb = TUNet(FEATURE_DIM, (1,) * levels), TimeEmbedder(FEATURE_DIM)
    save_diffusion(path, unet, temb, {"stage": "diffusion", "T": 50, "latent_mean": 0.0,
                                      "latent_std": 1.0})
    return str(path)


def _many_storyboards(path, count, duration_s=200.0):
    step = duration_s / count
    path.write_text(json.dumps({
        "video_id": "cuts", "duration_s": duration_s,
        "global": {"caption": "rapid cuts", "tags": ["tense"]},
        "storyboards": [{"start_s": i * step, "duration_s": step, "text": "cut"}
                        for i in range(count)],
        "transitions_s": []}))
    return str(path)


@pytest.mark.parametrize("case", ["deep-checkpoint", "train-20-levels", "many-storyboards"])
def test_input_past_a_size_bound_exits_3_under_memory_limit(tmp_path, corpus_dir, trained_dir,
                                                             case):
    """Inputs of a few hundred KB that once asked for a TiB or more: a
    20-level checkpoint (or a `--widths` run of 20 levels) pads a 79-frame
    latent to 2^19 frames, and 20,000 storyboards make a 1.5 GB attention
    bias. Under a 2.5 GB limit each exits 3 with one error line, where a
    MemoryError traceback used to stop the run; `train` now refuses the
    depth before it builds the net."""
    if case == "train-20-levels":
        argv = ["train", "--stage", "diffusion", "--corpus", str(corpus_dir), "--steps", "1",
                "--widths", ",".join(["1"] * 20), "--t-steps", "50"]
        want = "widths give 20 levels, more than the 13 a denoiser can run"
    elif case == "deep-checkpoint":
        argv = ["sample", _deep_checkpoint(tmp_path / "deep.vemt", 20),
                _one_shot_manifest(tmp_path / "short.json", 5.0), "--steps", "1"]
        want = "latent length 79 exceeds 4096 frames once padded to 524288"
    else:
        argv = ["sample", str(trained_dir / "diffusion.vemt"),
                _many_storyboards(tmp_path / "cuts.json", 20_000), "--steps", "1"]
        want = "storyboards: 20000 is more than"
    proc = _run_under_memory_limit(["--out-dir", str(tmp_path / "out")] + argv)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: data: {want}"), proc.stderr
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_sample_longest_curated_clip(tmp_path, trained_dir):
    manifest = _one_shot_manifest(tmp_path / "long.json", MAX_CLIP_S)
    rc = run(["sample", str(trained_dir / "diffusion.vemt"), manifest, "--steps", "1"], tmp_path)
    assert rc == 0
    # 1,875 latent frames of 4 mel windows each
    assert load_tensors(tmp_path / "long.gen.mel.vemt")[0]["mel"].shape[0] == 7500


def _narrowed(src, dst, width, to):
    """Copy checkpoint `src` to `dst` with every axis of size `width` cut to
    `to`: the file a net built at that other width would have written."""
    tensors, meta = load_tensors(src)
    save_tensors(dst, {k: v[tuple(slice(to) if n == width else slice(None) for n in v.shape)]
                       for k, v in tensors.items()}, meta)


def test_sample_other_width_aligner_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    _narrowed(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt", ALIGNER_HIDDEN, 4)
    rc = run(["sample", _adapter_in(tmp_path, trained_dir), str(corpus_dir / "item_000.json"),
              "--steps", "2"], tmp_path)
    assert rc == 3
    assert "shape mismatch for conv1.w" in capsys.readouterr().err


def test_sample_other_step_embedding_width_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    _narrowed(trained_dir / "diffusion.vemt", tmp_path / "t64.vemt", TEMB_DIM, 64)
    rc = run(["sample", str(tmp_path / "t64.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2"], tmp_path)
    assert rc == 3
    assert "shape mismatch for unet.temb_lin1.w" in capsys.readouterr().err


def test_train_refuses_t_before_reading_the_corpus(tmp_path, capsys):
    """A schedule past MAX_T is refused where the config is built, before
    the corpus is read: a missing corpus directory is not what fails."""
    rc = run(["train", "--stage", "diffusion", "--corpus", str(tmp_path / "no-such-dir"),
              "--t-steps", str(MAX_T + 1)], tmp_path)
    assert rc == 3
    assert capsys.readouterr().err == f"error: data: need 1 <= T <= {MAX_T}, got {MAX_T + 1}\n"


def test_train_refuses_widths_before_reading_the_corpus(tmp_path, capsys):
    """Widths past MAX_WIDTH_SQUARES are refused where the config is built,
    before the corpus is read: 100000 asked for 112 GiB of weights, and
    drawing them ended in a MemoryError traceback."""
    rc = run(["train", "--stage", "diffusion", "--corpus", str(tmp_path / "no-such-dir"),
              "--widths", "100000"], tmp_path)
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: data: ") and err.count("\n") == 1, err
    assert f"sum of squares {100000 ** 2} exceeds {MAX_WIDTH_SQUARES}" in err


@pytest.mark.parametrize("levels", [14, 65_536])
def test_train_refuses_depth_before_reading_the_corpus(tmp_path, capsys, levels):
    """A net deeper than MAX_LEVELS is refused by its level count where the
    config is built, before the corpus is read; 65,536 ones, one argument's
    worth, used to build every level first."""
    rc = run(["train", "--stage", "diffusion", "--corpus", str(tmp_path / "no-such-dir"),
              "--widths", ",".join(["1"] * levels)], tmp_path)
    assert rc == 3
    assert capsys.readouterr().err == (f"error: data: widths give {levels} levels, more than "
                                       f"the {MAX_LEVELS} a denoiser can run\n")


def test_train_adapter_zero_latent_std_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    """A diffusion checkpoint whose latent_std is 0 would turn every stage-C
    latent into NaN; it is refused before any training."""
    tensors, meta = load_tensors(trained_dir / "diffusion.vemt")
    save_tensors(tmp_path / "diffusion.vemt", tensors, dict(meta, latent_std=0.0))
    shutil.copy(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt")
    rc = run(["train", "--corpus", str(corpus_dir), "--steps", "2", "--stage", "adapter"],
             tmp_path)
    assert rc == 3
    assert "'latent_std' must be positive" in capsys.readouterr().err
    assert not (tmp_path / "adapter.vemt").exists()


def test_sample_unconditional(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_001.json")
    rc = run(["sample", str(trained_dir / "adapter.vemt"), manifest,
              "--steps", "2", "--unconditional"], tmp_path)
    assert rc == 0


def test_sweep_steps_csv(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_000.json")
    rc = run(["sweep-steps", str(trained_dir / "diffusion.vemt"), manifest,
              "--steps", "1,4", "--ref-wav", str(corpus_dir / "item_000.wav")],
             tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "sweep_steps.csv")
    assert rows[0] == ["steps", "recon_error", "tb_iou"]
    assert [r[0] for r in rows[1:]] == ["1", "4"]
    assert all(float(r[1]) >= 0 for r in rows[1:])


def test_sweep_steps_default_capped_at_schedule(tmp_path, corpus_dir, trained_dir):
    rc = run(["sweep-steps", str(trained_dir / "diffusion.vemt"),
              str(corpus_dir / "item_000.json")], tmp_path)
    assert rc == 0
    assert [r[0] for r in read_csv(tmp_path / "sweep_steps.csv")[1:]] == ["1", "50"]


def test_sweep_steps_recon_error_needs_a_reference(tmp_path, corpus_dir, trained_dir):
    """Without --ref-wav there is no error to report, so recon_error is
    empty; with one it is the log-mel MSE of the sample `sample` draws at
    the same seed and step count against the reference."""
    ckpt, manifest = str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json")
    assert run(["sweep-steps", ckpt, manifest, "--steps", "2"], tmp_path / "bare") == 0
    assert read_csv(tmp_path / "bare" / "sweep_steps.csv")[1][:2] == ["2", ""]

    ref = corpus_dir / "item_000.wav"
    assert run(["sweep-steps", ckpt, manifest, "--steps", "2", "--ref-wav", str(ref)],
               tmp_path / "ref") == 0
    assert run(["sample", ckpt, manifest, "--steps", "2"], tmp_path / "ref") == 0
    gen = load_tensors(tmp_path / "ref" / "item_000.gen.mel.vemt")[0]["mel"]
    want = audiofeat.logmel(load_wav(ref)).values
    n = min(len(gen), len(want))
    err = float(read_csv(tmp_path / "ref" / "sweep_steps.csv")[1][1])
    assert err >= 0
    assert err == pytest.approx(np.mean((gen[:n] - want[:n]) ** 2), abs=1e-6)


def test_sweep_steps_adapter_checkpoint_reads_the_aligner_beside_it(tmp_path, corpus_dir,
                                                                    trained_dir):
    """`sweep-steps` finds an adapter checkpoint's aligner as `sample` does:
    with no aligner.vemt beside the copied adapter.vemt it exits 4, and with
    the trained one there it scores the mel `sample` draws at the same seed
    and step count: its tb_iou is that mel's TB-IoU, and its recon_error
    that mel's log-mel MSE against the reference."""
    ckpt, manifest = _adapter_in(tmp_path, trained_dir), str(corpus_dir / "item_000.json")
    ref, out = corpus_dir / "item_000.wav", tmp_path / "out"
    argv = ["sweep-steps", ckpt, manifest, "--steps", "2", "--ref-wav", str(ref)]
    assert run(argv, out) == 4
    shutil.copy(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt")
    assert run(argv, out) == 0
    assert run(["sample", ckpt, manifest, "--steps", "2"], out) == 0
    tensors, meta = load_tensors(out / "item_000.gen.mel.vemt")
    mel = MelSpectrogram(tensors["mel"], meta["hop"], meta["sample_rate_hz"], meta["n_mels"])
    want = audiofeat.logmel(load_wav(ref)).values
    n = min(len(mel.values), len(want))
    steps, err, tb_iou = read_csv(out / "sweep_steps.csv")[1]
    assert steps == "2" and tb_iou == f"{generation_tb_iou(mel, load_manifest(manifest)):.4f}"
    assert err == f"{np.mean((mel.values[:n] - want[:n]) ** 2):.6f}"


# -- eval ------------------------------------------------------------------


def test_eval_groundtruth_vs_itself(tmp_path, corpus_dir):
    rc = run(["eval", str(corpus_dir), "--metrics", "b_iou,tb_iou,tw"], tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "metrics.csv")
    assert rows[0] == ["video_id", "metric", "value"]
    by_metric = {}
    for vid, metric, value in rows[1:]:
        by_metric.setdefault(metric, []).append(float(value))
    # no generated audio present: reference beats stand in for both sides
    assert all(v == 1.0 for v in by_metric["b_iou"])
    assert all(v >= 0.8 for v in by_metric["tb_iou"])
    assert all(0.0 <= v <= 1.0 for v in by_metric["tw"])


def test_eval_scores_a_silent_generated_clip(tmp_path, corpus_dir):
    """10 s of silence as `item_000.gen.wav` has no beats, so it scores 0
    against the clip's reference beats and its transitions; it used to stop
    `eval` with exit 3 ("no periodicity: flat onset envelope")."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    save_wav(corpus / "item_000.gen.wav",
             Waveform(np.zeros(10 * SAMPLE_RATE, dtype=np.float32), SAMPLE_RATE))
    assert run(["eval", str(corpus), "--metrics", "b_iou,tb_iou,tw"], tmp_path / "out") == 0
    vid = load_manifest(corpus / "item_000.json").video_id
    rows = [r[1:] for r in read_csv(tmp_path / "out" / "metrics.csv")[1:] if r[0] == vid]
    assert rows == [["b_iou", "0.0000"], ["tb_iou", "0.0000"], ["tw", "0.0000"]]


def test_eval_table_with_each_clip_scored_against_the_other(tmp_path, corpus_dir):
    """Each clip's `.gen.wav` is the other clip's audio; the whole table,
    every metric at the default tolerance, is pinned byte for byte."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    shutil.copyfile(corpus / "item_001.wav", corpus / "item_000.gen.wav")
    shutil.copyfile(corpus / "item_000.wav", corpus / "item_001.gen.wav")
    assert run(["eval", str(corpus), "--metrics", "b_iou,tb_iou,tw,fad"], tmp_path / "out") == 0
    assert (tmp_path / "out" / "metrics.csv").read_bytes() == (
        b"video_id,metric,value\r\n"
        b"synth_4e1e4811,b_iou,0.8065\r\n"
        b"synth_4e1e4811,tb_iou,0.8065\r\n"
        b"synth_4e1e4811,tw,0.7613\r\n"
        b"synth_3c153ca0,b_iou,1.0000\r\n"
        b"synth_3c153ca0,tb_iou,1.0000\r\n"
        b"synth_3c153ca0,tw,0.9293\r\n"
        b"(corpus),fad,0.0000\r\n")


def test_eval_tw_takes_storyboards_the_manifest_reader_takes(tmp_path, corpus_dir):
    """Two storyboards of d/2 + 9e-10 s: the second overlaps the first, and
    ends past the clip, by under the reader's 1e-9 s, so the manifest loads
    though its durations sum to d + 1.8e-9. `tw` scores it like every other
    metric; it used to exit 3 ("storyboard durations exceed the video
    duration")."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    path = corpus / "item_000.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["features"]  # its sidecar holds the old storyboards' features
    half = doc["duration_s"] / 2
    doc["storyboards"] = [{"start_s": start, "duration_s": half + 9e-10, "text": f"scene {i}"}
                          for i, start in enumerate((0.0, half))]
    path.write_text(json.dumps(doc), encoding="utf-8")
    ann = load_manifest(path)
    assert sum(sb.duration_s for sb in ann.storyboards) > ann.duration_s + 1e-9
    assert run(["eval", str(corpus), "--metrics", "tw"], tmp_path / "out") == 0
    rows = read_csv(tmp_path / "out" / "metrics.csv")[1:]
    assert [r[1] for r in rows] == ["tw", "tw"] and rows[0][0] == ann.video_id
    assert 0.0 <= float(rows[0][2]) <= 1.0


def test_eval_unknown_metric_exits_3(tmp_path, corpus_dir, capsys):
    """A name outside the tables, or no name at all, is refused with one
    error line that lists the choices, and no metrics.csv is written."""
    for i, metrics in enumerate(["bogus", "", ","]):
        assert run(["eval", str(corpus_dir), "--metrics", metrics], tmp_path / str(i)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: data: ") and err.count("\n") == 1, (metrics, err)
        assert str(sorted(cli._METRIC_NAMES)) in err
        assert not (tmp_path / str(i) / "metrics.csv").exists()


def test_eval_failed_csv_write_leaves_the_old_table(tmp_path, corpus_dir, capsys, monkeypatch):
    """A CSV write that fails after its header (a full disk) exits 3, and
    the previous metrics.csv stays byte for byte."""
    assert run(["eval", str(corpus_dir)], tmp_path) == 0
    before = (tmp_path / "metrics.csv").read_bytes()
    real_writer = csv.writer

    class HeaderThenFullDisk:
        def __init__(self, fh):
            self.inner = real_writer(fh)

        def writerows(self, rows):
            self.inner.writerow(next(iter(rows)))
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(csv, "writer", HeaderThenFullDisk)
    assert run(["eval", str(corpus_dir)], tmp_path) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert (tmp_path / "metrics.csv").read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["metrics.csv", "run_config.json"]


def test_eval_fad_without_generated_audio_is_zero(tmp_path, corpus_dir):
    """With no `.gen.wav`, each reference stands in for its generated clip,
    so the corpus scores exactly 0; `fad` needs no other flag."""
    assert run(["eval", str(corpus_dir), "--metrics", "fad"], tmp_path) == 0
    assert read_csv(tmp_path / "metrics.csv")[1:] == [["(corpus)", "fad", "0.0000"]]


def test_eval_fad_pools_the_log_mel_frames(tmp_path, corpus_dir):
    """`fad` is the Fréchet distance between the log-mel frames of the
    references, pooled over the corpus, and those of their `.gen.wav`s
    (here the references at half amplitude), after the per-clip rows."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    ref, gen = [], []
    for stem in ("item_000", "item_001"):
        wav = load_wav(corpus / f"{stem}.wav")
        assert wav.sample_rate_hz == SAMPLE_RATE
        save_wav(corpus / f"{stem}.gen.wav", Waveform(0.5 * wav.samples, SAMPLE_RATE))
        ref.append(audiofeat.logmel(wav).values)
        gen.append(audiofeat.logmel(load_wav(corpus / f"{stem}.gen.wav")).values)
    want = frechet_distance(np.concatenate(ref), np.concatenate(gen))
    assert want > 1.0
    assert run(["eval", str(corpus), "--metrics", "b_iou,fad"], tmp_path / "out") == 0
    rows = read_csv(tmp_path / "out" / "metrics.csv")[1:]
    assert [r[1] for r in rows] == ["b_iou", "b_iou", "fad"]
    assert rows[-1] == ["(corpus)", "fad", f"{want:.4f}"]


def test_eval_fad_with_silent_generated_audio(tmp_path, corpus_dir):
    """Every `.gen.wav` digital silence: the generated frames are one
    constant log-mel floor, whose covariance is zero before the ridge, and
    the row is still a finite, positive distance."""
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    for stem in ("item_000", "item_001"):
        n = load_wav(corpus / f"{stem}.wav").samples.size
        save_wav(corpus / f"{stem}.gen.wav", Waveform(np.zeros(n, np.float32), SAMPLE_RATE))
    assert run(["eval", str(corpus), "--metrics", "fad"], tmp_path / "out") == 0
    [row] = read_csv(tmp_path / "out" / "metrics.csv")[1:]
    assert row[:2] == ["(corpus)", "fad"] and np.isfinite(float(row[2])) and float(row[2]) > 0


# -- where files land ------------------------------------------------------


def _files(root):
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def test_every_output_lands_under_out_dir(tmp_path, monkeypatch):
    """Each command of a toy pipeline, run from an empty working directory
    with its own --out-dir, adds files only under that directory, and
    `sample --wav-out` its target besides: the working directory stays
    empty, and no file outside the --out-dir appears or goes, so the corpus
    and checkpoint directories a command reads keep their names."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    corpus, adapter = tmp_path / "synth" / "corpus", str(tmp_path / "ckpt" / "adapter.vemt")
    wav, manifest = str(corpus / "item_000.wav"), str(corpus / "item_000.json")
    gen_wav = corpus / "item_000.gen.wav"
    train = ["train", "--corpus", str(corpus), "--steps", "2", "--stage"]
    commands = [
        ("synth", ["synth", "--n", "2"], None),
        ("features", ["features", wav], None),
        ("beats", ["beats", wav], None),
        ("curate", ["curate", str(corpus)], None),
        ("ckpt", train + ["aligner"], None),
        ("ckpt", train + ["diffusion", "--widths", "8", "--t-steps", "50"], None),
        ("ckpt", train + ["adapter"], None),
        ("sample", ["sample", adapter, manifest, "--steps", "2"], None),
        ("sample-wav", ["sample", adapter, manifest, "--steps", "2", "--wav-out", str(gen_wav)],
         gen_wav),
        ("eval", ["eval", str(corpus), "--metrics", "b_iou,tb_iou,tw,fad"], None),
        ("sweep", ["sweep-steps", adapter, manifest, "--steps", "1,2", "--ref-wav", wav], None),
    ]
    for out, argv, wav_out in commands:
        before = _files(tmp_path)
        assert cli.main(["--seed", "3", "--out-dir", str(tmp_path / out)] + argv) == 0, argv
        after = _files(tmp_path)
        assert before <= after, argv
        outside = {f for f in after - before if not f.startswith(out + os.sep)}
        assert outside == ({str(wav_out.relative_to(tmp_path))} if wav_out else set()), argv
        assert os.listdir(cwd) == [], argv
