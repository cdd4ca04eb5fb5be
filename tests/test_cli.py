import csv
import json
import os
import shutil

import numpy as np
import pytest
from helpers import click_track

from vem import cli
from vem.audiofeat import SAMPLE_RATE, Waveform, save_wav
from vem.container import load_tensors, save_tensors
from vem.curation import MIN_SYNTH_S
from vem.parsing import build_frame_features, load_manifest
from vem.rng import Rng
from vem.tbalign import AlignerNet
from vem.training import TrainConfig, save_aligner


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
    """All three stages trained at toy size through the CLI."""
    out = tmp_path_factory.mktemp("cli_train")
    common = ["--out-dir", str(out), "--seed", "3"]
    base = ["train", "--corpus", str(corpus_dir), "--widths", "8",
            "--t-steps", "50", "--steps", "6"]
    assert cli.main(common + base + ["--stage", "aligner"]) == 0
    assert cli.main(common + base + ["--stage", "diffusion"]) == 0
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
    rc = run(["train", "--stage", "adapter", "--corpus", str(corpus_dir),
              "--steps", "2", "--widths", "8", "--t-steps", "50"], tmp_path)
    assert rc == 4


@pytest.mark.parametrize("argv", [
    ["train", "--stage", "aligner", "--corpus", "c", "--steps", "-1"],
    ["train", "--stage", "aligner", "--corpus", "c", "--steps", "0"],
    ["train", "--stage", "aligner", "--corpus", "c", "--widths", "a"],
    ["train", "--stage", "aligner", "--corpus", "c", "--widths", "8,0"],
    ["sweep-steps", "ckpt.vemt", "m.json", "--steps", "a"],
    ["sweep-steps", "ckpt.vemt", "m.json", "--steps", "1,,2"],
    ["train", "--stage", "aligner", "--corpus", "c", "--t-steps", "-3"],
    ["sample", "ckpt.vemt", "m.json", "--steps", "0"],
], ids=["steps-negative", "steps-zero", "widths-word", "widths-zero", "sweep-word",
        "sweep-empty-item", "t-steps-negative", "sample-steps-zero"])
def test_bad_numbers_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv, tmp_path)
    assert exc.value.code == 2


def test_run_config_echo(tmp_path):
    run(["beats", str(tmp_path / "nope.wav")], tmp_path)   # fails late, echoes first
    doc = json.load(open(tmp_path / "run_config.json", encoding="utf-8"))
    assert doc["cmd"] == "beats" and "seed" in doc


# -- features / beats ------------------------------------------------------


def test_features_writes_container(tmp_path):
    wav, _ = click_track(120.0, duration_s=4.0)
    save_wav(tmp_path / "clip.wav", wav)
    assert run(["features", str(tmp_path / "clip.wav")], tmp_path) == 0
    tensors, meta = load_tensors(tmp_path / "clip.mel.vemt")
    assert tensors["mel"].shape[1] == 60
    assert meta["sample_rate_hz"] == SAMPLE_RATE


def test_beats_writes_events_json(tmp_path):
    wav, beats = click_track(120.0, duration_s=10.0)
    save_wav(tmp_path / "clk.wav", wav)
    assert run(["beats", str(tmp_path / "clk.wav")], tmp_path) == 0
    doc = json.load(open(tmp_path / "clk.beats.json", encoding="utf-8"))
    assert abs(len(doc["events"]) - len(beats)) <= 1
    assert doc["duration_s"] == pytest.approx(10.0)


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


def test_curate_report(tmp_path, corpus_dir):
    assert run(["curate", str(corpus_dir)], tmp_path) == 0
    rows = read_csv(tmp_path / "curation.csv")
    assert rows[0] == ["video_id", "status", "reasons"]
    assert len(rows) == 3
    assert all(r[1] in ("pass", "fail") for r in rows[1:])


@pytest.mark.parametrize("dur", [("0.01", "0.02"), ("16", "10"), ("4.0", "16"),
                                 (str(MIN_SYNTH_S - 1e-3), "10"), ("nan", "nan"),
                                 ("5", "nan"), ("5", "inf")],
                         ids=["too-short", "reversed", "4-s", "just-under-bound", "nan",
                              "nan-max", "inf-max"])
def test_synth_bad_durations_exit_3(tmp_path, dur):
    rc = run(["synth", "--n", "1", "--dur-min", dur[0], "--dur-max", dur[1]], tmp_path)
    assert rc == 3
    assert not (tmp_path / "corpus").exists()


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


def test_sample_adapter_checkpoint_needs_aligner(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_000.json")
    rc = run(["sample", str(trained_dir / "adapter.vemt"), manifest,
              "--steps", "3", "--aligner", str(tmp_path / "missing.vemt")], tmp_path)
    assert rc == 4
    rc = run(["sample", str(trained_dir / "adapter.vemt"), manifest,
              "--steps", "3", "--aligner", str(trained_dir / "aligner.vemt")], tmp_path)
    assert rc == 0


def test_sample_bad_checkpoint_meta_exits_3(tmp_path, corpus_dir, trained_dir):
    tensors, meta = load_tensors(trained_dir / "diffusion.vemt")
    save_tensors(tmp_path / "bad.vemt", tensors, dict(meta, widths=[]))
    rc = run(["sample", str(tmp_path / "bad.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2"], tmp_path)
    assert rc == 3


def test_sample_other_width_aligner_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    save_aligner(tmp_path / "a4.vemt", AlignerNet(8, hidden=4), TrainConfig())
    rc = run(["sample", str(trained_dir / "adapter.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--aligner", str(tmp_path / "a4.vemt")], tmp_path)
    assert rc == 3
    assert "shape mismatch for conv1.w" in capsys.readouterr().err


def test_train_adapter_zero_latent_std_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    """A diffusion checkpoint whose latent_std is 0 would turn every stage-C
    latent into NaN; it is refused before any training."""
    tensors, meta = load_tensors(trained_dir / "diffusion.vemt")
    save_tensors(tmp_path / "diffusion.vemt", tensors, dict(meta, latent_std=0.0))
    shutil.copy(trained_dir / "aligner.vemt", tmp_path / "aligner.vemt")
    rc = run(["train", "--corpus", str(corpus_dir), "--widths", "8", "--t-steps", "50",
              "--steps", "2", "--stage", "adapter"], tmp_path)
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


def test_eval_unknown_metric_exits_3(tmp_path, corpus_dir):
    assert run(["eval", str(corpus_dir), "--metrics", "bogus"], tmp_path) == 3


def test_eval_distributional_metrics(tmp_path):
    r = Rng(6)
    raw = r.uniform(40).reshape(10, 4) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    save_tensors(tmp_path / "a.vemt",
                 {"embeddings": r.gaussian((30, 5)), "probs": probs})
    save_tensors(tmp_path / "b.vemt",
                 {"embeddings": r.gaussian((30, 5)) + 1.0, "probs": probs})
    os.makedirs(tmp_path / "empty")
    rc = run(["eval", str(tmp_path / "empty"), "--metrics", "fad,is,kld",
              "--emb-a", str(tmp_path / "a.vemt"), "--emb-b", str(tmp_path / "b.vemt")],
             tmp_path)
    assert rc == 0
    rows = read_csv(tmp_path / "metrics.csv")
    vals = {r[1]: float(r[2]) for r in rows[1:]}
    assert set(vals) == {"fad", "is", "kld"}
    assert vals["fad"] > 1.0           # unit mean shift in 5-D
    assert vals["kld"] == 0.0          # identical prob rows
    assert vals["is"] >= 1.0


def test_eval_distributional_requires_containers(tmp_path):
    os.makedirs(tmp_path / "empty")
    assert run(["eval", str(tmp_path / "empty"), "--metrics", "fad"], tmp_path) == 3
