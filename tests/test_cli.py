import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import click_track

from vem import cli
from vem.audiofeat import MAX_DURATION_S, SAMPLE_RATE, Waveform, resample, save_wav
from vem.container import load_tensors, save_tensors
from vem.curation import MIN_SYNTH_S, CurationRule
from vem.diffusion import MAX_T
from vem.errors import DataError
from vem.parsing import build_frame_features, load_manifest
from vem.rng import Rng
from vem.tbalign import ALIGNER_HIDDEN
from vem.training import TrainConfig
from vem.tunet import TEMB_DIM


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
    ["curate", "c", "--max-shots", "0"],
], ids=["steps-negative", "steps-zero", "widths-word", "widths-zero", "sweep-word",
        "sweep-empty-item", "t-steps-negative", "sample-steps-zero", "synth-n-zero",
        "curate-max-shots-zero"])
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


# -- features / beats ------------------------------------------------------


def test_features_writes_container(tmp_path):
    wav, _ = click_track(120.0, duration_s=4.0)
    save_wav(tmp_path / "clip.wav", wav)
    assert run(["features", str(tmp_path / "clip.wav")], tmp_path) == 0
    tensors, meta = load_tensors(tmp_path / "clip.mel.vemt")
    assert tensors["mel"].shape[1] == 60
    assert meta["sample_rate_hz"] == SAMPLE_RATE


def test_features_huge_header_rate_exits_3(tmp_path, capsys):
    """A prime 4,294,967,291 Hz header would need a 2.5 TiB filter."""
    path = tmp_path / "clip.wav"
    save_wav(path, Waveform(np.zeros(2048, dtype=np.float32), SAMPLE_RATE))
    raw = bytearray(path.read_bytes())
    raw[24:28] = (4_294_967_291).to_bytes(4, "little")  # fmt chunk sample rate
    path.write_bytes(bytes(raw))
    assert run(["features", str(path)], tmp_path) == 3
    assert "2^17" in capsys.readouterr().err


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
    for v in _WAV_HEADER_VALUES if v < 2 ** (8 * width)])
def test_features_wav_header_boundary_values(tmp_path, monkeypatch, capsys, clip_wav_bytes,
                                             field, value):
    """Each fmt/data header field of a 7.5 s clip set to a boundary value:
    `vem features` writes a mel or exits 3 with one error line. A rate of
    32 Hz or less makes the clip last past MAX_DURATION_S, which is refused
    before the resampler would build it (gigabytes at a few Hz)."""
    path = tmp_path / "clip.wav"
    offset, width = _WAV_HEADER_FIELDS[field]
    raw = bytearray(clip_wav_bytes)
    raw[offset:offset + width] = value.to_bytes(width, "little")
    path.write_bytes(bytes(raw))

    def bounded_resample(w, target_hz):
        assert w.duration_s <= MAX_DURATION_S, f"resampling {w.duration_s:.0f} s of audio"
        return resample(w, target_hz)

    monkeypatch.setattr(cli, "resample", bounded_resample)
    rc = run(["features", str(path)], tmp_path)
    err = capsys.readouterr().err
    assert rc in (0, 3), err
    if rc == 3:
        assert err.startswith("error: data: ") and err.count("\n") == 1, err


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


@pytest.mark.parametrize("argv", [
    lambda d: ["curate", d, "--min-snr-db", "nan"],
    lambda d: ["eval", d, "--tol-s", "nan"],
], ids=["curate-min-snr", "eval-tol"])
def test_nan_thresholds_exit_3(tmp_path, corpus_dir, capsys, argv):
    assert run(argv(str(corpus_dir)), tmp_path) == 3
    assert capsys.readouterr().err.startswith("error: data: ")


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


def test_sample_default_steps_capped_at_schedule(tmp_path, corpus_dir, trained_dir):
    """The default 200 steps drop to the checkpoint's T (50); an explicit
    count above T is still an error."""
    ckpt, manifest = str(trained_dir / "diffusion.vemt"), str(corpus_dir / "item_000.json")
    assert run(["sample", ckpt, manifest], tmp_path) == 0
    _, meta = load_tensors(tmp_path / "item_000.gen.mel.vemt")
    assert meta["steps"] == 50
    assert run(["sample", ckpt, manifest, "--steps", "51"], tmp_path) == 3


def test_sample_adapter_checkpoint_needs_aligner(tmp_path, corpus_dir, trained_dir):
    manifest = str(corpus_dir / "item_000.json")
    rc = run(["sample", str(trained_dir / "adapter.vemt"), manifest,
              "--steps", "3", "--aligner", str(tmp_path / "missing.vemt")], tmp_path)
    assert rc == 4
    rc = run(["sample", str(trained_dir / "adapter.vemt"), manifest,
              "--steps", "3", "--aligner", str(trained_dir / "aligner.vemt")], tmp_path)
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
                                                         capsys):
    """A finite spectrogram too large for the vocoder to invert (meta
    latent_std 2**63) exits 3 before either output is written."""
    ckpt = _edited(trained_dir / "diffusion.vemt", tmp_path / "d.vemt", latent_std=2**63)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = run(["sample", ckpt, str(corpus_dir / "item_000.json"), "--steps", "2",
                  "--wav-out", str(tmp_path / "gen.wav")], tmp_path)
    assert rc == 3
    assert "non-finite samples" in capsys.readouterr().err
    assert not (tmp_path / "item_000.gen.mel.vemt").exists()
    assert not (tmp_path / "gen.wav").exists()


def test_sample_aligner_without_conv1_exits_3(tmp_path, corpus_dir, trained_dir, capsys):
    aligner = _edited(trained_dir / "aligner.vemt", tmp_path / "a.vemt",
                      lambda t: t.pop("conv1.w"), feat_dim=10**9)
    rc = run(["sample", str(trained_dir / "adapter.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--aligner", aligner], tmp_path)
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
    (4 for a stage tag) with one error line and no traceback. The aligner
    goes in through --aligner beside an adapter checkpoint."""
    value = _BOUNDARY_VALUES[value]
    tensors, meta = load_tensors(trained_dir / f"{ckpt}.vemt")
    meta.pop(key) if value is _MISSING else meta.update({key: value})
    save_tensors(tmp_path / "ckpt.vemt", tensors, meta)
    argv = ["sample", str(tmp_path / "ckpt.vemt"), str(corpus_dir / "item_000.json"),
            "--steps", "1"]
    if ckpt == "aligner":
        argv[1:2] = [str(trained_dir / "adapter.vemt")]
        argv += ["--aligner", str(tmp_path / "ckpt.vemt")]
    rc = run(argv, tmp_path)
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


def _one_shot_manifest(path, duration_s):
    path.write_text(json.dumps({
        "video_id": "long", "duration_s": duration_s,
        "global": {"caption": "one long take", "tags": ["calm"]},
        "storyboards": [{"start_s": 0.0, "duration_s": duration_s, "text": "one shot"}],
        "transitions_s": []}))
    return str(path)


def test_sample_overlong_latent_exits_3_under_memory_limit(tmp_path, trained_dir):
    """A valid 3000 s manifest needs a 46,875-frame latent, whose attention
    matrix alone is 8.2 GiB: under a 2.5 GB address-space limit `vem sample`
    exits 3 with one error line, not with a MemoryError traceback."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2_500_000_000, 2_500_000_000))\n"
            "from vem import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["--out-dir", str(tmp_path), "sample", str(trained_dir / "diffusion.vemt"),
            _one_shot_manifest(tmp_path / "long.json", 3000.0), "--steps", "1"]
    proc = subprocess.run([sys.executable, "-c", code] + argv, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: data: latent length 46875 exceeds")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_sample_longest_curated_clip(tmp_path, trained_dir):
    manifest = _one_shot_manifest(tmp_path / "long.json", CurationRule().max_duration_s)
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
    _narrowed(trained_dir / "aligner.vemt", tmp_path / "a4.vemt", ALIGNER_HIDDEN, 4)
    rc = run(["sample", str(trained_dir / "adapter.vemt"), str(corpus_dir / "item_000.json"),
              "--steps", "2", "--aligner", str(tmp_path / "a4.vemt")], tmp_path)
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


def _probs(rows):
    raw = Rng(6).uniform(4 * rows).reshape(rows, 4) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def _with_nan(a):
    a[1, 2] = np.nan
    return a


@pytest.mark.parametrize("metric,entry,value", [
    ("fad", "embeddings", _with_nan(Rng(7).gaussian((30, 5)))),
    ("is", "probs", _with_nan(_probs(10))),
    ("kld", "probs", _with_nan(_probs(10))),
    ("is", "probs", _probs(0)),
    ("kld", "probs", _probs(0)),
], ids=["fad-nan", "is-nan", "kld-nan", "is-no-rows", "kld-no-rows"])
def test_eval_refuses_non_finite_or_empty_rows(tmp_path, metric, entry, value):
    """A NaN entry or a matrix of zero rows is a DataError (exit 3), not a
    scipy traceback or a `nan` in metrics.csv."""
    for side in "ab":
        save_tensors(tmp_path / f"{side}.vemt", {entry: value})
    os.makedirs(tmp_path / "empty")
    rc = run(["eval", str(tmp_path / "empty"), "--metrics", metric,
              "--emb-a", str(tmp_path / "a.vemt"), "--emb-b", str(tmp_path / "b.vemt")],
             tmp_path)
    assert rc == 3
    out = tmp_path / "metrics.csv"
    assert not out.exists() or "nan" not in out.read_text(encoding="utf-8")
