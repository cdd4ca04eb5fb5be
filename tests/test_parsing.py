import contextlib
import json

import numpy as np
import pytest

from vem import autograd as ag
from vem import parsing as ps
from vem.container import save_tensors
from vem.errors import DataError
from vem.rng import Rng

from helpers import frame_impulses_loop, make_annotation, params_of, with_dtype


def manifest_doc(**overrides):
    doc = {
        "video_id": "clip-1",
        "duration_s": 10.0,
        "global": {"caption": "sunset drive", "tags": ["calm", "warm"]},
        "storyboards": [
            {"start_s": 0.0, "duration_s": 4.0, "text": "car on road"},
            {"start_s": 4.0, "duration_s": 6.0, "text": "sunset sky"},
        ],
        "transitions_s": [4.0],
    }
    doc.update(overrides)
    return doc


def write_doc(tmp_path, doc, name="m.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


# -- toy embedders ---------------------------------------------------------


def test_text_embed_deterministic_and_normalized():
    a = ps.toy_text_embed("calm piano sunset")
    b = ps.toy_text_embed("calm piano sunset")
    np.testing.assert_array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)


def test_text_embed_bag_semantics():
    a = ps.toy_text_embed("calm piano")
    b = ps.toy_text_embed("piano calm")
    np.testing.assert_array_equal(a, b)


def test_text_embed_empty_is_zero():
    assert not ps.toy_text_embed("").any()


def test_visual_embed_differs_from_text():
    t = ps.toy_text_embed("sunset")
    v = ps.toy_visual_embed("sunset")
    assert np.abs(t - v).max() > 1e-3


# -- time embedder ---------------------------------------------------------


def test_time_embedder_zero_init_gives_bias():
    emb = ps.TimeEmbedder(dim=16)
    emb.lin2.b.data = np.arange(16, dtype=np.float32)
    np.testing.assert_allclose(emb.embed([0.0]).data[0], np.arange(16), atol=1e-7)
    np.testing.assert_allclose(emb.embed([7.5]).data[0], np.arange(16), atol=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_time_embedder_matches_hand_rolled_oracle(seed):
    """The two Linears draw and scale as the hand-rolled MLP they replaced:
    w1 ~ N(0, 1), then w2 ~ N(0, 1) / sqrt(TIME_HIDDEN) from the same
    stream, zero biases and tanh between. Weights and outputs agree bit for
    bit."""
    r = Rng(seed)
    w1 = r.gaussian((1, ps.TIME_HIDDEN)).astype(np.float32)
    w2 = (r.gaussian((ps.TIME_HIDDEN, ps.FEATURE_DIM)) / np.sqrt(ps.TIME_HIDDEN)).astype(np.float32)
    b1 = np.zeros(ps.TIME_HIDDEN, dtype=np.float32)
    b2 = np.zeros(ps.FEATURE_DIM, dtype=np.float32)
    emb = ps.TimeEmbedder(rng=Rng(seed))
    for got, want in ((emb.lin1.w, w1), (emb.lin1.b, b1), (emb.lin2.w, w2), (emb.lin2.b, b2)):
        assert got.data.dtype == want.dtype and got.data.tobytes() == want.tobytes()
    times = [0.0, 0.4, 3.5, 12.25, 119.0]
    x = ag.Var(np.asarray(times, dtype=np.float32)[:, None] * ps.TimeEmbedder.INPUT_SCALE)
    want = ag.linear(ag.linear(x, w1, b1).tanh(), w2, b2).data
    got = emb.embed(times).data
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_time_embedder_gradients():
    emb = with_dtype(ps.TimeEmbedder(dim=6, rng=Rng(3)), np.float64)
    target = Rng(4).gaussian((2, 6))

    def loss_of(emb_):
        out = emb_.embed([1.5, 20.0])
        d = out - target
        return (d * d).mean()

    loss_of(emb).backward()
    eps = 1e-6
    for p in params_of(emb):
        g = p.grad
        flat = p.data.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss_of(emb).data)
            flat[i] = orig - eps
            lo = float(loss_of(emb).data)
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(num).max(), np.abs(g).max(), 1e-12)
        assert np.abs(g.ravel() - num).max() / denom < 1e-3


def test_time_embedder_distinguishes_times_after_training():
    emb = ps.TimeEmbedder(dim=8, rng=Rng(1))
    opt = ag.Adam(dict(emb.named_params()), lr=1e-2)
    want3 = np.ones(8, dtype=np.float32)
    want30 = -np.ones(8, dtype=np.float32)
    for _ in range(100):
        opt.zero_grad()
        out = emb.embed([3.0, 30.0])
        d = out - np.stack([want3, want30])
        (d * d).mean().backward()
        opt.step()
    d = np.abs(emb.embed([3.0]).data[0] - emb.embed([30.0]).data[0]).max()
    assert d > 0.5


def test_time_embedder_smooth():
    emb = ps.TimeEmbedder(dim=16, rng=Rng(7))
    ts = np.linspace(0.0, 60.0, 601)
    out = emb.embed(ts).data
    step_lip = np.abs(np.diff(out, axis=0)).max() / 0.1
    assert step_lip < 5.0  # bounded weights / tanh keep it gentle


# -- manifest io -----------------------------------------------------------


def test_load_valid_manifest(tmp_path):
    ann = ps.load_manifest(write_doc(tmp_path, manifest_doc()))
    assert ann.video_id == "clip-1"
    assert len(ann.storyboards) == 2
    assert ann.storyboards[1].end_s == pytest.approx(10.0)
    assert ann.transitions.times_s == [4.0]
    assert ann.caption_feat.shape == (64,)
    np.testing.assert_array_equal(ann.frame_features, ps.build_frame_features(ann))


def test_single_storyboard_full_span(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": 0.0, "duration_s": 10.0, "text": "all"}])
    ann = ps.load_manifest(write_doc(tmp_path, doc))
    assert len(ann.storyboards) == 1


def test_overlap_rejected(tmp_path):
    doc = manifest_doc(storyboards=[
        {"start_s": 0.0, "duration_s": 5.0, "text": "a"},
        {"start_s": 4.0, "duration_s": 4.0, "text": "b"},
    ])
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[1]" in str(err.value)


def test_storyboard_not_an_object_rejected(tmp_path):
    doc = manifest_doc(storyboards=[3])
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[0]" in str(err.value)


def test_string_start_rejected(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": "0", "duration_s": 10.0, "text": "a"}])
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[0].start_s" in str(err.value)


@pytest.mark.parametrize("field,doc", [
    ("duration_s", manifest_doc(duration_s=True, transitions_s=[],
                                storyboards=[{"start_s": 0.0, "duration_s": 1.0, "text": "a"}])),
    ("storyboards[0].start_s",
     manifest_doc(storyboards=[{"start_s": False, "duration_s": 10.0, "text": "a"}])),
    ("storyboards[0].duration_s",
     manifest_doc(storyboards=[{"start_s": 0.0, "duration_s": True, "text": "a"}])),
    ("transitions_s", manifest_doc(transitions_s=[True])),
])
def test_boolean_number_rejected(tmp_path, field, doc):
    """JSON true and false are not numbers, though Python counts a bool as
    an int: each of these documents would otherwise load, as 1 or 0."""
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert str(err.value).startswith(f"{field}: ")


def test_span_outside_duration_rejected(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": 8.0, "duration_s": 5.0, "text": "a"}])
    with pytest.raises(DataError):
        ps.load_manifest(write_doc(tmp_path, doc))


def test_missing_field_named(tmp_path):
    doc = manifest_doc()
    del doc["duration_s"]
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "duration_s" in str(err.value)


def test_missing_nested_field_named(tmp_path):
    doc = manifest_doc()
    del doc["global"]["caption"]
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "caption" in str(err.value)


def test_invalid_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        ps.load_manifest(p)


def test_deeply_nested_json_rejected(tmp_path):
    p = tmp_path / "nested.json"
    p.write_text("[" * 200_000)
    with pytest.raises(DataError, match="invalid JSON"):
        ps.load_manifest(p)


def test_transition_outside_duration_rejected(tmp_path):
    doc = manifest_doc(transitions_s=[12.0])
    with pytest.raises(DataError):
        ps.load_manifest(write_doc(tmp_path, doc))


def test_missing_sidecar_rejected(tmp_path):
    doc = manifest_doc(features="nope.vemt")
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "sidecar" in str(err.value)


def test_round_trip_structural_equality(tmp_path):
    ann = make_annotation(duration_s=12.0, bounds=(0.0, 3.0, 7.5, 12.0),
                          transitions=(3.0, 7.5), video_id="rt")
    path = tmp_path / "rt.json"
    ps.save_manifest(path, ann)
    back = ps.load_manifest(path)
    assert back.video_id == ann.video_id
    assert back.duration_s == ann.duration_s
    assert back.global_caption == ann.global_caption
    assert back.emotion_tags == ann.emotion_tags
    assert back.transitions.times_s == ann.transitions.times_s
    assert len(back.storyboards) == len(ann.storyboards)
    for a, b in zip(ann.storyboards, back.storyboards):
        assert (a.start_s, a.duration_s, a.text) == (b.start_s, b.duration_s, b.text)
        np.testing.assert_array_equal(a.text_feat, b.text_feat)
        np.testing.assert_array_equal(a.visual_feat, b.visual_feat)
    np.testing.assert_array_equal(ann.frame_features, back.frame_features)


@contextlib.contextmanager
def _full_disk(path):
    raise OSError(28, "No space left on device")
    yield


@pytest.mark.parametrize("fault", ["unserializable", "json-unwritable"])
def test_failed_save_leaves_the_pair_it_overwrites(tmp_path, monkeypatch, fault):
    """An annotation `json` cannot serialize, or a JSON that cannot be
    written, fails before the sidecar is replaced; the old manifest and
    sidecar stay byte for byte."""
    path = tmp_path / "m.json"
    ps.save_manifest(path, make_annotation(video_id="old"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = make_annotation(duration_s=12.0, bounds=(0.0, 3.0, 12.0), transitions=(3.0,),
                          video_id="new")
    if fault == "unserializable":
        new.emotion_tags = ["ok", object()]
    else:
        monkeypatch.setattr(ps, "open_replacing", _full_disk)
    with pytest.raises((TypeError, OSError)):
        ps.save_manifest(path, new)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert ps.load_manifest(path).video_id == "old"


def test_save_onto_a_directory_leaves_the_sidecar(tmp_path):
    """A manifest path that is a directory is refused before the sidecar,
    written inside the manifest's block, is replaced."""
    path = tmp_path / "m.json"
    ps.save_manifest(path, make_annotation(video_id="old"))
    before = (tmp_path / "m.feat.vemt").read_bytes()
    path.unlink()
    path.mkdir()
    with pytest.raises(IsADirectoryError):
        ps.save_manifest(path, make_annotation(video_id="new"))
    assert (tmp_path / "m.feat.vemt").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.feat.vemt", "m.json"]


def test_sidecar_features_override_toy(tmp_path):
    doc = manifest_doc(features="side.vemt")
    custom = np.full(32, 0.25, dtype=np.float32)
    tensors = {"caption_feat": custom, "tag_feat": custom,
               "storyboard.0.text_feat": custom, "storyboard.0.visual_feat": custom,
               "storyboard.1.text_feat": custom, "storyboard.1.visual_feat": custom}
    save_tensors(tmp_path / "side.vemt", tensors)
    ann = ps.load_manifest(write_doc(tmp_path, doc))
    np.testing.assert_array_equal(ann.caption_feat, custom)
    assert ann.storyboards[0].text_feat.shape == (32,)


def test_inconsistent_sidecar_dims_rejected(tmp_path):
    doc = manifest_doc(features="side.vemt")
    save_tensors(tmp_path / "side.vemt",
                 {"caption_feat": np.zeros(32, dtype=np.float32)})
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "dims" in str(err.value)


@pytest.mark.parametrize("count", [ps.MAX_STORYBOARDS, ps.MAX_STORYBOARDS + 1])
def test_storyboard_count_bound(tmp_path, count):
    """SG-CAtt's mask and bias grow with the storyboard count, so a manifest
    may hold MAX_STORYBOARDS of them and no more."""
    doc = manifest_doc(duration_s=count * 0.125, storyboards=[
        {"start_s": i * 0.125, "duration_s": 0.125, "text": f"shot {i}"} for i in range(count)])
    path = write_doc(tmp_path, doc)
    if count > ps.MAX_STORYBOARDS:
        with pytest.raises(DataError, match=r"^storyboards: 683 is more than the 682 allowed"):
            ps.load_manifest(path)
    else:
        assert len(ps.load_manifest(path).storyboards) == count


@pytest.mark.parametrize("key,value", [
    ("caption_feat", np.float32(1.0)),
    ("frame_features", np.zeros(16, dtype=np.float32)),
    ("frame_features", np.full((8, 16), np.nan, dtype=np.float32)),
    ("storyboard.1.visual_feat", np.array([0.0, np.inf], dtype=np.float32)),
], ids=["0d-vector", "1d-frame-features", "nan-frame-features", "inf-vector"])
def test_malformed_sidecar_feature_named(tmp_path, key, value):
    doc = manifest_doc(features="side.vemt")
    save_tensors(tmp_path / "side.vemt", {key: np.asarray(value)})
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert str(err.value).startswith(f"{key}: ")


# -- frame features --------------------------------------------------------


def test_build_frame_features_shape_and_impulses():
    ann = make_annotation(duration_s=10.0, bounds=(0.0, 4.0, 10.0), transitions=(4.0,))
    ff = ps.build_frame_features(ann)
    assert ff.shape == (8, 160)
    assert ff[0, 64] == 1.0  # floor(4.0 * 16)
    assert ff[0, 63] == 0.5 and ff[0, 65] == 0.5
    assert ff[0].sum() == 2.0  # one impulse plus its shoulders


@pytest.mark.parametrize("transitions", [
    (4.0, 4.0625), (4.0, 4.03), (0.0,), (10.0,), (), (0.0, 0.0625, 5.0, 5.01, 9.99, 10.0),
], ids=["adjacent-frames", "one-frame", "at-zero", "at-clip-end", "none", "mixed"])
def test_frame_impulses_match_the_per_event_loop(transitions):
    """Channel 0, built from the one 16 fps raster, is bit-identical to the
    per-transition loop it replaced."""
    ann = make_annotation(transitions=transitions)
    got = ps.build_frame_features(ann)[0]
    want = frame_impulses_loop(ann)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_storyboard_covers_its_start_but_not_its_end():
    sb = make_annotation(bounds=(0.0, 2.0, 3.5, 10.0)).storyboards[1]
    times = np.array([np.nextafter(2.0, 0.0), 2.0, 3.0, np.nextafter(3.5, 0.0), 3.5, 4.0])
    assert sb.covers(times).tolist() == [False, True, True, True, False, False]


@pytest.mark.parametrize("duration,frames", [
    (10.0, 1), (10.0, 159), (10.0, 161), (10.0, 320), (10.03, 160), (10.03, 162),
])
def test_sidecar_frame_count_off_the_raster_refused(tmp_path, duration, frames):
    """A sidecar's frame_features must have exactly ceil(duration * 16)
    frames; the error names the field and both counts."""
    doc = manifest_doc(duration_s=duration, features="side.vemt")
    save_tensors(tmp_path / "side.vemt",
                 {"frame_features": np.zeros((8, frames), dtype=np.float32)})
    with pytest.raises(DataError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    msg = str(err.value)
    assert msg.startswith("frame_features: ")
    expected = int(np.ceil(duration * 16))
    assert f"{frames} frames" in msg and msg.endswith(f"has {expected}")


@pytest.mark.parametrize("duration,frames", [(10.0, 160), (10.03, 161)])
def test_sidecar_frame_count_on_the_raster_loads(tmp_path, duration, frames):
    doc = manifest_doc(duration_s=duration, features="side.vemt")
    ff = Rng(2).gaussian((8, frames)).astype(np.float32)
    save_tensors(tmp_path / "side.vemt", {"frame_features": ff})
    ann = ps.load_manifest(write_doc(tmp_path, doc))
    np.testing.assert_array_equal(ann.frame_features, ff)
