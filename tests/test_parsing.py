import json

import numpy as np
import pytest

from vem import autograd as ag
from vem import parsing as ps
from vem.container import save_tensors
from vem.errors import ManifestError
from vem.rng import Rng

from helpers import make_annotation


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


def test_text_embed_rejects_tiny_dim():
    with pytest.raises(ValueError):
        ps.toy_text_embed("x", dim=4)


def test_visual_embed_differs_from_text():
    t = ps.toy_text_embed("sunset")
    v = ps.toy_visual_embed("sunset")
    assert np.abs(t - v).max() > 1e-3


# -- time embedder ---------------------------------------------------------


def test_time_embedder_zero_init_gives_bias():
    emb = ps.TimeEmbedder(dim=16, hidden=8)
    emb.b2.data = np.arange(16, dtype=np.float32)
    np.testing.assert_allclose(emb.embed([0.0]).data[0], np.arange(16), atol=1e-7)
    np.testing.assert_allclose(emb.embed([7.5]).data[0], np.arange(16), atol=1e-7)


def test_time_embedder_rejects_negative():
    emb = ps.TimeEmbedder(dim=16, hidden=8, rng=Rng(0))
    with pytest.raises(ValueError):
        emb.embed([-1.0])


def test_time_embedder_gradients():
    emb = ps.TimeEmbedder(dim=6, hidden=5, rng=Rng(3), dtype=np.float64)
    target = Rng(4).gaussian((2, 6))

    def loss_of(emb_):
        out = emb_.embed([1.5, 20.0])
        d = out - target
        return (d * d).mean()

    loss_of(emb).backward()
    eps = 1e-6
    for p in emb.params():
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
    emb = ps.TimeEmbedder(dim=8, hidden=8, rng=Rng(1))
    opt = ag.Adam(emb.params(), lr=1e-2)
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
    emb = ps.TimeEmbedder(dim=16, hidden=16, rng=Rng(7))
    ts = np.linspace(0.0, 60.0, 601)
    out = emb.embed(ts).data
    step_lip = np.abs(np.diff(out, axis=0)).max() / 0.1
    assert step_lip < 5.0  # bounded weights / tanh keep it gentle


# -- manifest io -----------------------------------------------------------


def test_load_valid_manifest(tmp_path):
    ann = ps.load_manifest(write_doc(tmp_path, manifest_doc()))
    assert ann.video_id == "clip-1"
    assert ann.shot_count == 2
    assert ann.storyboards[1].end_s == pytest.approx(10.0)
    assert ann.transitions.times_s == [4.0]
    assert ann.caption_feat.shape == (64,)
    assert ann.frame_features is None


def test_single_storyboard_full_span(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": 0.0, "duration_s": 10.0, "text": "all"}])
    ann = ps.load_manifest(write_doc(tmp_path, doc))
    assert ann.shot_count == 1


def test_overlap_rejected(tmp_path):
    doc = manifest_doc(storyboards=[
        {"start_s": 0.0, "duration_s": 5.0, "text": "a"},
        {"start_s": 4.0, "duration_s": 4.0, "text": "b"},
    ])
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[1]" in str(err.value)


def test_storyboard_not_an_object_rejected(tmp_path):
    doc = manifest_doc(storyboards=[3])
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[0]" in str(err.value)


def test_string_start_rejected(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": "0", "duration_s": 10.0, "text": "a"}])
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "storyboards[0].start_s" in str(err.value)


def test_span_outside_duration_rejected(tmp_path):
    doc = manifest_doc(storyboards=[{"start_s": 8.0, "duration_s": 5.0, "text": "a"}])
    with pytest.raises(ManifestError):
        ps.load_manifest(write_doc(tmp_path, doc))


def test_missing_field_named(tmp_path):
    doc = manifest_doc()
    del doc["duration_s"]
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "duration_s" in str(err.value)


def test_missing_nested_field_named(tmp_path):
    doc = manifest_doc()
    del doc["global"]["caption"]
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "caption" in str(err.value)


def test_invalid_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ManifestError):
        ps.load_manifest(p)


def test_transition_outside_duration_rejected(tmp_path):
    doc = manifest_doc(transitions_s=[12.0])
    with pytest.raises(ManifestError):
        ps.load_manifest(write_doc(tmp_path, doc))


def test_missing_sidecar_rejected(tmp_path):
    doc = manifest_doc(features="nope.vemt")
    with pytest.raises(ManifestError) as err:
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
    assert back.shot_count == ann.shot_count
    for a, b in zip(ann.storyboards, back.storyboards):
        assert (a.start_s, a.duration_s, a.text) == (b.start_s, b.duration_s, b.text)
        np.testing.assert_array_equal(a.text_feat, b.text_feat)
        np.testing.assert_array_equal(a.visual_feat, b.visual_feat)
    np.testing.assert_array_equal(ann.frame_features, back.frame_features)


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
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert "dims" in str(err.value)


@pytest.mark.parametrize("key,value", [
    ("caption_feat", np.float32(1.0)),
    ("frame_features", np.zeros(16, dtype=np.float32)),
    ("frame_features", np.full((8, 16), np.nan, dtype=np.float32)),
    ("storyboard.1.visual_feat", np.array([0.0, np.inf], dtype=np.float32)),
], ids=["0d-vector", "1d-frame-features", "nan-frame-features", "inf-vector"])
def test_malformed_sidecar_feature_named(tmp_path, key, value):
    doc = manifest_doc(features="side.vemt")
    save_tensors(tmp_path / "side.vemt", {key: np.asarray(value)})
    with pytest.raises(ManifestError) as err:
        ps.load_manifest(write_doc(tmp_path, doc))
    assert err.value.field == key


# -- frame features --------------------------------------------------------


def test_build_frame_features_shape_and_impulses():
    ann = make_annotation(duration_s=10.0, bounds=(0.0, 4.0, 10.0),
                          transitions=(4.0,), with_frames=False)
    ff = ps.build_frame_features(ann)
    assert ff.shape == (8, 160)
    assert ff[0, 64] == 1.0  # floor(4.0 * 16)
    assert ff[0, 63] == 0.5 and ff[0, 65] == 0.5
    assert ff[0].sum() == 2.0  # one impulse plus its shoulders
