import numpy as np
import pytest
from helpers import click_track, make_annotation, use_unfused_ops

from vem import autograd as ag
from vem import curation as cu
from vem import training as tr
from vem.audiofeat import SAMPLE_RATE, Waveform, logmel
from vem.diffusion import latent_encode, make_schedule, training_loss
from vem.parsing import TimeEmbedder
from vem.sgcatt import assemble_conditions, build_mask
from vem.tunet import TUNet
from vem.errors import DataError, StageOrderError
from vem.container import load_tensors, save_tensors
from vem.rng import Rng
from vem.tbalign import ALIGNER_HIDDEN, AlignerNet
from vem.timeline import DEFAULT_FPS


def tiny_cfg(**kw):
    base = dict(seed=0, widths=(8,), T=50, aligner_steps=60, diffusion_steps=12, adapter_steps=8)
    base.update(kw)
    return tr.TrainConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return cu.synth_corpus(2, seed=21)


@pytest.fixture(scope="module")
def stage_b(corpus):
    return tr.train_stage_diffusion(corpus, tiny_cfg())


# -- labels ----------------------------------------------------------------


def test_intersection_labels_structure(corpus):
    ann, wav = corpus[0]
    labels = tr.intersection_labels(ann, wav)
    assert set(np.unique(labels)).issubset({0, 1})
    assert len(labels) == int(np.ceil(ann.duration_s * DEFAULT_FPS))
    # every active frame contains an annotated transition
    tr_frames = {int(t * DEFAULT_FPS) for t in ann.transitions.times_s}
    active = set(np.nonzero(labels)[0].tolist())
    assert active <= tr_frames
    # transitions sit on real beats here, so a decent share intersects
    assert len(active) >= len(tr_frames) // 2


# -- stage A ---------------------------------------------------------------


def test_stage_aligner_learns(corpus):
    net, losses = tr.train_stage_aligner(corpus, tiny_cfg())
    assert len(losses) == 60
    assert losses[-1] < losses[0]
    assert net.feat_dim == corpus[0][0].frame_features.shape[0]


def test_stage_aligner_trains_on_transition_at_clip_end():
    # 10.0 s * 16 fps is whole, so the transition at 10.0 s floors one frame
    # past the raster and lands on the last frame instead
    wav, _ = click_track(120.0, duration_s=10.0)
    ann = make_annotation(10.0, (0.0, 4.0, 10.0), (4.0, 10.0))
    assert len(tr.intersection_labels(ann, wav)) == 160
    net, losses = tr.train_stage_aligner([(ann, wav)], tiny_cfg(aligner_steps=3))
    assert len(losses) == 3 and all(np.isfinite(losses))


def test_stage_aligner_empty_corpus():
    with pytest.raises(DataError):
        tr.train_stage_aligner([], tiny_cfg())


# -- stage B ---------------------------------------------------------------


def test_stage_diffusion_outputs(stage_b):
    unet, temb, meta, losses = stage_b
    assert len(losses) == 12 and all(np.isfinite(losses))
    assert set(meta) == {"stage", "T", "widths", "cond_dim", "latent_mean", "latent_std"}
    assert meta["stage"] == "diffusion"
    assert meta["latent_std"] > 0
    assert unet.adapters is None


def test_stage_diffusion_deterministic(corpus):
    a = tr.train_stage_diffusion(corpus, tiny_cfg(diffusion_steps=6))
    b = tr.train_stage_diffusion(corpus, tiny_cfg(diffusion_steps=6))
    assert a[3] == b[3]
    for (na, pa), (nb, pb) in zip(a[0].named_params(), b[0].named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


# -- stage C ---------------------------------------------------------------


def test_stage_adapter_requires_diffusion_checkpoint(corpus):
    net, _ = tr.train_stage_aligner(corpus, tiny_cfg(aligner_steps=5))
    unet, temb, meta, _ = tr.train_stage_diffusion(corpus, tiny_cfg(diffusion_steps=2))
    with pytest.raises(StageOrderError):
        tr.train_stage_adapter(corpus, tiny_cfg(), net, unet, temb, {"stage": "aligner"})


def test_stage_adapter_attaches_and_trains(corpus):
    cfg = tiny_cfg(diffusion_steps=4, adapter_steps=6, aligner_steps=10)
    aligner, _ = tr.train_stage_aligner(corpus, cfg)
    unet, temb, meta, _ = tr.train_stage_diffusion(corpus, cfg)
    unet, temb, meta, losses = tr.train_stage_adapter(corpus, cfg, aligner, unet, temb, meta)
    assert meta["stage"] == "adapter"
    assert unet.adapters[0].gamma_w.shape[0] == aligner.hidden == ALIGNER_HIDDEN
    assert len(losses) == 6 and all(np.isfinite(losses))


def test_three_stage_train_bundle(corpus):
    cfg = tiny_cfg(aligner_steps=10, diffusion_steps=4, adapter_steps=4)
    out = tr.three_stage_train(corpus, cfg)
    assert set(out) == {"aligner", "unet", "time_embedder", "meta", "losses"}
    assert out["meta"]["stage"] == "adapter"
    assert set(out["losses"]) == {"aligner", "diffusion", "adapter"}


# -- checkpoints -----------------------------------------------------------


def test_aligner_checkpoint_round_trip(tmp_path, corpus):
    cfg = tiny_cfg(aligner_steps=10)
    net, _ = tr.train_stage_aligner(corpus, cfg)
    path = tmp_path / "aligner.vemt"
    tr.save_aligner(path, net, cfg)
    loaded, meta = tr.load_aligner(path)
    assert meta == {"stage": "aligner", "feat_dim": net.feat_dim, "seed": 0}
    for (na, pa), (nb, pb) in zip(net.named_params(), loaded.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_diffusion_checkpoint_round_trip(tmp_path, stage_b):
    unet, temb, meta, _ = stage_b
    path = tmp_path / "diff.vemt"
    tr.save_diffusion(path, unet, temb, meta)
    u2, t2, m2 = tr.load_diffusion(path)
    assert m2["stage"] == "diffusion"
    assert m2["widths"] == list(unet.widths)
    for (na, pa), (nb, pb) in zip(unet.named_params(), u2.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    for (na, pa), (nb, pb) in zip(temb.named_params(), t2.named_params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_adapter_checkpoint_restores_adapters(tmp_path, corpus):
    cfg = tiny_cfg(aligner_steps=10, diffusion_steps=4, adapter_steps=4)
    out = tr.three_stage_train(corpus, cfg)
    path = tmp_path / "adapter.vemt"
    tr.save_diffusion(path, out["unet"], out["time_embedder"], out["meta"])
    u2, _, m2 = tr.load_diffusion(path)
    assert m2["stage"] == "adapter"
    assert u2.adapters is not None
    np.testing.assert_array_equal(u2.adapters[0].gamma_w.data,
                                  out["unet"].adapters[0].gamma_w.data)


def test_checkpoint_kind_guards(tmp_path, corpus, stage_b):
    cfg = tiny_cfg(aligner_steps=5)
    net, _ = tr.train_stage_aligner(corpus, cfg)
    apath = tmp_path / "a.vemt"
    tr.save_aligner(apath, net, cfg)
    with pytest.raises(StageOrderError):
        tr.load_diffusion(apath)
    unet, temb, meta, _ = stage_b
    dpath = tmp_path / "d.vemt"
    tr.save_diffusion(dpath, unet, temb, meta)
    with pytest.raises(StageOrderError):
        tr.load_aligner(dpath)


def _without(key):
    return lambda meta: meta.pop(key)


@pytest.mark.parametrize("edit", [
    lambda meta: meta.update(widths=[16]),
    lambda meta: meta.update(widths=[]),
    lambda meta: meta.update(widths="ab"),
    _without("cond_dim"),
    lambda meta: meta.update(latent_std=0.0),
    lambda meta: meta.update(latent_std=-1.0),
], ids=["widths-vs-weights", "empty-widths", "string-widths", "missing-cond-dim",
        "zero-latent-std", "negative-latent-std"])
def test_load_diffusion_rejects_bad_meta(tmp_path, stage_b, edit):
    unet, temb, meta, _ = stage_b
    meta = dict(meta)
    edit(meta)
    path = tmp_path / "d.vemt"
    tr.save_diffusion(path, unet, temb, meta)
    with pytest.raises(DataError):
        tr.load_diffusion(path)


@pytest.mark.parametrize("edit", [
    lambda meta: meta.update(feat_dim="x"),
    _without("feat_dim"),
], ids=["string-feat-dim", "missing-feat-dim"])
def test_load_aligner_rejects_bad_meta(tmp_path, edit):
    path = tmp_path / "a.vemt"
    tr.save_aligner(path, AlignerNet(8), tiny_cfg())
    tensors, meta = load_tensors(path)
    edit(meta)
    save_tensors(path, tensors, meta)
    with pytest.raises(DataError):
        tr.load_aligner(path)


def test_load_diffusion_ignores_dropped_meta_keys(tmp_path, stage_b, corpus):
    """A checkpoint whose meta still carries the keys older writers stored
    (schedule endpoints, embedding widths, channel counts) loads to the same
    model and samples the same bytes as one with today's six keys."""
    unet, temb, meta, _ = stage_b
    old = dict(meta, beta_start=1e-4, beta_end=0.02, temb_dim=128, in_channels=240,
               feature_dim=meta["cond_dim"], time_hidden=32, aligner_hidden=None)
    new_path, old_path = tmp_path / "new.vemt", tmp_path / "old.vemt"
    tr.save_diffusion(new_path, unet, temb, meta)
    tr.save_diffusion(old_path, unet, temb, old)
    u_new, t_new, _ = tr.load_diffusion(new_path)
    u_old, t_old, m_old = tr.load_diffusion(old_path)
    assert m_old == old
    for a, b in ((u_new, u_old), (t_new, t_old)):
        sa, sb = a.state_dict(), b.state_dict()
        assert sa.keys() == sb.keys()
        for k in sa:
            assert sa[k].dtype == sb[k].dtype and sa[k].tobytes() == sb[k].tobytes(), k
    ann = corpus[0][0]
    for conditioned in (True, False):
        mel_new = tr.sample_mel(u_new, t_new, meta, ann, 3, 5, conditioned=conditioned)
        mel_old = tr.sample_mel(u_old, t_old, m_old, ann, 3, 5, conditioned=conditioned)
        assert mel_new.values.tobytes() == mel_old.values.tobytes()


def test_load_diffusion_builds_no_random_init(tmp_path, stage_b, monkeypatch):
    unet, temb, meta, _ = stage_b
    path = tmp_path / "d.vemt"
    tr.save_diffusion(path, unet, temb, meta)

    def no_draws(*args, **kw):
        raise AssertionError("a loader drew random weights")

    monkeypatch.setattr(Rng, "gaussian", no_draws)
    loaded, _, _ = tr.load_diffusion(path)
    for (name, a), (_, b) in zip(unet.named_params(), loaded.named_params()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


# -- float32 training tape -------------------------------------------------


def test_training_loss_tapes_only_float32(corpus):
    """One stage-C style step (adapters, time embedder) stays in float32."""
    ann, wav = corpus[0]
    z0 = latent_encode(logmel(wav)).values.astype(np.float32)
    mask = build_mask(ann, z0.shape[1])
    unet = TUNet(z0.shape[0], len(ann.caption_feat), widths=(8, 12), temb_dim=16, rng=Rng(1))
    unet.attach_adapters(6)
    temb = TimeEmbedder(len(ann.caption_feat), hidden=8, rng=Rng(2))
    feats = Rng(3).gaussian((40, 6)).astype(np.float32)
    loss = training_loss(unet, z0, assemble_conditions(ann, temb), mask, Rng(4),
                         make_schedule(50), aligner_feats=feats)
    loss.backward()
    seen, stack, dtypes = set(), [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        dtypes.add(node.data.dtype)
        stack.extend(node._prev)
    assert len(seen) > 50 and dtypes == {np.dtype(np.float32)}
    params = unet.params() + temb.params()
    assert all(p.grad is not None and p.grad.dtype == np.float32 for p in params)


def _tape_nodes(loss):
    """Non-leaf nodes on the graph behind `loss`, counted as the benchmark
    tracer counts them."""
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._prev:
            continue
        seen.add(id(node))
        stack.extend(node._prev)
    return len(seen)


def _stage_c_loss(ann, wav, dtype):
    """One stage-C style loss (adapters, time embedder) of a small net in
    `dtype`, with every zero-initialized weight moved off zero."""
    z0 = latent_encode(logmel(wav)).values.astype(dtype)
    mask = build_mask(ann, z0.shape[1])
    unet = TUNet(z0.shape[0], len(ann.caption_feat), widths=(8, 12), temb_dim=16, rng=Rng(1),
                 dtype=dtype)
    unet.attach_adapters(6, dtype=dtype)
    temb = TimeEmbedder(len(ann.caption_feat), hidden=8, rng=Rng(2), dtype=dtype)
    r = Rng(5)
    for p in unet.params() + temb.params():
        p.data = p.data + (0.05 * r.gaussian(p.shape)).astype(dtype)
    feats = Rng(3).gaussian((40, 6)).astype(dtype)
    loss = training_loss(unet, z0, assemble_conditions(ann, temb), mask, Rng(4),
                         make_schedule(50), aligner_feats=feats)
    loss.backward()
    return loss, unet.named_params() + temb.named_params()


def test_fused_ops_match_unfused_oracle_in_float64(corpus, monkeypatch):
    """The loss and every gradient of the fused linear, layer_norm and silu
    nodes equal those of x @ w + b, layer_norm * g + b and an expit SiLU."""
    ann, wav = corpus[0]
    loss, params = _stage_c_loss(ann, wav, np.float64)
    with monkeypatch.context() as m:
        use_unfused_ops(m)
        ref_loss, ref_params = _stage_c_loss(ann, wav, np.float64)
    assert _tape_nodes(loss) < _tape_nodes(ref_loss)
    assert abs(float(loss.data) - float(ref_loss.data)) <= 1e-12 * abs(float(ref_loss.data))
    assert len(params) == len(ref_params) > 100
    top = max(np.abs(q.grad).max() for _, q in ref_params)
    for (name, p), (_, q) in zip(params, ref_params):
        if name.endswith(".wk.b"):
            # a key bias shifts a query's logits all alike, which softmax
            # ignores: the true gradient is zero, both sides hold rounding noise
            assert max(np.abs(p.grad).max(), np.abs(q.grad).max()) <= 1e-12 * top, name
            continue
        scale = np.abs(q.grad).max()
        assert scale > 1e-6 * top, name
        assert np.abs(p.grad - q.grad).max() <= 1e-12 * scale, name


def test_stage_b_loss_tape_size():
    """One stage-B loss of the default net on a 12 s clip tapes one node per
    Linear, ChannelNorm and SiLU, SiLU(temb) once per forward, and four nodes
    for the condition tokens whatever the storyboard count."""
    cfg = tr.TrainConfig()
    ann, wav = cu.synth_corpus(1, seed=9, cfg=cu.SynthConfig(duration_range_s=(12.0, 12.0)))[0]
    z0 = latent_encode(logmel(wav)).values.astype(np.float32)
    mask = build_mask(ann, z0.shape[1])
    unet = TUNet(z0.shape[0], len(ann.caption_feat), cfg.widths, rng=Rng(1))
    temb = TimeEmbedder(len(ann.caption_feat), rng=Rng(2))
    loss = training_loss(unet, z0, assemble_conditions(ann, temb), mask, Rng(4),
                         make_schedule(cfg.T))
    assert _tape_nodes(loss) <= 256


# -- sampling --------------------------------------------------------------


def test_sample_mel_shapes_and_determinism(stage_b, corpus):
    unet, temb, meta, _ = stage_b
    ann = corpus[0][0]
    mel_a = tr.sample_mel(unet, temb, meta, ann, steps=4, seed=9)
    mel_b = tr.sample_mel(unet, temb, meta, ann, steps=4, seed=9)
    np.testing.assert_array_equal(mel_a.values, mel_b.values)
    want_frames = int(np.ceil(ann.duration_s * 15.625)) * 4
    assert mel_a.values.shape == (want_frames, 60)
    mel_c = tr.sample_mel(unet, temb, meta, ann, steps=4, seed=10)
    assert np.abs(mel_a.values - mel_c.values).max() > 0


def test_sample_mel_unconditional_path(stage_b, corpus):
    unet, temb, meta, _ = stage_b
    ann = corpus[0][0]
    mel = tr.sample_mel(unet, temb, meta, ann, steps=3, seed=2, conditioned=False)
    assert np.isfinite(mel.values).all()


def test_generation_tb_iou_bounds(stage_b, corpus):
    unet, temb, meta, _ = stage_b
    ann = corpus[0][0]
    mel = tr.sample_mel(unet, temb, meta, ann, steps=3, seed=4)
    v = tr.generation_tb_iou(mel, ann)
    assert 0.0 <= v <= 1.0


def test_generation_tb_iou_detector_failure_scores_zero(corpus):
    silent = logmel(Waveform(np.zeros(5 * SAMPLE_RATE, dtype=np.float32), SAMPLE_RATE))
    assert tr.generation_tb_iou(silent, corpus[0][0]) == 0.0
