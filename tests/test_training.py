import tracemalloc

import numpy as np
import pytest
from helpers import (AdamPerArray, click_track, make_annotation, params_of, tape_nodes,
                     use_unfused_ops, with_dtype)

from vem import autograd as ag
from vem import curation as cu
from vem import training as tr
from vem.audiofeat import SAMPLE_RATE, Waveform, logmel
from vem.diffusion import LATENT_CHANNELS, latent_encode, training_loss
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
    assert set(meta) == {"stage", "T", "latent_mean", "latent_std"}
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
    assert unet.adapters[0].gamma.w.shape[0] == aligner.head.w.shape[1] == ALIGNER_HIDDEN
    assert len(losses) == 6 and all(np.isfinite(losses))


def test_stage_adapter_tunes_the_schedule_its_checkpoint_holds(corpus, monkeypatch):
    """Stage C trains on the T its checkpoint holds, the one the sampler will
    run, not on the config's."""
    aligner = AlignerNet(corpus[0][0].frame_features.shape[0], rng=Rng(0))
    unet, temb, meta, _ = tr.train_stage_diffusion(corpus, tiny_cfg(T=50, diffusion_steps=1))
    seen = []

    def recording_loss(*args, **kwargs):
        seen.append(args[5])
        return training_loss(*args, **kwargs)

    monkeypatch.setattr(tr, "training_loss", recording_loss)
    _, _, meta, _ = tr.train_stage_adapter(corpus, tiny_cfg(T=1000, adapter_steps=2), aligner,
                                           unet, temb, meta)
    assert seen == [50, 50] and meta["T"] == 50


def test_stage_adapter_writes_a_fresh_meta(corpus, tmp_path):
    """A diffusion checkpoint that carries keys an older writer stored
    yields the four-key adapter meta: nothing is copied over."""
    aligner = AlignerNet(corpus[0][0].frame_features.shape[0], rng=Rng(0))
    unet, temb, meta, _ = tr.train_stage_diffusion(corpus, tiny_cfg(diffusion_steps=1))
    tr.save_diffusion(tmp_path / "diffusion.vemt", unet, temb,
                      dict(meta, widths=[8], cond_dim=64, feat_dim=10))
    unet, temb, old = tr.load_diffusion(tmp_path / "diffusion.vemt")
    _, _, new, _ = tr.train_stage_adapter(corpus, tiny_cfg(adapter_steps=1), aligner, unet, temb,
                                          old)
    assert new == {"stage": "adapter", "T": old["T"], "latent_mean": old["latent_mean"],
                   "latent_std": old["latent_std"]}


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
    assert meta == {"stage": "aligner", "seed": 0}
    assert loaded.feat_dim == net.feat_dim
    for (na, pa), (nb, pb) in zip(net.named_params(), loaded.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_diffusion_checkpoint_round_trip(tmp_path, stage_b):
    unet, temb, meta, _ = stage_b
    path = tmp_path / "diff.vemt"
    tr.save_diffusion(path, unet, temb, meta)
    u2, t2, m2 = tr.load_diffusion(path)
    assert m2 == meta
    assert (u2.widths, u2.cond_dim, t2.dim) == (unet.widths, unet.cond_dim, temb.dim)
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
    np.testing.assert_array_equal(u2.adapters[0].gamma.w.data,
                                  out["unet"].adapters[0].gamma.w.data)


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
    lambda meta: meta.update(latent_std=0.0),
    lambda meta: meta.update(latent_std=-1.0),
    lambda meta: meta.update(latent_mean=10**400),
    lambda meta: meta.update(T=True),
    _without("T"),
], ids=["zero-latent-std", "negative-latent-std", "latent-mean-past-float", "bool-T", "missing-T"])
def test_load_diffusion_rejects_bad_meta(tmp_path, stage_b, edit):
    unet, temb, meta, _ = stage_b
    meta = dict(meta)
    edit(meta)
    path = tmp_path / "d.vemt"
    tr.save_diffusion(path, unet, temb, meta)
    with pytest.raises(DataError):
        tr.load_diffusion(path)


def _save_edited(path, src, edit, **meta_update):
    """Copy checkpoint `src` to `path` with `edit` applied to its tensors and
    `meta_update` to its meta."""
    tensors, meta = load_tensors(src)
    edit(tensors)
    save_tensors(path, tensors, dict(meta, **meta_update))


@pytest.fixture(scope="module")
def two_level_ckpt(tmp_path_factory, corpus):
    unet, temb, meta, _ = tr.train_stage_diffusion(corpus, tiny_cfg(widths=(8, 12),
                                                                    diffusion_steps=1))
    path = tmp_path_factory.mktemp("ckpt") / "d.vemt"
    tr.save_diffusion(path, unet, temb, meta)
    return path


@pytest.mark.parametrize("edit,names", [
    (lambda t: t.update({"unet.enc.1.selfattn.wq.w": np.zeros((12, 13))}), "enc.1.selfattn.wq.w"),
    (lambda t: t.update({"unet.enc.0.selfattn.wq.w": np.zeros((0, 0))}), "enc.0.selfattn.wq.w"),
    (lambda t: t.update({"unet.enc.0.selfattn.wq.w": np.zeros(64)}), "enc.0.selfattn.wq.w"),
    (lambda t: t.pop("unet.enc.0.selfattn.wq.w"), "enc.0.selfattn.wq.w"),
    (lambda t: t.pop("unet.enc.0.sgc.wk.w"), "enc.0.sgc.wk.w"),
    (lambda t: t.update({"unet.enc.0.sgc.wk.w": np.zeros((64, 9))}), "enc.0.sgc.wk.w"),
    (lambda t: t.update({"unet.enc.1.sgc.wk.w": np.zeros((1000, 12))}), "enc.1.sgc.wk.w"),
    (lambda t: t.pop("unet.enc.1.sgc.wk.w"), "enc.1.sgc.wk.w"),
], ids=["non-square-wq", "empty-wq", "1d-wq", "missing-wq", "missing-wk", "wk-vs-width",
        "wk-vs-cond-dim", "missing-level-1-wk"])
def test_load_diffusion_rejects_bad_size_tensors(tmp_path, two_level_ckpt, edit, names):
    """A tensor a size is read off that is missing, of the wrong rank, empty,
    not square, or unlike its level's other sizes is refused by name before
    any module is built."""
    _save_edited(tmp_path / "d.vemt", two_level_ckpt, edit)
    with pytest.raises(DataError, match=names):
        tr.load_diffusion(tmp_path / "d.vemt")


def test_load_diffusion_sizes_the_model_by_its_largest_weights(tmp_path, two_level_ckpt,
                                                               monkeypatch):
    """An in_conv.w 1500 wide, with meta widths to match, builds no 1500-wide
    model: the widths come off the square self-attention weights, and
    load_state_dict then refuses in_conv.w."""
    def edit(t):
        t["unet.in_conv.w"] = np.zeros((1500, LATENT_CHANNELS, 3))
    _save_edited(tmp_path / "d.vemt", two_level_ckpt, edit, widths=[1500, 12], cond_dim=64)
    built = []

    def recording_tunet(in_channels, cond_dim, widths):
        built.append(tuple(widths))
        if max(widths) > 12:
            raise AssertionError(f"built a TUNet of widths {widths}")
        return TUNet(in_channels, cond_dim, widths)

    monkeypatch.setattr(tr, "TUNet", recording_tunet)
    with pytest.raises(DataError, match=r"shape mismatch for unet\.in_conv\.w"):
        tr.load_diffusion(tmp_path / "d.vemt")
    assert built == [(8, 12)]


def _old_time_embedder_keys(t):
    for i in (1, 2):
        for p in ("w", "b"):
            t[f"time_embedder.{p}{i}"] = t.pop(f"time_embedder.lin{i}.{p}")


@pytest.mark.parametrize("edit,err", [
    (lambda t: t.update({"junk": np.zeros(3), "unet_typo.in_conv.w": t["unet.in_conv.w"]}),
     "0 missing [], 2 extra ['junk', 'unet_typo.in_conv.w']"),
    (_old_time_embedder_keys,
     "4 missing ['time_embedder.lin1.b', 'time_embedder.lin1.w', 'time_embedder.lin2.b', "
     "'time_embedder.lin2.w'], 4 extra ['time_embedder.b1', 'time_embedder.b2', "
     "'time_embedder.w1', 'time_embedder.w2']"),
], ids=["stray-tensor", "old-time-embedder-keys"])
def test_load_diffusion_refuses_tensors_the_model_does_not_name(tmp_path, two_level_ckpt, edit,
                                                                err):
    """A tensor outside the model, under a misspelt prefix, or a time
    embedder stored under its pre-`Linear` names (`w1`, `b1`, ...) is
    refused: the loader ignores no tensor, counts both sides and names
    every key in full."""
    _save_edited(tmp_path / "d.vemt", two_level_ckpt, edit)
    with pytest.raises(DataError) as exc:
        tr.load_diffusion(tmp_path / "d.vemt")
    assert str(exc.value) == f"state mismatch: {err}"


@pytest.mark.parametrize("edit", [lambda t: t.pop("conv1.w"),
                                  lambda t: t.update({"conv1.w": np.zeros((32, 8))})],
                         ids=["missing", "2d"])
def test_load_aligner_rejects_bad_conv1_w(tmp_path, edit):
    path = tmp_path / "a.vemt"
    tr.save_aligner(path, AlignerNet(8), tiny_cfg())
    _save_edited(path, path, edit)
    with pytest.raises(DataError, match="conv1.w"):
        tr.load_aligner(path)


def test_frozen_parameter_stays_in_the_checkpoint(tmp_path, stage_b):
    """Parameters are found by type, not by `requires_grad`: a TUNet weight
    with the flag cleared is still in state_dict and survives a save/load."""
    unet, temb, meta, _ = stage_b
    unet.in_conv.w.requires_grad = False
    try:
        assert "in_conv.w" in unet.state_dict()
        path = tmp_path / "d.vemt"
        tr.save_diffusion(path, unet, temb, meta)
    finally:
        unet.in_conv.w.requires_grad = True
    loaded, _, _ = tr.load_diffusion(path)
    assert loaded.in_conv.w.data.tobytes() == unet.in_conv.w.data.tobytes()


def test_load_diffusion_ignores_dropped_meta_keys(tmp_path, stage_b, corpus):
    """A checkpoint whose meta still carries the keys older writers stored
    (schedule endpoints, embedding widths, channel counts and the model
    sizes, here all wrong) loads to the same model and samples the same bytes
    as one with today's four keys; so does an aligner with a stale feat_dim."""
    unet, temb, meta, _ = stage_b
    old = dict(meta, beta_start=1e-4, beta_end=0.02, temb_dim=128, in_channels=240,
               feature_dim=7, time_hidden=32, aligner_hidden=None, widths=[9, 10],
               cond_dim=10**12)
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
    apath = tmp_path / "a.vemt"
    save_tensors(apath, AlignerNet(8, rng=Rng(1)).state_dict(),
                 {"stage": "aligner", "feat_dim": 10**9, "seed": 0})
    aligner, _ = tr.load_aligner(apath)
    assert aligner.feat_dim == 8


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
    unet = TUNet(z0.shape[0], len(ann.caption_feat), widths=(8, 12), rng=Rng(1))
    unet.attach_adapters()
    temb = TimeEmbedder(len(ann.caption_feat), rng=Rng(2))
    feats = Rng(3).gaussian((40, ALIGNER_HIDDEN)).astype(np.float32)
    loss = training_loss(unet, z0, assemble_conditions(ann, temb), mask, Rng(4),
                         50, aligner_feats=feats)
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
    params = params_of(unet, temb)
    assert all(p.grad is not None and p.grad.dtype == np.float32 for p in params)


def _stage_c_loss(ann, wav, dtype):
    """One stage-C style loss (adapters, time embedder) of a small net in
    `dtype`, with every zero-initialized weight moved off zero."""
    z0 = latent_encode(logmel(wav)).values.astype(dtype)
    mask = build_mask(ann, z0.shape[1])
    unet = TUNet(z0.shape[0], len(ann.caption_feat), widths=(8, 12), rng=Rng(1))
    unet.attach_adapters()
    with_dtype(unet, dtype)
    temb = with_dtype(TimeEmbedder(len(ann.caption_feat), rng=Rng(2)), dtype)
    r = Rng(5)
    for p in params_of(unet, temb):
        p.data = p.data + (0.05 * r.gaussian(p.shape)).astype(dtype)
    feats = Rng(3).gaussian((40, ALIGNER_HIDDEN)).astype(dtype)
    loss = training_loss(unet, z0, assemble_conditions(ann, temb), mask, Rng(4),
                         50, aligner_feats=feats)
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
    assert len(tape_nodes(loss)) < len(tape_nodes(ref_loss))
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
                         cfg.T)
    assert len(tape_nodes(loss)) <= 256


def test_diffusion_loop_holds_one_graph_at_a_time(corpus):
    """Backward frees each closure and interior gradient once it has run,
    and the loop drops a step's graph before the next forward: three steps
    peak, beyond the Adam moments, under two graphs' worth of activations.
    Measured 1.7 graphs; without the del of the loss 2.2, without the
    freeing in backward 2.5, without both 3.4."""
    items, _, _ = tr._prepare_latents(corpus)
    ann, z0 = items[0][:2]
    unet = TUNet(z0.shape[0], len(ann.caption_feat), (8, 16), rng=Rng(1))
    temb = TimeEmbedder(len(ann.caption_feat), rng=Rng(2))
    graph = max(sum(n.data.nbytes for n in tape_nodes(training_loss(
                    unet, z, assemble_conditions(a, temb), m, Rng(3), 50, aligner_feats=f)))
                for a, z, m, f in items)
    moments = 2 * sum(p.data.nbytes for p in params_of(unet, temb))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tr._run_diffusion_loop(items, unet, temb, 50, 3, 1e-3, Rng(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base - moments < 2.0 * graph


# -- the Adam arena against the per-array oracle ----------------------------


def _stage_c_model(items):
    """A small TUNet with adapters and its time embedder, named as the
    training loop names them, and the loop's loss over `items`."""
    ann, z0 = items[0][:2]
    unet = TUNet(z0.shape[0], len(ann.caption_feat), (8, 12), rng=Rng(1))
    unet.attach_adapters()
    temb = TimeEmbedder(len(ann.caption_feat), rng=Rng(2))
    rng = Rng(3)

    def loss_of(step):
        ann, z0, mask, afeats = items[step % len(items)]
        return training_loss(unet, z0, assemble_conditions(ann, temb), mask, rng, 50,
                             aligner_feats=afeats)

    return dict(tr._DiffusionModel(unet, temb).named_params()), loss_of


def test_arena_adam_matches_the_per_array_oracle_on_a_tunet_with_adapters(corpus, monkeypatch):
    """Five minimize steps: the losses, and the parameters, m~ and v~
    byte for byte, equal the per-array oracle's, with chunk edges that fall
    inside parameters."""
    chunk = 4099
    monkeypatch.setattr(ag.Adam, "CHUNK", chunk)
    aligner = AlignerNet(corpus[0][0].frame_features.shape[0], rng=Rng(0))
    items, _, _ = tr._prepare_latents(corpus, aligner=aligner)
    params, loss_of = _stage_c_model(items)
    ends = np.cumsum([p.data.size for p in params.values()])
    starts = ends - [p.data.size for p in params.values()]
    edges = np.arange(chunk, ends[-1], chunk)
    assert sum(((starts < e) & (e < ends)).any() for e in edges) > 5

    opt = ag.Adam(params, lr=1e-3)
    losses = opt.minimize(loss_of, 5)

    ref_params, ref_loss_of = _stage_c_model(items)
    ref = AdamPerArray(ref_params, lr=1e-3)
    assert ref.minimize(ref_loss_of, 5) == losses
    assert opt.t == ref.t == 5
    for name, p, q, m, mq, v, vq in zip(params, params.values(), ref_params.values(),
                                        opt._m, ref._m, opt._v, ref._v):
        assert p.data.tobytes() == q.data.tobytes(), name
        assert (m.tobytes(), v.tobytes()) == (mq.tobytes(), vq.tobytes()), name


def test_stage_b_then_stage_c_match_the_per_array_oracle(corpus, monkeypatch):
    """Stage B's arena, then stage C's new Adam over the same modules plus
    the adapters: the same losses and checkpoint tensors as the oracle, and
    afterwards every parameter sits in stage C's arena alone."""
    cfg = tiny_cfg(widths=(8, 12), diffusion_steps=3, adapter_steps=3)
    aligner = AlignerNet(corpus[0][0].frame_features.shape[0], rng=Rng(0))

    def run():
        unet, temb, meta, b_losses = tr.train_stage_diffusion(corpus, cfg)
        unet, temb, meta, c_losses = tr.train_stage_adapter(corpus, cfg, aligner, unet, temb, meta)
        return unet, temb, b_losses + c_losses

    unet, temb, losses = run()
    params = params_of(unet, temb)
    assert len({id(p.data.base) for p in params}) == 1
    assert len({id(p._gslot.base) for p in params}) == 1
    assert not any(np.shares_memory(p.data, p._gslot) for p in params)
    monkeypatch.setattr(ag, "Adam", AdamPerArray)
    ref_unet, ref_temb, ref_losses = run()
    assert losses == ref_losses
    for mod, ref_mod in ((unet, ref_unet), (temb, ref_temb)):
        got, want = mod.state_dict(), ref_mod.state_dict()
        assert got.keys() == want.keys()
        assert all(got[k].tobytes() == want[k].tobytes() for k in got)


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
