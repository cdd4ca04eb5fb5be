import numpy as np
import pytest

from vem import autograd as ag
from vem import sgcatt as sg
from vem.diffusion import LATENT_FPS, latent_len_for_duration
from vem.errors import DataError
from vem.parsing import TimeEmbedder
from vem.rng import Rng

from helpers import assemble_conditions_loop, make_annotation


def tokens_for(ann, seed=0):
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(seed))
    return sg.assemble_conditions(ann, emb)


# -- condition assembly ----------------------------------------------------


def test_token_counts():
    one = make_annotation(bounds=(0.0, 10.0), transitions=())
    three = make_annotation(bounds=(0.0, 3.0, 6.0, 10.0), transitions=(3.0, 6.0))
    assert tokens_for(one).shape == (6, 64)
    assert tokens_for(three).shape == (18, 64)


def test_spans_grouped_in_order():
    """Rows 6i..6i+5 are storyboard i's block: caption, tags, text, visual,
    start embedding, duration embedding."""
    ann = make_annotation(bounds=(0.0, 3.0, 6.0, 10.0), transitions=(3.0, 6.0))
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(0))
    toks = sg.assemble_conditions(ann, emb).data
    for i, sb in enumerate(ann.storyboards):
        block = toks[6 * i:6 * i + 6]
        np.testing.assert_array_equal(block[0], ann.caption_feat.astype(np.float32))
        np.testing.assert_array_equal(block[1], ann.tag_feat.astype(np.float32))
        np.testing.assert_array_equal(block[2], sb.text_feat.astype(np.float32))
        np.testing.assert_array_equal(block[3], sb.visual_feat.astype(np.float32))
        np.testing.assert_array_equal(block[4], emb.embed([sb.start_s]).data[0])
        np.testing.assert_array_equal(block[5], emb.embed([sb.duration_s]).data[0])


def test_global_tokens_repeat_across_storyboards():
    ann = make_annotation(bounds=(0.0, 4.0, 10.0))
    toks = tokens_for(ann).data
    np.testing.assert_array_equal(toks[0], toks[6])   # caption row
    np.testing.assert_array_equal(toks[1], toks[7])   # tags row
    assert np.abs(toks[2] - toks[8]).max() > 1e-6     # per-board text differs


def test_assemble_rejects_dim_mismatch():
    ann = make_annotation()
    emb = TimeEmbedder(dim=32, hidden=8, rng=Rng(0))
    with pytest.raises(DataError):
        sg.assemble_conditions(ann, emb)


@pytest.mark.parametrize("field", ["text_feat", "visual_feat", "tag_feat"])
def test_assemble_rejects_storyboard_feature_width(field):
    ann = make_annotation(bounds=(0.0, 4.0, 10.0))
    owner = ann if field == "tag_feat" else ann.storyboards[1]
    setattr(owner, field, getattr(owner, field)[:32])
    with pytest.raises(DataError, match="feature shape"):
        tokens_for(ann)


def test_time_tokens_carry_gradient():
    ann = make_annotation()
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(1))
    toks = sg.assemble_conditions(ann, emb)
    (toks * toks).sum().backward()
    assert emb.w2.grad is not None and np.abs(emb.w2.grad).max() > 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tokens_and_gradients_match_loop_oracle(dtype):
    ann = make_annotation(bounds=(0.0, 2.5, 4.0, 7.0, 10.0), transitions=(2.5, 4.0, 7.0))
    weight = ag.Var(Rng(3).gaussian((24, 64)).astype(dtype))
    grads = []
    for assemble in (sg.assemble_conditions, assemble_conditions_loop):
        emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(2), dtype=dtype)
        toks = assemble(ann, emb)
        (toks * weight).sum().backward()
        grads.append((toks.data, [(name, p.grad) for name, p in emb.named_params()]))
    (got, got_grads), (want, want_grads) = grads
    assert got.dtype == want.dtype == dtype
    np.testing.assert_array_equal(got, want)
    assert len(got_grads) == len(want_grads) > 0
    for (name, g), (_, w) in zip(got_grads, want_grads):
        np.testing.assert_array_equal(g, w, err_msg=name)


# -- masks -----------------------------------------------------------------


def test_mask_single_storyboard_all_ones():
    ann = make_annotation(bounds=(0.0, 10.0), transitions=())
    m = sg.build_mask(ann, latent_len_for_duration(10.0))
    assert m.grid.shape == (157, 6)
    assert m.grid.all()


def test_mask_two_storyboards_cellwise():
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 2.0, 5.0), transitions=(2.0,))
    m = sg.build_mask(ann, latent_len_for_duration(5.0))
    cut = int(np.ceil(2.0 * LATENT_FPS))   # first row at or past 2 s
    assert m.grid[:cut, 0:6].all() and not m.grid[:cut, 6:12].any()
    assert m.grid[cut:, 6:12].all() and not m.grid[cut:, 0:6].any()


def test_mask_gap_rows_all_zero():
    ann = make_annotation(duration_s=6.0, bounds=(0.0, 2.0), transitions=())
    ann.duration_s = 6.0  # storyboard covers [0,2) only
    m = sg.build_mask(ann, latent_len_for_duration(6.0))
    cut = int(np.ceil(2.0 * LATENT_FPS))
    assert m.grid[:cut].all()
    assert not m.grid[cut:].any()


def test_mask_strict_length_check():
    """A codec-length latent (one frame short of ceil(duration * fps)) gets
    one mask row per latent frame."""
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 5.0), transitions=())
    m = sg.build_mask(ann, latent_len_for_duration(5.0) - 1)
    assert m.grid.shape == (78, 6)


def test_pad_mask_rows():
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 5.0), transitions=())
    m = sg.build_mask(ann, 78)
    full, _, quarter = sg.level_masks(m, 80, 3)
    assert full.grid.shape == (80, 6)
    assert full.grid[:78].all() and not full.grid[78:].any()
    assert quarter.grid.shape == (20, 6) and quarter.grid.all()   # rows 76..79 pooled


def test_downsample_or_pooling():
    m = sg.StoryboardMask(np.array([[1], [0], [0], [0]]))
    grids = [lvl.grid for lvl in sg.level_masks(m, 4, 3)]
    np.testing.assert_array_equal(grids[0], [[1], [0], [0], [0]])
    np.testing.assert_array_equal(grids[1], [[1], [0]])
    np.testing.assert_array_equal(grids[2], [[1]])


def test_downsample_boundary_row_attends_both():
    # the 3 s boundary falls between rows 46 and 47: level-1 row 23 pools both
    ann = make_annotation(duration_s=6.0, bounds=(0.0, 3.0, 6.0), transitions=(3.0,))
    d = sg.level_masks(sg.build_mask(ann, latent_len_for_duration(6.0)), 96, 2)[1]
    assert d.grid[22, 0:6].all() and not d.grid[22, 6:12].any()
    assert d.grid[23, 0:6].all() and d.grid[23, 6:12].all()
    assert not d.grid[24, 0:6].any() and d.grid[24, 6:12].all()


def test_mask_pyramid_composition():
    r = Rng(8)
    grid = (r.uniform(30 * 7).reshape(30, 7) > 0.6).astype(np.uint8)
    masks = sg.level_masks(sg.StoryboardMask(grid), 32, 4)
    for finer, coarser in zip(masks, masks[1:]):
        pooled = finer.grid.reshape(-1, 2, 7).max(axis=1)
        np.testing.assert_array_equal(coarser.grid, pooled)


# -- attention -------------------------------------------------------------


def rand_qkv(x=5, y=7, dk=4, dv=3, seed=0):
    r = Rng(seed)
    return r.gaussian((x, dk)), r.gaussian((y, dk)), r.gaussian((y, dv))


def test_all_ones_mask_matches_unmasked():
    q, k, v = rand_qkv()
    mask = sg.StoryboardMask(np.ones((5, 7)))
    out = sg.sg_cross_attention(q, k, v, mask).data
    logits = (q @ k.T) / np.sqrt(4)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    ref = (e / e.sum(axis=1, keepdims=True)) @ v
    np.testing.assert_allclose(out, ref, rtol=1e-5)


def test_masked_tokens_are_invisible():
    q, k, v = rand_qkv()
    grid = np.zeros((5, 7), dtype=np.uint8)
    grid[:, :3] = 1
    mask = sg.StoryboardMask(grid)
    base = sg.sg_cross_attention(q, k, v, mask).data
    k2, v2 = k.copy(), v.copy()
    k2[3:] += 100.0
    v2[3:] -= 50.0
    pert = sg.sg_cross_attention(q, k2, v2, mask).data
    assert np.abs(base - pert).max() < 1e-6


def test_fully_masked_row_zero_in_additive():
    q, k, v = rand_qkv()
    grid = np.ones((5, 7), dtype=np.uint8)
    grid[2] = 0
    out = sg.sg_cross_attention(q, k, v, sg.StoryboardMask(grid)).data
    assert np.abs(out[2]).max() == 0.0
    assert np.abs(out[0]).max() > 0


def test_attention_shape_errors():
    q, k, v = rand_qkv()
    with pytest.raises(DataError):
        sg.sg_cross_attention(q, k[:, :2], v, sg.StoryboardMask(np.ones((5, 7))))
    with pytest.raises(DataError):
        sg.sg_cross_attention(q, k, v, sg.StoryboardMask(np.ones((4, 7))))


def test_locality_perturbation():
    # non-overlapping storyboards: j's features cannot leak into i's rows
    ann = make_annotation(duration_s=8.0, bounds=(0.0, 4.0, 8.0), transitions=(4.0,))
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(2))
    base = sg.assemble_conditions(ann, emb)
    mask = sg.build_mask(ann, latent_len_for_duration(8.0))
    cut = int(np.ceil(4.0 * LATENT_FPS))   # first row of storyboard 1
    q = Rng(6).gaussian((mask.grid.shape[0], 64))
    out_base = sg.sg_cross_attention(q, base, base, mask).data

    ann.storyboards[1].text_feat = ann.storyboards[1].text_feat + 3.0
    ann.storyboards[1].visual_feat = ann.storyboards[1].visual_feat - 2.0
    pert = sg.assemble_conditions(ann, emb)
    out_pert = sg.sg_cross_attention(q, pert, pert, mask).data
    assert np.abs(out_base[:cut] - out_pert[:cut]).max() < 1e-6
    assert np.abs(out_base[cut:] - out_pert[cut:]).max() > 1e-4


def test_global_feature_reaches_everywhere():
    ann = make_annotation(duration_s=8.0, bounds=(0.0, 4.0, 8.0), transitions=(4.0,))
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(2))
    base = sg.assemble_conditions(ann, emb)
    mask = sg.build_mask(ann, latent_len_for_duration(8.0))
    q = Rng(6).gaussian((mask.grid.shape[0], 64))
    out_base = sg.sg_cross_attention(q, base, base, mask).data

    ann.caption_feat = ann.caption_feat + 1.0
    pert = sg.assemble_conditions(ann, emb)
    out_pert = sg.sg_cross_attention(q, pert, pert, mask).data
    diff = np.abs(out_base - out_pert).max(axis=1)
    assert (diff > 1e-6).all()


def test_attention_gradients_flow():
    q, k, v = rand_qkv()
    qv = ag.param(q)
    mask = sg.StoryboardMask(np.ones((5, 7)))
    sg.sg_cross_attention(qv, k, v, mask).sum().backward()
    assert qv.grad is not None and np.abs(qv.grad).max() > 0
