import numpy as np
import pytest

from vem import autograd as ag
from vem import sgcatt as sg
from vem.errors import DataError
from vem.parsing import TimeEmbedder
from vem.rng import Rng

from helpers import make_annotation


def bundle_for(ann, seed=0):
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(seed))
    return sg.assemble_conditions(ann, emb)


# -- condition assembly ----------------------------------------------------


def test_token_counts():
    one = make_annotation(bounds=(0.0, 10.0), transitions=())
    three = make_annotation(bounds=(0.0, 3.0, 6.0, 10.0), transitions=(3.0, 6.0))
    assert bundle_for(one).tokens.shape[0] == 6
    b3 = bundle_for(three)
    assert b3.tokens.shape[0] == 18
    assert b3.storyboard_count == 3
    assert b3.dim == 64


def test_spans_grouped_in_order():
    ann = make_annotation(bounds=(0.0, 3.0, 6.0, 10.0), transitions=(3.0, 6.0))
    b = bundle_for(ann)
    assert b.spans[0:6] == [(0.0, 3.0)] * 6
    assert b.spans[6:12] == [(3.0, 6.0)] * 6
    assert b.spans[12:18] == [(6.0, 10.0)] * 6


def test_global_tokens_repeat_across_storyboards():
    ann = make_annotation(bounds=(0.0, 4.0, 10.0))
    toks = bundle_for(ann).tokens.data
    np.testing.assert_array_equal(toks[0], toks[6])   # caption row
    np.testing.assert_array_equal(toks[1], toks[7])   # tags row
    assert np.abs(toks[2] - toks[8]).max() > 1e-6     # per-board text differs


def test_assemble_rejects_dim_mismatch():
    ann = make_annotation()
    emb = TimeEmbedder(dim=32, hidden=8, rng=Rng(0))
    with pytest.raises(DataError):
        sg.assemble_conditions(ann, emb)


def test_time_tokens_carry_gradient():
    ann = make_annotation()
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(1))
    b = sg.assemble_conditions(ann, emb)
    (b.tokens ** 2.0).sum().backward()
    assert emb.w2.grad is not None and np.abs(emb.w2.grad).max() > 0


def test_zero_conditions_layout():
    ann = make_annotation(bounds=(0.0, 4.0, 10.0))
    z = sg.zero_conditions(ann, 64)
    assert z.tokens.shape == (12, 64)
    assert not z.tokens.data.any()
    assert z.spans == bundle_for(ann).spans


# -- masks -----------------------------------------------------------------


def test_mask_single_storyboard_all_ones():
    ann = make_annotation(bounds=(0.0, 10.0), transitions=())
    m = sg.build_mask(ann, 10, 1.0)
    assert m.grid.shape == (10, 6)
    assert m.grid.all()


def test_mask_two_storyboards_cellwise():
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 2.0, 5.0), transitions=(2.0,))
    m = sg.build_mask(ann, 5, 1.0)
    assert m.grid[0:2, 0:6].all() and not m.grid[0:2, 6:12].any()
    assert m.grid[2:5, 6:12].all() and not m.grid[2:5, 0:6].any()


def test_mask_gap_rows_all_zero():
    ann = make_annotation(duration_s=6.0, bounds=(0.0, 2.0), transitions=())
    ann.duration_s = 6.0  # storyboard covers [0,2) only
    m = sg.build_mask(ann, 6, 1.0)
    assert m.grid[0:2].all()
    assert not m.grid[2:].any()


def test_mask_strict_length_check():
    """A codec-length latent (one frame short of ceil(duration * fps)) gets
    one mask row per latent frame."""
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 5.0), transitions=())
    m = sg.build_mask(ann, 4, 1.0)
    assert m.grid.shape == (4, 6)


def test_pad_mask_rows():
    ann = make_annotation(duration_s=5.0, bounds=(0.0, 5.0), transitions=())
    m = sg.build_mask(ann, 5, 1.0)
    p = sg.pad_mask_rows(m, 8)
    assert p.grid.shape == (8, 6)
    assert p.grid[:5].all() and not p.grid[5:].any()
    with pytest.raises(DataError):
        sg.pad_mask_rows(m, 3)


def test_downsample_or_pooling():
    m = sg.StoryboardMask(np.array([[1], [0], [0], [0]]), 4.0)
    d = sg.downsample_mask(m, 2)
    np.testing.assert_array_equal(d.grid, [[1], [0]])
    assert d.latent_fps == 2.0
    assert sg.downsample_mask(m, 1) is m


def test_downsample_boundary_row_attends_both():
    # boundary at an odd row: the pooled block straddles both storyboards
    ann = make_annotation(duration_s=6.0, bounds=(0.0, 3.0, 6.0), transitions=(3.0,))
    d = sg.downsample_mask(sg.build_mask(ann, 6, 1.0), 2)
    assert d.grid[0, 0:6].all() and not d.grid[0, 6:12].any()
    assert d.grid[1, 0:6].any() and d.grid[1, 6:12].any()  # rows 2,3 pooled
    assert not d.grid[2, 0:6].any() and d.grid[2, 6:12].all()


def test_downsample_requires_divisibility():
    m = sg.StoryboardMask(np.ones((5, 2)), 1.0)
    with pytest.raises(DataError):
        sg.downsample_mask(m, 2)


def test_mask_pyramid_composition():
    r = Rng(8)
    grid = (r.uniform(32 * 7).reshape(32, 7) > 0.6).astype(np.uint8)
    m = sg.StoryboardMask(grid, 8.0)
    a = sg.downsample_mask(sg.downsample_mask(m, 2), 2)
    b = sg.downsample_mask(m, 4)
    np.testing.assert_array_equal(a.grid, b.grid)
    assert a.latent_fps == b.latent_fps


# -- attention -------------------------------------------------------------


def rand_qkv(x=5, y=7, dk=4, dv=3, seed=0):
    r = Rng(seed)
    return r.gaussian((x, dk)), r.gaussian((y, dk)), r.gaussian((y, dv))


def test_all_ones_mask_matches_unmasked():
    q, k, v = rand_qkv()
    mask = sg.StoryboardMask(np.ones((5, 7)), 1.0)
    out = sg.sg_cross_attention(q, k, v, mask).data
    logits = (q @ k.T) / np.sqrt(4)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    ref = (e / e.sum(axis=1, keepdims=True)) @ v
    np.testing.assert_allclose(out, ref, rtol=1e-5)


def test_masked_tokens_are_invisible():
    q, k, v = rand_qkv()
    grid = np.zeros((5, 7), dtype=np.uint8)
    grid[:, :3] = 1
    mask = sg.StoryboardMask(grid, 1.0)
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
    out = sg.sg_cross_attention(q, k, v, sg.StoryboardMask(grid, 1.0)).data
    assert np.abs(out[2]).max() == 0.0
    assert np.abs(out[0]).max() > 0


def test_attention_shape_errors():
    q, k, v = rand_qkv()
    with pytest.raises(DataError):
        sg.sg_cross_attention(q, k[:, :2], v, sg.StoryboardMask(np.ones((5, 7)), 1.0))
    with pytest.raises(DataError):
        sg.sg_cross_attention(q, k, v, sg.StoryboardMask(np.ones((4, 7)), 1.0))


def test_locality_perturbation():
    # non-overlapping storyboards: j's features cannot leak into i's rows
    ann = make_annotation(duration_s=8.0, bounds=(0.0, 4.0, 8.0), transitions=(4.0,))
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(2))
    base = sg.assemble_conditions(ann, emb)
    mask = sg.build_mask(ann, 8, 1.0)
    r = Rng(6)
    q = r.gaussian((8, 64))
    out_base = sg.sg_cross_attention(q, base.tokens, base.tokens, mask).data

    ann.storyboards[1].text_feat = ann.storyboards[1].text_feat + 3.0
    ann.storyboards[1].visual_feat = ann.storyboards[1].visual_feat - 2.0
    pert = sg.assemble_conditions(ann, emb)
    out_pert = sg.sg_cross_attention(q, pert.tokens, pert.tokens, mask).data
    assert np.abs(out_base[:4] - out_pert[:4]).max() < 1e-6
    assert np.abs(out_base[4:] - out_pert[4:]).max() > 1e-4


def test_global_feature_reaches_everywhere():
    ann = make_annotation(duration_s=8.0, bounds=(0.0, 4.0, 8.0), transitions=(4.0,))
    emb = TimeEmbedder(dim=64, hidden=16, rng=Rng(2))
    base = sg.assemble_conditions(ann, emb)
    mask = sg.build_mask(ann, 8, 1.0)
    q = Rng(6).gaussian((8, 64))
    out_base = sg.sg_cross_attention(q, base.tokens, base.tokens, mask).data

    ann.caption_feat = ann.caption_feat + 1.0
    pert = sg.assemble_conditions(ann, emb)
    out_pert = sg.sg_cross_attention(q, pert.tokens, pert.tokens, mask).data
    diff = np.abs(out_base - out_pert).max(axis=1)
    assert (diff > 1e-6).all()


def test_attention_gradients_flow():
    q, k, v = rand_qkv()
    qv = ag.param(q)
    mask = sg.StoryboardMask(np.ones((5, 7)), 1.0)
    sg.sg_cross_attention(qv, k, v, mask).sum().backward()
    assert qv.grad is not None and np.abs(qv.grad).max() > 0
