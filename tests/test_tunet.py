import numpy as np
import pytest

from helpers import with_dtype
from vem import autograd as ag
from vem import tunet as tn
from vem.curation import MAX_CLIP_S
from vem.diffusion import LATENT_CHANNELS, latent_len_for_duration
from vem.errors import DataError
from vem.parsing import FEATURE_DIM
from vem.rng import Rng
from vem.sgcatt import StoryboardMask, sg_cross_attention
from vem.tbalign import ALIGNER_HIDDEN


def make_inputs(length=12, n_tok=6, cond_dim=10, seed=0):
    r = Rng(seed)
    z = r.gaussian((LATENT_CHANNELS, length)).astype(np.float32)
    tokens = ag.Var(r.gaussian((n_tok, cond_dim)).astype(np.float32))
    mask = StoryboardMask(np.ones((length, n_tok), dtype=np.uint8))
    return z, tokens, mask


def make_net(cond_dim=10, widths=(8, 12), seed=1):
    return tn.TUNet(cond_dim, widths=widths, rng=Rng(seed))


# -- step embedding --------------------------------------------------------


def test_sinusoidal_embedding_basics():
    e0 = tn.sinusoidal_step_embedding(0, 8)
    assert e0.shape == (8,)
    np.testing.assert_allclose(e0[:4], 0.0, atol=1e-7)   # sin(0)
    np.testing.assert_allclose(e0[4:], 1.0, atol=1e-7)   # cos(0)
    e1 = tn.sinusoidal_step_embedding(17, 8)
    assert np.abs(e1 - e0).max() > 0.1


# -- shape contract --------------------------------------------------------


@pytest.mark.parametrize("widths,length", [((8,), 7), ((8, 12), 9), ((8, 12, 16), 11)])
def test_output_shape_matches_input(widths, length):
    z, cond, mask = make_inputs(length=length)
    net = make_net(widths=widths)
    out = net(z, 3, cond, mask)
    assert out.shape == (LATENT_CHANNELS, length)


def test_fresh_net_predicts_zero():
    z, cond, mask = make_inputs()
    out = make_net()(z, 5, cond, mask)
    assert not out.data.any()


def test_input_validation():
    """A mask with too few rows would be zero-padded without an error."""
    z, cond, mask = make_inputs()
    with pytest.raises(DataError, match="mask rows"):
        make_net()(z[:, :10], 1, cond, mask)


def test_latent_past_bound_refused():
    """Self-attention holds an L x L matrix per level, so a latent longer
    than MAX_LATENT_LEN is refused before anything is allocated; the longest
    clip the curation gate admits still fits."""
    assert latent_len_for_duration(MAX_CLIP_S) <= tn.MAX_LATENT_LEN
    _, cond, _ = make_inputs()
    n = tn.MAX_LATENT_LEN + 1
    mask = StoryboardMask(np.ones((n, 6), dtype=np.uint8))
    with pytest.raises(DataError, match="latent length"):
        make_net()(np.zeros((LATENT_CHANNELS, n), dtype=np.float32), 1, cond, mask)


@pytest.mark.parametrize("levels,refused", [(13, False), (14, True)])
def test_padded_latent_bounds_the_depth(levels, refused):
    """Padding grows as 2^(levels-1), and the bound is on the padded length:
    a 13-level net still takes one frame, a 14-level net pads it to 8,192
    frames and refuses it before allocating anything."""
    z, cond, mask = make_inputs(length=1)
    net = make_net(widths=(1,) * levels)
    if refused:
        with pytest.raises(DataError, match="latent length 1 exceeds 4096 frames once padded"):
            net(z, 1, cond, mask)
    else:
        assert net(z, 1, cond, mask).shape == (LATENT_CHANNELS, 1)


def test_width_bound_caps_the_weight_bytes():
    """A net at MAX_WIDTH_SQUARES holds under the 512 MiB of float32 weights
    its comment states, adapters included; without an rng it draws none."""
    widths = (1024, 1024)
    assert sum(w * w for w in widths) == tn.MAX_WIDTH_SQUARES
    net = tn.TUNet(FEATURE_DIM, widths, rng=None)
    net.attach_adapters()
    assert sum(p.data.nbytes for _, p in net.named_params()) < 512 * 2 ** 20


# -- level masks -----------------------------------------------------------


def test_level_masks_match_direct_or_pooling(monkeypatch):
    """Each SG-CAtt block sees the base grid zero-padded to the net's padded
    length and OR-pooled over 2^level rows, encoder and decoder alike."""
    z, tokens, _ = make_inputs(length=11)
    grid = (Rng(4).uniform(11 * 6).reshape(11, 6) > 0.5).astype(np.uint8)
    seen = []

    def spy(q, k, v, mask):
        seen.append(mask.grid)
        return sg_cross_attention(q, k, v, mask)

    monkeypatch.setattr(tn, "sg_cross_attention", spy)
    make_net(widths=(8, 12, 16))(z, 3, tokens, StoryboardMask(grid))
    padded = np.zeros((12, 6), dtype=np.uint8)
    padded[:11] = grid
    ref = [padded.reshape(12 >> lvl, 1 << lvl, 6).max(axis=1) for lvl in range(3)]
    assert len(seen) == 5
    for got, lvl in zip(seen, [0, 1, 2, 1, 0]):
        np.testing.assert_array_equal(got, ref[lvl])


# -- determinism and sensitivity -------------------------------------------


def test_construction_deterministic():
    z, cond, mask = make_inputs()
    a = make_net(seed=7)
    b = make_net(seed=7)
    for (na, pa), (nb, pb) in zip(a.named_params(), b.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)


def test_step_changes_output():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    o1 = net(z, 1, cond, mask).data
    o2 = net(z, 900, cond, mask).data
    assert np.abs(o1 - o2).max() > 1e-6


def test_conditions_change_output():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    o1 = net(z, 10, cond, mask).data
    o2 = net(z, 10, ag.Var(np.zeros_like(cond.data)), mask).data
    assert np.abs(o1 - o2).max() > 1e-8


def _nudge_from_zero(net):
    # zero-init output layers hide internal differences; give them signal
    net.out_conv.w.data = net.out_conv.w.data + 0.05
    net.res_proj.w.data = net.res_proj.w.data + 0.05


# -- adapters --------------------------------------------------------------


def test_fresh_adapter_is_exact_noop():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    before = net(z, 8, cond, mask).data.copy()
    net.attach_adapters()
    feats = Rng(9).gaussian((12, ALIGNER_HIDDEN)).astype(np.float32)
    after = net(z, 8, cond, mask, aligner_feats=feats).data
    np.testing.assert_array_equal(before, after)


def test_trained_adapter_changes_output():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    net.attach_adapters()
    net.adapters[0].beta.b.data = np.full_like(net.adapters[0].beta.b.data, 0.3)
    feats = Rng(9).gaussian((12, ALIGNER_HIDDEN)).astype(np.float32)
    with_feats = net(z, 8, cond, mask, aligner_feats=feats).data
    without = net(z, 8, cond, mask).data
    assert np.abs(with_feats - without).max() > 1e-6


def test_adapter_state_round_trips():
    net = make_net()
    net.attach_adapters()
    net.adapters[0].gamma.b.data = np.full_like(net.adapters[0].gamma.b.data, 0.5)
    state = net.state_dict()
    other = make_net(seed=99)
    other.attach_adapters()
    other.load_state_dict(state)
    np.testing.assert_array_equal(other.adapters[0].gamma.b.data,
                                  net.adapters[0].gamma.b.data)


# -- gradients -------------------------------------------------------------


def test_gradients_reach_all_parameter_groups():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    target = Rng(5).gaussian((LATENT_CHANNELS, 12)).astype(np.float32)
    out = net(ag.Var(z), 4, cond, mask)
    d = out - target
    (d * d).mean().backward()
    names_with_grad = {name for name, p in net.named_params()
                       if p.grad is not None and np.abs(p.grad).max() > 0}
    for prefix in ("in_conv", "enc.0", "enc.1", "dec.0", "down.0", "up.0",
                   "out_norm", "out_conv", "temb_lin1", "res_proj", "res_gate"):
        assert any(n.startswith(prefix) for n in names_with_grad), prefix


def test_gradcheck_sampled_parameters():
    r = Rng(11)
    z = r.gaussian((LATENT_CHANNELS, 6))
    cond = ag.Var(r.gaussian((6, 5)))
    mask = StoryboardMask(np.ones((6, 6), dtype=np.uint8))
    net = with_dtype(tn.TUNet(5, widths=(4, 6), rng=Rng(2)), np.float64)
    net.out_conv.w.data = net.out_conv.w.data + 0.05
    net.res_proj.w.data = net.res_proj.w.data + 0.05
    target = r.gaussian((LATENT_CHANNELS, 6))

    def loss():
        out = net(ag.Var(z), 7, cond, mask)
        d = out - target
        return (d * d).mean()

    loss().backward()
    eps = 1e-6
    picks = [p for _, p in net.named_params()][::5]  # every 5th tensor
    for p in picks:
        if p.grad is None:
            continue
        flat = p.data.ravel()
        idxs = [int(r.integers(0, flat.size)[0]) for _ in range(2)]
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(loss().data)
            flat[i] = orig - eps
            lo = float(loss().data)
            flat[i] = orig
            num = (hi - lo) / (2 * eps)
            got = p.grad.ravel()[i]
            denom = max(abs(num), abs(got), 1e-8)
            assert abs(got - num) / denom < 1e-3


def test_var_and_array_inputs_agree():
    z, cond, mask = make_inputs()
    net = make_net()
    _nudge_from_zero(net)
    a = net(z, 2, cond, mask).data
    b = net(ag.Var(z), 2, cond, mask).data
    np.testing.assert_array_equal(a, b)
