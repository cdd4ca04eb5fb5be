import numpy as np
import pytest

from helpers import params_of, with_dtype
from vem import autograd as ag
from vem import tbalign as tb
from vem.errors import DataError
from vem.rng import Rng


def toy_dataset(n_items=2, frames=48, feat_dim=6, seed=0):
    r = Rng(seed)
    out = []
    for i in range(n_items):
        feats = r.gaussian((feat_dim, frames)).astype(np.float32)
        labels = (r.uniform(frames) > 0.8).astype(np.float64)
        # plant the labels into channel 0 so the task is learnable
        feats[0] = labels * 3.0 - 1.0
        out.append((feats, labels))
    return out


# -- aligner net -----------------------------------------------------------


def test_forward_shapes():
    net = tb.AlignerNet(6, rng=Rng(0))
    pen, logits = net(np.zeros((6, 20), dtype=np.float32))
    assert pen.shape == (20, tb.ALIGNER_HIDDEN)  # time-major
    assert logits.shape == (20,)


def test_forward_rejects_wrong_dim():
    net = tb.AlignerNet(6, rng=Rng(0))
    with pytest.raises(DataError):
        net(np.zeros((5, 20)))


def test_aligner_gradients_match_fd():
    """Central differences match backward() at a fixed seeded sample of
    entries of every tensor, plus each tensor's largest gradient entry."""
    net = with_dtype(tb.AlignerNet(3, rng=Rng(5)), np.float64)
    feats = Rng(6).gaussian((3, 7))
    labels = (Rng(7).uniform(7) > 0.5).astype(np.float64)
    tb.aligner_loss(net, feats, labels).backward()
    eps = 1e-6
    pick = Rng(8)
    for p in params_of(net):
        flat, grad = p.data.ravel(), p.grad.ravel()
        idxs = set(pick.integers(0, flat.size, 6).tolist()) | {int(np.abs(grad).argmax())}
        num = {}
        for i in sorted(idxs):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(tb.aligner_loss(net, feats, labels).data)
            flat[i] = orig - eps
            lo = float(tb.aligner_loss(net, feats, labels).data)
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        denom = max(max(map(abs, num.values())), np.abs(grad).max(), 1e-12)
        assert max(abs(grad[i] - v) for i, v in num.items()) / denom < 1e-3


def test_training_learns_and_is_deterministic():
    data = toy_dataset()
    net1, losses1 = tb.train_aligner(data, 150, seed=4)
    net2, losses2 = tb.train_aligner(data, 150, seed=4)
    assert losses1[-1] < 0.3 * losses1[0]
    assert losses1 == losses2
    for a, b in zip(params_of(net1), params_of(net2)):
        np.testing.assert_array_equal(a.data, b.data)


def test_training_rejects_bad_datasets():
    with pytest.raises(DataError):
        tb.train_aligner([], 1, 0)
    good = toy_dataset(1)
    bad_dim = [(np.zeros((3, 10), dtype=np.float32), np.zeros(10))]
    with pytest.raises(DataError):
        tb.train_aligner(good + bad_dim, 1, 0)
    with pytest.raises(DataError):
        tb.train_aligner([(np.zeros((3, 10), dtype=np.float32), np.zeros(9))], 1, 0)


# -- feature resampling ----------------------------------------------------


def test_aligner_features_identity_length():
    net = tb.AlignerNet(4, rng=Rng(3))
    feats = Rng(8).gaussian((4, 12))
    pen, _ = net(feats)
    out = tb.aligner_features(net, feats, 12)
    np.testing.assert_allclose(out, pen.data, atol=1e-6)


def test_aligner_features_interp_oracle():
    net = tb.AlignerNet(4, rng=Rng(3))
    feats = Rng(8).gaussian((4, 12))
    pen, _ = net(feats)
    out = tb.aligner_features(net, feats, 6)
    ref = tb.linear_interp(pen.data.astype(np.float64), 6)
    np.testing.assert_allclose(out, ref, atol=1e-6)
    assert out.shape == (6, tb.ALIGNER_HIDDEN)


def test_aligner_features_constant_rows():
    class Fixed(tb.AlignerNet):
        def __call__(self, ff):
            import vem.autograd as ag
            pen = ag.Var(np.full((ff.shape[1], tb.ALIGNER_HIDDEN), 2.5, dtype=np.float32))
            return pen, ag.Var(np.zeros(ff.shape[1], dtype=np.float32))

    net = Fixed(4, rng=Rng(0))
    for latent_len in (5, 12, 31):
        out = tb.aligner_features(net, np.zeros((4, 12), dtype=np.float32), latent_len)
        assert out.shape == (latent_len, tb.ALIGNER_HIDDEN)
        np.testing.assert_allclose(out, 2.5, atol=1e-6)


# -- adapter ---------------------------------------------------------------


def test_adapter_zero_init_is_exact_noop():
    p = tb.AdapterParams(channels=3)
    z = Rng(9).gaussian((3, 8)).astype(np.float32).T
    feats = Rng(10).gaussian((tb.ALIGNER_HIDDEN, 8)).astype(np.float32).T
    out = tb.apply_adapter(z, feats, p).data
    assert (out == z).all()


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_adapter_matches_hand_rolled_oracle(seed):
    """The gamma and beta Linears start as the four zero arrays they
    replaced, and with trained weights loaded, `apply_adapter` computes
    z + (f @ gw + gb) * z + (f @ bw + bb) bit for bit."""
    channels, frames, hidden = 5, 9, tb.ALIGNER_HIDDEN
    p = tb.AdapterParams(channels)
    for lin in (p.gamma, p.beta):
        assert lin.w.data.shape == (hidden, channels) and lin.b.data.shape == (channels,)
        assert not lin.w.data.any() and not lin.b.data.any()
    r = Rng(seed)
    gw, gb, bw, bb = (r.gaussian(shape).astype(np.float32)
                      for shape in ((hidden, channels), (channels,)) * 2)
    p.load_state_dict({"gamma.w": gw, "gamma.b": gb, "beta.w": bw, "beta.b": bb})
    z = ag.Var(r.gaussian((frames, channels)).astype(np.float32))
    feats = r.gaussian((frames, hidden)).astype(np.float32)
    ft = ag.Var(feats)
    want = (z + ag.linear(ft, gw, gb) * z + ag.linear(ft, bw, bb)).data
    got = tb.apply_adapter(z, feats, p).data
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adapter_forced_gamma_one_doubles():
    p = tb.AdapterParams(channels=3)
    p.gamma.b.data = np.ones(3, dtype=np.float32)
    z = Rng(9).gaussian((3, 6)).astype(np.float32).T
    feats = np.zeros((6, tb.ALIGNER_HIDDEN), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, 2 * z, atol=1e-6)


def test_adapter_forced_gamma_minus_one_zeroes():
    p = tb.AdapterParams(channels=3)
    p.gamma.b.data = -np.ones(3, dtype=np.float32)
    z = Rng(9).gaussian((3, 6)).astype(np.float32).T
    feats = np.zeros((6, tb.ALIGNER_HIDDEN), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, 0.0, atol=1e-6)


def test_adapter_rejects_length_mismatch():
    p = tb.AdapterParams(channels=3)
    with pytest.raises(DataError):
        tb.apply_adapter(np.zeros((6, 3)), np.zeros((5, tb.ALIGNER_HIDDEN)), p)


def test_adapter_beta_adds():
    p = tb.AdapterParams(channels=2)
    p.beta.w.data = np.ones((tb.ALIGNER_HIDDEN, 2), dtype=np.float32)
    z = np.zeros((4, 2), dtype=np.float32)
    feats = np.ones((4, tb.ALIGNER_HIDDEN), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, tb.ALIGNER_HIDDEN, atol=1e-6)
