import numpy as np
import pytest

from vem import tbalign as tb
from vem.errors import DataError
from vem.numcore import linear_interp
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
    net = tb.AlignerNet(6, hidden=4, rng=Rng(0))
    pen, logits = net.forward(np.zeros((6, 20), dtype=np.float32))
    assert pen.shape == (20, 4)  # time-major
    assert logits.shape == (20,)


def test_forward_rejects_wrong_dim():
    net = tb.AlignerNet(6, hidden=4, rng=Rng(0))
    with pytest.raises(DataError):
        net.forward(np.zeros((5, 20)))


def test_aligner_gradients_match_fd():
    net = tb.AlignerNet(3, hidden=4, rng=Rng(5), dtype=np.float64)
    feats = Rng(6).gaussian((3, 7))
    labels = (Rng(7).uniform(7) > 0.5).astype(np.float64)
    tb.aligner_loss(net, feats, labels).backward()
    eps = 1e-6
    for p in net.params():
        flat = p.data.ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(tb.aligner_loss(net, feats, labels).data)
            flat[i] = orig - eps
            lo = float(tb.aligner_loss(net, feats, labels).data)
            flat[i] = orig
            num[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(num).max(), np.abs(p.grad).max(), 1e-12)
        assert np.abs(p.grad.ravel() - num).max() / denom < 1e-3


def test_training_learns_and_is_deterministic():
    data = toy_dataset()
    net1, losses1 = tb.train_aligner(data, 150, seed=4)
    net2, losses2 = tb.train_aligner(data, 150, seed=4)
    assert losses1[-1] < 0.3 * losses1[0]
    assert losses1 == losses2
    for a, b in zip(net1.params(), net2.params()):
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
    net = tb.AlignerNet(4, hidden=5, rng=Rng(3))
    feats = Rng(8).gaussian((4, 12))
    pen, _ = net.forward(feats)
    out = tb.aligner_features(net, feats, 12)
    np.testing.assert_allclose(out, pen.data, atol=1e-6)


def test_aligner_features_interp_oracle():
    net = tb.AlignerNet(4, hidden=5, rng=Rng(3))
    feats = Rng(8).gaussian((4, 12))
    pen, _ = net.forward(feats)
    out = tb.aligner_features(net, feats, 6)
    ref = linear_interp(pen.data.astype(np.float64), 6)
    np.testing.assert_allclose(out, ref, atol=1e-6)
    assert out.shape == (6, 5)


def test_aligner_features_constant_rows():
    class Fixed(tb.AlignerNet):
        def forward(self, ff):
            import vem.autograd as ag
            pen = ag.Var(np.full((ff.shape[1], self.hidden), 2.5, dtype=np.float32))
            return pen, ag.Var(np.zeros(ff.shape[1], dtype=np.float32))

    net = Fixed(4, hidden=3, rng=Rng(0))
    for latent_len in (5, 12, 31):
        out = tb.aligner_features(net, np.zeros((4, 12), dtype=np.float32), latent_len)
        assert out.shape == (latent_len, 3)
        np.testing.assert_allclose(out, 2.5, atol=1e-6)


# -- adapter ---------------------------------------------------------------


def test_adapter_zero_init_is_exact_noop():
    p = tb.AdapterParams(hidden=5, channels=3)
    z = Rng(9).gaussian((3, 8)).astype(np.float32).T
    feats = Rng(10).gaussian((5, 8)).astype(np.float32).T
    out = tb.apply_adapter(z, feats, p).data
    assert (out == z).all()


def test_adapter_forced_gamma_one_doubles():
    p = tb.AdapterParams(hidden=2, channels=3)
    p.gamma_b.data = np.ones(3, dtype=np.float32)
    z = Rng(9).gaussian((3, 6)).astype(np.float32).T
    feats = np.zeros((6, 2), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, 2 * z, atol=1e-6)


def test_adapter_forced_gamma_minus_one_zeroes():
    p = tb.AdapterParams(hidden=2, channels=3)
    p.gamma_b.data = -np.ones(3, dtype=np.float32)
    z = Rng(9).gaussian((3, 6)).astype(np.float32).T
    feats = np.zeros((6, 2), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, 0.0, atol=1e-6)


def test_adapter_rejects_length_mismatch():
    p = tb.AdapterParams(hidden=2, channels=3)
    with pytest.raises(DataError):
        tb.apply_adapter(np.zeros((3, 6)), np.zeros((2, 5)), p)


def test_adapter_beta_adds():
    p = tb.AdapterParams(hidden=2, channels=2)
    p.beta_w.data = np.ones((2, 2), dtype=np.float32)
    z = np.zeros((4, 2), dtype=np.float32)
    feats = np.ones((4, 2), dtype=np.float32)
    np.testing.assert_allclose(tb.apply_adapter(z, feats, p).data, 2.0, atol=1e-6)
