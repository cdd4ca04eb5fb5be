import numpy as np
import pytest

from vem import autograd as ag
from vem import diffusion as df
from vem import tunet as tn
from vem.audiofeat import HOP, LOG_FLOOR, N_MELS, SAMPLE_RATE, MelSpectrogram
from vem.errors import DataError
from vem.rng import Rng
from vem.sgcatt import StoryboardMask

from helpers import forward_step


# -- schedule --------------------------------------------------------------


def betas(s):
    """beta_t = 1 - abar_t / abar_{t-1}, recovered from the schedule."""
    return 1.0 - s.alpha_bar / np.concatenate([[1.0], s.alpha_bar[:-1]])


def test_schedule_single_step():
    s = df.make_schedule(1)
    assert s.T == 1
    np.testing.assert_allclose(s.alpha_bar, [1.0 - 1e-4])


def test_schedule_default_endpoint_noise():
    s = df.make_schedule(1000)
    np.testing.assert_allclose(betas(s)[[0, -1]], [1e-4, 0.02], rtol=1e-9)
    assert s.alpha_bar[-1] < 1e-4


def test_schedule_monotone():
    s = df.make_schedule(200)
    assert (np.diff(betas(s)) > 0).all()
    assert (np.diff(s.alpha_bar) < 0).all()
    assert (s.alpha_bar > 0).all() and (s.alpha_bar < 1).all()


def test_schedule_abar_zero_convention():
    s = df.make_schedule(10)
    assert s.abar(0) == 1.0
    assert s.abar(1) == pytest.approx(1.0 - 1e-4)


@pytest.mark.parametrize("args", [(0,)])
def test_schedule_rejects_bad_ranges(args):
    with pytest.raises(DataError):
        df.make_schedule(*args)


# -- forward process -------------------------------------------------------


def test_q_sample_small_beta_stays_close():
    s = df.NoiseSchedule(10, np.cumprod(np.full(10, 1.0 - 1e-6)))
    z0 = Rng(0).gaussian((3, 5))
    eps = Rng(1).gaussian((3, 5))
    zt = df.q_sample(z0, 1, eps, s)
    assert np.abs(zt - z0).max() < 0.01


def test_q_sample_endpoint_is_mostly_noise():
    s = df.make_schedule(1000)
    z0 = np.full((2, 4), 10.0)
    eps = Rng(2).gaussian((2, 4))
    zT = df.q_sample(z0, s.T, eps, s)
    # signal coefficient under 1% leaves the field dominated by eps
    assert np.abs(zT - eps).max() < 0.11


def test_q_sample_step_bounds():
    s = df.make_schedule(10)
    z = np.zeros((1, 1))
    with pytest.raises(DataError):
        df.q_sample(z, 0, z, s)
    with pytest.raises(DataError):
        df.q_sample(z, 11, z, s)


def test_stepwise_and_closed_form_agree_in_distribution():
    # iterate the one-step corruption for all of T=50 and compare the
    # resulting marginal's mean and variance to the closed form, 10k trials
    T = 50
    s = df.make_schedule(T)
    n = 10_000
    z0 = 1.5
    r = Rng(123)
    z = np.full(n, z0)
    for beta_t in np.linspace(1e-4, 0.02, T):
        z = forward_step(z, beta_t, r.gaussian((n,)))
    ab = s.abar(T)
    want_mean = np.sqrt(ab) * z0
    want_var = 1.0 - ab
    assert abs(z.mean() - want_mean) < 0.02 * abs(want_mean) + 0.02 * np.sqrt(want_var / n) * 3
    assert abs(z.var() - want_var) / want_var < 0.05
    # and the closed form draws land in the same place
    direct = df.q_sample(np.full(n, z0), T, Rng(321).gaussian((n,)), s)
    assert abs(direct.mean() - z.mean()) < 0.05
    assert abs(direct.var() - z.var()) / want_var < 0.05


# -- training loss ---------------------------------------------------------


def toy_setup(dtype=np.float32, seed=5):
    r = Rng(seed)
    z0 = r.gaussian((2, 8)).astype(dtype)
    cond = ag.Var(r.gaussian((6, 5)).astype(dtype))
    mask = StoryboardMask(np.ones((8, 6), dtype=np.uint8))
    net = tn.TUNet(2, 5, widths=(4,), temb_dim=8, rng=Rng(7), dtype=dtype)
    return z0, cond, mask, net


def test_training_loss_at_init_is_unit_scale():
    z0, cond, mask, net = toy_setup()
    sched = df.make_schedule(100)
    vals = [float(df.training_loss(net, z0, cond, mask, Rng(100 + k), sched).data)
            for k in range(10)]
    assert all(0.25 < v < 4.0 for v in vals)
    assert 0.7 < np.mean(vals) < 1.4


def test_training_loss_gradcheck():
    z0, cond, mask, net = toy_setup(dtype=np.float64)
    net.out_conv.w.data = net.out_conv.w.data + 0.05
    net.res_proj.w.data = net.res_proj.w.data + 0.05
    sched = df.make_schedule(100)

    def loss():
        return df.training_loss(net, z0, cond, mask, Rng(3), sched)

    loss().backward()
    r = Rng(8)
    eps = 1e-6
    for _, p in [pair for pair in net.named_params()][::4]:
        if p.grad is None:
            continue
        flat = p.data.ravel()
        i = int(r.integers(0, flat.size)[0])
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


def test_training_loss_decreases_under_adam():
    z0, cond, mask, net = toy_setup()
    sched = df.make_schedule(100)

    def eval_mean():
        return np.mean([float(df.training_loss(net, z0, cond, mask,
                                               Rng(1000 + k), sched).data)
                        for k in range(20)])

    before = eval_mean()
    opt = ag.Adam(net.params(), lr=3e-3)
    for step in range(150):
        opt.zero_grad()
        loss = df.training_loss(net, z0, cond, mask, Rng(step), sched)
        loss.backward()
        opt.step()
    assert eval_mean() < 0.9 * before


# -- sampler ---------------------------------------------------------------


def test_strided_timesteps_contract():
    ts = df.strided_timesteps(1000, 24)
    assert ts[0] == 1000 and ts[-1] == 1
    assert len(ts) == 24 == len(set(ts))
    assert all(a > b for a, b in zip(ts, ts[1:]))
    assert df.strided_timesteps(1000, 1) == [1000]
    assert df.strided_timesteps(5, 5) == [5, 4, 3, 2, 1]
    with pytest.raises(DataError):
        df.strided_timesteps(10, 11)
    with pytest.raises(DataError):
        df.strided_timesteps(10, 0)


class CountingNet(tn.TUNet):
    calls = 0

    def __call__(self, *a, **kw):
        CountingNet.calls += 1
        return super().__call__(*a, **kw)


def test_sample_calls_model_once_per_step():
    _, cond, mask, _ = toy_setup()
    net = CountingNet(2, 5, widths=(4,), temb_dim=8, rng=Rng(7))
    sched = df.make_schedule(100)
    CountingNet.calls = 0
    df.sample(net, cond, mask, (2, 8), 9, Rng(0), sched)
    assert CountingNet.calls == 9


def test_sample_deterministic_and_seed_sensitive():
    z0, cond, mask, net = toy_setup()
    sched = df.make_schedule(50)
    a = df.sample(net, cond, mask, (2, 8), 10, Rng(4), sched)
    b = df.sample(net, cond, mask, (2, 8), 10, Rng(4), sched)
    c = df.sample(net, cond, mask, (2, 8), 10, Rng(5), sched)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 8) and a.dtype == np.float32
    assert np.abs(a - c).max() > 1e-3


def test_sample_posterior_variance_nonnegative():
    sched = df.make_schedule(1000)
    ts = df.strided_timesteps(1000, 24)
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        ab_t, ab_prev = sched.abar(t), sched.abar(t_prev)
        beta_eff = 1.0 - ab_t / ab_prev
        if t_prev > 0:
            var = beta_eff * (1.0 - ab_prev) / (1.0 - ab_t)
            assert 0.0 <= var < 1.0


def test_sample_identity_model_recovers_prior_scale():
    # a model that always predicts zero noise turns the update into pure
    # rescaling plus injected noise; the result must stay finite and O(1)
    z0, cond, mask, net = toy_setup()
    sched = df.make_schedule(100)
    out = df.sample(net, cond, mask, (2, 8), 100, Rng(11), sched)
    assert np.isfinite(out).all()
    assert np.abs(out).max() < 10.0


# -- latent codec ----------------------------------------------------------


def spectro(windows, seed=0):
    vals = Rng(seed).gaussian((windows, N_MELS)).astype(np.float32)
    return MelSpectrogram(vals, HOP, SAMPLE_RATE, N_MELS)


def test_codec_constants():
    assert df.LATENT_CHANNELS == 240
    assert df.LATENT_FPS == 15.625
    assert df.latent_len_for_duration(10.0) == 157
    assert df.latent_len_for_duration(1.0) == 16


def test_codec_round_trip_exact():
    for w, seed in [(48, 1), (50, 2), (1, 3)]:
        m = spectro(w, seed)
        z = df.latent_encode(m)
        back = df.latent_decode(z)
        assert back.values.shape == m.values.shape
        np.testing.assert_array_equal(back.values, m.values)


def test_codec_shapes_and_fps():
    z = df.latent_encode(spectro(48))
    assert z.values.shape == (240, 12)
    assert z.n_windows == 48
    z2 = df.latent_encode(spectro(50))
    assert z2.values.shape == (240, 13)   # padded up to 52 windows


def test_codec_preserves_norm():
    m = spectro(48, seed=9)
    z = df.latent_encode(m)
    assert np.linalg.norm(z.values) == pytest.approx(np.linalg.norm(m.values), rel=1e-6)


def test_codec_pad_region_is_log_floor():
    m = spectro(50, seed=4)
    z = df.latent_encode(m)
    full = df.latent_decode(df.Latent(z.values, n_windows=52))
    np.testing.assert_allclose(full.values[50:], np.log(LOG_FLOOR), rtol=1e-6)


def test_codec_rejects_wrong_geometry():
    bad = MelSpectrogram(np.zeros((8, 30), dtype=np.float32), HOP, SAMPLE_RATE, 30)
    with pytest.raises(DataError):
        df.latent_encode(bad)
    with pytest.raises(DataError):
        df.latent_decode(df.Latent(np.zeros((100, 4), dtype=np.float32)))


def test_codec_decode_explicit_crop_overrides():
    m = spectro(48, seed=6)
    z = df.latent_encode(m)
    cropped = df.latent_decode(df.Latent(z.values, n_windows=40))
    np.testing.assert_array_equal(cropped.values, m.values[:40])
