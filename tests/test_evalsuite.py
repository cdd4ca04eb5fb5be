import numpy as np
import pytest

from vem import evalsuite as ev
from vem.errors import DataError
from vem.rng import Rng


# -- tw_score --------------------------------------------------------------


def test_tw_single_storyboard_is_identity():
    s = ev.StoryboardScores([0.73], [10.0], 10.0)
    assert ev.tw_score(s) == pytest.approx(0.73)


def test_tw_weighted_example():
    s = ev.StoryboardScores([0.5, 1.0], [2.0, 8.0], 10.0)
    assert ev.tw_score(s) == pytest.approx(0.9)


def test_tw_equal_durations_is_mean():
    s = ev.StoryboardScores([0.2, 0.4, 0.9], [5.0, 5.0, 5.0], 15.0)
    assert ev.tw_score(s) == pytest.approx(np.mean([0.2, 0.4, 0.9]))


def test_tw_gap_dilutes_toward_zero():
    s = ev.StoryboardScores([1.0], [4.0], 10.0)
    assert ev.tw_score(s) == pytest.approx(0.4)


def test_tw_bounded_when_coverage_full():
    r = Rng(1)
    for _ in range(100):
        n = int(r.integers(1, 6)[0])
        dur = r.uniform(n) + 0.1
        scores = list(r.uniform(n))
        s = ev.StoryboardScores(scores, list(dur), float(dur.sum()))
        v = ev.tw_score(s)
        assert min(scores) - 1e-12 <= v <= max(scores) + 1e-12


def test_tw_matches_manual_weighted_mean():
    r = Rng(2)
    for _ in range(100):
        n = int(r.integers(1, 6)[0])
        dur = r.uniform(n) + 0.1
        total = float(dur.sum()) + float(r.uniform(1)[0])
        scores = r.uniform(n)
        s = ev.StoryboardScores(list(scores), list(dur), total)
        assert ev.tw_score(s) == pytest.approx(float((dur / total * scores).sum()))


def test_tw_invalid_fixtures():
    with pytest.raises(DataError):
        ev.StoryboardScores([1.0], [1.0, 2.0], 5.0)
    with pytest.raises(DataError):
        ev.StoryboardScores([1.0], [0.0], 5.0)
    with pytest.raises(DataError):
        ev.StoryboardScores([1.0, 1.0], [3.0, 3.0], 5.0)
    with pytest.raises(DataError):
        ev.tw_score(ev.StoryboardScores([], [], 0.0))


# -- frechet_distance ------------------------------------------------------


def test_frechet_self_is_zero():
    a = Rng(3).gaussian((50, 4))
    assert ev.frechet_distance(a, a.copy()) == pytest.approx(0.0, abs=1e-6)


def test_frechet_mean_shift_1d():
    r = Rng(4)
    a = r.gaussian((100_000, 1))
    b = r.gaussian((100_000, 1)) + 1.0
    assert ev.frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)


def test_frechet_scale_gap_1d():
    r = Rng(5)
    a = r.gaussian((100_000, 1))
    b = 2.0 * r.gaussian((100_000, 1))
    # closed form (sigma difference)^2 = (1 - 2)^2
    assert ev.frechet_distance(a, b) == pytest.approx(1.0, abs=0.05)


def test_frechet_symmetric_and_nonnegative():
    r = Rng(6)
    for _ in range(10):
        a = r.gaussian((40, 3))
        b = r.gaussian((30, 3)) + r.uniform(3)
        d_ab = ev.frechet_distance(a, b)
        d_ba = ev.frechet_distance(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-6)
        assert d_ab >= 0.0


def test_frechet_errors():
    r = Rng(7)
    with pytest.raises(DataError):
        ev.frechet_distance(r.gaussian((10, 2)), r.gaussian((10, 3)))
    with pytest.raises(DataError):
        ev.frechet_distance(r.gaussian((1, 2)), r.gaussian((10, 2)))
    with pytest.raises(DataError):
        ev.frechet_distance(r.gaussian((4, 2, 2)), r.gaussian((10, 2)))


# -- inception_score -------------------------------------------------------


def test_is_uniform_rows():
    p = np.full((12, 5), 0.2)
    assert ev.inception_score(p) == pytest.approx(1.0)


def test_is_one_hot_covering_k_classes():
    for k in (2, 4, 7):
        p = np.eye(k)[np.arange(3 * k) % k]
        assert ev.inception_score(p) == pytest.approx(k, rel=1e-9)


def test_is_identical_one_hot_rows():
    p = np.zeros((9, 6))
    p[:, 2] = 1.0
    assert ev.inception_score(p) == pytest.approx(1.0, abs=1e-6)


def test_is_range_on_random_rows():
    r = Rng(10)
    for _ in range(50):
        k = int(r.integers(2, 8)[0])
        raw = r.uniform(6 * k).reshape(6, k) + 1e-3
        p = raw / raw.sum(axis=1, keepdims=True)
        v = ev.inception_score(p)
        assert 1.0 - 1e-9 <= v <= k + 1e-9


def test_is_rejects_unnormalized():
    with pytest.raises(DataError):
        ev.inception_score(np.full((3, 4), 0.3))
    p = np.full((3, 4), 0.25)
    p[0, 0], p[0, 1] = -0.25, 0.75
    with pytest.raises(DataError):
        ev.inception_score(p)


# -- mean_kld --------------------------------------------------------------


def test_kld_identical_is_zero():
    r = Rng(11)
    raw = r.uniform(40).reshape(10, 4) + 1e-3
    p = raw / raw.sum(axis=1, keepdims=True)
    assert ev.mean_kld(p, p.copy()) == pytest.approx(0.0, abs=1e-12)


def test_kld_one_hot_vs_uniform():
    p = np.array([[1.0, 0.0]])
    q = np.array([[0.5, 0.5]])
    assert ev.mean_kld(p, q) == pytest.approx(np.log(2.0))


def test_kld_nonnegative_random_pairs():
    r = Rng(12)
    raw_p = r.uniform(1000 * 5).reshape(1000, 5) + 1e-3
    raw_q = r.uniform(1000 * 5).reshape(1000, 5) + 1e-3
    p = raw_p / raw_p.sum(axis=1, keepdims=True)
    q = raw_q / raw_q.sum(axis=1, keepdims=True)
    per_row = [ev.mean_kld(p[i:i + 1], q[i:i + 1]) for i in range(0, 1000, 10)]
    assert all(v >= 0.0 for v in per_row)
    assert ev.mean_kld(p, q) >= 0.0


def test_kld_count_mismatch():
    p = np.full((3, 2), 0.5)
    q = np.full((4, 2), 0.5)
    with pytest.raises(DataError):
        ev.mean_kld(p, q)


def test_kld_handles_zero_in_q():
    p = np.array([[0.5, 0.5]])
    q = np.array([[1.0, 0.0]])
    v = ev.mean_kld(p, q)
    assert np.isfinite(v) and v > 1.0   # clamp keeps it finite but large
