import json

import numpy as np
import pytest
import scipy.linalg
from helpers import click_track, make_annotation

from vem import audiofeat as af
from vem import evalsuite as ev
from vem.beatdet import beats_within
from vem.errors import DataError
from vem.parsing import MAX_STORYBOARDS, load_manifest
from vem.rng import Rng
from vem.timeline import TimestampSet, beats_iou, transitions_beats_iou


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


def test_tw_takes_a_manifest_at_the_readers_limit(tmp_path):
    """MAX_STORYBOARDS storyboards over an hour, each overlapping the
    previous one by 0.999e-9 s, which `load_manifest` allows: their
    durations sum to 6.8e-7 s past the clip, inside the 1e-9 s per
    storyboard the reader lets through."""
    n, total, overlap = MAX_STORYBOARDS, 3600.0, 0.999e-9
    step = total / n
    doc = {"video_id": "limit", "duration_s": total,
           "global": {"caption": "limit", "tags": []}, "transitions_s": [],
           "storyboards": [{"start_s": i * step, "text": f"scene {i}",
                            "duration_s": step + (overlap if i < n - 1 else 0.0)}
                           for i in range(n)]}
    path = tmp_path / "limit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    ann = load_manifest(path)
    durations = [sb.duration_s for sb in ann.storyboards]
    assert sum(durations) - total > 6e-7
    assert ev.tw_score(ev.StoryboardScores([1.0] * n, durations, total)) == pytest.approx(1.0)


# -- clip_scores -------------------------------------------------------------


@pytest.fixture(scope="module")
def scored_clip():
    """A 10 s annotation with two storyboards, transitions on a 100 BPM
    grid, and log-mels of click tracks at 100 and 120 BPM."""
    ref_wav, beats = click_track(100.0, duration_s=10.0)
    ann = make_annotation(10.0, (0.0, 4.0, 10.0), beats)
    return ann, af.logmel(ref_wav), af.logmel(click_track(120.0, duration_s=10.0, seed=1)[0])


def test_clip_scores_finds_the_beats_once_per_distinct_mel(scored_clip, monkeypatch):
    ann, ref_mel, gen_mel = scored_clip
    calls = []

    def counting(m, duration_s):
        calls.append(m)
        return beats_within(m, duration_s)

    monkeypatch.setattr(ev, "beats_within", counting)
    ev.clip_scores(ann, ref_mel, ref_mel)
    assert calls == [ref_mel]
    calls.clear()
    ev.clip_scores(ann, ref_mel, gen_mel)
    assert calls == [ref_mel, gen_mel]


def test_clip_scores_match_the_metric_definitions(scored_clip):
    """B-IoU and TB-IoU of the two beat sets, and TW as the TB-IoU inside
    each storyboard weighted by its duration over the clip's."""
    ann, ref_mel, gen_mel = scored_clip
    ref, gen = beats_within(ref_mel, 10.0), beats_within(gen_mel, 10.0)
    assert len(ref) and len(gen) and ref.times_s != gen.times_s
    got = ev.clip_scores(ann, ref_mel, gen_mel, 0.1)
    assert list(got) == list(ev.CLIP_METRICS)
    assert got["b_iou"] == beats_iou(ref, gen, 0.1)
    assert got["tb_iou"] == transitions_beats_iou(ann.transitions, gen, 0.1)

    def inside(ts, start, end):
        return TimestampSet([t for t in ts.times_s if start <= t < end], 10.0)

    tw = sum((end - start) / 10.0 * transitions_beats_iou(
        inside(ann.transitions, start, end), inside(gen, start, end), 0.1)
        for start, end in ((0.0, 4.0), (4.0, 10.0)))
    assert 0.0 < got["tw"] < 1.0
    assert got["tw"] == pytest.approx(tw, abs=1e-12)


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


def _with_nan(a):
    a[1, 2] = np.nan
    return a


@pytest.mark.parametrize("rows", [_with_nan(Rng(7).gaussian((30, 5))), np.zeros((0, 5))],
                         ids=["nan", "no-rows"])
def test_frechet_refuses_non_finite_or_empty_rows(rows):
    """A NaN entry or a matrix of zero rows is a DataError, not a scipy
    traceback or a NaN distance."""
    with pytest.raises(DataError, match="at least one row and only finite entries"):
        ev.frechet_distance(rows, Rng(8).gaussian((30, 5)))
    with pytest.raises(DataError, match="at least one row and only finite entries"):
        ev.frechet_distance(Rng(8).gaussian((30, 5)), rows)


def _frechet_oracle(a, b):
    """The same ridged Gaussian fits, with tr sqrtm(C_a C_b) from scipy's
    general matrix square root of the product."""
    a, b = np.asarray(a, np.float64), np.asarray(b, np.float64)
    d = a.shape[1]
    cov_a = np.cov(a, rowvar=False).reshape(d, d) + 1e-6 * np.eye(d)
    cov_b = np.cov(b, rowvar=False).reshape(d, d) + 1e-6 * np.eye(d)
    cross = np.trace(scipy.linalg.sqrtm(cov_a @ cov_b)).real
    return float(np.sum((a.mean(axis=0) - b.mean(axis=0)) ** 2)
                 + np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross)


def test_frechet_matches_sqrtm_oracle_on_log_mel_frames(small_corpus):
    """Pooled 60-bin log-mel frames of synthetic clips against those of
    their Griffin-Lim reconstructions, the spectral gap `vem eval` scores."""
    mels = [af.logmel(w) for _, w in small_corpus]
    real = np.concatenate([m.values for m in mels])
    recon = np.concatenate([af.logmel(af.griffin_lim(m, 8)).values for m in mels])
    want = _frechet_oracle(real, recon)
    assert want > 1.0
    assert ev.frechet_distance(real, recon) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("dim", range(1, 17))
def test_frechet_matches_sqrtm_oracle_on_random_fits(dim):
    r = Rng(100 + dim)
    a = r.gaussian((3 * dim + 5, dim)) * (0.1 + r.uniform(dim))
    b = r.gaussian((2 * dim + 7, dim)) @ r.gaussian((dim, dim)) + r.uniform(dim)
    assert ev.frechet_distance(a, b) == pytest.approx(_frechet_oracle(a, b), rel=1e-9)


def test_frechet_refuses_a_covariance_the_ridge_leaves_indefinite():
    """Rows of ±1e8 on every axis fit a singular covariance of 2e16 in each
    entry, whose round-off dwarfs the 1e-6 ridge: its Cholesky factor fails,
    and that is a DataError naming the set, on either side of the distance,
    not a LinAlgError traceback or a number."""
    bad, good = np.array([[1e8] * 3, [-1e8] * 3]), Rng(10).gaussian((50, 3))
    for name, args in (("a", (bad, good)), ("b", (good, bad))):
        with pytest.raises(DataError, match=f"covariance of {name} is not positive definite"):
            ev.frechet_distance(*args)
