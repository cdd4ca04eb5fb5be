
import numpy as np
import pytest

from vem import timeline as tl
from vem.errors import DataError
from vem.rng import Rng

from helpers import max_bipartite_matching


def ts(times, duration=10.0):
    return tl.TimestampSet(list(times), duration)


# -- types -----------------------------------------------------------------


def test_timestampset_validation():
    with pytest.raises(DataError):
        ts([2.0, 1.0])
    with pytest.raises(DataError):
        ts([-0.5])
    with pytest.raises(DataError):
        ts([11.0])
    assert len(ts([0.0, 5.0])) == 2


def test_timeline_validation():
    # rasters are uint8 0/1 arrays of ceil(duration * fps) frames by construction
    out = tl.from_timestamps(ts([0.0, 0.3, 0.31, 2.9], 3.0))
    assert out.dtype == np.uint8 and len(out) == 48
    assert set(np.unique(out).tolist()) == {0, 1}
    assert len(tl.from_timestamps(ts([], 1.01))) == 17


# -- rasterization ---------------------------------------------------------


def test_from_timestamps_floor_rule():
    out = tl.from_timestamps(ts([1.0], 2.0))
    assert out[16] == 1
    assert out.sum() == 1


def test_from_timestamps_empty():
    out = tl.from_timestamps(ts([], 1.0))
    assert out.sum() == 0 and len(out) == 16


def test_from_timestamps_collision_collapses():
    out = tl.from_timestamps(ts([0.01, 0.05], 1.0))
    assert out.sum() == 1 and out[0] == 1


def test_from_timestamps_clip_end_lands_on_last_frame():
    # 1.0 s * 16 fps is a whole number, so floor(t * fps) is one past the
    # raster; build_frame_features clamps that frame the same way
    out = tl.from_timestamps(tl.TimestampSet([0.5, 1.0], 1.0))
    assert len(out) == 16
    assert out.nonzero()[0].tolist() == [8, 15]


# -- intersection ----------------------------------------------------------


def test_intersect_examples():
    def raster(times):
        return tl.from_timestamps(ts(times, 0.25))  # 4 frames
    v = raster([0.0, 0.125])
    m = raster([0.0, 0.0625])
    np.testing.assert_array_equal(v & m, [1, 0, 0, 0])
    np.testing.assert_array_equal(v & v, v)
    assert (raster([0.0, 0.125]) & raster([0.0625, 0.1875])).sum() == 0


# -- matching --------------------------------------------------------------


def test_match_count_examples():
    assert tl.match_count(ts([0, 0.5, 1.0]), ts([0, 0.5, 1.0]), 0.5) == 3
    assert tl.match_count(ts([0, 1.0]), ts([2.0, 3.0]), 0.5) == 0
    assert tl.match_count(ts([0.0, 0.5, 1.0]), ts([0.4, 2.0]), 0.5) == 1


def test_match_count_rejects_bad_tol():
    with pytest.raises(DataError):
        tl.match_count(ts([0.0]), ts([0.0]), 0.0)


def test_match_count_equals_bipartite_oracle():
    r = Rng(123)
    for trial in range(200):
        na = int(r.integers(0, 13)[0])
        nb = int(r.integers(0, 13)[0])
        a = sorted(float(x) * 10.0 for x in r.uniform(na))
        b = sorted(float(x) * 10.0 for x in r.uniform(nb))
        tol = 0.1 + float(r.uniform(1)[0])
        got = tl.match_count(ts(a), ts(b), tol)
        want = max_bipartite_matching(a, b, tol)
        assert got == want, f"trial {trial}: greedy {got} != oracle {want}"


def test_match_count_symmetric():
    r = Rng(9)
    for _ in range(50):
        a = sorted(float(x) * 8.0 for x in r.uniform(6))
        b = sorted(float(x) * 8.0 for x in r.uniform(9))
        assert tl.match_count(ts(a), ts(b), 0.5) == tl.match_count(ts(b), ts(a), 0.5)


# -- iou metrics -----------------------------------------------------------


def test_beats_iou_examples():
    assert tl.beats_iou(ts([0, 0.5, 1.0]), ts([0, 0.5, 1.0])) == 1.0
    assert tl.beats_iou(ts([0.0, 0.5, 1.0]), ts([0.4, 2.0])) == 0.25
    assert tl.beats_iou(ts([]), ts([])) == 1.0
    assert tl.beats_iou(ts([]), ts([1.0])) == 0.0


def test_tb_iou_examples():
    assert tl.transitions_beats_iou(ts([1.0, 2.0]), ts([1.0, 2.0])) == 1.0
    assert tl.transitions_beats_iou(ts([1.0]), ts([0.0, 1.0, 2.0])) == pytest.approx(1 / 3)
    assert tl.transitions_beats_iou(ts([]), ts([1.0])) == 0.0


def test_iou_bounds_random():
    r = Rng(77)
    for _ in range(100):
        a = sorted(float(x) * 10 for x in r.uniform(int(r.integers(0, 9)[0])))
        b = sorted(float(x) * 10 for x in r.uniform(int(r.integers(0, 9)[0])))
        v = tl.beats_iou(ts(a), ts(b))
        assert 0.0 <= v <= 1.0
        if a:
            assert tl.beats_iou(ts(a), ts(a)) == 1.0


# -- f-measure -------------------------------------------------------------


def test_f_measure_perfect_and_empty():
    assert tl.f_measure(ts([1.0, 2.0]), ts([1.0, 2.0])) == 1.0
    assert tl.f_measure(ts([]), ts([])) == 1.0
    assert tl.f_measure(ts([]), ts([1.0])) == 0.0
    assert tl.f_measure(ts([1.0]), ts([])) == 0.0


def test_f_measure_half_precision():
    # estimate doubles every beat: recall 1, precision 0.5, F = 2/3
    ref = ts([1.0, 2.0])
    est = ts([1.0, 1.2, 2.0, 2.2])
    assert tl.f_measure(ref, est) == pytest.approx(2 / 3)
