"""Property tests for invariants that hold over whole input families."""

import functools
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import max_bipartite_matching, splitmix64_reference

from vem import audiofeat as af
from vem import diffusion as df
from vem import evalsuite as ev
from vem import timeline as tl
from vem.container import load_tensors, save_tensors
from vem.errors import DataError
from vem.parsing import load_manifest
from vem.rng import Rng
from vem.sgcatt import StoryboardMask, level_masks

times = st.lists(st.floats(0.0, 29.0, allow_nan=False, width=32), max_size=10)


@settings(max_examples=60, deadline=None)
@given(times, times, st.floats(1e-3, 2.0, allow_nan=False))
@example([1.0], [0.999], 0.001)  # |1.0 - 0.999| rounds to just above 0.001
def test_match_count_is_maximum_matching(a, b, tol):
    a = sorted(set(round(x, 4) for x in a))
    b = sorted(set(round(x, 4) for x in b))
    got = tl.match_count(tl.TimestampSet(a, 30.0), tl.TimestampSet(b, 30.0), tol)
    assert got == max_bipartite_matching(a, b, tol)


@settings(max_examples=40, deadline=None)
@given(times, times)
def test_beats_iou_symmetric_and_bounded(a, b):
    a = tl.TimestampSet(sorted(set(round(x, 4) for x in a)), 30.0)
    b = tl.TimestampSet(sorted(set(round(x, 4) for x in b)), 30.0)
    v = tl.beats_iou(a, b, 0.5)
    assert 0.0 <= v <= 1.0
    assert v == tl.beats_iou(b, a, 0.5)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 100), st.floats(-3.0, 3.0, allow_nan=False))
def test_noiseless_corruption_is_pure_decay(t, z0):
    z = df.q_sample(np.array([z0]), t, np.zeros(1), 100)
    assert abs(z[0]) <= abs(z0) + 1e-12
    np.testing.assert_allclose(z[0], np.sqrt(df.make_schedule(100)[t]) * z0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6),
       st.integers(0, 10_000))
def test_tw_score_stays_inside_score_range(scores, seed):
    durs = list(1.0 + Rng(seed).uniform(len(scores)))
    s = ev.StoryboardScores(scores, durs, float(sum(durs)))
    v = ev.tw_score(s)
    assert min(scores) - 1e-9 <= v <= max(scores) + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_frechet_symmetric_nonnegative(seed, dim):
    r = Rng(seed)
    a = r.gaussian((12, dim))
    b = r.gaussian((9, dim)) + r.uniform(dim)
    ab = ev.frechet_distance(a, b)
    assert ab >= 0.0
    assert abs(ab - ev.frechet_distance(b, a)) < 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 40), st.integers(1, 8), st.integers(1, 4))
def test_level_masks_or_pool_padded_grid(seed, rows, n_tok, levels):
    grid = (Rng(seed).uniform(rows * n_tok).reshape(rows, n_tok) > 0.6).astype(np.uint8)
    mult = 2 ** (levels - 1)
    padded_len = -(-rows // mult) * mult
    masks = level_masks(StoryboardMask(grid), padded_len, levels)
    assert len(masks) == levels
    for lvl, m in enumerate(masks):
        f = 2 ** lvl
        assert m.grid.dtype == np.uint8 and m.grid.shape == (padded_len // f, n_tok)
        for i in range(padded_len // f):
            block = grid[i * f:(i + 1) * f]   # past the clip the slice is short or empty
            want = block.max(axis=0) if len(block) else np.zeros(n_tok, dtype=np.uint8)
            np.testing.assert_array_equal(m.grid[i], want)
        assert not m.grid[-(-rows // f):].any()   # rows wholly past the clip


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_rng_matches_reference_stream(seed):
    # the counter-based stream equals a classic sequential SplitMix64 run
    # whose seed is our derived key rewound by one golden-ratio increment
    golden = 0x9E3779B97F4A7C15
    key = splitmix64_reference(seed, 1)[0]
    want = splitmix64_reference((key - golden) & (2 ** 64 - 1), 5)
    assert [int(x) for x in Rng(seed)._raw(5)] == want


# -- corrupt files: every parser fails with DataError and nothing else ------

_LOADERS = {"wav": af.load_wav, "vemt": load_tensors, "json": load_manifest}


@functools.lru_cache(maxsize=None)
def _valid_file(kind):
    """Bytes of a small valid file of each kind, written by the package."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f." + kind)
        if kind == "wav":
            af.save_wav(path, af.Waveform(Rng(1).normal(16) * 0.1, af.SAMPLE_RATE))
        elif kind == "vemt":
            save_tensors(path, {"w": Rng(2).gaussian((3, 2)), "b": np.zeros(3)},
                         meta={"stage": "diffusion", "T": 10})
        else:
            doc = {"video_id": "v", "duration_s": 10.0,
                   "global": {"caption": "a b", "tags": ["calm"]},
                   "storyboards": [{"start_s": 0.0, "duration_s": 4.0, "text": "x"},
                                   {"start_s": 4.0, "duration_s": 6.0, "text": "y"}],
                   "transitions_s": [4.0]}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        with open(path, "rb") as fh:
            return fh.read()


# Pinned flips, each a leak the random search finds only rarely: the WAV
# fmt chunk size cut to 8 (offset 16) and the data chunk size cut to an odd
# 1 (offset 40); an invalid UTF-8 first byte of the JSON (offset 0); the
# container's first entry name made invalid UTF-8 (offset 44) and its first
# dim made to claim 17 GB (offset 52).
@pytest.mark.parametrize("kind", sorted(_LOADERS))
@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 12), st.integers(1, 255)), max_size=4),
       st.one_of(st.none(), st.integers(0, 1 << 12)))
@example(flips=[], keep=None)
@example(flips=[(16, 0x18)], keep=None)
@example(flips=[(40, 0x21)], keep=None)
@example(flips=[(0, 0x80)], keep=None)
@example(flips=[(44, 0x80)], keep=None)
@example(flips=[(52, 0xFF)], keep=None)
def test_corrupt_files_raise_only_data_error(kind, flips, keep):
    # flips xor bytes at wrapped positions; keep truncates (None keeps all)
    blob = bytearray(_valid_file(kind))
    for pos, mask in flips:
        blob[pos % len(blob)] ^= mask
    blob = bytes(blob[:keep])
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "f." + kind)
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            _LOADERS[kind](path)
        except DataError:
            assert blob != _valid_file(kind), "the unmodified file must parse"
