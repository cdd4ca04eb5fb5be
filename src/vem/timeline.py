"""Event timestamps and the rhythmic metrics over them, on a 16 fps grid.

Events live as continuous timestamps for as long as possible and are only
rasterized (frame = floor(t * fps), a uint8 0/1 array) at the last step, so
sub-frame offsets survive until the timelines are compared. That raster,
`from_timestamps`, is the one 16 fps raster: it sizes and indexes every frame
matrix in `vem`. Matching between two timestamp sets is greedy ascending
one-to-one within a symmetric tolerance; on sorted inputs with interval
constraints this attains the maximum matching, which the test suite
cross-checks against a brute-force bipartite oracle.
"""

import dataclasses

import numpy as np

from .errors import DataError

DEFAULT_FPS = 16.0
DEFAULT_TOL_S = 0.5


@dataclasses.dataclass
class TimestampSet:
    times_s: list
    duration_s: float

    def __post_init__(self):
        self.times_s = [float(t) for t in self.times_s]
        if any(b < a for a, b in zip(self.times_s, self.times_s[1:])):
            raise DataError("timestamps must be sorted ascending")
        if self.times_s and (self.times_s[0] < 0 or self.times_s[-1] > self.duration_s):
            raise DataError(f"timestamps must lie in [0, {self.duration_s}]")

    def __len__(self):
        return len(self.times_s)


def from_timestamps(ts):
    """Rasterize to a uint8 0/1 array of ceil(duration * DEFAULT_FPS) frames.

    Colliding timestamps collapse; a timestamp at the clip end lands on the
    last frame.
    """
    n = int(np.ceil(ts.duration_s * DEFAULT_FPS))
    frames = np.zeros(n, dtype=np.uint8)
    for t in ts.times_s:
        frames[min(int(np.floor(t * DEFAULT_FPS)), n - 1)] = 1
    return frames


def match_count(a, b, tol_s):
    """One-to-one greedy matching count: sweep `a` ascending, consume the
    earliest unmatched element of `b` within +-tol_s.

    "Within" is |x - y| <= tol_s as rounded in float64, the same test on
    both sides of x; `x - tol_s` as a bound rounds differently and admits
    pairs a hair outside the tolerance.
    """
    if not tol_s > 0:
        raise DataError(f"tolerance must be positive, got {tol_s}")
    count = 0
    j = 0
    bt = b.times_s
    for x in a.times_s:
        while j < len(bt) and x - bt[j] > tol_s:
            j += 1
        if j < len(bt) and bt[j] - x <= tol_s:
            count += 1
            j += 1
    return count


def beats_iou(gt, syn, tol_s=DEFAULT_TOL_S):
    """Matched pairs over the union: m / (|gt| + |syn| - m).

    Both sets empty counts as perfect agreement (1.0); one empty set against
    a non-empty one scores 0.
    """
    if len(gt) == 0 and len(syn) == 0:
        return 1.0
    m = match_count(gt, syn, tol_s)
    return m / (len(gt) + len(syn) - m)


def transitions_beats_iou(tv, bm, tol_s=DEFAULT_TOL_S):
    """Same measure applied to video transitions vs music beats."""
    return beats_iou(tv, bm, tol_s)


def f_measure(reference, estimate):
    """Beat-tracking F-measure at the usual 70 ms tolerance."""
    if len(reference) == 0 and len(estimate) == 0:
        return 1.0
    if len(reference) == 0 or len(estimate) == 0:
        return 0.0
    m = match_count(reference, estimate, 0.07)
    precision = m / len(estimate)
    recall = m / len(reference)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
