"""Corpus-level metrics beyond the timeline IoUs.

Distributional metrics take externally supplied per-sample embeddings or
class-probability rows; no perceptual model runs here, so real extractor
outputs can be evaluated by writing them into a tensor container and
pointing the CLI at it. Statistics accumulate in float64 (the Fréchet
cross-term is sensitive to covariance round-off).
"""

import dataclasses

import numpy as np

from .errors import DataError
from .numcore import frechet_gaussian


@dataclasses.dataclass
class StoryboardScores:
    scores: list      # per-storyboard scalar
    durations: list   # matching d_i, seconds
    total_s: float    # whole-video duration

    def __post_init__(self):
        if len(self.scores) != len(self.durations):
            raise DataError("scores and durations must pair up")
        if any(d <= 0 for d in self.durations):
            raise DataError("storyboard durations must be positive")
        if sum(self.durations) > self.total_s + 1e-9:
            raise DataError("storyboard durations exceed the video duration")


def tw_score(s):
    """Duration-weighted aggregate: sum of (d_i / d_total) * score_i.

    Weights use the full video duration, so time not covered by any
    storyboard dilutes the aggregate toward zero.
    """
    if s.total_s <= 0:
        raise DataError("zero total duration")
    return float(sum((d / s.total_s) * v for v, d in zip(s.scores, s.durations)))


def _as_matrix(x, name):
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DataError(f"{name} must be a 2-D (samples, dim) matrix, got shape {m.shape}")
    if not m.shape[0] or not np.isfinite(m).all():
        raise DataError(f"{name} needs at least one row and only finite entries")
    return m


def frechet_distance(a, b):
    """Fréchet distance between Gaussian fits of two embedding sets."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DataError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DataError("need at least 2 samples per set for a covariance")
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    cov_a = np.cov(a, rowvar=False).reshape(a.shape[1], a.shape[1])
    cov_b = np.cov(b, rowvar=False).reshape(b.shape[1], b.shape[1])
    return frechet_gaussian(mu_a, cov_a, mu_b, cov_b)


def _check_prob_rows(p, name):
    p = _as_matrix(p, name)
    if np.any(p < 0):
        raise DataError(f"{name} has negative entries")
    sums = p.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise DataError(f"{name} rows must sum to 1 (worst deviation {np.abs(sums - 1).max():g})")
    return p


def inception_score(p):
    """exp(mean KL(p_m || mean_p)) over probability rows."""
    p = _check_prob_rows(p, "probabilities")
    marginal = np.clip(p.mean(axis=0), 1e-10, None)
    pc = np.clip(p, 1e-10, None)
    kl = (p * (np.log(pc) - np.log(marginal))).sum(axis=1)
    return float(np.exp(kl.mean()))


def mean_kld(p, q):
    """Mean KL(p_m || q_m) over paired probability rows; q clamped >= 1e-10."""
    p = _check_prob_rows(p, "p")
    q = _check_prob_rows(q, "q")
    if p.shape[0] != q.shape[0]:
        raise DataError(f"row counts differ: {p.shape[0]} vs {q.shape[0]}")
    qc = np.clip(q, 1e-10, None)
    pc = np.clip(p, 1e-10, None)
    kl = (p * (np.log(pc) - np.log(qc))).sum(axis=1)
    return float(kl.mean())
