"""Corpus-level metrics beyond the timeline IoUs.

No perceptual model and no external embeddings are used: `vem eval` takes
its `fad` as `frechet_distance` between the pooled 60-bin log-mel frames of
the reference and the generated audio. That is a log-mel Fréchet distance,
not comparable with VGGish-based FAD figures. Statistics accumulate in
float64 (the Fréchet cross-term is sensitive to covariance round-off).
"""

import dataclasses

import numpy as np

from .errors import DataError


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


def sqrtm_psd(a):
    """Symmetric PSD matrix square root via eigendecomposition.

    Input must be symmetric up to round-off. Slightly negative eigenvalues
    (>= -1e-6 * max_eig) are clamped to zero; anything more negative
    raises, since that means the matrix was not PSD to begin with.
    Always computed and returned in float64.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, atol=1e-8 * max(1.0, float(np.abs(a).max(initial=0.0)))):
        raise ValueError("matrix is not symmetric")
    w, v = np.linalg.eigh((a + a.T) / 2.0)
    floor = -1e-6 * max(1.0, float(w.max(initial=0.0)))
    if w.min(initial=0.0) < floor:
        raise ValueError(f"matrix has negative eigenvalue {w.min():g}, not PSD")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def frechet_gaussian(mu_a, cov_a, mu_b, cov_b):
    """Squared Fréchet distance between two Gaussians.

    ||mu_a - mu_b||^2 + tr(cov_a + cov_b - 2 sqrtm(cov_a cov_b)). The cross
    term is evaluated as tr sqrtm(S cov_b S) with S = sqrtm(cov_a), which is
    symmetric PSD by construction, so `sqrtm_psd` applies. Covariances get
    a 1e-6 * I ridge first. Identical inputs give exactly 0.0 by short-cut.
    """
    mu_a = np.asarray(mu_a, dtype=np.float64)
    mu_b = np.asarray(mu_b, dtype=np.float64)
    cov_a = np.asarray(cov_a, dtype=np.float64)
    cov_b = np.asarray(cov_b, dtype=np.float64)
    if np.array_equal(mu_a, mu_b) and np.array_equal(cov_a, cov_b):
        return 0.0
    d = mu_a.shape[0]
    ridge = 1e-6 * np.eye(d)
    cov_a = cov_a + ridge
    cov_b = cov_b + ridge
    s = sqrtm_psd(cov_a)
    cross = sqrtm_psd(s @ cov_b @ s)
    val = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))
    return max(val, 0.0)


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

