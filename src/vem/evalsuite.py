"""Every score `vem eval` reports: the per-clip rhythm metrics and FAD.

`clip_scores` is the one place a clip is scored. Its metrics, CLIP_METRICS,
score the beats `beatdet.beats_within` finds in a reference and a generated
log-mel, both counted up to the manifest's `duration_s`: `b_iou` matches
the generated beats against the reference's, `tb_iou` against the
manifest's transitions, and `tw` weights the TB-IoU inside each storyboard
by its duration over the whole clip's. Audio with no beat grid (silence,
say) has no beats, so it scores 0 against a non-empty set and 1 when both
sets are empty.

No perceptual model and no external embeddings are used: `vem eval` takes
its `fad` as `frechet_distance` between the pooled 60-bin log-mel frames of
the reference and the generated audio. That is a log-mel Fréchet distance,
not comparable with VGGish-based FAD figures. Statistics accumulate in
float64 (the Fréchet cross-term is sensitive to covariance round-off), and
the cross-term takes one Cholesky factor and one symmetric eigenvalue solve.
"""

import dataclasses

import numpy as np

from .beatdet import beats_within
from .errors import DataError
from .parsing import SPAN_SLACK_S
from .timeline import DEFAULT_TOL_S, TimestampSet, beats_iou, transitions_beats_iou

CLIP_METRICS = ("b_iou", "tb_iou", "tw")


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
        # `load_manifest` lets each storyboard overlap the previous one, or
        # run past the clip's end, by SPAN_SLACK_S
        if sum(self.durations) > self.total_s + len(self.durations) * SPAN_SLACK_S:
            raise DataError("storyboard durations exceed the video duration")


def tw_score(s):
    """Duration-weighted aggregate: sum of (d_i / d_total) * score_i.

    Weights use the full video duration, so time not covered by any
    storyboard dilutes the aggregate toward zero.
    """
    if s.total_s <= 0:
        raise DataError("zero total duration")
    return float(sum((d / s.total_s) * v for v, d in zip(s.scores, s.durations)))


def clip_scores(ann, ref_mel, gen_mel, tol_s=DEFAULT_TOL_S):
    """{metric: score} over CLIP_METRICS for one clip, as the module
    docstring states; the beats are found once when `gen_mel is ref_mel`."""
    ref = beats_within(ref_mel, ann.duration_s)
    gen = ref if gen_mel is ref_mel else beats_within(gen_mel, ann.duration_s)

    def inside(ts, sb):
        times = np.asarray(ts.times_s)
        return TimestampSet(times[sb.covers(times)], ann.duration_s)

    per_storyboard = [transitions_beats_iou(inside(ann.transitions, sb), inside(gen, sb), tol_s)
                      for sb in ann.storyboards]
    tw = tw_score(StoryboardScores(per_storyboard, [sb.duration_s for sb in ann.storyboards],
                                   ann.duration_s))
    return {"b_iou": beats_iou(ref, gen, tol_s),
            "tb_iou": transitions_beats_iou(ann.transitions, gen, tol_s), "tw": tw}


def _as_matrix(x, name):
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DataError(f"{name} must be a 2-D (samples, dim) matrix, got shape {m.shape}")
    if not m.shape[0] or not np.isfinite(m).all():
        raise DataError(f"{name} needs at least one row and only finite entries")
    return m


def frechet_distance(a, b):
    """Squared Fréchet distance between Gaussian fits of two embedding sets.

    ||mu_a - mu_b||^2 + tr(C_a + C_b - 2 sqrtm(C_a C_b)), with a 1e-6 * I
    ridge on both covariances. With C_a = L L^T, C_a C_b is similar to the
    symmetric PSD L^T C_b L, so tr sqrtm(C_a C_b) is the sum of the square
    roots of that matrix's eigenvalues, round-off negatives read as 0: one
    Cholesky and one `eigvalsh`. C_b is factored too, so that a set the
    ridge leaves indefinite is refused on either side. Identical fits give
    exactly 0.0.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise DataError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise DataError("need at least 2 samples per set for a covariance")
    d, fits = a.shape[1], []
    for m, name in ((a, "a"), (b, "b")):
        cov = np.cov(m, rowvar=False).reshape(d, d) + 1e-6 * np.eye(d)
        try:
            fits.append((m.mean(axis=0), cov, np.linalg.cholesky(cov)))
        except np.linalg.LinAlgError:
            raise DataError(f"covariance of {name} is not positive definite, "
                            "even with the ridge") from None
    (mu_a, cov_a, low), (mu_b, cov_b, _) = fits
    if np.array_equal(mu_a, mu_b) and np.array_equal(cov_a, cov_b):
        return 0.0
    cross = np.sqrt(np.clip(np.linalg.eigvalsh(low.T @ cov_b @ low), 0.0, None)).sum()
    val = float(np.sum((mu_a - mu_b) ** 2) + np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross)
    return max(val, 0.0)
