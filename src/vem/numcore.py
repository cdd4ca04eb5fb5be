"""Small numeric kernels shared across modules.

Everything here is pure-functional over numpy arrays. Routines that feed
metrics (sqrtm_psd) run in float64 regardless of input dtype; the rest
preserve the caller's dtype.
"""

import numpy as np


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


def linear_interp(values, num_out):
    """Resample an array along axis 0 (time-major: (length, ...)) to
    `num_out` rows.

    Endpoint-preserving: output positions are spread over [0, n_in - 1], so
    the first and last input rows survive exactly. A length-1 input is
    broadcast.
    """
    values = np.asarray(values)
    n_in = values.shape[0]
    num_out = int(num_out)
    if num_out < 1:
        raise ValueError("num_out must be >= 1")
    if n_in == 1:
        return np.repeat(values, num_out, axis=0)
    pos = np.linspace(0.0, n_in - 1.0, num_out)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = (pos - lo).astype(values.dtype if values.dtype.kind == "f" else np.float64)
    frac = frac.reshape((num_out,) + (1,) * (values.ndim - 1))
    return values[lo] * (1.0 - frac) + values[hi] * frac


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
