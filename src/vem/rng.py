"""Deterministic, cross-platform random number generation.

The generator is counter-based: sample block i of a stream is
``mix64(key + i * GOLDEN)`` where ``mix64`` is the SplitMix64 finalizer and
``key`` is derived from the seed by the same finalizer. Because every output
word is a pure function of (seed, counter), the stream is identical across
platforms and Python/numpy versions, and arbitrarily many words can be
produced in one vectorized shot. Normal variates come from the Box-Muller
transform applied to pairs of 53-bit uniforms.

The algorithm is fixed on purpose: checkpoints, synthetic corpora, and
sampler outputs are all reproducible from a seed alone.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(x):
    """SplitMix64 finalizer, elementwise over uint64 arrays."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MIX1
        x = (x ^ (x >> np.uint64(27))) * _MIX2
        return x ^ (x >> np.uint64(31))


class Rng:
    """Seeded stream of uniforms / normals with an explicit counter.

    Two instances built from the same seed produce byte-identical streams.
    Instances are cheap; give each worker or corpus item its own via `fork`.
    """

    def __init__(self, seed):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        with np.errstate(over="ignore"):
            self._key = _mix64(np.uint64(self.seed) + _GOLDEN)
        self._counter = 0

    def fork(self, stream):
        """Derive an independent child stream; deterministic in (seed, stream)."""
        with np.errstate(over="ignore"):
            child = int(_mix64(self._key ^ (np.uint64(int(stream) & 0xFFFFFFFFFFFFFFFF) * _GOLDEN)))
        return Rng(child)

    def _raw(self, n):
        idx = np.arange(self._counter, self._counter + n, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self._key + idx * _GOLDEN)

    def uniform(self, n):
        """n doubles in [0, 1), 53-bit resolution."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integers(self, low, high, n=1):
        """n ints uniform in [low, high). Modulo draw; bias is ~range/2^64."""
        span = int(high) - int(low)
        if span <= 0:
            raise ValueError("empty integer range")
        vals = self._raw(n) % np.uint64(span)
        return (vals.astype(np.int64) + int(low))

    def normal(self, n):
        """n standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        # (0,1] for the log argument, [0,1) for the angle
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def gaussian(self, shape):
        """i.i.d. standard normal tensor, float32, of the given shape."""
        shape = tuple(int(s) for s in (shape if np.iterable(shape) else (shape,)))
        count = int(np.prod(shape)) if shape else 0
        if count <= 0:
            raise ValueError(f"gaussian needs a positive-size shape, got {shape}")
        return self.normal(count).astype(np.float32).reshape(shape)

    def shuffle(self, items):
        """Fisher-Yates in place on a list; deterministic per stream state."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self.integers(0, i + 1, 1)[0])
            items[i], items[j] = items[j], items[i]
        return items
