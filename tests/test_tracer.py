"""Every callable the benchmark's traced run wraps (`bench/tracer.TARGETS`)
still exists under its name. A refactor that renames or folds one away would
otherwise read 0 for its per-layer metric, and only the benchmark's own tests
would notice.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracer  # noqa: E402


def test_tracer_patches_every_target():
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tr.missing == []
    finally:
        tr.restore()
