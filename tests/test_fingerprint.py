"""The fixed-seed behaviour fingerprint of `bench/fingerprint.json` as a
tier-1 test: stage-B/C losses and the sampled latent of a small three-stage
run must match the stored reference within the tolerances `bench/checks.py`
states. A change that alters behaviour on purpose regenerates the reference
with `python3 bench/write_fingerprint.py`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import checks  # noqa: E402


def test_fixed_seed_fingerprint_matches_reference():
    assert checks.check_fingerprint() == []
