import pytest

from vem import curation as cu
from vem.rng import Rng


@pytest.fixture(scope="session")
def synth_pair():
    """One deterministic synthetic (annotation, waveform) pair."""
    return cu.synth_item(Rng(42), cu.SynthConfig())


@pytest.fixture(scope="session")
def small_corpus():
    """Four synthetic pairs shared by the slower integration tests."""
    return list(cu.synth_corpus(4, seed=11))
