import numpy as np
import pytest

from decaylab import GridMeasure
from decaylab.constructions import CantorSpec, make_random_frostman

pytest_plugins = ["pytester"]


def random_cantor_measure(seed: int, block: int = 2, keep: int = 2,
                          depth: int = 5):
    """Standard sparse test input: s = log2(keep)/block Cantor measure."""
    _, mu = make_random_frostman(
        CantorSpec(block=block, keep=keep, depth=depth, seed=seed))
    return mu


def random_masses_measure(seed: int, level: int = 8, n: int = 40) -> GridMeasure:
    """Rough random measure: a few random cells with random masses."""
    rng = np.random.default_rng(seed)
    size = 1 << level
    masses = np.zeros(size)
    idx = rng.choice(size, size=min(n, size), replace=False)
    masses[idx] = rng.random(idx.size)
    masses /= masses.sum()
    return GridMeasure(level, 0, masses)


def lossy(fn, loss: float = 1e-6):
    """fn with its result scaled by 1 - loss: an injected mass leak."""
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1.0 - loss)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
