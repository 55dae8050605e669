import numpy as np
import pytest

from decaylab import GridMeasure
from decaylab.constructions import CantorSpec, make_random_frostman
from decaylab.measures import _common_grid
from decaylab.spectral import fourier_lattice

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


def translated(mu: GridMeasure, b: float) -> GridMeasure:
    """mu moved by x -> x + b, where b is a whole number of mu's cells: the
    same masses on relabelled cells."""
    cells = b / mu.spacing
    assert cells == int(cells), f"shift {b} is not a whole number of level-{mu.level} cells"
    return GridMeasure(mu.level, mu.origin_index + int(cells), mu.masses)


def centers(mu: GridMeasure) -> np.ndarray:
    """Float center of every cell of mu's window, from the index arithmetic
    alone (an oracle independent of GridMeasure.atoms)."""
    return (mu.origin_index + np.arange(mu.size) + 0.5) * mu.spacing


def occupied(mu: GridMeasure) -> tuple[np.ndarray, np.ndarray]:
    """(float cell centers, masses) of the cells carrying mass."""
    nz = np.nonzero(mu.masses)[0]
    return (mu.origin_index + nz + 0.5) * mu.spacing, mu.masses[nz]


def fourier_at(mu: GridMeasure, xi: float) -> complex:
    """mu_hat(xi); |result| <= total mass, and fourier_at(mu, -xi) is its conjugate."""
    return complex(fourier_lattice(mu, xi, [1])[0, 0])


def l1_distance(mu: GridMeasure, nu: GridMeasure) -> float:
    """Transport (L^1-of-CDF) distance between two grid measures.

    This is the natural metric at grid resolution: moving mass m by one cell
    changes the distance by m * spacing, so re-binning slop stays O(spacing).
    """
    level, _, a, b = _common_grid(mu, nu)
    return float(np.sum(np.abs(np.cumsum(a - b))) * 2.0 ** -level)


def lossy(fn, loss: float = 1e-6):
    """fn with its result scaled by 1 - loss: an injected mass leak."""
    return lambda *args, **kwargs: fn(*args, **kwargs) * (1.0 - loss)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
