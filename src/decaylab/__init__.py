"""decaylab: a desk-scale laboratory for multiplicative convolutions of
measures on the line - dyadic grid measures, additive/multiplicative box
convolutions, Riesz s-energies, Fourier-decay profiling, discretized-set
combinatorics, and reproducible experiment pipelines.
"""

__version__ = "0.1.0"

from .convolution import convolve, difference_product
from .dyadic import (DyadicGridSet, additive_energy, covering_number,
                     projection_scan, set_check, uniformize)
from .energy import (energy_fourier, energy_spatial, exceptional_set,
                     extract_nonconcentrated, frostman_constant)
from .measures import (GridMeasure, OVERSAMPLE_BITS, ball_mass_vector,
                       point_mass, regularize, uniform_measure)
from .spectral import (DecayProfile, decay_profile, fourier_many, l2_at_scale,
                       order_check, product_chain_fourier, product_fourier)

__all__ = [
    "__version__",
    "GridMeasure", "OVERSAMPLE_BITS",
    "uniform_measure", "point_mass",
    "regularize", "ball_mass_vector",
    "convolve", "difference_product",
    "fourier_many", "product_fourier", "product_chain_fourier",
    "l2_at_scale", "DecayProfile", "decay_profile", "order_check",
    "energy_spatial", "energy_fourier",
    "frostman_constant", "exceptional_set",
    "extract_nonconcentrated",
    "DyadicGridSet", "covering_number", "set_check", "uniformize",
    "projection_scan", "additive_energy",
]
