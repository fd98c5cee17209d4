"""Walsh-Fourier analysis on the dyadic group at finite resolution.

Provides the group model (dyadic), the Walsh-Paley system and fast
transform (walsh), Dirichlet/Fejer/de la Vallee Poussin kernels with exact
rational samples (kernels), rational block weight schemes (weights), matrix
transform means (means), and the numerical verification suite
(experiments).  The package exports what the command line and the
verification suite call, and the types those calls return; the mean of
one block, vp_mean, is imported from walshvp.means.
"""

from .dyadic import INF, SampledFunction, interval_indicator, lp_norm, modulus_of_continuity
from .walsh_system import Spectrum, fwht_forward, fwht_inverse
from .kernels import KernelFunction, dirichlet, fejer
from .weights import ValidationReport, WeightScheme, build_scheme, validate

__all__ = [
    "INF",
    "SampledFunction",
    "Spectrum",
    "KernelFunction",
    "WeightScheme",
    "ValidationReport",
    "interval_indicator",
    "lp_norm",
    "modulus_of_continuity",
    "fwht_forward",
    "fwht_inverse",
    "dirichlet",
    "fejer",
    "build_scheme",
    "validate",
]
