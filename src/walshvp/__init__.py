"""Walsh-Fourier analysis on the dyadic group at finite resolution.

Provides the group model (dyadic), the Walsh-Paley system and fast
transform (walsh), Dirichlet/Fejer/de la Vallee Poussin kernels with exact
rational samples (kernels), rational block weight schemes (weights), matrix
transform means (means), and the numerical verification suite
(experiments).  The package exports what the command line and the
verification suite call, and the types they name or those calls return;
vp_mean and build_scheme, a block's mean and scheme, stay in means and
weights, and the kernels dirichlet and fejer and their type
KernelFunction in kernels, as no command builds one.
"""

from .dyadic import INF, SampledFunction, interval_indicator, lp_norm, modulus_of_continuity
from .walsh_system import Spectrum, fwht_forward, fwht_inverse
from .weights import ValidationReport, WeightScheme, validate

__all__ = [
    "INF",
    "SampledFunction",
    "Spectrum",
    "WeightScheme",
    "ValidationReport",
    "interval_indicator",
    "lp_norm",
    "modulus_of_continuity",
    "fwht_forward",
    "fwht_inverse",
    "validate",
]
