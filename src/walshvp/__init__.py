"""Walsh-Fourier analysis on the dyadic group at finite resolution.

Provides the group model (dyadic), the Walsh-Paley system and fast
transform (walsh), Dirichlet/Fejer/de la Vallee Poussin kernels with exact
rational samples (kernels), rational block weight schemes (weights), matrix
transform means (means), and the numerical verification suite
(experiments).
"""

from .dyadic import (
    INF,
    SampledFunction,
    integrate,
    interval_indicator,
    lp_norm,
    modulus_of_continuity,
    translate,
)
from .walsh_system import (
    Spectrum,
    fwht_forward,
    fwht_inverse,
    partial_sum,
    rademacher,
    walsh,
)
from .kernels import (
    KernelDecomposition,
    KernelFunction,
    decompose_vp_kernel,
    dirichlet,
    dirichlet_via_recursion,
    fejer,
    kernel_l1_norm,
    vp_kernel,
)
from .weights import ValidationReport, WeightScheme, build_scheme, delta, validate
from .means import MeanResult, dyadic_convolve, general_vp_mean, vp_mean

__all__ = [
    "INF",
    "SampledFunction",
    "Spectrum",
    "KernelFunction",
    "KernelDecomposition",
    "WeightScheme",
    "ValidationReport",
    "MeanResult",
    "integrate",
    "interval_indicator",
    "lp_norm",
    "modulus_of_continuity",
    "translate",
    "fwht_forward",
    "fwht_inverse",
    "partial_sum",
    "rademacher",
    "walsh",
    "decompose_vp_kernel",
    "dirichlet",
    "dirichlet_via_recursion",
    "fejer",
    "kernel_l1_norm",
    "vp_kernel",
    "build_scheme",
    "delta",
    "validate",
    "dyadic_convolve",
    "general_vp_mean",
    "vp_mean",
]
