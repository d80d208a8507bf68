"""Two Ising-coupled spin-S qudits: signals, entanglement, and asymptotics.

The package models a pair of spin-S systems coupled by H = -(J/S) S1z S2z,
prepared in product states (transverse coherent or uniform superposition),
and exposes the transverse magnetization signal F(tau), the rescaled
linear-entropy entanglement measure C^2, closed forms for both, large-S
asymptotics, and a brute-force tensor oracle used for verification.
"""

from .spin_core import (
    SpinMagnitude,
    central_binomial_weight,
    ladder_element,
    log_binomial,
    operator_matrix,
    signed_cos_pow,
    stirling_central_weight,
)
from .state_prep import (
    SingleSpinState,
    coherent_x,
    ground_state,
    qft,
    remove_global_phase,
    rotate_y,
    uniform_state,
)
from .evolution import (
    JointState,
    SystemConfig,
    evolve_product,
)
from .observables import (
    SpectralWeights,
    denom_s1_plus,
    f_coherent,
    f_gaussian_approx,
    f_general,
    f_sinc_approx,
    f_uniform,
    mean_s1x,
)
from .entanglement import (
    c_squared,
    purity_coherent_closed,
    purity_spectral,
    purity_uniform_closed,
    small_time_coefficient,
    time_average,
)
from .asymptotics import (
    MinimaConfig,
    c2_coherent_asymptotic,
    c2_coherent_asymptotic_minima,
    erf,
)
from .oracle import (
    dense_hamiltonian,
    oracle_evolve,
    oracle_mean_s1x,
    oracle_purity,
)

__all__ = [
    "SpinMagnitude",
    "ladder_element",
    "operator_matrix",
    "log_binomial",
    "signed_cos_pow",
    "central_binomial_weight",
    "stirling_central_weight",
    "SingleSpinState",
    "ground_state",
    "coherent_x",
    "uniform_state",
    "rotate_y",
    "qft",
    "remove_global_phase",
    "SystemConfig",
    "JointState",
    "evolve_product",
    "SpectralWeights",
    "f_general",
    "denom_s1_plus",
    "mean_s1x",
    "f_coherent",
    "f_uniform",
    "f_gaussian_approx",
    "f_sinc_approx",
    "c_squared",
    "purity_coherent_closed",
    "purity_uniform_closed",
    "purity_spectral",
    "small_time_coefficient",
    "time_average",
    "MinimaConfig",
    "erf",
    "c2_coherent_asymptotic",
    "c2_coherent_asymptotic_minima",
    "dense_hamiltonian",
    "oracle_evolve",
    "oracle_mean_s1x",
    "oracle_purity",
]

__version__ = "0.1.0"
