"""Numerical toolkit for one-shot classical capacities, smoothed entropies,
and single-shot work extraction on finite classical (diagonal) systems."""

__version__ = "0.1.0"

from .core import (
    Distribution,
    ErrorParams,
    Hamiltonian,
    JointDistribution,
    StochasticChannel,
    ThermocapError,
    apply_local,
    gibbs_state,
    maximally_correlated,
    tensor_power,
    tensor_power_channel,
    trace_distance,
)
from .entropy import (
    FractionalTest,
    Renyi0Result,
    SubsetWitness,
    binary_entropy,
    hypothesis_testing_entropy,
    hypothesis_testing_entropy_iid_binary,
    min_positive_prob,
    min_relative_entropy,
    relative_entropy,
    smoothed_renyi0,
)
from .coding import (
    Codebook,
    classical_version,
    gibbs_deviation,
    ml_decoder,
    one_shot_capacity,
    success_probability,
    theta_equilibrium_capacity,
)
from .thermo import (
    WorkDistribution,
    WorkProcess,
    eps_delta_work,
    extractable_work,
    extraction_protocol,
    locally_thermal_hamiltonians,
    work_distribution,
    work_from_correlation,
)
from .bounds import (
    BoundReport,
    capacity_entropic_bounds,
    capacity_work_bounds,
    equilibrium_capacity_bounds,
    error_terms,
    landauer_scenario,
)
from .asymptotics import (
    ConvergenceSeries,
    constrained_holevo,
    regularized_capacity_series,
    shannon_capacity,
    stein_series,
)
