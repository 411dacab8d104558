"""Superpositions of coherent states on the position line.

Construction of multi-component cat states, their Wigner functions,
marginal distributions and photon-number statistics in closed form with
independent numerical oracles, plus a finite-difference eigensolver that
recovers such states as ground states of multi-Gaussian-well potentials.
"""

from .states import (
    FockExpansion,
    SuperpositionSpec,
    fock_amplitudes,
    min_fock_truncation,
    normalization,
    overlap,
    position_wavefunction,
    preset,
)
from .wigner import (
    PhaseSpaceGrid,
    WignerField,
    cross_kernel,
    default_grid,
    integrate,
    negativity_volume,
    wigner_closed_form,
    wigner_numeric,
)
from .marginals import MarginalCurve, marginal_from_field, momentum_marginal, position_marginal
from .photon import (
    PhotonDistribution,
    digamma,
    envelope,
    envelope_derivative,
    envelope_extrema,
    inter_poissonian,
    poisson_pnd,
    qts_pnd,
    qts_pnd_closed_form,
)
from .wellsolver import (
    DiscretizedWavefunction,
    SolverConfig,
    WellPotentialSpec,
    default_solver_config,
    fidelity,
    ground_state,
    potential,
    solve_well,
)

__version__ = "0.1.0"
