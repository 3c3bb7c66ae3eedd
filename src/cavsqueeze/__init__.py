"""Simulator for dissipative generation of two-mode squeezed cavity fields.

A stream of three-level atoms crosses two cavity modes driven by a pair of
far-detuned Raman channels.  In a Bogoliubov-transformed mode basis each
atom acts as a zero-temperature reservoir that pumps the field toward a
two-mode squeezed vacuum.  The package provides the composite-space
primitives, the physical model and its derived rates, exact-diagonalization
and collision-model dynamics, a Gaussian (covariance-matrix) engine, the
two-step pumping protocol, and a command line interface.
"""

from .analysis import (
    EPRVariances,
    PreparationTime,
    SqueezingReport,
    epr_variances_fock,
    fidelity_to_tmsv,
    preparation_time,
    squeezing_report,
    tmsv_state_vector,
    truncation_leak,
)
from .dynamics import (
    ArrivalProcess,
    Trajectory,
    propagate_state,
    run_collision_ensemble,
    run_collision_model,
)
from .gaussian import (
    GaussianState,
    gaussian_epr_variances,
    gaussian_lindblad_evolve,
    gaussian_tmsv,
    gaussian_vacuum,
)
from .hilbert import (
    DensityMatrix,
    Operator,
    SpaceDescriptor,
    annihilation_op,
    atom_transition_op,
    basis_state,
    expectation,
    number_op,
)
from .model import (
    DerivedParams,
    PhysicalParams,
    b_mode_annihilation,
    build_effective_hamiltonian,
    build_full_hamiltonian,
    build_squeeze_operator,
    derive_rates,
    spontaneous_decay_estimate,
    stark_shifts,
)
from .protocol import (
    ProtocolSpec,
    ProtocolStep,
    RegimeReport,
    build_two_step_protocol,
    run_protocol,
    validate_regime,
)

__all__ = [
    "ArrivalProcess",
    "DensityMatrix",
    "DerivedParams",
    "EPRVariances",
    "GaussianState",
    "Operator",
    "PhysicalParams",
    "PreparationTime",
    "ProtocolSpec",
    "ProtocolStep",
    "RegimeReport",
    "SpaceDescriptor",
    "SqueezingReport",
    "Trajectory",
    "annihilation_op",
    "atom_transition_op",
    "b_mode_annihilation",
    "basis_state",
    "build_effective_hamiltonian",
    "build_full_hamiltonian",
    "build_squeeze_operator",
    "build_two_step_protocol",
    "derive_rates",
    "epr_variances_fock",
    "expectation",
    "fidelity_to_tmsv",
    "gaussian_epr_variances",
    "gaussian_lindblad_evolve",
    "gaussian_tmsv",
    "gaussian_vacuum",
    "number_op",
    "preparation_time",
    "propagate_state",
    "run_collision_ensemble",
    "run_collision_model",
    "run_protocol",
    "spontaneous_decay_estimate",
    "squeezing_report",
    "stark_shifts",
    "tmsv_state_vector",
    "truncation_leak",
    "validate_regime",
]

__version__ = "0.1.0"
