"""Extended coherent states for a particle-oscillator system on a truncated
Hilbert space: state constructions and algebra checks, split propagation with
an exactly solvable zero order, position-space density matrices, a dense
brute-force oracle, and a reproducible CLI."""

from .hilbert import (
    CoefficientSet,
    Dispersion,
    Lattice,
    Model,
    OscillatorSpec,
    ProductOperator,
    branches,
    build_Q,
    circulant,
    displacement,
    fidelity,
    inner,
    ladder_b,
    ladder_b_dag,
    make_basis_state,
    rho,
    shift_matrix,
    state_norm,
)
from .ecs import (
    EcsState,
    TruncationError,
    check_b_action,
    coherent_state_vector,
    ecs_displacement,
    ecs_series,
    moment_identity_check,
    momentum_shift_check,
    overlap,
    overlap_single_mode,
    sum_rule,
    unity_resolution_check,
)
from .dynamics import (
    CouplingSet,
    ModulatorStrategy,
    TimeGrid,
    ZeroOrderSolution,
    commutator_rho_t,
    hamiltonian_full,
    propagate_residual,
    residual_magnitude_report,
    split_hamiltonian,
    u0_commutators_check,
    zero_order_solution,
)
from .observables import (
    AlphaField,
    GammaGrid,
    PositionGrid,
    alpha_phi,
    gamma_closed_form,
    gamma_exact,
    gamma_first_approx,
    intermediate_state_check,
)

__version__ = "0.1.0"
