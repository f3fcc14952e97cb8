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
    TruncationError,
    branches,
    circulant,
    displacement,
    fidelity,
    make_basis_state,
)
from .ecs import (
    EcsState,
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
    ModulatorStrategy,
    TimeGrid,
    ZeroOrderSolution,
    propagate_residual,
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
)

__version__ = "0.1.0"
