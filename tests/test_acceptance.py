"""Acceptance suite.

One test per acceptance criterion, each enforced at its stated tolerance and
printing a PASS line with the measured values (run with -s to see them).
"""

import numpy as np
import pytest

from conftest import (
    dense_from_action,
    exact_interaction_state,
    hermitian_pair,
    make_model,
    midpoint_propagate,
    shift_matrix,
    static_unit_reference,
    u0_dense_reference,
    zero_order_hamiltonian,
)
from ecsim import oracle
from ecsim.cli import main
from ecsim.dynamics import (
    ModulatorStrategy,
    TimeGrid,
    propagate_residual,
    zero_order_solution,
)
from ecsim.ecs import (
    check_b_action,
    ecs_displacement,
    ecs_series,
    moment_identity_check,
    momentum_shift_check,
    overlap_single_mode,
    sum_rule,
    unity_resolution_check,
)
from ecsim.hilbert import CoefficientSet, fidelity, make_basis_state
from ecsim.observables import (
    PositionGrid,
    alpha_phi,
    gamma_closed_form,
    gamma_exact,
    gamma_first_approx,
)


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {text}  PASS")


def test_criterion_1_state_algebra():
    """Density components commute and shift momenta exactly on the lattice;
    the annihilation action holds at cutoff 20; the two constructions agree;
    the single-mode overlap formula holds on a complex-amplitude grid,
    including exact orthogonality between different initial momenta."""
    model = make_model(sites=7, cutoff=20, omega=1.0)
    lat = model.lattice

    shifts = [shift_matrix(lat, q) for q in range(lat.sites)]
    commutation_res = max(float(np.linalg.norm(a @ b - b @ a, 2)) for a in shifts for b in shifts)
    assert commutation_res < 1e-13

    rng = np.random.default_rng(100)
    shift_res = roundtrip_res = 0.0
    for h in (CoefficientSet.single_mode(lat, 1, 0.5),
              CoefficientSet.from_dict(lat, {1: 0.2, -2: 0.1j, 3: 0.15})):
        for k0 in (0, 3, 6):
            e = ecs_series(model, h, k0)
            for q in rng.integers(-6, 7, size=4):
                shift, roundtrip = momentum_shift_check(e, int(q))
                shift_res, roundtrip_res = max(shift_res, shift), max(roundtrip_res, roundtrip)
    assert shift_res < 1e-13
    assert roundtrip_res < 1e-13

    e05 = ecs_series(model, CoefficientSet.single_mode(lat, 1, 0.5), 3)
    annihilation_res = check_b_action(e05)
    assert annihilation_res < 1e-8

    equivalence = 0.0
    for h in (CoefficientSet.single_mode(lat, 1, 0.5),
              CoefficientSet.from_dict(lat, {2: 0.3, -1: 0.2 - 0.1j})):
        f = fidelity(ecs_series(model, h, 2).state, ecs_displacement(model, h, 2).state)
        equivalence = max(equivalence, 1.0 - f)
    assert equivalence < 1e-8

    mags = np.linspace(0.2, 1.0, 5)
    gs = [m * np.exp(0.9j * i) for i, m in enumerate(mags)]
    gps = [m * np.exp(-0.5j * i) for i, m in enumerate(mags)]
    overlap_dev = 0.0
    cache = {g: ecs_series(model, CoefficientSet.single_mode(lat, 2, g), 3)
             for g in gs + gps}
    for g in gs:
        for gp in gps:
            overlap_dev = max(overlap_dev, abs(np.vdot(cache[g].state, cache[gp].state)
                               - overlap_single_mode(g, gp, 3, 3)))
    assert overlap_dev < 1e-8
    ortho = abs(np.vdot(cache[gs[2]].state,
                        ecs_series(model, CoefficientSet.single_mode(lat, 2, gps[2]), 4).state))
    assert ortho == 0.0

    _report(1, f"commutation={commutation_res:.2e} shifts={shift_res:.2e} "
               f"roundtrip={roundtrip_res:.2e} annihilation={annihilation_res:.2e} "
               f"equivalence={equivalence:.2e} overlap={overlap_dev:.2e} ortho={ortho:.1e}")


def test_criterion_2_resolution_of_unity():
    """Resolution-of-unity quadrature and its scalar moment integral."""
    model = make_model(sites=3, cutoff=24, omega=1.0)
    res = unity_resolution_check(model, CoefficientSet.single_mode(model.lattice, 1, 1.0))
    assert res.deviation < 1e-6

    mom = moment_identity_check()
    assert mom.max_diagonal_error < 1e-8
    assert mom.max_offdiagonal < 1e-10

    _report(2, f"unity_deviation={res.deviation:.2e} "
               f"moment_diag={mom.max_diagonal_error:.2e} "
               f"moment_offdiag={mom.max_offdiagonal:.2e}")


def test_criterion_3_sum_rule():
    """Plane-wave contraction sum rule vs the analytic coherent state."""
    model = make_model(sites=7, cutoff=20, omega=1.0)
    e = ecs_series(model, CoefficientSet.single_mode(model.lattice, 1, 0.5), 3)
    rng = np.random.default_rng(200)
    worst = 0.0
    for m in rng.integers(0, 21, size=10):
        res = sum_rule(e, float(m) * model.lattice.spacing)
        worst = max(worst, 1.0 - res.fidelity)
    assert worst < 1e-8
    _report(3, f"max fidelity error over 10 randomized s = {worst:.2e}")


@pytest.fixture(scope="module")
def propagation_setup():
    # omega detuned from every particle-hole energy difference so the
    # accumulated amplitude stays well inside the Fock cutoff over T = 5
    model = make_model(sites=5, cutoff=12, omega=2.5)
    couplings = hermitian_pair(model.lattice, 1, 0.12)
    grid = TimeGrid(t0=-5.0, t_end=0.0, steps=5000)  # dt = 1e-3, T = 5
    return model, couplings, grid


def test_criterion_4_zero_order_exactness(propagation_setup):
    """Zero-order exactness: U0(t)|0,k0) vs independent propagation
    under the integrable part of the Hamiltonian."""
    model, couplings, grid = propagation_setup
    k0 = 2
    strat = ModulatorStrategy("static_unit")
    sol = zero_order_solution(model, couplings, strat, grid, k0)

    h0_of = lambda t: zero_order_hamiltonian(model, couplings, strat, t, k0)
    psi0 = make_basis_state(model, k0, 0)
    final_1 = midpoint_propagate(model, h0_of, grid, psi0)
    fid_err = 1.0 - fidelity(sol.u0(grid.steps, psi0), final_1)
    assert fid_err < 1e-6

    # U0 itself equals the exponential of the closed-form generator
    h_ref, chi_ref = static_unit_reference(model, couplings, grid.t0, grid.t_end)
    u_ref = u0_dense_reference(model, h_ref, chi_ref)
    u0_err = float(np.abs(dense_from_action(model, lambda states: sol.u0(grid.steps, states))
                          - u_ref).max())
    assert u0_err < 1e-12

    # dt-halving order against the closed-form zero-order solution
    ref = (u_ref @ psi0.reshape(-1)).reshape(model.shape)
    final_2 = midpoint_propagate(model, h0_of, TimeGrid(grid.t0, grid.t_end, 2 * grid.steps),
                                 psi0)
    e1 = float(np.linalg.norm(final_1 - ref))
    e2 = float(np.linalg.norm(final_2 - ref))
    order = float(np.log2(e1 / e2))
    assert order >= 1.9
    _report(4, f"fidelity_error={fid_err:.2e} U0 error={u0_err:.2e} "
               f"halving errors {e1:.2e}->{e2:.2e} order={order:.3f}")


def test_criterion_5_full_dynamics_equivalence(propagation_setup):
    """Residual resummation: U0(t)|t> vs the full-Hamiltonian oracle, both
    amplitude by amplitude against the step-free exact state, plus the
    exact-split case where the rotated state must not move."""
    model, couplings, grid = propagation_setup
    k0 = 2
    sol = zero_order_solution(model, couplings, ModulatorStrategy("recoil_phase"),
                              grid, k0)
    states, = propagate_residual(sol)
    psi0 = make_basis_state(model, k0, 0)
    split = sol.u0(grid.steps, states[-1])
    exact = oracle.propagate_exact(model, couplings, grid, psi0)
    fid_err = 1.0 - fidelity(split, exact)
    assert fid_err < 1e-6
    reference = exact_interaction_state(model, couplings, grid, psi0)
    split_err = float(np.abs(split - reference).max())
    oracle_err = float(np.abs(exact - reference).max())
    assert split_err < 1e-6
    assert oracle_err < 1e-6

    flat = make_model(sites=5, cutoff=12, omega=2.5, kind="flat")
    c_flat = hermitian_pair(flat.lattice, 1, 0.12)
    sol_flat = zero_order_solution(flat, c_flat, ModulatorStrategy("static_unit"),
                                   grid, k0)
    flat_states, = propagate_residual(sol_flat, collect_every=1)
    drift = float(np.abs(flat_states - flat_states[0]).max())
    assert drift < 1e-10

    _report(5, f"fidelity_error={fid_err:.2e} amplitude errors vs step-free exact: "
               f"split={split_err:.2e} oracle={oracle_err:.2e} exact-split drift={drift:.2e}")


def test_criterion_6_density_matrix_consistency():
    """Density-matrix consistency: closed form vs first approximation at
    cutoff 24, unit diagonal, Hermiticity, and the constant single-mode
    accumulated phase."""
    model = make_model(sites=7, cutoff=24, omega=2.5)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    grid = TimeGrid(t0=-2.5, t_end=0.0, steps=1000)

    worst_dev = 0.0
    worst_herm = 0.0
    worst_diag = 0.0
    cases = [
        (hermitian_pair(model.lattice, 1, 0.2),
         ModulatorStrategy("recoil_phase")),
        (CoefficientSet.from_dict(model.lattice, {1: 0.35}),
         ModulatorStrategy("static_unit")),
    ]
    phi_spread = None
    for couplings, strat in cases:
        sol = zero_order_solution(model, couplings, strat, grid, 3)
        gf = gamma_first_approx(sol, pos)
        field = alpha_phi(sol, pos)
        gc = gamma_closed_form(field, 3, pos)
        worst_dev = max(worst_dev, gf.max_deviation(gc))
        worst_herm = max(worst_herm, gf.hermiticity_error(), gc.hermiticity_error())
        worst_diag = max(worst_diag, float(np.abs(np.diag(gc.values) - 1.0).max()))
        if len(couplings.items) == 1:
            phi_spread = field.phi_spread()

    assert worst_dev < 1e-6
    assert worst_diag < 1e-13
    assert worst_herm < 1e-10
    assert phi_spread is not None and phi_spread < 1e-10
    _report(6, f"first_vs_closed={worst_dev:.2e} diag={worst_diag:.2e} "
               f"herm={worst_herm:.2e} phi_spread={phi_spread:.2e}")


def test_criterion_7_perturbative_gap_scaling():
    """Gap between the exact and closed-form density matrices shrinks under
    coupling halving with observed order >= 1.5."""
    model = make_model(sites=5, cutoff=14, omega=2.5)
    base = hermitian_pair(model.lattice, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=750)
    strat = ModulatorStrategy("recoil_phase")
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    gaps = []
    for factor in (1.0, 0.5, 0.25, 0.125):
        couplings = base.scaled(factor)
        sol = zero_order_solution(model, couplings, strat, grid, 2)
        ge = gamma_exact(propagate_residual(sol)[0, -1], sol, pos)
        gc = gamma_closed_form(alpha_phi(sol, pos), 2, pos)
        gaps.append(ge.max_deviation(gc))
    orders = [float(np.log2(gaps[i] / gaps[i + 1])) for i in range(3)]
    assert min(orders) >= 1.5
    _report(7, "gaps " + " ".join(f"{g:.2e}" for g in gaps)
            + " orders " + " ".join(f"{o:.2f}" for o in orders))


ACCEPT_CONFIG = """\
[model]
sites = 5
length = 5.0
dispersion = tight_binding
hopping = 1.0
cutoff = 12
omega = 2.5

[couplings]
1 = 0.12, 0.0
-1 = 0.12, 0.0

[initial]
k0 = 0

[time]
t0 = -1.5
t_end = 0.0
steps = 250

[strategy]
kind = recoil_phase

[positions]
count = 5

[run]
seed = 11
"""


def test_criterion_8_reproducibility(tmp_path):
    """Identical config and seed produce byte-identical data files."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(ACCEPT_CONFIG)
    pairs = []
    for cmd in ("properties", "gamma"):
        d1, d2 = tmp_path / f"{cmd}_1", tmp_path / f"{cmd}_2"
        assert main([cmd, "--config", str(cfg), "--out", str(d1)]) == 0
        assert main([cmd, "--config", str(cfg), "--out", str(d2)]) == 0
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            b1 = (d1 / name).read_bytes()
            b2 = (d2 / name).read_bytes()
            assert b1 == b2, f"{cmd}/{name} differs between identical runs"
            pairs.append(name)
    _report(8, f"byte-identical files: {len(pairs)} compared")
