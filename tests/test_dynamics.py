"""Hamiltonian split, zero-order solution and residual propagation."""

import numpy as np
import pytest

from conftest import (
    dense_from_action,
    make_model,
    midpoint_propagate,
    static_unit_reference,
    u0_dense_reference,
)
from ecsim import oracle
from ecsim.dynamics import (
    CouplingSet,
    ModulatorStrategy,
    TimeGrid,
    commutator_rho_t,
    hamiltonian_full,
    propagate_residual,
    residual_magnitude_report,
    split_hamiltonian,
    u0_commutators_check,
    zero_order_solution,
)
from ecsim.hilbert import fidelity, make_basis_state, rho


def pair(model, q0, g):
    return CouplingSet.hermitian_pair(model.lattice, q0, g)


def test_coupling_constraint():
    model = make_model(sites=5)
    lat = model.lattice
    CouplingSet.from_dict(lat, {1: 0.2 + 0.1j, -1: 0.2 - 0.1j})
    with pytest.raises(ValueError):
        CouplingSet.from_dict(lat, {1: 0.2 + 0.1j})
    # explicit escape hatch for the strictly single-mode case
    c = CouplingSet.from_dict(lat, {1: 0.2 + 0.1j}, hermitian=False)
    assert c.items == ((1, 0.2 + 0.1j),)
    with pytest.raises(ValueError):
        CouplingSet.hermitian_pair(lat, 0, 0.1 + 0.2j)
    real_zero = CouplingSet.hermitian_pair(lat, 0, 0.3)
    assert real_zero.items == ((0, 0.3 + 0j),)


def test_hamiltonian_zero_and_hermitian():
    model = make_model(sites=5, cutoff=4)
    zero = hamiltonian_full(model, CouplingSet.zero(model.lattice))
    assert not np.any(zero.dense())

    rng = np.random.default_rng(21)
    for _ in range(3):
        g = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        c = pair(model, int(rng.integers(1, 3)), g)
        for picture, t in (("schrodinger", 0.0), ("interaction", 0.83)):
            h = hamiltonian_full(model, c, t, picture).dense()
            assert np.linalg.norm(h - h.conj().T, 2) < 1e-13

    with pytest.raises(ValueError):
        hamiltonian_full(model, pair(model, 1, 0.1), picture="heisenberg")


def test_interaction_picture_matches_free_conjugation():
    model = make_model(sites=5, cutoff=4)
    c = pair(model, 1, 0.25 + 0.1j)
    t = 0.7
    analytic = hamiltonian_full(model, c, t, "interaction").dense()
    conjugated = oracle.conjugate_free(
        model, hamiltonian_full(model, c, 0.0, "schrodinger"), t)
    assert np.abs(analytic - conjugated).max() < 1e-13


def _commutator_formula(model, q, qp, t, tp):
    """Two-term phase formula for [rho_q(t), rho_q'(t')] in the one-particle
    sector, written directly from the dispersion."""
    lat = model.lattice
    eps = model.energies()
    out = np.zeros((lat.sites, lat.sites), dtype=complex)
    for p in range(lat.sites):
        row = lat.shift_index(p, -(lat.wrap_offset(q) + lat.wrap_offset(qp)))
        k = row
        e_k = eps[k]
        e_kqqp = eps[p]
        e_kq = eps[lat.shift_index(k, q)]
        e_kqp = eps[lat.shift_index(k, qp)]
        first = np.exp(1j * (e_k * t - e_kqqp * tp - e_kq * (t - tp)))
        second = np.exp(1j * (e_k * tp - e_kqqp * t + e_kqp * (t - tp)))
        out[row, p] = first - second
    return out


@pytest.mark.parametrize("q,qp,t,tp", [(1, 2, 0.4, -0.9), (2, -2, 1.3, 0.25),
                                       (3, 1, -0.6, 0.6)])
def test_commutator_rho_t_matches_formula(q, qp, t, tp):
    model = make_model(sites=7, cutoff=2, kind="quadratic")
    got = commutator_rho_t(model, q, qp, t, tp)
    want = _commutator_formula(model, q, qp, t, tp)
    assert np.abs(got - want).max() < 1e-13
    # and against the dense free-propagator conjugation oracle
    r1 = oracle.conjugate_free(model, rho(model, q), t)
    r2 = oracle.conjugate_free(model, rho(model, qp), tp)
    dense = r1 @ r2 - r2 @ r1
    assert np.abs(np.kron(got, np.eye(model.osc.levels)) - dense).max() < 1e-13


def test_commutator_rho_t_degenerate_cases():
    model = make_model(sites=5, cutoff=2)
    assert np.abs(commutator_rho_t(model, 1, 2, 0.0, 0.0)).max() < 1e-15

    flat = make_model(sites=5, cutoff=2, kind="flat")
    assert np.abs(commutator_rho_t(flat, 1, 2, 0.7, -1.1)).max() < 1e-15


def test_split_exact_for_flat_dispersion():
    model = make_model(sites=5, cutoff=6, kind="flat")
    c = pair(model, 1, 0.3)
    _, h1 = split_hamiltonian(model, c, ModulatorStrategy.static_unit(), 0.37, k0=2)
    assert not np.any(h1.dense())


def test_split_reconstructs_full_hamiltonian():
    model = make_model(sites=5, cutoff=5)
    c = pair(model, 2, 0.2 - 0.05j)
    rng = np.random.default_rng(8)
    for strat in (ModulatorStrategy.static_unit(), ModulatorStrategy.recoil_phase()):
        for t in rng.uniform(-3, 3, size=3):
            h0, h1 = split_hamiltonian(model, c, strat, float(t), k0=1)
            full = hamiltonian_full(model, c, float(t), "interaction")
            assert np.abs((h0.dense() + h1.dense()) - full.dense()).max() < 1e-13


def test_modulated_family_commutes():
    from ecsim.dynamics import modulated_particle_matrix
    model = make_model(sites=7, cutoff=3)
    c = pair(model, 1, 0.2)
    strat = ModulatorStrategy.recoil_phase()
    rng = np.random.default_rng(13)
    times = rng.uniform(-4, 4, size=4)
    mats = [modulated_particle_matrix(model, c, strat, 3, float(t)) for t in times]
    worst = max(np.linalg.norm(a @ b - b @ a, 2) for a in mats for b in mats)
    assert worst < 1e-13


def test_strategy_unimodularity():
    model = make_model(sites=5)
    for strat in (ModulatorStrategy.static_unit(), ModulatorStrategy.recoil_phase()):
        f = strat.factors(model, 2, (1, 2, -1), 0.9)
        assert np.allclose(np.abs(f), 1.0, atol=1e-14)
    with pytest.raises(ValueError):
        ModulatorStrategy(kind="custom_phase")
    with pytest.raises(ValueError):
        ModulatorStrategy(kind="bogus")


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, t_end=0.0, steps=10)
    with pytest.raises(ValueError):
        TimeGrid(t0=-1.0, t_end=0.0, steps=0)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=4)
    assert np.allclose(grid.times, [-2.0, -1.5, -1.0, -0.5, 0.0])
    assert grid.midpoint(0) == -1.75


def test_stability_guard():
    model = make_model(sites=5, cutoff=6)
    c = pair(model, 1, 0.5)
    with pytest.raises(ValueError):
        zero_order_solution(model, c, ModulatorStrategy.static_unit(),
                            TimeGrid(t0=-10.0, t_end=0.0, steps=5), 2)


def test_zero_order_initial_values():
    model = make_model(sites=5, cutoff=8, omega=2.0)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=50)
    sol = zero_order_solution(model, c, ModulatorStrategy.recoil_phase(), grid, 2)
    assert np.abs(sol.h_half[0]).max() == 0.0
    assert np.abs(sol.chi(0)).max() == 0.0
    u0 = dense_from_action(model, lambda states: sol.u0(0, states))
    assert np.abs(u0 - np.eye(model.dim)).max() < 1e-14


def test_h_and_chi_match_closed_form():
    model = make_model(sites=5, cutoff=10, omega=1.7)
    c = pair(model, 1, 0.25)
    errs = []
    for steps in (100, 200):
        grid = TimeGrid(t0=-2.0, t_end=0.0, steps=steps)
        sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 2)
        h_ref, chi_ref = static_unit_reference(model, c, grid.t0, grid.t_end)
        h_err = max(abs(sol.h_half[-1][i] - h_ref[q])
                    for i, q in enumerate(sol.offsets))
        chi_err = np.abs(sol.chi(steps) - chi_ref).max()
        errs.append(max(h_err, chi_err))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 1e-5
    assert order > 1.9


def test_chi_hermitian_and_u0_unitary():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 2, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=150)
    sol = zero_order_solution(model, c, ModulatorStrategy.recoil_phase(), grid, 1)
    for step in (0, 75, 150):
        assert sol.chi_hermiticity_error(step) < 1e-14
        assert sol.unitarity_error(step) < 1e-8


def test_zero_order_state_solves_h0_dynamics():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=1500)
    strat = ModulatorStrategy.recoil_phase()
    k0 = 2
    sol = zero_order_solution(model, c, strat, grid, k0)

    h0_of = lambda t: split_hamiltonian(model, c, strat, t, k0)[0].dense()
    final = midpoint_propagate(model, h0_of, grid, make_basis_state(model, k0, 0))
    assert fidelity(sol.zero_order_state(grid.steps), final) > 1 - 1e-6


def test_u0_reference_assembly_matches():
    # U0 built by the dynamics module equals an independently assembled
    # exponential of the closed-form generator
    model = make_model(sites=5, cutoff=10, omega=1.3)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=2000)
    sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 2)
    h_ref, chi_ref = static_unit_reference(model, c, grid.t0, grid.t_end)
    u_ref = u0_dense_reference(model, h_ref, chi_ref)
    u0 = dense_from_action(model, lambda states: sol.u0(grid.steps, states))
    assert np.abs(u0 - u_ref).max() < 1e-6


def test_u0_commutator_relations():
    model = make_model(sites=5, cutoff=24, omega=1.0)
    zero = CouplingSet.zero(model.lattice)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=20)
    sol0 = zero_order_solution(model, zero, ModulatorStrategy.static_unit(), grid, 0)
    assert u0_commutators_check(sol0, grid.steps) < 1e-14

    c = pair(model, 1, 0.15)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=200)
    sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 0)
    amp = np.linalg.norm(sol.q_matrix(grid.steps), 2)
    assert amp > 0.2  # the check runs at a non-trivial displacement
    assert u0_commutators_check(sol, grid.steps) < 1e-6


def test_u0_commutator_truncation_decay():
    # at a fixed observation window the truncation boundary layer recedes as
    # the cutoff grows, so the residual decays monotonically
    residuals = []
    for cutoff in (8, 12, 16):
        model = make_model(sites=3, cutoff=cutoff, omega=1.0)
        c = CouplingSet.hermitian_pair(model.lattice, 1, 0.15)
        grid = TimeGrid(t0=-2.0, t_end=0.0, steps=100)
        sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 0)
        residuals.append(u0_commutators_check(sol, grid.steps, keep_levels=5))
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[0] > 1e-12  # the sweep starts inside the truncated regime


def test_residual_trivial_cases():
    model = make_model(sites=5, cutoff=8)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    zero = CouplingSet.zero(model.lattice)
    sol = zero_order_solution(model, zero, ModulatorStrategy.static_unit(), grid, 2)
    res = propagate_residual(sol)
    assert np.array_equal(res.final, res.states[0])

    flat = make_model(sites=5, cutoff=8, kind="flat")
    c = CouplingSet.hermitian_pair(flat.lattice, 1, 0.25)
    sol = zero_order_solution(flat, c, ModulatorStrategy.static_unit(), grid, 2)
    res = propagate_residual(sol)
    dev = np.linalg.norm(res.final - res.states[0])
    assert dev < 1e-10


def test_residual_resums_full_dynamics():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=750)
    k0 = 2
    psi0 = make_basis_state(model, k0, 0)
    exact = oracle.propagate_exact(model, c, grid, psi0)

    finals = {}
    for strat in (ModulatorStrategy.recoil_phase(), ModulatorStrategy.static_unit()):
        sol = zero_order_solution(model, c, strat, grid, k0)
        res = propagate_residual(sol)
        phys = res.physical_state(grid.steps)
        assert abs(np.linalg.norm(phys) - 1.0) < 1e-8
        assert fidelity(phys, exact) > 1 - 1e-6
        finals[strat.kind] = phys
    # the split differs but the resummed dynamics cannot
    assert fidelity(finals["recoil_phase"], finals["static_unit"]) > 1 - 1e-6


def test_residual_report():
    model = make_model(sites=5, cutoff=8, kind="quadratic", omega=2.0)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    zero = CouplingSet.zero(model.lattice)
    sol = zero_order_solution(model, zero, ModulatorStrategy.static_unit(), grid, 2)
    rep = residual_magnitude_report(sol)
    assert np.all(rep.deviation == 0.0)
    assert rep.integrated_h1_norm == 0.0

    # exact-split case: flat dispersion with the matching modulator
    flat = make_model(sites=5, cutoff=8, kind="flat")
    c_flat = CouplingSet.hermitian_pair(flat.lattice, 1, 0.15)
    sol_flat = zero_order_solution(flat, c_flat, ModulatorStrategy.static_unit(), grid, 2)
    rep_flat = residual_magnitude_report(sol_flat)
    assert np.all(rep_flat.deviation == 0.0)
    assert rep_flat.integrated_h1_norm == 0.0

    c = CouplingSet.hermitian_pair(model.lattice, 1, 0.15)
    rows = {}
    for strat in (ModulatorStrategy.static_unit(), ModulatorStrategy.recoil_phase()):
        sol = zero_order_solution(model, c, strat, grid, 2)
        rep = residual_magnitude_report(sol)
        assert rep.deviation.shape == (grid.steps + 1,)
        assert np.all(np.isfinite(rep.deviation))
        assert rep.integrated_h1_norm > 0.0
        rows[strat.kind] = rep
    # strategies produce genuinely different splits
    assert rows["static_unit"].integrated_h1_norm != rows["recoil_phase"].integrated_h1_norm
