"""Hamiltonian split, zero-order solution and residual propagation."""

import numpy as np
import pytest

from conftest import (
    conjugate_free,
    dense_from_action,
    fourier_vectors,
    interaction_hamiltonian,
    ladder_commutator_residual,
    make_model,
    midpoint_propagate,
    split_hamiltonian,
    static_unit_reference,
    u0_dense_reference,
    zero_order_hamiltonian,
)
from ecsim import dynamics, oracle
from ecsim.dynamics import (
    CouplingSet,
    ModulatorStrategy,
    TimeGrid,
    propagate_residual,
    zero_order_solution,
)
from ecsim.hilbert import circulant, fidelity, make_basis_state


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
    assert not np.any(interaction_hamiltonian(model, CouplingSet(model.lattice)))

    rng = np.random.default_rng(21)
    for _ in range(3):
        g = complex(rng.standard_normal(), rng.standard_normal()) * 0.3
        c = pair(model, int(rng.integers(1, 3)), g)
        for t in (0.0, 0.83):   # the Schroedinger and an interaction picture
            h = interaction_hamiltonian(model, c, t)
            assert np.linalg.norm(h - h.conj().T, 2) < 1e-13


def test_interaction_picture_matches_free_conjugation():
    model = make_model(sites=5, cutoff=4)
    c = pair(model, 1, 0.25 + 0.1j)
    t = 0.7
    analytic = interaction_hamiltonian(model, c, t)
    conjugated = conjugate_free(model, interaction_hamiltonian(model, c), t)
    assert np.abs(analytic - conjugated).max() < 1e-13


def test_split_exact_for_flat_dispersion():
    model = make_model(sites=5, cutoff=6, kind="flat")
    c = pair(model, 1, 0.3)
    _, h1 = split_hamiltonian(model, c, ModulatorStrategy.static_unit(), 0.37, k0=2)
    assert not np.any(h1)


def test_split_reconstructs_full_hamiltonian():
    model = make_model(sites=5, cutoff=5)
    c = pair(model, 2, 0.2 - 0.05j)
    rng = np.random.default_rng(8)
    for strat in (ModulatorStrategy.static_unit(), ModulatorStrategy.recoil_phase()):
        for t in rng.uniform(-3, 3, size=3):
            h0, h1 = split_hamiltonian(model, c, strat, float(t), k0=1)
            full = interaction_hamiltonian(model, c, float(t))
            assert np.abs((h0 + h1) - full).max() < 1e-13


def test_modulator_broadcasts_over_times():
    """One broadcast over an array of times equals the per-time calls bit for
    bit, and so does the zero-order solution's hdot."""
    model = make_model(sites=7, kind="quadratic", omega=2.3)
    c = pair(model, 2, 0.1 + 0.05j)
    grid = TimeGrid(t0=-3.7, t_end=0.0, steps=40)
    taus = grid.t0 + grid.dt / 2 * np.arange(2 * grid.steps + 1)
    for strat in (ModulatorStrategy.static_unit(), ModulatorStrategy.recoil_phase()):
        per_time = np.array([strat.factors(model, 3, c.offsets, tau) for tau in taus])
        assert np.array_equal(strat.factors(model, 3, c.offsets, taus), per_time)
        sol = zero_order_solution(model, c, strat, grid, 3)
        hdot = np.array([-1j * c.values * strat.factors(model, 3, c.offsets, tau)
                         * np.exp(1j * model.osc.omega * tau) for tau in taus])
        assert np.array_equal(sol.hdot_half, hdot)


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
    assert not np.any(sol.mu_half[0])
    u0 = dense_from_action(model, lambda states: sol.u0(0, states))
    assert np.abs(u0 - np.eye(model.dim)).max() < 1e-14


def test_h_and_chi_match_closed_form():
    model = make_model(sites=5, cutoff=10, omega=1.7)
    c = pair(model, 1, 0.25)
    f = fourier_vectors(model.lattice.sites)
    errs = []
    for steps in (100, 200):
        grid = TimeGrid(t0=-2.0, t_end=0.0, steps=steps)
        sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 2)
        h_ref, chi_ref = static_unit_reference(model, c, grid.t0, grid.t_end)
        h_err = max(abs(sol.h_half[-1][i] - h_ref[q])
                    for i, q in enumerate(sol.offsets))
        chi_err = np.abs((f * sol.mu_half[-1]) @ f.conj().T - chi_ref).max()
        errs.append(max(h_err, chi_err))
    order = np.log2(errs[0] / errs[1])
    assert errs[1] < 1e-5
    assert order > 1.9


def test_chi_hermitian_and_u0_unitary():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 2, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=150)
    sol = zero_order_solution(model, c, ModulatorStrategy.recoil_phase(), grid, 1)
    assert np.isrealobj(sol.mu_half)   # chi's branch values: Hermitian by construction
    for step in (0, 75, 150):
        u = dense_from_action(model, lambda states: sol.u0(step, states))
        assert np.linalg.norm(u.conj().T @ u - np.eye(model.dim), 2) < 1e-8


def test_zero_order_state_solves_h0_dynamics():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=1500)
    strat = ModulatorStrategy.recoil_phase()
    k0 = 2
    sol = zero_order_solution(model, c, strat, grid, k0)

    h0_of = lambda t: zero_order_hamiltonian(model, c, strat, t, k0)
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
    zero = CouplingSet(model.lattice)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=20)
    sol0 = zero_order_solution(model, zero, ModulatorStrategy.static_unit(), grid, 0)
    assert ladder_commutator_residual(sol0, grid.steps) < 1e-14

    c = pair(model, 1, 0.15)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=200)
    sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 0)
    amp = np.linalg.norm(circulant(model.lattice, sol.offsets, sol.h_half[-1]), 2)
    assert amp > 0.2  # the check runs at a non-trivial displacement
    assert ladder_commutator_residual(sol, grid.steps) < 1e-6


def test_u0_commutator_truncation_decay():
    # at a fixed observation window the truncation boundary layer recedes as
    # the cutoff grows, so the residual decays monotonically
    residuals = []
    for cutoff in (8, 12, 16):
        model = make_model(sites=3, cutoff=cutoff, omega=1.0)
        c = CouplingSet.hermitian_pair(model.lattice, 1, 0.15)
        grid = TimeGrid(t0=-2.0, t_end=0.0, steps=100)
        sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 0)
        residuals.append(ladder_commutator_residual(sol, grid.steps, keep_levels=5))
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[0] > 1e-12  # the sweep starts inside the truncated regime


def test_residual_trivial_cases():
    model = make_model(sites=5, cutoff=8)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    zero = CouplingSet(model.lattice)
    sol = zero_order_solution(model, zero, ModulatorStrategy.static_unit(), grid, 2)
    res, = propagate_residual(sol)
    assert np.array_equal(res.final, res.states[0])

    flat = make_model(sites=5, cutoff=8, kind="flat")
    c = CouplingSet.hermitian_pair(flat.lattice, 1, 0.25)
    sol = zero_order_solution(flat, c, ModulatorStrategy.static_unit(), grid, 2)
    res, = propagate_residual(sol)
    dev = np.linalg.norm(res.final - res.states[0])
    assert dev < 1e-10


def test_residual_stepper_runs_one_eigh_and_no_fft_per_step(monkeypatch):
    """One (levels, levels) eigendecomposition per run, a number of FFT calls
    that does not grow with the number of active steps, and a number of
    complex exponentials per active step that does not grow with the stack
    size, none of them inside a branch displacement (U0m^dag reuses the
    phases of U0m)."""
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2)
    levels = model.osc.levels
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: eighs.append(np.shape(a)) or eigh(a, *args, **kw))
    ffts = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "hfft", "ihfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *args, _fn=fn, _name=name, **kw: ffts.append(_name)
                            or _fn(*args, **kw))
    exp, exps, displaced = np.exp, [], []
    monkeypatch.setattr(np, "exp", lambda *args, **kw: exps.append(1) or exp(*args, **kw))
    branch_displacement = dynamics.branch_displacement

    def counted(*args, **kw):
        before = len(exps)
        out = branch_displacement(*args, **kw)
        displaced.append(len(exps) - before)
        return out

    monkeypatch.setattr(dynamics, "branch_displacement", counted)
    exps_per_step = []
    for size in (1, 2, 3):
        counts = []
        for steps in (10, 40):
            grid = TimeGrid(t0=-0.5, t_end=0.0, steps=steps)
            sols = [zero_order_solution(model, c.scaled(f), ModulatorStrategy.recoil_phase(),
                                        grid, 2) for f in (1.0, 0.5, 0.25)[:size]]
            eighs.clear()
            ffts.clear()
            exps.clear()
            displaced.clear()
            results = propagate_residual(*sols)
            assert eighs == [(levels, levels)]
            for res in results:
                assert np.linalg.norm(res.final - res.states[0]) > 1e-6  # every step is active
            assert len(displaced) == 2 * steps and not any(displaced)
            counts.append((len(ffts), len(exps)))
        assert counts[0][0] == counts[1][0]
        exps_per_step.append((counts[1][1] - counts[0][1]) / 30)
    assert exps_per_step[0] == exps_per_step[1] == exps_per_step[2]


@pytest.mark.parametrize("sites", [5, 6])
def test_stacked_member_scaled_by_zero_stays_at_the_initial_state(sites):
    model = make_model(sites=sites, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2 + 0.05j)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=30)
    sols = [zero_order_solution(model, c.scaled(f), strat, grid, 2)
            for f, strat in ((1.0, ModulatorStrategy.recoil_phase()),
                             (0.0, ModulatorStrategy.static_unit()),
                             (0.5, ModulatorStrategy.static_unit()))]
    stacked = propagate_residual(*sols, collect_every=7)
    zero = stacked[1]
    assert zero.exact_split
    assert np.array_equal(zero.steps, [0, 7, 14, 21, 28, 30])
    psi0 = make_basis_state(model, 2, 0)
    assert all(np.array_equal(state, psi0) for state in zero.states)
    for sol, res in ((sols[0], stacked[0]), (sols[2], stacked[2])):
        alone, = propagate_residual(sol, collect_every=7)
        assert res.sol is sol and not res.exact_split
        assert np.abs(res.states - alone.states).max() < 1e-14


def test_stacked_solutions_must_share_model_grid_k0_and_offsets():
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=10)
    static = ModulatorStrategy.static_unit()
    sol = zero_order_solution(model, c, static, grid, 2)
    mismatched = [
        zero_order_solution(make_model(sites=5, cutoff=8, omega=2.0), c, static, grid, 2),
        zero_order_solution(model, c, static, TimeGrid(t0=-1.0, t_end=0.0, steps=11), 2),
        zero_order_solution(model, c, static, grid, 1),
        zero_order_solution(model, pair(model, 2, 0.2), static, grid, 2),
    ]
    for other in mismatched:
        with pytest.raises(ValueError):
            propagate_residual(sol, other)
        with pytest.raises(ValueError):
            propagate_residual(other, sol)
    # equal but distinct model, grid and couplings stack
    twin_model = make_model(sites=5, cutoff=8, omega=2.5)
    twin = zero_order_solution(twin_model, pair(twin_model, 1, 0.1),
                               ModulatorStrategy.recoil_phase(),
                               TimeGrid(t0=-1.0, t_end=0.0, steps=10), 2)
    assert len(propagate_residual(sol, twin)) == 2


def test_collect_every_samples_the_full_trajectory():
    model = make_model(sites=6, cutoff=8, omega=2.5, kind="quadratic")
    c = pair(model, 1, 0.2 + 0.1j)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=23)
    sol = zero_order_solution(model, c, ModulatorStrategy.static_unit(), grid, 1)
    full, = propagate_residual(sol, collect_every=1)
    assert np.array_equal(full.steps, np.arange(grid.steps + 1))
    for every, want in ((None, [0, 23]), (5, [0, 5, 10, 15, 20, 23]), (23, [0, 23]),
                        (40, [0, 23]), (1, list(range(24)))):
        res, = propagate_residual(sol, collect_every=every)
        assert np.array_equal(res.steps, want)
        assert np.array_equal(res.states, full.states[want])
    with pytest.raises(ValueError):
        propagate_residual(sol, collect_every=0)


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
        res, = propagate_residual(sol)
        phys = sol.u0(grid.steps, res.final)
        assert abs(np.linalg.norm(phys) - 1.0) < 1e-8
        assert fidelity(phys, exact) > 1 - 1e-6
        finals[strat.kind] = phys
    # the split differs but the resummed dynamics cannot
    assert fidelity(finals["recoil_phase"], finals["static_unit"]) > 1 - 1e-6

