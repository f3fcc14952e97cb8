"""Hamiltonian split, zero-order solution and residual propagation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PINNED,
    conjugate_free,
    coupled_models,
    dense_from_action,
    exact_interaction_state,
    fourier_vectors,
    hermitian_pair,
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
    STRATEGY_KINDS,
    ModulatorStrategy,
    TimeGrid,
    propagate_residual,
    zero_order_solution,
)
from ecsim.hilbert import (
    CoefficientSet,
    Dispersion,
    Model,
    OscillatorSpec,
    TruncationError,
    circulant,
    fidelity,
    ladder_quadrature,
    make_basis_state,
)
from ecsim.observables import PositionGrid, alpha_phi


def pair(model, q0, g):
    return hermitian_pair(model.lattice, q0, g)


def test_coupling_constraint():
    """g_-q = g_q^* is a configuration rule (test_cli); the dynamics take any
    coefficient set, and the test couplings built by `hermitian_pair` obey it."""
    model = make_model(sites=5, cutoff=4)
    lat = model.lattice
    assert pair(model, 1, 0.2 + 0.1j).items == ((-1, 0.2 - 0.1j), (1, 0.2 + 0.1j))
    with pytest.raises(ValueError):
        hermitian_pair(lat, 0, 0.1 + 0.2j)
    real_zero = hermitian_pair(lat, 0, 0.3)
    assert real_zero.items == ((0, 0.3 + 0j),)
    # the strictly single-mode case is a plain coefficient set, and its
    # Hamiltonian b^dag G + h.c. is Hermitian all the same
    single = CoefficientSet.from_dict(lat, {1: 0.2 + 0.1j})
    assert single.items == ((1, 0.2 + 0.1j),)
    h = interaction_hamiltonian(model, single, 0.83)
    assert np.linalg.norm(h - h.conj().T, 2) < 1e-13


def test_hamiltonian_zero_and_hermitian():
    model = make_model(sites=5, cutoff=4)
    assert not np.any(interaction_hamiltonian(model, CoefficientSet(model.lattice)))

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
    _, h1 = split_hamiltonian(model, c, ModulatorStrategy("static_unit"), 0.37, k0=2)
    assert not np.any(h1)


def _subnormal_coupling(sites, items):
    model = make_model(sites=sites, cutoff=1)
    return model, CoefficientSet(model.lattice, items)


@PINNED
@given(coupled_models(), st.sampled_from(["drawn", "flat", "zero_hopping", "only_q0",
                                          "zero_at_q1", "scaled_by_0"]))
@example(_subnormal_coupling(2, ((0, 2.225073858507e-311),)), "drawn")
@example(_subnormal_coupling(3, ((1, 1e-310), (-1, 1e-310))), "drawn")
def test_exact_split_is_h1_vanishing_at_every_midpoint(mc, variant):
    """`exact_split`, read off eps and the coupled offsets alone, holds under
    either strategy exactly when the dense H1 is zero at every midpoint, and
    both strategies agree; an exact member is not stepped and stays at
    |0,k0) exactly."""
    model, couplings = mc
    lat = model.lattice
    if couplings.operator_amplitude() > 1e-6:   # 0.2 / a subnormal amplitude overflows
        couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    if variant == "flat":
        model = Model(lat, Dispersion("flat", 0.7), model.osc)
    elif variant == "zero_hopping":   # energies mix -0.0 and 0.0
        model = Model(lat, Dispersion("tight_binding", 0.0), model.osc)
    elif variant == "only_q0":
        couplings = CoefficientSet(lat, ((0, 0.2),))
    elif variant == "zero_at_q1":   # an explicit zero at a shift that breaks invariance
        couplings = CoefficientSet(lat, ((0, 0.2), (1, 0.0)))
    elif variant == "scaled_by_0":
        couplings = couplings.scaled(0.0)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=8)
    k0 = lat.sites // 2
    sols = [zero_order_solution(model, couplings, ModulatorStrategy(kind), grid, k0)
            for kind in ("static_unit", "recoil_phase")]
    psi0 = make_basis_state(model, k0, 0)
    for sol, states in zip(sols, propagate_residual(*sols)):
        h1_zero = not any(split_hamiltonian(model, couplings, sol.strategy, grid.midpoint(i),
                                            k0)[1].any() for i in range(grid.steps))
        assert sol.exact_split == h1_zero
        assert all(np.array_equal(state, psi0) for state in states) == sol.exact_split
    assert sols[0].exact_split == sols[1].exact_split
    if variant != "drawn" or model.dispersion.kind == "flat":
        assert sols[0].exact_split


def test_split_reconstructs_full_hamiltonian():
    model = make_model(sites=5, cutoff=5)
    c = pair(model, 2, 0.2 - 0.05j)
    rng = np.random.default_rng(8)
    for strat in (ModulatorStrategy("static_unit"), ModulatorStrategy("recoil_phase")):
        for t in rng.uniform(-3, 3, size=3):
            h0, h1 = split_hamiltonian(model, c, strat, float(t), k0=1)
            full = interaction_hamiltonian(model, c, float(t))
            assert np.abs((h0 + h1) - full).max() < 1e-13


def test_strategy_unimodularity():
    model = make_model(sites=5)
    for strat in (ModulatorStrategy("static_unit"), ModulatorStrategy("recoil_phase")):
        f = np.exp(1j * strat.detuning(model, 2, (1, 2, -1)) * 0.9)
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
        zero_order_solution(model, c, ModulatorStrategy("static_unit"),
                            TimeGrid(t0=-10.0, t_end=0.0, steps=5), 2)


def test_truncation_guard_reads_the_closed_form_amplitude():
    """zero_order_solution applies the truncation rule to max_j |lam_j| over
    the grid points: 0.4 * 2/w = 1.6 after half a period of w = 0.5, so
    amplitude^2 = 2.56 fits under cutoff 12 (cutoff/4 = 3) but not under 8."""
    grid = TimeGrid(t0=-2 * np.pi, t_end=0.0, steps=100)
    strat = ModulatorStrategy("static_unit")
    model = make_model(sites=5, cutoff=12, omega=0.5)
    sol = zero_order_solution(model, pair(model, 1, 0.2), strat, grid, 2)
    assert abs(np.abs(dynamics.branch_values(sol, grid.t_end)[0]).max() - 1.6) < 1e-12
    model = make_model(sites=5, cutoff=8, omega=0.5)
    with pytest.raises(TruncationError, match="exceeds cutoff/4 = 2"):
        zero_order_solution(model, pair(model, 1, 0.2), strat, grid, 2)


def test_zero_order_initial_values():
    model = make_model(sites=5, cutoff=8, omega=2.0)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=50)
    sol = zero_order_solution(model, c, ModulatorStrategy("recoil_phase"), grid, 2)
    lam, mu = dynamics.branch_values(sol, grid.t0)
    assert not np.any(sol.h(grid.t0)) and not np.any(lam) and not np.any(mu)
    u0 = dense_from_action(model, lambda states: sol.u0(0, states))
    assert np.abs(u0 - np.eye(model.dim)).max() < 1e-14


def test_h_and_chi_match_closed_form():
    model = make_model(sites=5, cutoff=10, omega=1.7)
    c = pair(model, 1, 0.25)
    f = fourier_vectors(model.lattice.sites)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=100)
    sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 2)
    for t in (grid.t0, grid.midpoint(37), grid.t_end):
        h_ref, chi_ref = static_unit_reference(model, c, grid.t0, t)
        h = sol.h(t)
        _, mu = dynamics.branch_values(sol, t)
        assert max(abs(h[i] - h_ref[q]) for i, q in enumerate(sol.offsets)) < 1e-12
        assert np.abs((f * mu) @ f.conj().T - chi_ref).max() < 1e-12


def assert_matches_refined_trapezoid(sol):
    """h, the branch values of Q and chi at every grid point and alpha, Phi at
    the final time, against ``refined_trapezoid`` to 1e-10."""
    lat, offsets = sol.model.lattice, np.array(sol.offsets)
    h_ref, _ = refined_trapezoid(sol, np.eye(offsets.size))
    assert np.abs(sol.h(sol.grid.times) - h_ref).max() < 1e-10

    branch_w = np.exp(2j * np.pi * np.outer(np.arange(lat.sites), offsets) / lat.sites)
    lam, mu = dynamics.branch_values(sol, sol.grid.times)
    lam_ref, mu_ref = refined_trapezoid(sol, branch_w)
    assert np.abs(lam - lam_ref).max() < 1e-10
    assert np.abs(mu - mu_ref).max() < 1e-10

    pos = PositionGrid.uniform(lat, lat.sites)
    position_w = np.exp(-1j * np.outer(pos.points, 2 * np.pi * offsets / lat.length))
    alpha_ref, phi_ref = refined_trapezoid(sol, position_w)
    field = alpha_phi(sol, pos)
    assert np.abs(field.alpha_final - alpha_ref[-1]).max() < 1e-10
    assert np.abs(field.phi - phi_ref[-1]).max() < 1e-10


def refined_trapezoid(sol, weights, per_step=32):
    """(sum_q w_q h_q, int Im[lamdot^* lam]) at the grid points from the analytic
    hdot_q = -i g_q f_q(t) e^{iwt}: h and then the phase by cumulative
    trapezoid on a grid `per_step` and 2 `per_step` times finer than the
    solution's, combined by one Richardson step."""
    model, grid = sol.model, sol.grid

    def trapezoid(n):
        dt = grid.dt / n
        taus = grid.t0 + dt * np.arange(grid.steps * n + 1)
        hdot = (-1j * sol.couplings.values * np.exp(1j * model.osc.omega * taus)[:, None]
                * np.exp(1j * sol.strategy.detuning(model, sol.k0, sol.offsets) * taus[:, None]))
        h = np.concatenate([np.zeros((1, hdot.shape[1])),
                            np.cumsum(dt / 2 * (hdot[1:] + hdot[:-1]), axis=0)])
        lam, lamdot = h @ weights.T, hdot @ weights.T
        rate = np.imag(lamdot.conj() * lam)
        phase = np.concatenate([np.zeros((1, rate.shape[1])),
                                np.cumsum(dt / 2 * (rate[1:] + rate[:-1]), axis=0)])
        return lam[::n], phase[::n]

    (lam1, ph1), (lam2, ph2) = trapezoid(per_step), trapezoid(2 * per_step)
    return (4 * lam2 - lam1) / 3, (4 * ph2 - ph1) / 3


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]),
       st.sampled_from([0.0, 1e-8, -1e-8, 1e-6, 3e-5, 1e-3, 0.7]),
       st.integers(min_value=0, max_value=7))
def test_closed_form_matches_refined_trapezoid(mc, kind, target, pick):
    """The closed-form h, branch mu and Phi(x) against a Richardson-refined
    trapezoid of the analytic hdot, with omega placed so that nu_q of one
    coupled offset is `target`: exactly 0 when w = eps_{k0+q} - eps_{k0}
    under recoil_phase, and below or just above the Taylor threshold."""
    model, couplings = mc
    assume(couplings.operator_amplitude() > 1e-6)
    couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    strategy, k0 = ModulatorStrategy(kind), model.lattice.sites // 2
    q = couplings.offsets[pick % len(couplings.offsets)]
    omega = target - strategy.detuning(model, k0, [q])[0]
    assume(omega > 0)
    model = Model(model.lattice, model.dispersion, OscillatorSpec(model.osc.cutoff, omega))
    sol = zero_order_solution(model, couplings, strategy, TimeGrid(-1.0, 0.0, 20), k0)
    nu_q = sol.nu[sol.offsets.index(q)]
    assert nu_q == 0.0 if target == 0.0 else abs(nu_q - target) < 1e-14
    assert_matches_refined_trapezoid(sol)


def test_exact_resonance_matches_refined_trapezoid():
    """w = eps_{k0+1} - eps_{k0} makes nu_{+-1} exactly 0 under recoil_phase,
    where the closed form takes its nu = 0 limit."""
    model = make_model(sites=5, cutoff=8)
    eps, k0 = model.energies(), 2
    model = make_model(sites=5, cutoff=8, omega=eps[k0 + 1] - eps[k0])
    sol = zero_order_solution(model, pair(model, 1, 0.2), ModulatorStrategy("recoil_phase"),
                              TimeGrid(-1.0, 0.0, 20), k0)
    assert not np.any(sol.nu)
    assert_matches_refined_trapezoid(sol)


def test_chi_hermitian_and_u0_unitary():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 2, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=150)
    sol = zero_order_solution(model, c, ModulatorStrategy("recoil_phase"), grid, 1)
    assert np.isrealobj(dynamics.branch_values(sol, grid.times)[1])   # chi Hermitian by construction
    for step in (0, 75, 150):
        u = dense_from_action(model, lambda states: sol.u0(step, states))
        assert np.linalg.norm(u.conj().T @ u - np.eye(model.dim), 2) < 1e-8


def test_zero_order_state_solves_h0_dynamics():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=1500)
    strat = ModulatorStrategy("recoil_phase")
    k0 = 2
    sol = zero_order_solution(model, c, strat, grid, k0)

    h0_of = lambda t: zero_order_hamiltonian(model, c, strat, t, k0)
    psi0 = make_basis_state(model, k0, 0)
    final = midpoint_propagate(model, h0_of, grid, psi0)
    assert fidelity(sol.u0(grid.steps, psi0), final) > 1 - 1e-6


def test_u0_reference_assembly_matches():
    # U0 built by the dynamics module equals an independently assembled
    # exponential of the closed-form generator
    model = make_model(sites=5, cutoff=10, omega=1.3)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=2000)
    sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 2)
    h_ref, chi_ref = static_unit_reference(model, c, grid.t0, grid.t_end)
    u_ref = u0_dense_reference(model, h_ref, chi_ref)
    u0 = dense_from_action(model, lambda states: sol.u0(grid.steps, states))
    assert np.abs(u0 - u_ref).max() < 1e-12


def test_u0_commutator_relations():
    model = make_model(sites=5, cutoff=24, omega=1.0)
    zero = CoefficientSet(model.lattice)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=20)
    sol0 = zero_order_solution(model, zero, ModulatorStrategy("static_unit"), grid, 0)
    assert ladder_commutator_residual(sol0, grid.steps) < 1e-14

    c = pair(model, 1, 0.15)
    grid = TimeGrid(t0=-2.0, t_end=0.0, steps=200)
    sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 0)
    amp = np.linalg.norm(circulant(model.lattice, sol.offsets, sol.h(grid.t_end)), 2)
    assert amp > 0.2  # the check runs at a non-trivial displacement
    assert ladder_commutator_residual(sol, grid.steps) < 1e-6


def test_u0_commutator_truncation_decay():
    # at a fixed observation window the truncation boundary layer recedes as
    # the cutoff grows, so the residual decays monotonically
    residuals = []
    for cutoff in (8, 12, 16):
        model = make_model(sites=3, cutoff=cutoff, omega=1.0)
        c = hermitian_pair(model.lattice, 1, 0.15)
        grid = TimeGrid(t0=-2.0, t_end=0.0, steps=100)
        sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 0)
        residuals.append(ladder_commutator_residual(sol, grid.steps, keep_levels=5))
    assert residuals[2] < residuals[1] < residuals[0]
    assert residuals[0] > 1e-12  # the sweep starts inside the truncated regime


def test_residual_trivial_cases():
    model = make_model(sites=5, cutoff=8)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    zero = CoefficientSet(model.lattice)
    sol = zero_order_solution(model, zero, ModulatorStrategy("static_unit"), grid, 2)
    states, = propagate_residual(sol)
    assert np.array_equal(states[-1], states[0])

    flat = make_model(sites=5, cutoff=8, kind="flat")
    c = hermitian_pair(flat.lattice, 1, 0.25)
    sol = zero_order_solution(flat, c, ModulatorStrategy("static_unit"), grid, 2)
    states, = propagate_residual(sol)
    dev = np.linalg.norm(states[-1] - states[0])
    assert dev < 1e-10


def test_residual_stepper_runs_one_eigh_and_no_fft_per_step(monkeypatch):
    """One (levels, levels) eigendecomposition per run, and a number of
    complex exponentials per active step that does not grow with the stack
    size, none of them inside a branch displacement (U0m^dag reuses the
    phases of U0m).  That no command calls numpy.fft at all is
    test_commands_leave_optional_modules_out (tests/test_cli.py)."""
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2)
    levels = model.osc.levels
    eigh, eighs = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: eighs.append(np.shape(a)) or eigh(a, *args, **kw))
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
            sols = [zero_order_solution(model, c.scaled(f), ModulatorStrategy("recoil_phase"),
                                        grid, 2) for f in (1.0, 0.5, 0.25)[:size]]
            eighs.clear()
            exps.clear()
            displaced.clear()
            ladder_quadrature.cache_clear()
            results = propagate_residual(*sols)
            assert eighs == [(levels, levels)]
            for states in results:
                assert np.linalg.norm(states[-1] - states[0]) > 1e-6  # every step is active
            assert len(displaced) == 2 * steps and not any(displaced)
            counts.append(len(exps))
        exps_per_step.append((counts[1] - counts[0]) / 30)
    assert exps_per_step[0] == exps_per_step[1] == exps_per_step[2]


def test_stacked_stop_rule_costs_at_most_one_term_more_than_the_strongest_member(monkeypatch):
    """The stop rule is one reduction per Taylor term over the whole stack
    (a `vdot` of the stack), compared with machine epsilon squared: a stack
    of couplings scaled 1, 0.5 and 0.25 sums at most one term per step more
    than its strongest member stepped alone."""
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-0.5, t_end=0.0, steps=12)
    sols = [zero_order_solution(model, c.scaled(f), ModulatorStrategy("recoil_phase"), grid, 2)
            for f in (1.0, 0.5, 0.25)]
    events = []
    vdot, branch_displacement = np.vdot, dynamics.branch_displacement

    def counted_vdot(a, b):
        events.append("reduce")
        return vdot(a, b)

    monkeypatch.setattr(np, "vdot", counted_vdot)
    monkeypatch.setattr(dynamics, "branch_displacement",
                        lambda *a, **kw: events.append("displace") or branch_displacement(*a, **kw))

    def reductions_per_step(stack):
        events.clear()
        propagate_residual(*stack)
        counts = []
        for event in events:    # two displacements per step, the series in between
            if event == "displace":
                counts.append(0)
            else:
                counts[-1] += 1
        return counts[0::2]

    alone = reductions_per_step(sols[:1])
    stacked = reductions_per_step(sols)
    assert len(alone) == len(stacked) == grid.steps
    assert all(a > 2 for a in alone)
    assert all(a <= s <= a + 1 for a, s in zip(alone, stacked))


@pytest.mark.parametrize("sites", [5, 6])
def test_stacked_member_scaled_by_zero_stays_at_the_initial_state(sites):
    model = make_model(sites=sites, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2 + 0.05j)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=30)
    sols = [zero_order_solution(model, c.scaled(f), strat, grid, 2)
            for f, strat in ((1.0, ModulatorStrategy("recoil_phase")),
                             (0.0, ModulatorStrategy("static_unit")),
                             (0.5, ModulatorStrategy("static_unit")))]
    stacked = propagate_residual(*sols, collect_every=7)
    assert sols[1].exact_split
    assert np.array_equal(grid.samples(7), [0, 7, 14, 21, 28, 30]) and stacked.shape[1] == 6
    psi0 = make_basis_state(model, 2, 0)
    assert all(np.array_equal(state, psi0) for state in stacked[1])
    for sol, states in ((sols[0], stacked[0]), (sols[2], stacked[2])):
        alone, = propagate_residual(sol, collect_every=7)
        assert not sol.exact_split
        assert np.abs(states - alone).max() < 1e-14


def test_stacked_solutions_must_share_model_grid_k0_and_offsets():
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=10)
    static = ModulatorStrategy("static_unit")
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
                               ModulatorStrategy("recoil_phase"),
                               TimeGrid(t0=-1.0, t_end=0.0, steps=10), 2)
    assert len(propagate_residual(sol, twin)) == 2


def stacked_family(family, grid):
    """Solutions sharing nu (couplings scaled, as ``sweep`` stacks them) or
    mixing nu (both strategies, as ``evolve --compare-strategies``; one nu
    repeated, so members and distinct nu differ in order and number)."""
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = pair(model, 1, 0.2 + 0.05j)
    if family == "scaled":
        return [zero_order_solution(model, c.scaled(f), ModulatorStrategy("recoil_phase"),
                                    grid, 2) for f in (1.0, 0.5, 0.25)]
    return [zero_order_solution(model, c, ModulatorStrategy(kind), grid, 2)
            for kind in ("recoil_phase", "static_unit", "recoil_phase")]


@pytest.mark.parametrize("family, distinct_nu", [("scaled", 1), ("strategies", 2)])
def test_stacked_evaluators_equal_a_loop_of_one_member_calls(monkeypatch, family, distinct_nu):
    """``accumulated``, ``branch_values`` and ``u0`` on a stack give each
    member its one-member result to 1e-13, with the member axis first; one
    stacked call evaluates ``_nested`` once, on the distinct nu only."""
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=30)
    sols = stacked_family(family, grid)
    model = sols[0].model
    rng = np.random.default_rng(3)
    weights = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    times = grid.times[::7]
    nested, rows = dynamics._nested, []
    monkeypatch.setattr(dynamics, "_nested",
                        lambda nu, *args: rows.append(nu.shape[0]) or nested(nu, *args))
    amplitude, phase = dynamics.accumulated(sols, weights, times)
    assert rows == [distinct_nu]
    lam, mu = dynamics.branch_values(sols, times)
    assert lam.shape == mu.shape == (3, times.size, 5)
    states = rng.normal(size=(3,) + model.shape) + 1j * rng.normal(size=(3,) + model.shape)
    displaced = dynamics.u0(sols, grid.steps, states)
    steps = np.array([0, 11, grid.steps])
    repeated = np.repeat(states[:, None], 3, axis=1)    # (member, step, N, levels)
    sampled = dynamics.u0(sols, steps, repeated)
    for m, sol in enumerate(sols):
        checks = [((amplitude[m], phase[m]), dynamics.accumulated(sol, weights, times)),
                  ((lam[m], mu[m]), dynamics.branch_values(sol, times)),
                  ((displaced[m], sampled[m]),
                   (sol.u0(grid.steps, states[m]), sol.u0(steps, repeated[m])))]
        for stacked, alone in checks:
            for a, b in zip(stacked, alone):
                assert a.shape == b.shape
                assert np.abs(a - b).max() < 1e-13
    other = zero_order_solution(model, sols[0].couplings, ModulatorStrategy("static_unit"),
                                grid, 1)
    with pytest.raises(ValueError, match="must share"):
        dynamics.accumulated([sols[0], other], weights, times)


def test_collect_every_samples_the_full_trajectory():
    model = make_model(sites=6, cutoff=8, omega=2.5, kind="quadratic")
    c = pair(model, 1, 0.2 + 0.1j)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=23)
    sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 1)
    full, = propagate_residual(sol, collect_every=1)
    assert np.array_equal(grid.samples(1), np.arange(grid.steps + 1))
    for every, want in ((None, [0, 23]), (5, [0, 5, 10, 15, 20, 23]), (23, [0, 23]),
                        (40, [0, 23]), (1, list(range(24)))):
        states, = propagate_residual(sol, collect_every=every)
        assert np.array_equal(grid.samples(every), want)
        assert np.array_equal(states, full[want])
    with pytest.raises(ValueError):
        propagate_residual(sol, collect_every=0)


def test_stepper_writes_each_stored_state_once():
    """The stepper writes each stored state into the returned array when its
    step is reached, so its traced peak stays below twice the bytes it
    returns: no second trajectory and no basis-change copy of one (3.2x
    before, 1.4x now, on both strategies at dim 119 and 400 steps)."""
    model = make_model(sites=7, cutoff=16, omega=2.5)
    grid = TimeGrid(-4 * np.pi, 0.0, 400)
    sols = [zero_order_solution(model, pair(model, 1, 0.15), ModulatorStrategy(kind), grid, 0)
            for kind in STRATEGY_KINDS]
    propagate_residual(*sols, collect_every=1)   # warm the cached ladder eigensolve
    tracemalloc.start()
    try:
        states = propagate_residual(*sols, collect_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.shape == (2, grid.steps + 1) + model.shape
    assert peak < 2 * states.nbytes, peak / states.nbytes


def test_both_propagators_store_the_steps_of_one_rule():
    """`evolve` compares the oracle and the stepper sample by sample, so both
    store the steps of `TimeGrid.samples` and reject the same strides."""
    model = make_model(sites=5, cutoff=6, omega=2.5)
    c = pair(model, 1, 0.15)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=41)
    sol = zero_order_solution(model, c, ModulatorStrategy("recoil_phase"), grid, 1)
    psi0 = make_basis_state(model, 1, 0)
    for every in (1, 7, 10, 41, 100):
        states = oracle.propagate_exact(model, c, grid, psi0, collect_every=every)
        residual, = propagate_residual(sol, collect_every=every)
        assert len(states) == len(residual) == len(grid.samples(every))
    for every in (0, -1):
        with pytest.raises(ValueError, match="collect_every must be positive"):
            oracle.propagate_exact(model, c, grid, psi0, collect_every=every)
        with pytest.raises(ValueError, match="collect_every must be positive"):
            propagate_residual(sol, collect_every=every)


def test_residual_resums_full_dynamics():
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = pair(model, 1, 0.2)
    grid = TimeGrid(t0=-1.5, t_end=0.0, steps=750)
    k0 = 2
    psi0 = make_basis_state(model, k0, 0)
    exact = oracle.propagate_exact(model, c, grid, psi0)

    finals = {}
    for strat in (ModulatorStrategy("recoil_phase"), ModulatorStrategy("static_unit")):
        sol = zero_order_solution(model, c, strat, grid, k0)
        states, = propagate_residual(sol)
        phys = sol.u0(grid.steps, states[-1])
        assert abs(np.linalg.norm(phys) - 1.0) < 1e-8
        assert fidelity(phys, exact) > 1 - 1e-6
        finals[strat.kind] = phys
    # the split differs but the resummed dynamics cannot
    assert fidelity(finals["recoil_phase"], finals["static_unit"]) > 1 - 1e-6




@settings(PINNED, max_examples=24)
@given(coupled_models())
@example(_subnormal_coupling(2, ((-1, 1.1e-276), (0, 1.0))))
def test_split_converges_to_the_exact_state_at_second_order(mc):
    """On random models (2-8 sites, every dispersion, one to three offset
    pairs, couplings scaled to max |branch| 0.2) the split's final state
    U0|t> approaches the step-free exact state at second order under either
    strategy: its amplitude error falls 3.5-4.5x per halving of dt.  Cutoff 10
    keeps the split's dt-independent truncation floor (1-2% of the exact
    state's top-level amplitude) below the step error.  An exact split is not
    stepped and stays at |0,k0) exactly; its error is that floor, so it gets
    no ratio.  Nor does a member whose finest error is below the top-level
    amplitude or 1e-10, within reach of the floor or of round-off: a tiny
    coupling leaves no step error to see (pinned: 1e-277 next to 0.2)."""
    model, couplings = mc
    assume(couplings.operator_amplitude() > 1e-6)
    couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    model = Model(model.lattice, model.dispersion, OscillatorSpec(cutoff=10, omega=model.osc.omega))
    k0 = model.lattice.sites // 2
    psi0 = make_basis_state(model, k0, 0)
    grids = [TimeGrid(t0=-2.0, t_end=0.0, steps=steps) for steps in (40, 80, 160)]
    reference = exact_interaction_state(model, couplings, grids[0], psi0)
    errors = {}
    for grid in grids:
        sols = [zero_order_solution(model, couplings, ModulatorStrategy(kind), grid, k0)
                for kind in ("static_unit", "recoil_phase")]
        for sol, states in zip(sols, propagate_residual(*sols)):
            if sol.exact_split:
                assert all(np.array_equal(state, psi0) for state in states)
                continue
            final = sol.u0(grid.steps, states[-1])
            errors.setdefault(sol.strategy.kind, []).append(np.abs(final - reference).max())
    floor_scale = np.abs(reference[:, -1]).max()
    for kind, (coarse, mid, fine) in errors.items():
        if fine > max(floor_scale, 1e-10):
            assert 3.5 <= coarse / mid <= 4.5 and 3.5 <= mid / fine <= 4.5, (kind, coarse, mid, fine)
