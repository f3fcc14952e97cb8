"""Density-matrix methods, alpha/Phi fields and their consistency."""

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from conftest import PINNED, coupled_models, hermitian_pair, make_model, scaled_solution
from ecsim.dynamics import (
    ModulatorStrategy,
    TimeGrid,
    propagate_residual,
    zero_order_solution,
)
from ecsim.ecs import coherent_state_vector
from ecsim.hilbert import CoefficientSet, fidelity, make_basis_state, plane_waves
from ecsim.observables import (
    GammaGrid,
    PositionGrid,
    alpha_phi,
    gamma_closed_form,
    gamma_exact,
    gamma_first_approx,
)


def solved(model, couplings, strategy=None, steps=400, t0=-2.0, k0=None):
    k0 = model.lattice.sites // 2 if k0 is None else k0
    grid = TimeGrid(t0=t0, t_end=0.0, steps=steps)
    strategy = strategy or ModulatorStrategy("recoil_phase")
    return zero_order_solution(model, couplings, strategy, grid, k0)


def diagonal_error(gamma):
    """Deviation of the diagonal from real non-negative values."""
    d = np.diag(gamma.values)
    return float(max(np.abs(d.imag).max(), np.maximum(-d.real, 0.0).max()))


def intermediate_state(sol, m):
    """(psi(x_m, 0) U0(0)|0,k0), e^{i k0 x_m - i Phi(x_m)} |alpha(x_m, 0)))
    in the oscillator sector at the grid point x_m = m * spacing."""
    model = sol.model
    x = m * model.lattice.spacing
    row = plane_waves(model, np.array([x]), 0.0)
    contracted = (row @ sol.u0(sol.grid.steps, make_basis_state(model, sol.k0, 0)))[0]
    field = alpha_phi(sol, PositionGrid.uniform(model.lattice, model.lattice.sites))
    k0_val = model.lattice.momenta[sol.k0]
    analytic = (np.exp(1j * k0_val * x - 1j * field.phi[m])
                * coherent_state_vector(complex(field.alpha_final[m]), model.osc.levels))
    return contracted, analytic


def test_position_grid_validation():
    lat_len = 5.0
    with pytest.raises(ValueError):
        PositionGrid(points=np.array([0.0]), length=lat_len)
    with pytest.raises(ValueError):
        PositionGrid(points=np.array([0.0, 5.0]), length=lat_len)
    with pytest.raises(ValueError):
        PositionGrid(points=np.array([1.0, 0.5]), length=lat_len)
    model = make_model(sites=5)
    g = PositionGrid.uniform(model.lattice, model.lattice.sites)
    assert g.size == 5
    assert np.array_equal(g.points, np.arange(5) * model.lattice.spacing)


# Library calls given inputs of another model or grid, each with its error.
MISMATCHES = {
    "k0-above-range": (lambda sol, grid, other: solved(sol.model, sol.couplings, k0=6),
                       "momentum index 6 out of range"),
    "k0-negative": (lambda sol, grid, other: solved(sol.model, sol.couplings, k0=-1),
                    "momentum index -1 out of range"),
    "state-of-another-shape": (lambda sol, grid, other: gamma_exact(
        np.zeros((7, sol.model.osc.levels), complex), sol, grid), "state incompatible"),
    "field-of-another-grid": (lambda sol, grid, other: gamma_closed_form(
        alpha_phi(sol, other), sol.k0, grid), "different grid"),
    "non-square-values": (lambda sol, grid, other: GammaGrid(
        np.zeros((6, 3)), grid), "square"),
}


@pytest.mark.parametrize("case", MISMATCHES)
def test_inputs_of_another_model_or_grid_raise_value_error(case):
    model = make_model(sites=6, cutoff=4)
    sol = solved(model, hermitian_pair(model.lattice, 1, 0.1), steps=20)
    grid, other = (PositionGrid.uniform(model.lattice, n) for n in (6, 3))
    call, error = MISMATCHES[case]
    with pytest.raises(ValueError, match=error):
        call(sol, grid, other)


def test_free_particle_gamma_is_plane_wave():
    model = make_model(sites=5, cutoff=6)
    zero = CoefficientSet(model.lattice)
    sol = solved(model, zero, steps=50)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    res, = propagate_residual(sol)

    k0_val = model.lattice.momenta[sol.k0]
    x = pos.points
    want = np.exp(-1j * k0_val * (x[:, None] - x[None, :]))
    for gamma in (gamma_exact(res.final, sol, pos), gamma_first_approx(sol, pos)):
        assert np.allclose(gamma.values, want, atol=1e-12)
        assert abs(gamma.trace_mean() - 1.0) < 1e-12

    field = alpha_phi(sol, pos)
    gc = gamma_closed_form(field, sol.k0, pos)
    assert np.allclose(gc.values, want, atol=1e-12)


def test_first_approx_matches_closed_form():
    model = make_model(sites=7, cutoff=24, omega=2.5)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    cases = [
        hermitian_pair(model.lattice, 1, 0.2),
        hermitian_pair(model.lattice, 2, 0.15 + 0.0j),
        CoefficientSet.from_dict(model.lattice, {2: 0.3 + 0.12j}),
        CoefficientSet.from_dict(model.lattice, {0: 0.25, 1: 0.1 + 0.05j, -1: 0.1 - 0.05j}),
    ]
    for couplings in cases:
        for strat in (ModulatorStrategy("static_unit"), ModulatorStrategy("recoil_phase")):
            sol = solved(model, couplings, strategy=strat)
            gf = gamma_first_approx(sol, pos)
            gc = gamma_closed_form(alpha_phi(sol, pos), sol.k0, pos)
            assert gf.max_deviation(gc) < 1e-6
            assert gf.hermiticity_error() < 1e-10
            assert gc.hermiticity_error() < 1e-10
            assert diagonal_error(gf) < 1e-10


def test_closed_form_diagonal_is_unity():
    model = make_model(sites=5, cutoff=12, omega=2.0)
    sol = solved(model, hermitian_pair(model.lattice, 1, 0.2))
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    gc = gamma_closed_form(alpha_phi(sol, pos), sol.k0, pos)
    assert np.abs(np.diag(gc.values) - 1.0).max() < 1e-13


def test_exact_with_frozen_state_equals_first_approx():
    # switching the residual propagation off reduces the exact method to the
    # first approximation, which in turn matches the closed form
    model = make_model(sites=5, cutoff=12, omega=2.0)
    sol = solved(model, hermitian_pair(model.lattice, 1, 0.2))
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    frozen = make_basis_state(model, sol.k0, 0)
    ge = gamma_exact(frozen, sol, pos)
    gf = gamma_first_approx(sol, pos)
    gc = gamma_closed_form(alpha_phi(sol, pos), sol.k0, pos)
    assert ge.max_deviation(gf) < 1e-14
    assert ge.max_deviation(gc) < 1e-6


def test_alpha_phi_fields():
    model = make_model(sites=5, cutoff=10, omega=2.0)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)

    zero_sol = solved(model, CoefficientSet(model.lattice), steps=50)
    field = alpha_phi(zero_sol, pos)
    assert not np.any(field.alpha_final)
    assert not np.any(field.phi)

    # strictly single-mode coupling: |alpha| position-independent, Phi constant
    single = CoefficientSet.from_dict(model.lattice, {2: 0.3 + 0.1j})
    sol = solved(model, single, strategy=ModulatorStrategy("static_unit"))
    field = alpha_phi(sol, pos)
    mags = np.abs(field.alpha_final)
    assert mags.max() - mags.min() < 1e-12
    assert field.phi_spread() < 1e-10

    # alpha at x = 0 is the plain sum of the coefficients
    total = sol.h(sol.grid.times[-1]).sum()
    assert abs(field.alpha_final[0] - total) < 1e-14


def test_alpha_periodicity():
    model = make_model(sites=5, cutoff=10, omega=2.0)
    sol = solved(model, hermitian_pair(model.lattice, 1, 0.2))
    x = np.array([0.0, 1.0, 2.0, 3.7])
    a0 = alpha_phi(sol, PositionGrid(points=x, length=model.lattice.length)).alpha_final
    a1 = (np.exp(-1j * np.outer(x + model.lattice.length, sol.couplings.momenta))
          @ sol.h(sol.grid.times[-1]))
    assert np.allclose(a0, a1, atol=1e-12)


def test_gamma_ring_periodicity():
    # the lattice Fourier phases satisfy e^{ik(x+L)} = e^{ikx}, so every
    # Gamma built from them is L-periodic
    model = make_model(sites=5, cutoff=6)
    x = np.array([0.0, 1.0, 2.3])
    p0 = plane_waves(model, x, 0.4)
    p1 = plane_waves(model, x + model.lattice.length, 0.4)
    assert np.allclose(p0, p1, atol=1e-12)


def test_gamma_requires_final_time_zero():
    model = make_model(sites=5, cutoff=8)
    c = hermitian_pair(model.lattice, 1, 0.1)
    grid = TimeGrid(t0=0.0, t_end=1.0, steps=50)
    sol = zero_order_solution(model, c, ModulatorStrategy("static_unit"), grid, 2)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    with pytest.raises(ValueError):
        gamma_first_approx(sol, pos)
    with pytest.raises(ValueError):
        alpha_phi(sol, pos)


def test_intermediate_state_is_coherent():
    model = make_model(sites=7, cutoff=24, omega=2.5)
    single = CoefficientSet.from_dict(model.lattice, {1: 0.4})
    sol = solved(model, single, strategy=ModulatorStrategy("static_unit"))
    for m in (0, 2, 5):   # x = 0, 2, 5
        contracted, analytic = intermediate_state(sol, m)
        assert fidelity(contracted, analytic) > 1 - 1e-8
        # phases included, not just modulus
        assert np.linalg.norm(contracted - analytic) < 1e-7

    # oscillator piece has Poisson populations with mean |alpha|^2
    contracted, _ = intermediate_state(sol, 2)
    pops = np.abs(contracted) ** 2
    field = alpha_phi(sol, PositionGrid.uniform(model.lattice, model.lattice.sites))
    mean = float(np.abs(field.alpha_final[2]) ** 2)
    n = np.arange(model.osc.levels)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, model.osc.levels))))
    poisson = np.exp(-mean) * mean ** n / fact
    assert np.allclose(pops, poisson, atol=1e-10)


def test_gamma_free_case_trivial_for_zero_coupling():
    model = make_model(sites=5, cutoff=8)
    sol = solved(model, CoefficientSet(model.lattice), steps=50)
    contracted, analytic = intermediate_state(sol, 1)   # x = 1
    k0_val = model.lattice.momenta[sol.k0]
    want = np.zeros(model.osc.levels, dtype=complex)
    want[0] = np.exp(1j * k0_val * 1.0)
    assert np.allclose(contracted, want, atol=1e-14)
    assert np.allclose(analytic, want, atol=1e-14)


def test_exact_first_gap_bounded_by_residual():
    model = make_model(sites=5, cutoff=12, omega=2.5)
    c = hermitian_pair(model.lattice, 1, 0.15)
    sol = solved(model, c, steps=400, t0=-1.5)
    res, = propagate_residual(sol)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    gap = gamma_exact(res.final, sol, pos).max_deviation(gamma_first_approx(sol, pos))
    dev = float(np.linalg.norm(res.final - res.states[0]))
    n = model.lattice.sites
    assert gap <= 2 * n * dev + n * dev ** 2 + 1e-9


def test_single_mode_gamma_translation_invariance():
    # strictly single-mode coupling locks each Fock level to one momentum, so
    # |Gamma(x, x')| depends only on the separation on the ring; a Hermitian
    # pair would instead set up a standing wave
    model = make_model(sites=7, cutoff=16, omega=2.5)
    c = CoefficientSet.from_dict(model.lattice, {1: 0.25})
    sol = solved(model, c, steps=300, t0=-1.5)
    res, = propagate_residual(sol)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    for g in (gamma_exact(res.final, sol, pos),
              gamma_closed_form(alpha_phi(sol, pos), sol.k0, pos)):
        mags = np.abs(g.values)
        n = pos.size
        for d in range(1, n):
            vals = [mags[i, (i + d) % n] for i in range(n)]
            assert max(vals) - min(vals) < 1e-10


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]))
def test_gamma_invariants_over_random_models(mc, kind):
    """Every route is Hermitian with a real non-negative diagonal on the full
    commensurate grid; the closed form has a unit diagonal, the exact route
    unit trace, and under flat dispersion (H1 = 0) exact equals first."""
    sol = scaled_solution(mc, kind, TimeGrid(-1.0, 0.0, 20))
    pos = PositionGrid.uniform(sol.model.lattice, sol.model.lattice.sites)
    ge = gamma_exact(propagate_residual(sol)[0].final, sol, pos)
    gf = gamma_first_approx(sol, pos)
    gc = gamma_closed_form(alpha_phi(sol, pos), sol.k0, pos)
    for g in (ge, gf, gc):
        assert g.hermiticity_error() < 1e-13
        assert diagonal_error(g) < 1e-13
    assert np.abs(np.diag(gc.values) - 1.0).max() < 1e-13
    assert abs(ge.trace_mean() - 1.0) < 1e-10
    if sol.model.dispersion.kind == "flat":
        assert np.array_equal(ge.values, gf.values)


@pytest.mark.parametrize("factors, kinds", [((1.0, 0.5, 0.25), ("recoil_phase",) * 3),
                                            ((1.0, 1.0), ("static_unit", "recoil_phase"))])
def test_stacked_gamma_routes_equal_a_loop_of_one_member_calls(factors, kinds):
    """The three Gamma routes and alpha_phi on a stack of solutions give each
    member its one-member result to 1e-13 on the leading axis, for couplings
    scaled under one nu (``sweep``) and for both strategies (two nu); so do
    the GammaGrid and AlphaField reductions.  One solution with a stack of
    states gives one matrix per state."""
    model = make_model(sites=5, cutoff=10, omega=2.5)
    c = hermitian_pair(model.lattice, 1, 0.15 + 0.05j)
    sols = [solved(model, c.scaled(f), ModulatorStrategy(kind), steps=60, k0=1)
            for f, kind in zip(factors, kinds)]
    results = propagate_residual(*sols)
    pos = PositionGrid.uniform(model.lattice, model.lattice.sites)
    states = np.array([res.final for res in results])
    ge, gf = gamma_exact(states, sols, pos), gamma_first_approx(sols, pos)
    field = alpha_phi(sols, pos)
    gc = gamma_closed_form(field, 1, pos)
    for m, (sol, res) in enumerate(zip(sols, results)):
        one_field = alpha_phi(sol, pos)
        assert np.abs(field.alpha_final[m] - one_field.alpha_final).max() < 1e-13
        assert np.abs(field.phi[m] - one_field.phi).max() < 1e-13
        assert abs(field.phi_spread()[m] - one_field.phi_spread()) < 1e-13
        alone = (gamma_exact(res.final, sol, pos), gamma_first_approx(sol, pos),
                 gamma_closed_form(one_field, 1, pos))
        for stacked, one in zip((ge, gf, gc), alone):
            assert np.abs(stacked.values[m] - one.values).max() < 1e-13
            assert abs(stacked.hermiticity_error()[m] - one.hermiticity_error()) < 1e-13
            assert abs(stacked.trace_mean()[m] - one.trace_mean()) < 1e-13
        assert abs(ge.max_deviation(gc)[m] - alone[0].max_deviation(alone[2])) < 1e-13
    frozen = make_basis_state(model, 1, 0)
    both = gamma_exact(np.array([results[0].final, frozen]), sols[0], pos)
    assert np.abs(both.values - np.array([ge.values[0], gf.values[0]])).max() < 1e-13
