"""Brute-force reference propagation and conjugation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PINNED,
    conjugate_free,
    free_energies,
    hermitian_pair,
    interaction_hamiltonian,
    kron,
    make_model,
    midpoint_propagate,
    shift_matrix,
)
from ecsim import oracle
from ecsim.dynamics import STABILITY_LIMIT, TimeGrid
from ecsim.hilbert import CoefficientSet, make_basis_state, oscillator_annihilation


def test_conjugate_free_trivials():
    model = make_model(sites=5, cutoff=6, omega=1.3)
    ident = np.eye(model.dim)
    assert np.allclose(conjugate_free(model, ident, 0.9), np.eye(model.dim), atol=1e-14)

    b = kron(np.eye(model.lattice.sites), oscillator_annihilation(model.osc))
    got = conjugate_free(model, b, 0.9)
    assert np.allclose(got, np.exp(-1.3j * 0.9) * b, atol=1e-13)


def test_conjugate_free_rho_phases():
    model = make_model(sites=5, cutoff=3, kind="quadratic")
    eps = model.energies()
    lat = model.lattice
    t = 0.61
    for q in (1, 2, -2):
        got = conjugate_free(model, kron(shift_matrix(lat, q), np.eye(model.osc.levels)), t)
        want = np.zeros((5, 5), dtype=complex)
        for k in range(5):
            src = lat.shift_index(k, q)
            want[k, src] = np.exp(1j * (eps[k] - eps[src]) * t)
        assert np.abs(got - kron(want, np.eye(model.osc.levels))).max() < 1e-13


def test_schrodinger_assembly_matches_dynamics():
    # two independent assembly routes for the same operator
    model = make_model(sites=5, cutoff=5)
    c = hermitian_pair(model.lattice, 2, 0.3 - 0.1j)
    a = oracle.schrodinger_hamiltonian_dense(model, c)
    b = interaction_hamiltonian(model, c)
    assert np.abs(a - b).max() < 1e-14


def test_zero_coupling_returns_initial_exactly():
    model = make_model(sites=4, cutoff=4)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=50)
    psi0 = make_basis_state(model, 1, 2)
    final = oracle.propagate_exact(model, CoefficientSet(model.lattice), grid, psi0)
    assert np.array_equal(final, psi0)


def test_step_unitarity_and_norm_drift():
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = hermitian_pair(model.lattice, 1, 0.2)
    grid = TimeGrid(t0=-5.0, t_end=0.0, steps=2500)
    times = grid.times
    for i in (0, 1250, 2499):
        # the step unitary at midpoint i, column by column from a one-step grid
        one_step = TimeGrid(times[i], times[i + 1], 1)
        u = np.column_stack([oracle.propagate_exact(model, c, one_step, col).reshape(-1)
                             for col in np.eye(model.dim)])
        assert np.linalg.norm(u.conj().T @ u - np.eye(model.dim), 2) < 1e-12

    psi0 = make_basis_state(model, 2, 0)
    final = oracle.propagate_exact(model, c, grid, psi0)
    assert abs(np.linalg.norm(final) - 1.0) < 1e-8


@st.composite
def oracle_cases(draw):
    """A random model on an odd or even lattice, random (not necessarily
    Hermitian-paired) couplings, a random initial state and a grid that keeps
    dt * ||H_S|| well below the stability guard."""
    sites = draw(st.integers(min_value=2, max_value=6))
    cutoff = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["tight_binding", "quadratic"]))
    omega = draw(st.floats(min_value=0.5, max_value=3.0))
    model = make_model(sites=sites, cutoff=cutoff, omega=omega, kind=kind)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    offsets = rng.choice(sites, size=int(rng.integers(1, sites + 1)), replace=False)
    vals = 0.1 * (rng.standard_normal(offsets.size) + 1j * rng.standard_normal(offsets.size))
    couplings = CoefficientSet.from_dict(model.lattice, dict(zip(offsets.tolist(), vals)))
    steps = draw(st.integers(min_value=1, max_value=30))
    t0 = draw(st.floats(min_value=-0.1 * steps, max_value=-0.01))
    psi0 = rng.standard_normal(model.shape) + 1j * rng.standard_normal(model.shape)
    return model, couplings, TimeGrid(t0=t0, t_end=0.0, steps=steps), psi0 / np.linalg.norm(psi0)


@PINNED
@given(oracle_cases(), st.integers(min_value=1, max_value=30))
def test_propagate_exact_matches_per_step_dense_reference(case, stride):
    # the old definition: every step exp(-i dt H_I(t_m)) from an eigendecomposition
    # of the dense conjugated H_I(t_m)
    model, couplings, grid, psi0 = case
    static = oracle.schrodinger_hamiltonian_dense(model, couplings)
    h_int = lambda t: conjugate_free(model, static, t)
    final = oracle.propagate_exact(model, couplings, grid, psi0)
    assert np.abs(final - midpoint_propagate(model, h_int, grid, psi0)).max() < 1e-12

    collected_final, (idx, states) = oracle.propagate_exact(
        model, couplings, grid, psi0, collect_every=stride)
    assert np.array_equal(collected_final, final)
    want_idx = sorted(set(range(0, grid.steps + 1, stride)) | {grid.steps})
    assert idx.tolist() == want_idx
    assert np.array_equal(states[0], psi0)
    # the reference trajectory, stepped from one sampled index to the next
    times, ref = grid.times, psi0
    for a, b, state in zip(idx[:-1], idx[1:], states[1:]):
        ref = midpoint_propagate(model, h_int, TimeGrid(times[a], times[b], b - a), ref)
        assert np.abs(state - ref).max() < 1e-12


def test_one_eigendecomposition_per_run(monkeypatch):
    # one batched eigh of the (sites, levels, levels) branch blocks of H_S, and
    # never an eigensolver of the product-space dimension
    model = make_model(sites=5, cutoff=6)
    c = hermitian_pair(model.lattice, 2, 0.15)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=40)
    psi0 = make_basis_state(model, 1, 0)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    oracle.propagate_exact(model, c, grid, psi0, collect_every=7)
    assert calls == [(5, 7, 7)]
    oracle.propagate_exact(model, CoefficientSet(model.lattice), grid, psi0)
    assert len(calls) == 1

    big = make_model(sites=16, cutoff=24)
    assert big.dim == 400
    oracle.propagate_exact(big, hermitian_pair(big.lattice, 1, 0.15),
                           TimeGrid(t0=-0.1, t_end=0.0, steps=2), make_basis_state(big, 0, 0))
    assert calls[1:] == [(16, 25, 25)]
    assert all(big.dim not in shape for shape in calls)


def test_richardson_convergence_order():
    model = make_model(sites=5, cutoff=8, omega=2.0)
    c = hermitian_pair(model.lattice, 1, 0.25)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    psi0 = make_basis_state(model, 2, 0)
    finals = [oracle.propagate_exact(model, c, TimeGrid(grid.t0, grid.t_end, grid.steps * k),
                                     psi0) for k in (1, 2, 4)]
    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1])) for i in range(2)]
    assert all(d > 1e-12 for d in diffs)
    assert np.log2(diffs[0] / diffs[1]) > 1.9


def test_determinism():
    model = make_model(sites=4, cutoff=6)
    c = hermitian_pair(model.lattice, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=120)
    psi0 = make_basis_state(model, 1, 0)
    a = oracle.propagate_exact(model, c, grid, psi0)
    b = oracle.propagate_exact(model, c, grid, psi0)
    assert np.array_equal(a, b)


def test_collect_every():
    model = make_model(sites=4, cutoff=4)
    c = hermitian_pair(model.lattice, 1, 0.1)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=40)
    psi0 = make_basis_state(model, 1, 0)
    final, (idx, states) = oracle.propagate_exact(model, c, grid, psi0, collect_every=10)
    assert idx.tolist() == [0, 10, 20, 30, 40]
    assert np.array_equal(states[-1], final)
    assert np.array_equal(states[0], psi0)


def test_stability_guard():
    model = make_model(sites=4, cutoff=6)
    c = hermitian_pair(model.lattice, 1, 1.0)
    grid = TimeGrid(t0=-10.0, t_end=0.0, steps=5)
    with pytest.raises(ValueError):
        oracle.propagate_exact(model, c, grid, make_basis_state(model, 1, 0))


@st.composite
def wide_oracle_cases(draw):
    """Odd and even lattices up to 16 sites, cutoff 1-8, random couplings
    (unpaired, q = 0 and offsets outside the window allowed), a random state
    and a 1-5 step grid with dt * ||H_S|| below the stability guard."""
    sites = draw(st.integers(min_value=2, max_value=16))
    cutoff = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["tight_binding", "quadratic"]))
    omega = draw(st.floats(min_value=0.5, max_value=3.0))
    model = make_model(sites=sites, cutoff=cutoff, omega=omega, kind=kind)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = int(rng.integers(1, 5))
    offsets = rng.integers(-sites, sites + 1, size=count)
    vals = 0.3 * (rng.standard_normal(count) + 1j * rng.standard_normal(count))
    couplings = CoefficientSet(model.lattice, tuple(zip(offsets.tolist(), vals)))
    psi0 = rng.standard_normal(model.shape) + 1j * rng.standard_normal(model.shape)
    steps = draw(st.integers(min_value=1, max_value=5))
    load = draw(st.floats(min_value=0.05, max_value=0.95))
    t_end = draw(st.floats(min_value=-2.0, max_value=2.0))
    return model, couplings, psi0 / np.linalg.norm(psi0), steps, load, t_end


@PINNED
@given(wide_oracle_cases())
def test_block_oracle_matches_expm_reference_up_to_16_sites(case):
    model, couplings, psi0, steps, load, t_end = case
    static = oracle.schrodinger_hamiltonian_dense(model, couplings)
    hnorm = np.linalg.norm(static, 2)
    dt = load * STABILITY_LIMIT / hnorm
    grid = TimeGrid(t0=t_end - steps * dt, t_end=t_end, steps=steps)
    # the per-step reference e^{i H_f t_m} expm(-i dt H_S) e^{-i H_f t_m}
    step = expm(-1j * grid.dt * static)
    energies = free_energies(model)
    ref = psi0.reshape(-1)
    for i in range(steps):
        phase = np.exp(1j * grid.midpoint(i) * energies)
        ref = phase * (step @ (phase.conj() * ref))
    final = oracle.propagate_exact(model, couplings, grid, psi0)
    assert np.abs(final.reshape(-1) - ref).max() < 1e-12

    # the guard reads dt * ||H_S||: just inside runs, just outside raises
    oracle.propagate_exact(model, couplings, TimeGrid(0.0, 0.999 * STABILITY_LIMIT / hnorm, 1),
                           psi0)
    with pytest.raises(ValueError,
                       match=r"dt\*\|\|H_S\|\| = \S+ exceeds stability guard 0\.5$"):
        oracle.propagate_exact(model, couplings,
                               TimeGrid(0.0, 1.001 * STABILITY_LIMIT / hnorm, 1), psi0)
