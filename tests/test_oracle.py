"""Brute-force reference propagation and conjugation."""

import numpy as np
import pytest

from conftest import make_model
from ecsim import oracle
from ecsim.dynamics import CouplingSet, TimeGrid, hamiltonian_full
from ecsim.hilbert import ladder_b, make_basis_state, rho


def test_conjugate_free_trivials():
    model = make_model(sites=5, cutoff=6, omega=1.3)
    ident = np.eye(model.dim)
    assert np.allclose(oracle.conjugate_free(model, ident, 0.9),
                       np.eye(model.dim), atol=1e-14)

    b = ladder_b(model)
    got = oracle.conjugate_free(model, b, 0.9)
    assert np.allclose(got, np.exp(-1.3j * 0.9) * b.dense(), atol=1e-13)


def test_conjugate_free_rho_phases():
    model = make_model(sites=5, cutoff=3, kind="quadratic")
    eps = model.energies()
    lat = model.lattice
    t = 0.61
    for q in (1, 2, -2):
        got = oracle.conjugate_free(model, rho(model, q), t)
        want = np.zeros((5, 5), dtype=complex)
        for k in range(5):
            src = lat.shift_index(k, q)
            want[k, src] = np.exp(1j * (eps[k] - eps[src]) * t)
        assert np.abs(got - np.kron(want, np.eye(model.osc.levels))).max() < 1e-13


def test_schrodinger_assembly_matches_dynamics():
    # two independent assembly routes for the same operator
    model = make_model(sites=5, cutoff=5)
    c = CouplingSet.hermitian_pair(model.lattice, 2, 0.3 - 0.1j)
    a = oracle.schrodinger_hamiltonian_dense(model, c)
    b = hamiltonian_full(model, c, picture="schrodinger").dense()
    assert np.abs(a - b).max() < 1e-14


def test_zero_coupling_returns_initial_exactly():
    model = make_model(sites=4, cutoff=4)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=50)
    psi0 = make_basis_state(model, 1, 2)
    final = oracle.propagate_exact(model, CouplingSet.zero(model.lattice), grid, psi0)
    assert np.array_equal(final, psi0)


def test_step_unitarity_and_norm_drift():
    model = make_model(sites=5, cutoff=8, omega=2.5)
    c = CouplingSet.hermitian_pair(model.lattice, 1, 0.2)
    grid = TimeGrid(t0=-5.0, t_end=0.0, steps=2500)
    static = oracle.schrodinger_hamiltonian_dense(model, c)
    prop = oracle.DensePropagator(model, lambda t: oracle.conjugate_free(model, static, t), grid)
    for i in (0, 1250, 2499):
        u = prop.step_unitary(i)
        assert np.linalg.norm(u.conj().T @ u - np.eye(model.dim), 2) < 1e-12

    psi0 = make_basis_state(model, 2, 0)
    final = prop.propagate(psi0)
    assert abs(np.linalg.norm(final) - 1.0) < 1e-8


def test_richardson_convergence_order():
    model = make_model(sites=5, cutoff=8, omega=2.0)
    c = CouplingSet.hermitian_pair(model.lattice, 1, 0.25)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=100)
    psi0 = make_basis_state(model, 2, 0)
    orders, diffs = oracle.richardson_order(model, c, grid, psi0)
    assert all(d > 1e-12 for d in diffs)
    assert orders[0] > 1.9


def test_determinism():
    model = make_model(sites=4, cutoff=6)
    c = CouplingSet.hermitian_pair(model.lattice, 1, 0.2)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=120)
    psi0 = make_basis_state(model, 1, 0)
    a = oracle.propagate_exact(model, c, grid, psi0)
    b = oracle.propagate_exact(model, c, grid, psi0)
    assert np.array_equal(a, b)


def test_collect_every():
    model = make_model(sites=4, cutoff=4)
    c = CouplingSet.hermitian_pair(model.lattice, 1, 0.1)
    grid = TimeGrid(t0=-1.0, t_end=0.0, steps=40)
    psi0 = make_basis_state(model, 1, 0)
    final, (idx, states) = oracle.propagate_exact(model, c, grid, psi0, collect_every=10)
    assert idx.tolist() == [0, 10, 20, 30, 40]
    assert np.array_equal(states[-1], final)
    assert np.array_equal(states[0], psi0)


def test_stability_guard():
    model = make_model(sites=4, cutoff=6)
    c = CouplingSet.hermitian_pair(model.lattice, 1, 1.0)
    grid = TimeGrid(t0=-10.0, t_end=0.0, steps=5)
    with pytest.raises(ValueError):
        oracle.propagate_exact(model, c, grid, make_basis_state(model, 1, 0))
