"""Randomised reference checks of the circulant builder, its branch
(Fourier eigenvalue) representation, the coupling type, the action of U0 and
the residual step."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import PINNED, dense_from_action, make_model
from ecsim.dynamics import (
    STABILITY_LIMIT,
    CouplingSet,
    ModulatorStrategy,
    TimeGrid,
    check_stability,
    hamiltonian_full,
    propagate_residual,
    split_hamiltonian,
    zero_order_solution,
)
from ecsim.hilbert import (
    CoefficientSet,
    Lattice,
    branches,
    circulant,
    displacement,
    hermitian_function,
    oscillator_annihilation,
    shift_matrix,
)
from ecsim.observables import PositionGrid, alpha_phi

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
values = st.builds(complex, finite, finite)


def loop_reference(lattice, offsets, vals):
    """The explicit sum_q v_q shift(q), one matrix at a time."""
    mat = np.zeros((lattice.sites, lattice.sites), dtype=complex)
    for q, v in zip(offsets, vals):
        mat += v * shift_matrix(lattice, q)
    return mat


@st.composite
def lattice_terms(draw, max_terms=6):
    """A lattice of odd or even size and raw (possibly repeated, possibly
    out-of-window) offsets with values."""
    sites = draw(st.integers(min_value=1, max_value=9))
    lat = Lattice(sites=sites, length=float(sites))
    offsets = draw(st.lists(st.integers(min_value=-3 * sites, max_value=3 * sites),
                            max_size=max_terms))
    vals = draw(st.lists(values, min_size=len(offsets), max_size=len(offsets)))
    return lat, offsets, vals


@PINNED
@given(lattice_terms())
def test_circulant_matches_shift_loop(case):
    lat, offsets, vals = case
    assert np.array_equal(circulant(lat, offsets, vals), loop_reference(lat, offsets, vals))
    # canonicalisation merges offsets equal modulo the lattice into one term
    h = CoefficientSet(lat, tuple(zip(offsets, vals)))
    assert len(set(h.offsets)) == len(h.offsets)
    assert all(h.lattice.wrap_offset(q) == q for q in h.offsets)
    assert np.array_equal(h.particle_matrix(), loop_reference(lat, offsets, vals))


@PINNED
@given(lattice_terms(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_circulant_batched_leading_axes(case, rows, cols, seed):
    lat, offsets, _ = case
    rng = np.random.default_rng(seed)
    batch = (rng.standard_normal((rows, cols, len(offsets)))
             + 1j * rng.standard_normal((rows, cols, len(offsets))))
    got = circulant(lat, offsets, batch)
    assert got.shape == (rows, cols, lat.sites, lat.sites)
    for i in range(rows):
        for j in range(cols):
            assert np.array_equal(got[i, j], loop_reference(lat, offsets, batch[i, j]))


def fourier_vectors(sites):
    """Column j is f_j[n] = e^{2 pi i j n/N} / sqrt(N)."""
    n = np.arange(sites)
    return np.exp(2j * np.pi * np.outer(n, n) / sites) / np.sqrt(sites)


@PINNED
@given(lattice_terms(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_branches_are_the_circulant_eigenvalues(case, rows, seed):
    lat, offsets, _ = case
    rng = np.random.default_rng(seed)
    batch = (rng.standard_normal((rows, len(offsets)))
             + 1j * rng.standard_normal((rows, len(offsets))))
    mats = circulant(lat, offsets, batch)
    lam = branches(lat, offsets, batch)
    assert lam.shape == (rows, lat.sites)
    f = fourier_vectors(lat.sites)
    assert np.abs(mats @ f - lam[:, None, :] * f).max() < 1e-12


@st.composite
def small_terms(draw, lat):
    offsets = draw(st.lists(st.integers(min_value=-lat.sites, max_value=lat.sites),
                            min_size=1, max_size=4))
    small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
    vals = draw(st.lists(st.builds(complex, small, small),
                         min_size=len(offsets), max_size=len(offsets)))
    return offsets, np.array(vals)


@PINNED
@given(st.data(), st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_displacement_matches_expm_of_dense_generator(data, sites, cutoff, batch, seed):
    model = make_model(sites=sites, cutoff=cutoff)
    lat = model.lattice
    q_offsets, q_vals = data.draw(small_terms(lat))
    c_offsets, c_vals = data.draw(small_terms(lat))
    # chi = C + C^dag, a Hermitian circulant with real branch values
    chi_offsets = list(c_offsets) + [-q for q in c_offsets]
    chi_vals = np.concatenate([c_vals, c_vals.conj()])
    qp = circulant(lat, q_offsets, q_vals)
    chi = circulant(lat, chi_offsets, chi_vals)
    b = oscillator_annihilation(model.osc)
    gen = (np.kron(qp, b.conj().T) - np.kron(qp.conj().T, b)
           - 1j * np.kron(chi, np.eye(model.osc.levels)))
    lam, mu = branches(lat, q_offsets, q_vals), branches(lat, chi_offsets, chi_vals).real
    got = dense_from_action(model, lambda states: displacement(model, lam, mu, states))
    assert np.abs(got - expm(gen)).max() < 1e-12
    # on a random (batch, N, levels) stack the action equals expm applied to it
    rng = np.random.default_rng(seed)
    states = (rng.standard_normal((batch,) + model.shape)
              + 1j * rng.standard_normal((batch,) + model.shape))
    want = (states.reshape(batch, -1) @ expm(gen).T).reshape(states.shape)
    assert np.abs(displacement(model, lam, mu, states) - want).max() < 1e-12


@PINNED
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_vanishing_branches_return_states_unchanged(sites, cutoff, seed):
    model = make_model(sites=sites, cutoff=cutoff)
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((2,) + model.shape) + 1j * rng.standard_normal((2,) + model.shape)
    got = displacement(model, np.zeros(sites, dtype=complex), np.zeros(sites), states)
    assert np.array_equal(got, states)


@st.composite
def coupled_models(draw):
    sites = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["tight_binding", "quadratic", "flat"]))
    model = make_model(sites=sites, cutoff=draw(st.integers(min_value=1, max_value=4)),
                       omega=draw(st.floats(min_value=0.3, max_value=3.0)), kind=kind)
    lat = model.lattice
    pairs = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=sites - 1), values),
                          min_size=1, max_size=3))
    g: dict[int, complex] = {}
    for q, v in pairs:
        q, qm = lat.wrap_offset(q), lat.wrap_offset(-q)
        if q == qm:
            g[q] = g.get(q, 0.0) + v.real
        else:
            g[q] = g.get(q, 0.0) + v
            g[qm] = g.get(qm, 0.0) + v.conjugate()
    return model, CouplingSet.from_dict(lat, g)


@PINNED
@given(coupled_models(), st.floats(min_value=-4.0, max_value=4.0),
       st.sampled_from(["static_unit", "recoil_phase"]))
def test_split_sums_to_full_hamiltonian(mc, t, kind):
    model, couplings = mc
    k0 = model.lattice.sites // 2
    h0, h1 = split_hamiltonian(model, couplings, ModulatorStrategy(kind=kind), t, k0)
    full = hamiltonian_full(model, couplings, t, "interaction").dense()
    assert np.abs(h0.dense() + h1.dense() - full).max() < 1e-13 * max(1.0, np.abs(full).max())


@PINNED
@given(coupled_models(), st.floats(min_value=0.1, max_value=3.0), st.booleans())
def test_scaled_coupling_keeps_type_and_flag(mc, factor, hermitian):
    model, couplings = mc
    c = CouplingSet(model.lattice, couplings.items, hermitian=hermitian)
    s = c.scaled(factor)
    assert type(s) is CouplingSet and s.hermitian is hermitian
    assert s.items == tuple((q, factor * v) for q, v in c.items)
    assert type(CoefficientSet(model.lattice, c.items).scaled(factor)) is CoefficientSet


@PINNED
@given(lattice_terms())
def test_operator_amplitude_is_the_spectral_norm(case):
    lat, offsets, vals = case
    h = CoefficientSet(lat, tuple(zip(offsets, vals)))
    assert abs(h.operator_amplitude() - np.linalg.norm(h.particle_matrix(), 2)) \
        < 1e-12 * max(1.0, h.l1_amplitude)


@PINNED
@given(coupled_models())
def test_stability_guard_matches_the_dense_hamiltonian_norm(mc):
    model, couplings = mc
    hnorm = np.linalg.norm(hamiltonian_full(model, couplings).dense(), 2)
    assume(hnorm > 1e-6)
    dt = STABILITY_LIMIT / hnorm
    check_stability(model, couplings, TimeGrid(-dt * (1 - 1e-9), 0.0, 1))
    with pytest.raises(ValueError):
        check_stability(model, couplings, TimeGrid(-dt * (1 + 1e-9), 0.0, 1))


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]))
def test_branches_of_h_and_chi_are_alpha_and_phi(mc, kind):
    model, couplings = mc
    lat = model.lattice
    assume(couplings.operator_amplitude() > 1e-6)
    couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    grid = TimeGrid(-1.0, 0.0, 20)
    sol = zero_order_solution(model, couplings, ModulatorStrategy(kind=kind), grid,
                              lat.sites // 2)
    field = alpha_phi(sol, PositionGrid.uniform(lat))  # x_m = m * spacing
    branch = -np.arange(lat.sites) % lat.sites        # f_{-m} peaks at x_m
    lam = branches(lat, sol.offsets, sol.h_half[-1])
    assert np.abs(lam[branch] - field.alpha_final).max() < 1e-13
    assert np.abs(sol.mu_half[-1][branch] - field.phi).max() < 1e-13


def scaled_solution(mc, kind, grid):
    """Zero-order solution of a random model with the coupling scaled to
    max |branch| = 0.2, well inside the truncation and stability guards."""
    model, couplings = mc
    assume(couplings.operator_amplitude() > 1e-6)
    couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    return zero_order_solution(model, couplings, ModulatorStrategy(kind=kind), grid,
                               model.lattice.sites // 2)


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]),
       st.integers(min_value=0, max_value=4), st.booleans())
def test_u0_adjoint_is_the_conjugate_transpose(mc, kind, step, mid):
    sol = scaled_solution(mc, kind, TimeGrid(-1.0, 0.0, 5))
    model = sol.model
    u = dense_from_action(model, lambda states: sol.u0(step, states, mid=mid))
    u_dag = dense_from_action(model, lambda states: sol.u0(step, states, mid=mid, adjoint=True))
    assert np.abs(u_dag - u.conj().T).max() < 1e-12


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]))
def test_residual_step_matches_dense_conjugated_exponential(mc, kind):
    grid = TimeGrid(-1.0, 0.0, 12)
    sol = scaled_solution(mc, kind, grid)
    model = sol.model
    res = propagate_residual(sol)
    for i in range(grid.steps):
        # reference: the dense conjugated exponential, one eigh at full dimension
        _, h1 = split_hamiltonian(model, sol.couplings, sol.strategy, grid.midpoint(i), sol.k0)
        u0m = dense_from_action(model, lambda states: sol.u0(i, states, mid=True))
        step = hermitian_function(u0m.conj().T @ h1.dense() @ u0m,
                                  lambda w: np.exp(-1j * grid.dt * w))
        want = (step @ res.states[i].reshape(-1)).reshape(model.shape)
        assert np.abs(res.states[i + 1] - want).max() < 1e-12
    assert abs(np.linalg.norm(res.final) - 1.0) < 1e-12
    assert np.array_equal(propagate_residual(sol).states, res.states)
