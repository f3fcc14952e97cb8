"""Randomised reference checks of the circulant builder, its branch
(Fourier eigenvalue) representation, the scaling of a coefficient set, the action of U0 and
the residual step."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import (
    PINNED,
    coupled_models,
    dense_from_action,
    fourier_vectors,
    interaction_hamiltonian,
    kron,
    make_model,
    scaled_solution,
    shift_matrix,
    split_hamiltonian,
    unitary_exponential,
    values,
)
from ecsim.dynamics import (
    STABILITY_LIMIT,
    ModulatorStrategy,
    TimeGrid,
    branch_values,
    check_stability,
    propagate_residual,
    zero_order_solution,
)
from ecsim.hilbert import (
    CoefficientSet,
    Lattice,
    branch_displacement,
    branch_phases,
    branches,
    circulant,
    displacement,
    ladder_quadrature,
    oscillator_annihilation,
)
from ecsim.observables import PositionGrid, alpha_phi

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


@PINNED
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=1, max_value=24),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
def test_branches_and_displacement_match_their_fft_references(sites, cutoff, batch, seed):
    """The DFT-matrix forms of ``branches`` and ``displacement`` agree to
    1e-13 with the FFT forms they replace, on random batched stacks."""
    model = make_model(sites=sites, cutoff=cutoff)
    lat, shape = model.lattice, (batch,) + model.shape
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((batch, sites)) + 1j * rng.standard_normal((batch, sites))
    lam = branches(lat, range(sites), vals)
    assert np.abs(lam - np.fft.ifft(vals, norm="forward")).max() < 1e-13
    mu = rng.standard_normal((batch, sites))
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x, w = ladder_quadrature(model.osc)
    coeffs = branch_displacement(np.fft.fft(states, axis=-2, norm="ortho"),
                                 branch_phases(lam, mu, x), w)
    want = np.fft.ifft(coeffs, axis=-2, norm="ortho")
    assert np.abs(displacement(model, lam, mu, states) - want).max() < 1e-13


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
    gen = (kron(qp, b.conj().T) - kron(qp.conj().T, b)
           - 1j * kron(chi, np.eye(model.osc.levels)))
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


@PINNED
@given(coupled_models(), st.floats(min_value=-4.0, max_value=4.0),
       st.sampled_from(["static_unit", "recoil_phase"]))
def test_split_sums_to_full_hamiltonian(mc, t, kind):
    model, couplings = mc
    k0 = model.lattice.sites // 2
    h0, h1 = split_hamiltonian(model, couplings, ModulatorStrategy(kind=kind), t, k0)
    full = interaction_hamiltonian(model, couplings, t)
    assert np.abs(h0 + h1 - full).max() < 1e-13 * max(1.0, np.abs(full).max())


@PINNED
@given(coupled_models(), st.floats(min_value=0.1, max_value=3.0))
def test_scaled_coupling_keeps_type_and_offsets(mc, factor):
    _, couplings = mc
    s = couplings.scaled(factor)
    assert type(s) is CoefficientSet and s.lattice == couplings.lattice
    assert s.items == tuple((q, factor * v) for q, v in couplings.items)


@PINNED
@given(lattice_terms())
def test_operator_amplitude_is_the_spectral_norm(case):
    lat, offsets, vals = case
    h = CoefficientSet(lat, tuple(zip(offsets, vals)))
    assert abs(h.operator_amplitude() - np.linalg.norm(h.particle_matrix(), 2)) \
        < 1e-12 * max(1.0, np.abs(h.values).sum())


@PINNED
@given(coupled_models())
def test_stability_guard_matches_the_dense_hamiltonian_norm(mc):
    model, couplings = mc
    hnorm = np.linalg.norm(interaction_hamiltonian(model, couplings), 2)
    assume(hnorm > 1e-6)
    dt = STABILITY_LIMIT / hnorm
    check_stability(model, couplings, TimeGrid(-dt * (1 - 1e-9), 0.0, 1))
    with pytest.raises(ValueError):
        check_stability(model, couplings, TimeGrid(-dt * (1 + 1e-9), 0.0, 1))


def test_stability_guard_takes_the_ladder_2_norm():
    """The guard's ||b + b^dag||_2, the largest |eigenvalue| of b + b^T, is
    the SVD 2-norm to 1e-14 relative for cutoff 1..60: on one site with unit
    coupling, a grid 1e-14 inside the SVD norm's boundary passes and one
    1e-14 outside it is rejected."""
    for cutoff in range(1, 61):
        model = make_model(sites=1, cutoff=cutoff)
        couplings = CoefficientSet(model.lattice, ((0, 1.0),))
        assert couplings.operator_amplitude() == 1.0
        b = oscillator_annihilation(model.osc)
        dt = STABILITY_LIMIT / np.linalg.norm(b + b.conj().T, 2)
        check_stability(model, couplings, TimeGrid(-dt * (1 - 1e-14), 0.0, 1))
        with pytest.raises(ValueError):
            check_stability(model, couplings, TimeGrid(-dt * (1 + 1e-14), 0.0, 1))


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]))
def test_branches_of_h_and_chi_are_alpha_and_phi(mc, kind):
    sol = scaled_solution(mc, kind, TimeGrid(-1.0, 0.0, 20))
    lat = sol.model.lattice
    field = alpha_phi(sol, PositionGrid.uniform(lat, lat.sites))  # x_m = m * spacing
    branch = -np.arange(lat.sites) % lat.sites        # f_{-m} peaks at x_m
    lam, mu = branch_values(sol, sol.grid.times[-1])
    assert np.abs(lam[branch] - field.alpha_final).max() < 1e-13
    assert np.abs(mu[branch] - field.phi).max() < 1e-13


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]),
       st.integers(min_value=0, max_value=4), st.booleans())
def test_u0_adjoint_is_the_conjugate_transpose(mc, kind, step, mid):
    """The branch displacement with adjoint=True, as the residual stepper
    applies U0m^dag, is the conjugate transpose of U0 at grid points and
    midpoints alike."""
    sol = scaled_solution(mc, kind, TimeGrid(-1.0, 0.0, 5))
    model = sol.model
    lam, mu = branch_values(sol, sol.grid.t0 + sol.grid.dt * (step + 0.5 * mid))
    x, w = ladder_quadrature(model.osc)
    phases = branch_phases(lam, mu, x)
    u = dense_from_action(model, lambda states: branch_displacement(states, phases, w))
    u_dag = dense_from_action(
        model, lambda states: branch_displacement(states, phases, w, adjoint=True))
    assert np.abs(u_dag - u.conj().T).max() < 1e-12


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]),
       st.sampled_from([(1,), (4,), (2, 3)]), st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_u0_matches_per_step_calls(mc, kind, lead, seed):
    """sol.u0 with an array of steps applies each step's U0 to its own state."""
    grid = TimeGrid(-1.0, 0.0, 5)
    sol = scaled_solution(mc, kind, grid)
    model = sol.model
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, grid.steps + 1, size=lead)
    stack = rng.standard_normal(lead + model.shape) + 1j * rng.standard_normal(lead + model.shape)
    stack /= np.linalg.norm(stack, axis=(-2, -1), keepdims=True)
    got = sol.u0(steps, stack)
    assert got.shape == stack.shape
    for index in np.ndindex(*lead):
        want = sol.u0(int(steps[index]), stack[index])
        assert np.abs(got[index] - want).max() < 1e-14


@PINNED
@given(coupled_models(), st.sampled_from(["static_unit", "recoil_phase"]))
def test_residual_step_matches_dense_conjugated_exponential(mc, kind):
    grid = TimeGrid(-1.0, 0.0, 12)
    sol = scaled_solution(mc, kind, grid)
    model = sol.model
    res, = propagate_residual(sol, collect_every=1)
    for i in range(grid.steps):
        # reference: the dense conjugated exponential, one eigh at full dimension
        _, h1 = split_hamiltonian(model, sol.couplings, sol.strategy, grid.midpoint(i), sol.k0)
        lam_m, mu_m = branch_values(sol, grid.midpoint(i))
        u0m = dense_from_action(model, lambda states: displacement(model, lam_m, mu_m, states))
        step = unitary_exponential(u0m.conj().T @ h1 @ u0m, grid.dt)
        want = (step @ res.states[i].reshape(-1)).reshape(model.shape)
        assert np.abs(res.states[i + 1] - want).max() < 1e-12
    assert abs(np.linalg.norm(res.final) - 1.0) < 1e-12
    assert np.array_equal(propagate_residual(sol, collect_every=1)[0].states, res.states)


@PINNED
@given(coupled_models(),
       st.permutations([(kind, f) for kind in ("static_unit", "recoil_phase")
                        for f in (1.0, 0.5, 0.25)]),
       st.integers(min_value=1, max_value=5))
def test_stacked_residual_matches_single_runs(mc, members, every):
    """One stacked run over both strategies and three coupling scales (odd and
    even lattices alike) gives every member's single run at every sample."""
    grid = TimeGrid(-1.0, 0.0, 12)
    base = scaled_solution(mc, "static_unit", grid)
    sols = [zero_order_solution(base.model, base.couplings.scaled(f), ModulatorStrategy(kind=kind),
                                grid, base.k0) for kind, f in members]
    stacked = propagate_residual(*sols, collect_every=every)
    assert len(stacked) == len(sols)
    for sol, res in zip(sols, stacked):
        alone, = propagate_residual(sol, collect_every=every)
        assert res.sol is sol
        assert np.array_equal(res.steps, alone.steps)
        assert np.abs(res.states - alone.states).max() < 1e-14
