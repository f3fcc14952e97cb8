"""Shared builders and independent closed-form references for the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st

from ecsim.dynamics import ModulatorStrategy, TimeGrid, zero_order_solution
from ecsim.ecs import MOMENT_MAX_ORDER, TRUNCATION_TOL, _polar_nodes
from ecsim.hilbert import (
    DISPERSION_PARAMETERS,
    CoefficientSet,
    Dispersion,
    Lattice,
    Model,
    OscillatorSpec,
    circulant,
    oscillator_annihilation,
)

# Deterministic hypothesis runs: no example database, derandomised search.
PINNED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
values = st.builds(complex, finite, finite)


def make_model(sites=5, length=None, cutoff=8, omega=1.0, kind="tight_binding",
               parameter=None) -> Model:
    """A model whose dispersion parameter defaults as an absent config key does."""
    lat = Lattice(sites=sites, length=float(sites) if length is None else length)
    if parameter is None:
        parameter = DISPERSION_PARAMETERS[kind][1]
    return Model(lat, Dispersion(kind, parameter),
                 OscillatorSpec(cutoff=cutoff, omega=omega))


def shift_matrix(lattice: Lattice, q: int) -> np.ndarray:
    """Particle matrix of the density Fourier component rho_q, built entry by
    entry: the unitary shift taking momentum component k+q to k, i.e.
    |p> -> |p-q> (indices wrap modulo the lattice).  The independent
    reference for ``hilbert.circulant``."""
    N = lattice.sites
    qw = lattice.wrap_offset(q) % N
    mat = np.zeros((N, N), dtype=complex)
    cols = np.arange(N)
    mat[(cols - qw) % N, cols] = 1.0
    return mat


def hermitian_pair(lattice: Lattice, q0: int, g: complex) -> CoefficientSet:
    """The coupling {q0: g, -q0: g*}; for q0 = 0 the coupling must be real."""
    if lattice.wrap_offset(q0) == lattice.wrap_offset(-q0):
        if abs(g.imag if isinstance(g, complex) else 0.0) > 1e-15:
            raise ValueError("self-paired offset requires a real coupling")
        return CoefficientSet(lattice, ((q0, complex(g).real),))
    return CoefficientSet(lattice, ((q0, complex(g)), (-q0, np.conj(complex(g)))))


def random_coefficients(lattice: Lattice, rng: np.random.Generator,
                        modes: int = 3, scale: float = 0.15) -> CoefficientSet:
    offsets = rng.choice(np.arange(lattice.sites), size=modes, replace=False)
    vals = {int(q) + lattice.n_min: scale * complex(rng.standard_normal(), rng.standard_normal())
            for q in offsets}
    return CoefficientSet.from_dict(lattice, vals)


@st.composite
def coupled_models(draw):
    """A random model of 2-8 sites, any dispersion, with Hermitian-paired
    random couplings."""
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
    return model, CoefficientSet.from_dict(lat, g)


def scaled_solution(mc, kind, grid):
    """Zero-order solution of a random model with the coupling scaled to
    max |branch| = 0.2, well inside the truncation and stability guards."""
    model, couplings = mc
    assume(couplings.operator_amplitude() > 1e-6)
    couplings = couplings.scaled(0.2 / couplings.operator_amplitude())
    return zero_order_solution(model, couplings, ModulatorStrategy(kind=kind), grid,
                               model.lattice.sites // 2)


def kron(particle: np.ndarray, oscillator: np.ndarray) -> np.ndarray:
    """particle x oscillator on the flattened product space.  This fixes the
    flattening order of the tests: index momentum_index * levels + fock_level,
    the C order of (N, levels) states."""
    return np.kron(particle, oscillator)


def free_energies(model: Model) -> np.ndarray:
    """The diagonal of H_f = eps x I + I x w n on the flattened space."""
    number = np.diag(np.arange(model.osc.levels, dtype=float))
    return np.diag(kron(np.diag(model.energies()), np.eye(model.osc.levels))
                   + kron(np.eye(model.lattice.sites), model.osc.omega * number))


def conjugate_free(model: Model, op: np.ndarray, t: float) -> np.ndarray:
    """e^{i H_f t} op e^{-i H_f t} of a dense operator."""
    phase = np.exp(1j * t * free_energies(model))
    return (phase[:, None] * op) * phase.conj()[None, :]


def _coupling_term(model: Model, particle: np.ndarray, t: float) -> np.ndarray:
    """b^dag e^{iwt} x particle + h.c., dense."""
    bd = np.exp(1j * model.osc.omega * t) * oscillator_annihilation(model.osc).conj().T
    h = kron(particle, bd)
    return h + h.conj().T


def _dressed_coupling(model: Model, couplings, t: float) -> np.ndarray:
    """G(t) = sum_q g_q rho_q(t), each rho_q dressed with e^{i (eps_k - eps_k+q) t}."""
    eps = model.energies()
    return couplings.particle_matrix() * np.exp(1j * t * (eps[:, None] - eps[None, :]))


def interaction_hamiltonian(model: Model, couplings, t: float = 0.0) -> np.ndarray:
    """The dense interaction-picture Hamiltonian b^dag e^{iwt} G(t) + h.c.;
    at t = 0 it is the Schroedinger-picture coupling H_S."""
    return _coupling_term(model, _dressed_coupling(model, couplings, t), t)


def _modulated_coupling(model: Model, couplings, strategy: ModulatorStrategy, t: float,
                        k0: int) -> np.ndarray:
    """The circulant A(t) = sum_q g_q f_q(t) rho_q, f_q(t) = e^{i delta_q t}."""
    f = np.exp(1j * strategy.detuning(model, k0, couplings.offsets) * t)
    return circulant(model.lattice, couplings.offsets, couplings.values * f)


def zero_order_hamiltonian(model: Model, couplings, strategy: ModulatorStrategy, t: float,
                           k0: int) -> np.ndarray:
    """The dense H0 = b^dag e^{iwt} A(t) + h.c. at time t."""
    return _coupling_term(model, _modulated_coupling(model, couplings, strategy, t, k0), t)


def split_hamiltonian(model: Model, couplings, strategy: ModulatorStrategy, t: float,
                      k0: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H0, H1) at time t, H1 the form of H0 with G(t) - A(t) in place
    of A(t)."""
    a_mat = _modulated_coupling(model, couplings, strategy, t, k0)
    return (_coupling_term(model, a_mat, t),
            _coupling_term(model, _dressed_coupling(model, couplings, t) - a_mat, t))


def ladder_commutator_residual(sol, step: int, keep_levels: int | None = None) -> float:
    """Max residual of the four ladder/evolution commutation relations
    [b, U0] = U0 Q, [b, U0^dag] = -U0^dag Q, [b^dag, U0] = U0 Q^dag,
    [b^dag, U0^dag] = -U0^dag Q^dag at a grid step, U0 from its action.

    The relations are exact at infinite cutoff; truncating the generator
    leaves a boundary layer below the top Fock level whose magnitude at
    distance d from the cutoff falls off like (||Q|| sqrt(levels))^d / d!.
    The residual is therefore measured on levels <= `keep_levels`, chosen by
    default as the largest subspace where that bound stays below 1e-7.
    """
    model = sol.model
    N, levels = model.shape
    u = dense_from_action(model, lambda states: sol.u0(step, states))
    qp = circulant(model.lattice, sol.offsets, sol.h(sol.grid.times[step]))
    b = kron(np.eye(N), oscillator_annihilation(model.osc))
    q_full = kron(qp, np.eye(levels))
    if keep_levels is None:
        scale = np.linalg.norm(qp, 2) * np.sqrt(levels)
        bound, depth = 1.0, 0
        while bound >= 1e-7:
            depth += 1
            bound *= scale / depth
        keep_levels = model.osc.cutoff - depth
    assert keep_levels >= 0, "amplitude too large for a reliable subspace at this cutoff"
    mask = np.zeros(levels)
    mask[:keep_levels + 1] = 1.0
    proj = kron(np.eye(N), np.diag(mask))

    ud, bd, qd = u.conj().T, b.conj().T, q_full.conj().T
    residuals = [
        (b @ u - u @ b) - u @ q_full,
        (b @ ud - ud @ b) + ud @ q_full,
        (bd @ u - u @ bd) - u @ qd,
        (bd @ ud - ud @ bd) + ud @ qd,
    ]
    return float(max(np.linalg.norm(proj @ r @ proj, 2) for r in residuals))


def exact_interaction_state(model: Model, couplings, grid: TimeGrid,
                            initial: np.ndarray) -> np.ndarray:
    """The interaction-picture state at t_end with no time steps:
    e^{i H_f t1} e^{-i (H_f + H_S)(t1 - t0)} e^{-i H_f t0} psi0, from one
    eigendecomposition of the kron-built H_f + H_S."""
    e_free = free_energies(model)
    psi = np.exp(-1j * grid.t0 * e_free) * initial.reshape(-1)
    full = np.diag(e_free) + interaction_hamiltonian(model, couplings)
    psi = unitary_exponential(full, grid.t_end - grid.t0) @ psi
    return (np.exp(1j * grid.t_end * e_free) * psi).reshape(model.shape)


def fourier_vectors(sites: int) -> np.ndarray:
    """Column j is f_j[n] = e^{2 pi i j n/N} / sqrt(N)."""
    n = np.arange(sites)
    return np.exp(2j * np.pi * np.outer(n, n) / sites) / np.sqrt(sites)


def static_unit_reference(model: Model, couplings, t0: float, t: float):
    """Closed-form h_q(t) and chi(t) for the static-unit modulator: every
    h_q(t) = g_q * tau(t) with tau = -(e^{iwt} - e^{iwt0})/w, and
    chi(t) = [sin(w dt)/w - dt]/w * G^dag G with dt = t - t0."""
    om = model.osc.omega
    tau = -(np.exp(1j * om * t) - np.exp(1j * om * t0)) / om
    h = {q: v * tau for q, v in couplings.items}
    span = t - t0
    c = (np.sin(om * span) / om - span) / om
    g_mat = couplings.particle_matrix()
    chi = c * (g_mat.conj().T @ g_mat)
    return h, chi


def dense_from_action(model: Model, apply) -> np.ndarray:
    """The matrix of a linear map on states of shape (..., N, levels), column
    by column from its action on the identity stack."""
    eye = np.eye(model.dim)
    return apply(eye.reshape((-1,) + model.shape)).reshape(eye.shape).T


def unitary_exponential(herm: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i t H) of a dense Hermitian H from its eigendecomposition."""
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(-1j * t * w)) @ v.conj().T


def u0_dense_reference(model: Model, h_dict, chi: np.ndarray) -> np.ndarray:
    """exp(Q b^dag - Q^dag b - i chi) assembled from given h and chi via a
    Hermitian eigendecomposition (independent of the dynamics module)."""
    qp = CoefficientSet.from_dict(model.lattice, h_dict).particle_matrix()
    b = oscillator_annihilation(model.osc)
    return unitary_exponential(1j * (kron(qp, b.conj().T) - kron(qp.conj().T, b))
                               + kron(chi, np.eye(model.osc.levels)))


def series_dense_reference(model: Model, h: CoefficientSet, k0: int) -> np.ndarray:
    """kron(expm(-Q^dag Q/2), I) sum_n kron(Q, b^dag)^n/n! |0,k0) on the
    flattened product space, with Q summed entry by entry from
    ``shift_matrix``: the independent reference for the series state at any
    set of offsets."""
    from scipy.linalg import expm   # here, so tests/test_cli.py runs without scipy

    N, levels = model.shape
    qp = sum((v * shift_matrix(model.lattice, q) for q, v in h.items),
             np.zeros((N, N), dtype=complex))
    step = kron(qp, oscillator_annihilation(model.osc).conj().T)
    term = np.zeros(model.dim, dtype=complex)
    term[k0 * levels] = 1.0
    acc = term.copy()
    for n in range(1, levels):
        term = (step @ term) / n
        acc += term
    return (kron(expm(-0.5 * qp.conj().T @ qp), np.eye(levels)) @ acc).reshape(model.shape)


def unity_dense_reference(model: Model, h: CoefficientSet):
    """(deviation, reliable_levels) of the resolution-of-unity quadrature,
    accumulated as one dim x dim matrix over every momentum shift of the
    scaled series states.  Scaling the quadrature per branch (u = |z|^2
    |lam_j|^2) turns (1/pi) int d^2z Q|zh,k><zh,k|Q^dag into the same
    integral at unit scale for the polar factor U = Q (Q^dag Q)^{-1/2} of Q,
    zero where Q^dag Q vanishes; U and exp(-|z|^2 U^dag U/2) come from an
    eigendecomposition of Q^dag Q (independent of the branch blocks)."""
    qp = h.particle_matrix()
    lam_sq, v_eig = np.linalg.eigh(qp.conj().T @ qp)
    live = lam_sq > 1e-14
    inv_sqrt = np.where(live, 1 / np.sqrt(np.where(live, lam_sq, 1.0)), 0.0)
    qp = qp @ (v_eig * inv_sqrt) @ v_eig.conj().T
    lam_sq = live.astype(float)   # the eigenvalues of U^dag U
    radii, angles, weights = _polar_nodes()
    N, levels = model.shape
    n_arr = np.arange(levels)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, levels)))))
    # column n of `core` is Q^n |k=0> / sqrt(n!) on the particle factor
    core = np.zeros((N, levels), dtype=complex)
    core[0, 0] = 1.0
    for n in range(1, levels):
        core[:, n] = qp @ core[:, n - 1]
    core *= np.exp(-0.5 * log_fact)
    rolls = [np.roll(np.arange(N), k) for k in range(N)]
    result = np.zeros((model.dim, model.dim), dtype=complex)
    for r, wgt in zip(radii, weights):
        pref = (v_eig * np.exp(-0.5 * r ** 2 * lam_sq)) @ v_eig.conj().T
        zpow = (r * np.exp(1j * angles))[:, None] ** n_arr
        states = qp @ np.einsum("ij,jl,al->ail", pref, core, zpow)  # (angle, N, levels)
        stacked = np.sqrt(wgt) * states[:, rolls, :].reshape(angles.size * N, model.dim)
        result += stacked.T @ stacked.conj()
    mu_max = float(radii.max() ** 2 * lam_sq.max())
    poisson = np.exp(-mu_max + n_arr * np.log(max(mu_max, 1e-300)) - log_fact)
    reliable = tuple(int(n) for n in n_arr[poisson < TRUNCATION_TOL])
    idx = np.array([k * levels + n for k in range(N) for n in reliable])
    block = result[np.ix_(idx, idx)]
    return float(np.linalg.norm(block - np.eye(idx.size), 2)), reliable


def moment_loop_reference() -> np.ndarray:
    """values[n, m] of the scalar moment quadrature, accumulated one radius at
    a time over every quadrature angle, pi w (z*)^n z^m e^{-|z|^2}, without
    splitting (z*)^n z^m into radial and angular factors."""
    radii, angles, weights = _polar_nodes()
    orders = np.arange(MOMENT_MAX_ORDER + 1)
    values = np.zeros((orders.size, orders.size), dtype=complex)
    for r, wgt in zip(radii, weights):
        zp = (r * np.exp(1j * angles))[:, None] ** orders
        values += np.pi * wgt * np.exp(-r ** 2) * np.einsum("an,am->nm", zp.conj(), zp)
    return values


def midpoint_propagate(model: Model, hamiltonian, grid, initial: np.ndarray) -> np.ndarray:
    """Final state of the midpoint rule psi <- exp(-i dt H(t_m)) psi for a dense
    time-dependent Hermitian H(t), each step applied by its Taylor series,
    summed until the squared norm of a term falls below eps^2 times that of
    the sum (independent of the oracle's fixed step unitary and of U0)."""
    tol = np.finfo(float).eps ** 2
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    for i in range(grid.steps):
        gen = -1j * grid.dt * hamiltonian(grid.midpoint(i))
        term, n = psi, 1
        while np.vdot(term, term).real > tol * np.vdot(psi, psi).real:
            term = (gen @ term) / n
            psi, n = psi + term, n + 1
    return psi.reshape(model.shape)
