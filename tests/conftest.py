"""Shared builders and independent closed-form references for the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from ecsim.ecs import TRUNCATION_TOL, _polar_nodes
from ecsim.hilbert import (
    CoefficientSet,
    Dispersion,
    Lattice,
    Model,
    OscillatorSpec,
    oscillator_annihilation,
)

# Deterministic hypothesis runs: no example database, derandomised search.
PINNED = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def make_model(sites=5, length=None, cutoff=8, omega=1.0, kind="tight_binding",
               **disp_kwargs) -> Model:
    lat = Lattice(sites=sites, length=float(sites) if length is None else length)
    if kind == "tight_binding":
        disp = Dispersion.tight_binding(disp_kwargs.get("hopping", 1.0))
    elif kind == "quadratic":
        disp = Dispersion.quadratic(disp_kwargs.get("mass", 1.0))
    else:
        disp = Dispersion.flat(disp_kwargs.get("value", 0.0))
    return Model(lat, disp, OscillatorSpec(cutoff=cutoff, omega=omega))


def random_coefficients(lattice: Lattice, rng: np.random.Generator,
                        modes: int = 3, scale: float = 0.15) -> CoefficientSet:
    offsets = rng.choice(np.arange(lattice.sites), size=modes, replace=False)
    vals = {int(q) + lattice.n_min: scale * complex(rng.standard_normal(), rng.standard_normal())
            for q in offsets}
    return CoefficientSet.from_dict(lattice, vals)


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
    return unitary_exponential(1j * (np.kron(qp, b.conj().T) - np.kron(qp.conj().T, b))
                               + np.kron(chi, np.eye(model.osc.levels)))


def unity_dense_reference(model: Model, h: CoefficientSet, radial_nodes: int = 40,
                          angular_nodes: int = 64, tol: float = TRUNCATION_TOL):
    """(deviation, reliable_levels) of the resolution-of-unity quadrature,
    accumulated as one dim x dim matrix over every momentum shift of the
    scaled series states, with exp(-|z|^2 Q^dag Q/2) and the quadrature scale
    from an eigendecomposition of Q^dag Q (independent of the branch blocks)."""
    qp = h.particle_matrix()
    lam_sq, v_eig = np.linalg.eigh(qp.conj().T @ qp)
    radii, angles, weights = _polar_nodes(radial_nodes, angular_nodes,
                                          float(lam_sq[lam_sq > 1e-14].min()))
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
        stacked = np.sqrt(wgt) * states[:, rolls, :].reshape(angular_nodes * N, model.dim)
        result += stacked.T @ stacked.conj()
    mu_max = float(radii.max() ** 2 * lam_sq.max())
    poisson = np.exp(-mu_max + n_arr * np.log(max(mu_max, 1e-300)) - log_fact)
    reliable = tuple(int(n) for n in n_arr[poisson < tol])
    if not reliable:
        return float("inf"), ()
    idx = np.array([k * levels + n for k in range(N) for n in reliable])
    block = result[np.ix_(idx, idx)]
    return float(np.linalg.norm(block - np.eye(idx.size), 2)), reliable


def midpoint_propagate(model: Model, hamiltonian, grid, initial: np.ndarray) -> np.ndarray:
    """Final state of the midpoint rule psi <- exp(-i dt H(t_m)) psi for a dense
    time-dependent Hermitian H(t), each step unitary from its own
    eigendecomposition (independent of the oracle's fixed step unitary)."""
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    for i in range(grid.steps):
        w, v = np.linalg.eigh(hamiltonian(grid.midpoint(i)))
        psi = (v * np.exp(-1j * grid.dt * w)) @ (v.conj().T @ psi)
    return psi.reshape(model.shape)
