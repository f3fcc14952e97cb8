"""Shared builders and independent closed-form references for the tests."""

from __future__ import annotations

import numpy as np
from hypothesis import settings

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


def u0_dense_reference(model: Model, h_dict, chi: np.ndarray) -> np.ndarray:
    """exp(Q b^dag - Q^dag b - i chi) assembled from given h and chi via a
    Hermitian eigendecomposition (independent of the dynamics module)."""
    qp = CoefficientSet.from_dict(model.lattice, h_dict).particle_matrix()
    b = oscillator_annihilation(model.osc)
    herm = (1j * (np.kron(qp, b.conj().T) - np.kron(qp.conj().T, b))
            + np.kron(chi, np.eye(model.osc.levels)))
    w, v = np.linalg.eigh(herm)
    return (v * np.exp(-1j * w)) @ v.conj().T


def midpoint_propagate(model: Model, hamiltonian, grid, initial: np.ndarray) -> np.ndarray:
    """Final state of the midpoint rule psi <- exp(-i dt H(t_m)) psi for a dense
    time-dependent Hermitian H(t), each step unitary from its own
    eigendecomposition (independent of the oracle's fixed step unitary)."""
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    for i in range(grid.steps):
        w, v = np.linalg.eigh(hamiltonian(grid.midpoint(i)))
        psi = (v * np.exp(-1j * grid.dt * w)) @ (v.conj().T @ psi)
    return psi.reshape(model.shape)
