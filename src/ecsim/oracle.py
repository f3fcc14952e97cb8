"""Brute-force dense reference propagation, the ground truth of `evolve`.

This module deliberately shares no machinery with the propagation code
beyond the basis types: the Hamiltonian is assembled entry by entry, the
free propagator is a diagonal phase on the flattened product basis, and the
interaction-picture steps come from one dense eigendecomposition of the
Schroedinger-picture coupling, e^{i H_free t} exp(-i dt H_S) e^{-i H_free t}.
"""

from __future__ import annotations

import numpy as np

from .hilbert import CoefficientSet, Model
from .dynamics import TimeGrid, STABILITY_LIMIT


def _free_energies(model: Model) -> np.ndarray:
    """eps_k + w n on the flattened product basis (index k * levels + n)."""
    n = np.arange(model.osc.levels)
    return (model.energies()[:, None] + model.osc.omega * n[None, :]).reshape(-1)


def free_hamiltonian_dense(model: Model) -> np.ndarray:
    """H_free = diag(eps_k) x I + I x w b^dag b, diagonal in the product basis."""
    return np.diag(_free_energies(model).astype(complex))


def schrodinger_hamiltonian_dense(model: Model, couplings: CoefficientSet) -> np.ndarray:
    """b^dag sum_q g_q rho_q + h.c. assembled entry by entry from the action
    of a_k^dag a_{k+q} and the ladder matrix elements."""
    N, levels = model.shape
    dim = model.dim
    h = np.zeros((dim, dim), dtype=complex)
    lat = model.lattice
    for q, g in couplings.items:
        for k in range(N):
            src = lat.shift_index(k, q)   # rho_q maps |k+q> -> |k>
            for n in range(levels - 1):
                # b^dag g rho_q : (k, n+1) <- (k+q, n)
                h[k * levels + n + 1, src * levels + n] += g * np.sqrt(n + 1)
    return h + h.conj().T


def propagate_exact(model: Model, couplings: CoefficientSet, grid: TimeGrid,
                    initial: np.ndarray, collect_every: int | None = None):
    """Propagate under the full interaction-picture Hamiltonian
    H_I(t) = e^{i H_free t} H_S e^{-i H_free t} with the midpoint rule.

    H_S is time-independent, so every step exp(-i dt H_I(t_m)) is exactly
    e^{i H_free t_m} exp(-i dt H_S) e^{-i H_free t_m}: one eigendecomposition
    per call, then one matvec between two diagonal phases per step.  At zero
    coupling the initial state is returned unchanged.

    Returns the final state; with `collect_every` also a pair
    (step indices, states) sampled every that many steps (the initial and
    final states always included).
    """
    static = schrodinger_hamiltonian_dense(model, couplings)
    step = None
    if np.any(static):
        w, v = np.linalg.eigh(static)
        if grid.dt * np.abs(w).max() >= STABILITY_LIMIT:
            raise ValueError("grid too coarse for the stability guard")
        step = (v * np.exp(-1j * grid.dt * w)) @ v.conj().T
    energies = _free_energies(model)
    psi = np.asarray(initial, dtype=complex).reshape(-1).copy()
    collected = [(0, psi.reshape(model.shape))] if collect_every else None
    for i in range(grid.steps):
        if step is not None:
            phase = np.exp(1j * grid.midpoint(i) * energies)
            psi = phase * (step @ (phase.conj() * psi))
        if collect_every and ((i + 1) % collect_every == 0 or i + 1 == grid.steps):
            collected.append((i + 1, psi.reshape(model.shape)))
    final = psi.reshape(model.shape)
    if collect_every:
        idx = np.array([i for i, _ in collected])
        states = np.array([s for _, s in collected])
        return final, (idx, states)
    return final

