"""Brute-force dense reference implementations used as ground truth.

This module deliberately shares no machinery with the propagation code
beyond the basis types: interaction-picture operators are produced by dense
conjugation with the free propagator, and every step unitary is built from
its own eigendecomposition.  It is allowed to be slow.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hilbert import Model, ProductOperator
from .dynamics import CouplingSet, TimeGrid, STABILITY_LIMIT


def free_hamiltonian_dense(model: Model) -> np.ndarray:
    """H_free = diag(eps_k) x I + I x w b^dag b, diagonal in the product basis."""
    eps = model.energies()
    n = np.arange(model.osc.levels)
    diag = (eps[:, None] + model.osc.omega * n[None, :]).reshape(-1)
    return np.diag(diag.astype(complex))


def conjugate_free(model: Model, op, t: float) -> np.ndarray:
    """e^{i H_free t} op e^{-i H_free t} on the flattened space; `op` may be a
    ProductOperator or a dense matrix."""
    dense = op.dense() if isinstance(op, ProductOperator) else np.asarray(op, dtype=complex)
    eps = model.energies()
    n = np.arange(model.osc.levels)
    phase = np.exp(1j * t * (eps[:, None] + model.osc.omega * n[None, :]).reshape(-1))
    return (phase[:, None] * dense) * phase.conj()[None, :]


def schrodinger_hamiltonian_dense(model: Model, couplings: CouplingSet) -> np.ndarray:
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


class DensePropagator:
    """Midpoint-exponential stepper for a time-dependent Hermitian H(t).

    Each step unitary exp(-i dt H(t_mid)) comes from a fresh
    eigendecomposition, so unitarity per step is at machine precision.
    """

    def __init__(self, model: Model, hamiltonian: Callable[[float], np.ndarray],
                 grid: TimeGrid):
        self.model = model
        self.hamiltonian = hamiltonian
        self.grid = grid
        h0 = hamiltonian(grid.midpoint(0))
        if grid.dt * np.linalg.norm(h0, 2) >= STABILITY_LIMIT:
            raise ValueError("grid too coarse for the stability guard")

    def step_unitary(self, i: int) -> np.ndarray:
        h = self.hamiltonian(self.grid.midpoint(i))
        if not np.any(h):
            return np.eye(h.shape[0], dtype=complex)
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * self.grid.dt * w)) @ v.conj().T

    def propagate(self, initial: np.ndarray, collect_every: int | None = None):
        """Propagate the initial state over the whole grid.

        Returns the final state; with `collect_every` also a pair
        (step indices, states) sampled every that many steps (the initial and
        final states always included).
        """
        psi = np.asarray(initial, dtype=complex).reshape(-1).copy()
        collected = [(0, psi.reshape(self.model.shape))] if collect_every else None
        for i in range(self.grid.steps):
            h = self.hamiltonian(self.grid.midpoint(i))
            if np.any(h):
                w, v = np.linalg.eigh(h)
                psi = (v * np.exp(-1j * self.grid.dt * w)) @ (v.conj().T @ psi)
            if collect_every and ((i + 1) % collect_every == 0 or i + 1 == self.grid.steps):
                collected.append((i + 1, psi.reshape(self.model.shape)))
        final = psi.reshape(self.model.shape)
        if collect_every:
            idx = np.array([i for i, _ in collected])
            states = np.array([s for _, s in collected])
            return final, (idx, states)
        return final


def propagate_exact(model: Model, couplings: CouplingSet, grid: TimeGrid,
                    initial: np.ndarray, collect_every: int | None = None):
    """Propagate under the full interaction-picture Hamiltonian."""
    static = schrodinger_hamiltonian_dense(model, couplings)
    prop = DensePropagator(model, lambda t: conjugate_free(model, static, t), grid)
    return prop.propagate(initial, collect_every=collect_every)


def richardson_order(model: Model, couplings: CouplingSet, grid: TimeGrid,
                     initial: np.ndarray, refinements: int = 2) -> tuple[list[float], list[float]]:
    """Observed convergence order from successive dt-halvings of the exact
    propagation: returns (orders, difference norms)."""
    grids = [grid]
    for _ in range(refinements):
        grids.append(grids[-1].refined(2))
    finals = [propagate_exact(model, couplings, g, initial).reshape(-1) for g in grids]
    diffs = [float(np.linalg.norm(finals[i] - finals[i + 1])) for i in range(refinements)]
    orders = [float(np.log2(diffs[i] / diffs[i + 1])) for i in range(refinements - 1)]
    return orders, diffs
