"""Brute-force dense reference propagation, the ground truth of `evolve`.

This module deliberately shares no machinery with the propagation code
beyond the basis types: it builds its own Fourier matrix, branch values and
ladder matrix.  The free propagator is a diagonal phase on the flattened
product basis, and the interaction-picture steps are
e^{i H_free t} exp(-i dt H_S) e^{-i H_free t}.  The particle factor of H_S is
a circulant, so the Fourier matrix F splits H_S into one oscillator block
H_j = gamma_j b^dag + gamma_j^* b per branch j, and exp(-i dt H_S) =
(F x I) blockdiag_j exp(-i dt H_j) (F^dag x I), every block from one batched
eigendecomposition.
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
    of a_k^dag a_{k+q} and the ladder matrix elements.  Not on the propagation
    path: it is the independent reference that the tests and the benchmark's
    step-free check build H_S from."""
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


def _step_unitary(model: Model, couplings: CoefficientSet, dt: float) -> np.ndarray:
    """exp(-i dt H_S) on the flattened product basis, with
    gamma_j = sum_q g_q e^{2 pi i j q/N} (rho_q's eigenvalue on the Fourier
    vector e^{2 pi i j k/N}/sqrt(N)).  The result is block-circulant: its
    particle block (k, l) is (1/N) sum_j e^{2 pi i j (k-l)/N} exp(-i dt H_j)."""
    N, levels = model.shape
    j = np.arange(N)
    fourier = np.exp(2j * np.pi * (np.outer(j, j) % N) / N)   # [j, k] = e^{2 pi i jk/N}
    gamma = fourier[:, np.mod(couplings.offsets, N)] @ couplings.values
    raise_op = np.diag(np.sqrt(np.arange(1.0, levels)), -1)   # b^dag: (n+1) <- n
    blocks = gamma[:, None, None] * raise_op
    w, v = np.linalg.eigh(blocks + blocks.conj().transpose(0, 2, 1))
    guard = dt * np.abs(w).max()
    if guard >= STABILITY_LIMIT:
        raise ValueError(
            f"dt*||H_S|| = {guard:.3g} exceeds stability guard {STABILITY_LIMIT}")
    branch_steps = (v * np.exp(-1j * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    circ = (fourier @ branch_steps.reshape(N, -1) / N).reshape(N, levels, levels)
    step = circ[(j[:, None] - j[None, :]) % N]   # [k, l, n, m]
    return step.transpose(0, 2, 1, 3).reshape(model.dim, model.dim)


def propagate_exact(model: Model, couplings: CoefficientSet, grid: TimeGrid,
                    initial: np.ndarray, collect_every: int | None = None):
    """Propagate under the full interaction-picture Hamiltonian
    H_I(t) = e^{i H_free t} H_S e^{-i H_free t} with the midpoint rule.

    H_S is time-independent, so every step exp(-i dt H_I(t_m)) is exactly
    e^{i H_free t_m} exp(-i dt H_S) e^{-i H_free t_m}: the step unitary is
    built once per call from the (sites, levels, levels) branch blocks of
    H_S, then each step is one dense matvec between two diagonal phases.
    At zero coupling the initial state is returned unchanged.

    Returns the final state; with `collect_every` also a pair
    (step indices, states) sampled every that many steps (the initial and
    final states always included).
    """
    step = _step_unitary(model, couplings, grid.dt) if np.any(couplings.values) else None
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

