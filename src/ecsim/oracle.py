"""Brute-force dense reference propagation, the ground truth of `evolve`:
``propagate_exact``.

It deliberately shares nothing with the split propagator beyond the basis
types, the time grid and the stability guard: it builds its own Fourier
matrix, branch values and ladder matrix, diagonalises that ladder itself
(a real symmetric eigh, not the split's cached ``ladder_quadrature``), and
it is the one module that forms operators on the product space.
"""

from __future__ import annotations

import numpy as np

from .hilbert import CoefficientSet, Model
from .dynamics import TimeGrid, check_stability


def _free_energies(model: Model, origin: float = 0.0) -> np.ndarray:
    """eps_k - origin + w n on the flattened product basis (index k * levels + n)."""
    n = np.arange(model.osc.levels)
    return ((model.energies() - origin)[:, None] + model.osc.omega * n[None, :]).reshape(-1)


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
    """exp(-i dt H_S) on the flattened product basis.  The particle factor of
    H_S is a circulant, so on the Fourier vector e^{2 pi i j k/N}/sqrt(N) it is
    the oscillator block H_j = gamma_j b^dag + gamma_j^* b with
    gamma_j = sum_q g_q e^{2 pi i j q/N}.  With R_j = diag(e^{i n arg gamma_j}),
    H_j = |gamma_j| R_j (b + b^dag) R_j^dag, so one real eigh of the ladder
    b + b^dag = W diag(x) W^T gives every branch step
    exp(-i dt H_j) = R_j W diag(e^{-i dt |gamma_j| x}) W^T R_j^dag.  The result
    is block-circulant: its particle block (k, l) is
    C_{(k-l) mod N} = (1/N) sum_j e^{2 pi i j (k-l)/N} exp(-i dt H_j), read
    from windows over the blocks C_{N-1}, ..., C_0, C_{N-1}, ..., C_1 and
    copied once into the product space."""
    N, levels = model.shape
    j = np.arange(N)
    fourier = np.exp(2j * np.pi * (np.outer(j, j) % N) / N)   # [j, k] = e^{2 pi i jk/N}
    gamma = fourier[:, np.mod(couplings.offsets, N)] @ couplings.values
    raise_op = np.diag(np.sqrt(np.arange(1.0, levels)), -1)   # b^dag: (n+1) <- n
    x, w = np.linalg.eigh(raise_op + raise_op.T)
    rot = np.exp(1j * np.angle(gamma)[:, None] * np.arange(levels))   # [j, n] of R_j
    left = rot[:, :, None] * w * np.exp(-1j * dt * np.abs(gamma)[:, None] * x)[:, None, :]
    branch_steps = left @ (w.T * rot.conj()[:, None, :])
    circ = (fourier @ branch_steps.reshape(N, -1) / N).reshape(N, levels, levels)
    # windows[s, n, m, l] = C_{(N-1-s-l) mod N}, so block (k, l) is windows[N-1-k, ..., l]
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((circ[::-1], circ[:0:-1])), N, axis=0)
    return windows[::-1].transpose(0, 1, 3, 2).copy().reshape(model.dim, model.dim)


def propagate_exact(model: Model, couplings: CoefficientSet, grid: TimeGrid,
                    initial: np.ndarray, collect_every: int | None = None):
    """Propagate under the full interaction-picture Hamiltonian
    H_I(t) = e^{i H_free t} H_S e^{-i H_free t} with the midpoint rule, on a
    grid that passes ``check_stability`` (the guard of ``zero_order_solution``).

    H_S is time-independent, so every midpoint step exp(-i dt H_I(t_m)) is
    exactly e^{i H_free t_m} exp(-i dt H_S) e^{-i H_free t_m}, and on
    phi = e^{-i H_free t} psi the rule is one constant Strang step
    S = e^{-i H_free dt/2} exp(-i dt H_S) e^{-i H_free dt/2}.  S is built
    once per call (``_step_unitary``) and scaled in place; each step is one
    dense matvec S phi, and the free phase
    e^{i H_free t} is applied only at the stored steps.  The free energies
    are measured from min eps_k (a constant shift of H_free cancels), so an
    |eps_k| that dwarfs w cutoff does not round w n away.  At zero coupling
    every stored state is the initial state, unchanged.

    Returns the final state, shape (N, levels); with `collect_every` instead
    the states (samples, N, levels) stored at the steps
    ``TimeGrid.samples(collect_every)``, the rule ``propagate_residual`` shares.
    """
    check_stability(model, couplings, grid)
    stored = grid.samples(collect_every)
    psi = np.asarray(initial, dtype=complex).reshape(model.shape)
    if not np.any(couplings.values):
        states = np.repeat(psi[None], stored.size, axis=0)
    else:
        energies = _free_energies(model, model.energies().min())
        step = _step_unitary(model, couplings, grid.dt)
        half = np.exp(-0.5j * grid.dt * energies)
        step *= half[:, None]
        step *= half
        states = np.empty((stored.size,) + model.shape, dtype=complex)
        states[0] = psi
        times = grid.times[stored]
        phi = np.exp(-1j * grid.t0 * energies) * psi.reshape(-1)
        slot = 1
        for i in range(1, grid.steps + 1):
            phi = step @ phi
            if i == stored[slot]:
                states[slot] = (np.exp(1j * times[slot] * energies) * phi).reshape(model.shape)
                slot += 1
    return states[-1] if collect_every is None else states
