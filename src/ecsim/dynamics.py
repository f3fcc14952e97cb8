"""The split of the interaction Hamiltonian, and its propagation.

The interaction-picture Hamiltonian b^dag e^{i w t} sum_q g_q rho_q(t) + h.c.
splits into H0, whose operator phases are replaced by a unimodular modulator
f_q(t) (``ModulatorStrategy``), and the residual H1: ``zero_order_solution``
solves H0 in closed form and ``propagate_residual`` integrates H1 in the
rotated frame.  A stack of solutions (``solution_stack``) is evaluated in
one call by ``accumulated``, ``branch_values``, ``u0`` and
``propagate_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (
    CoefficientSet,
    Model,
    branch_displacement,
    branch_phases,
    branches,
    circulant,
    displacement,
    fourier,
    ladder_quadrature,
    make_basis_state,
    oscillator_annihilation,
    require_finite,
)

STABILITY_LIMIT = 0.5
# Below this |nu| (t - t0), for both frequencies, I_pq takes its second-order
# Taylor form (error ~ SMALL_PHASE^3); above it the closed form divides by the
# larger |nu| (relative error ~ eps / SMALL_PHASE).
SMALL_PHASE = 1e-5
# The modulator kinds, in the order `evolve --compare-strategies` runs them.
STRATEGY_KINDS = ("static_unit", "recoil_phase")


@dataclass(frozen=True)
class ModulatorStrategy:
    """Unimodular family f_q(t) = e^{i delta_q t} replacing the operator
    phases inside H0; ``detuning`` gives delta_q.

    Kinds: ``static_unit`` (f = 1) and ``recoil_phase``
    (f_q(t) = exp(i (eps_{k0} - eps_{k0+q}) t), referenced to the initial
    momentum).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown modulator kind {self.kind!r}")

    def detuning(self, model: Model, k0: int, offsets) -> np.ndarray:
        """delta_q with f_q(t) = e^{i delta_q t}, one per offset: 0 for
        ``static_unit``, eps_{k0} - eps_{k0+q} for ``recoil_phase``."""
        if self.kind == "static_unit":
            return np.zeros(len(offsets))
        eps = model.energies()
        return eps[k0] - eps[(k0 + np.asarray(offsets, dtype=int)) % model.lattice.sites]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid from t0 to t_end (t0 < t_end, t0 <= 0 allowed)."""

    t0: float
    t_end: float
    steps: int

    def __post_init__(self):
        require_finite(t0=self.t0, t_end=self.t_end)
        if self.steps < 1:
            raise ValueError("steps must be positive")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.steps

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def midpoint(self, i):
        return self.t0 + self.dt * (i + 0.5)

    def samples(self, every: int | None = None) -> np.ndarray:
        """The steps a propagator stores when sampling every `every` steps:
        0, every, 2 every, ... and always the last step (by default only the
        first and the last).  ValueError unless `every` is None or positive."""
        if every is not None and every < 1:
            raise ValueError(f"collect_every must be positive, got {every}")
        return np.append(np.arange(0, self.steps, every or self.steps), self.steps)


def check_stability(model: Model, couplings: CoefficientSet, grid: TimeGrid) -> None:
    """Reject grids at or beyond the stability guard, dt ||H_S|| >= STABILITY_LIMIT;
    both propagators (``zero_order_solution``, ``oracle.propagate_exact``) call
    it.  On branch j, H_S = g_j b^dag + g_j^* b is |g_j| (b + b^dag) up to the
    rotation of ``hilbert.branch_displacement``, so ||H_S|| is max_j |g_j|
    times the largest |x| of ``ladder_quadrature``."""
    hnorm = couplings.operator_amplitude() * np.abs(ladder_quadrature(model.osc)[0]).max()
    if grid.dt * hnorm >= STABILITY_LIMIT:
        raise ValueError(
            f"dt*||H_S|| = {grid.dt * hnorm:.3g} exceeds stability guard {STABILITY_LIMIT}")


def _phi(x):
    """int_0^1 e^{i x y} dy = e^{i x/2} sinc(x/2), broadcast over `x`; exact at x = 0."""
    return np.exp(0.5j * x) * np.sinc(x / (2 * np.pi))


def _ramp(nu: np.ndarray, t0: float, t) -> np.ndarray:
    """E(nu_q; t) = int_{t0}^t e^{i nu_q s} ds = e^{i nu_q t0} (t - t0) phi(nu_q (t - t0)),
    shape t.shape + (n,) broadcast against nu (..., n)."""
    span = np.asarray(t, dtype=float)[..., None] - t0
    return np.exp(1j * nu * t0) * span * _phi(nu * span)


def _nested(nu: np.ndarray, t0: float, t) -> np.ndarray:
    """I_pq(t) = int_{t0}^t e^{-i nu_p s} E(nu_q; s) ds, shape t.shape + (n, n)
    broadcast against the leading axes of nu (..., n).

    I_pq = e^{i (nu_q - nu_p) t0} T^2 J_pq with T = t - t0 and x = nu T.
    Integrating over s last gives K_pq = [phi(x_q - x_p) - phi(-x_p)] / (i x_q);
    integrating over s first gives J_pq = phi(x_q) phi(-x_p) - K_qp^*, since
    I_pq + I_qp^* = E(nu_q; t) E(-nu_p; t).  Each pair takes the form that
    divides by the larger |x|, which bounds the cancellation by eps / |x|.
    Where both |x| are below SMALL_PHASE the second-order Taylor form
    J_pq = 1/2 + i (x_q/6 - x_p/3) - x_q^2/24 + x_p x_q/8 - x_p^2/8 is used.
    """
    span = np.asarray(t, dtype=float)[..., None] - t0
    x = nu * span
    xp, xq = x[..., :, None], x[..., None, :]
    phi = _phi(x)
    tiny = np.abs(x) < SMALL_PHASE
    k = (_phi(xq - xp) - phi.conj()[..., :, None]) / (1j * np.where(tiny, 1.0, x)[..., None, :])
    q_larger = np.abs(nu)[..., None, :] >= np.abs(nu)[..., :, None]
    j = np.where(q_larger, k, phi[..., None, :] * phi.conj()[..., :, None]
                 - k.swapaxes(-1, -2).conj())
    small = tiny[..., :, None] & tiny[..., None, :]
    if small.any():   # the Taylor form only where it is used: elsewhere x may overflow it
        xp, xq = np.broadcast_to(xp, small.shape)[small], np.broadcast_to(xq, small.shape)[small]
        j[small] = 0.5 + 1j * (xq / 6 - xp / 3) - xq ** 2 / 24 + xp * xq / 8 - xp ** 2 / 8
    return np.exp(1j * (nu[..., None, :] - nu[..., :, None]) * t0) * span[..., None] ** 2 * j


@dataclass(frozen=True)
class ZeroOrderSolution:
    """The closed-form solution of H0,

        U0(t) = exp{ Q(t) b^dag - Q^dag(t) b - i chi(t) },
        h_q(t) = -i g_q int_{t0}^t f_q(t') e^{i w t'} dt',
        chi(t) = -(i/2) int_{t0}^t [ Qdot^dag Q - Q^dag Qdot ] dt',

    at any array of times, with no quadrature: f_q(t) e^{i w t} = e^{i nu_q t}.
    chi is evaluated by its real branch values, so it is Hermitian by
    construction; U0 is only ever applied to states.  Nothing stored grows
    with the number of steps.  ``u0`` is the one-member case of the stacked
    function of the same name.
    """

    model: Model
    couplings: CoefficientSet
    strategy: ModulatorStrategy
    grid: TimeGrid
    k0: int
    nu: np.ndarray   # (n_offsets,)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.couplings.offsets

    def h(self, times) -> np.ndarray:
        """h_q(t) = -i g_q E(nu_q; t), shape times.shape + (n_offsets,)."""
        return -1j * self.couplings.values * _ramp(self.nu, self.grid.t0, times)

    @property
    def exact_split(self) -> bool:
        """True when H1 vanishes identically: eps_{r+q} == eps_r bit for bit
        for every r and every q with g_q != 0, whatever the modulator (flat
        dispersion, zero hopping, couplings only at q = 0, or none).  P = 0
        means fl(eps_r - eps_{r+q}) == delta_q for all r; rounding keeps signs,
        and the eps_r cannot all fall (or rise) around the ring r -> r + q, so
        delta_q = 0, and a float difference is zero only between equal floats."""
        eps = self.model.energies()
        return all(np.array_equal(eps, np.roll(eps, -q)) for q, g in self.couplings.items if g)

    def u0(self, step, states: np.ndarray) -> np.ndarray:
        return u0(self, step, states)


def solution_stack(sols) -> tuple[ZeroOrderSolution, ...]:
    """A stack of solutions as a tuple, one solution as a one-member stack;
    ValueError unless they share model, grid, k0 and coupling offsets
    (coupling values and strategies may differ).  The stacked functions
    below put the member axis first and drop it for one solution."""
    stack = (sols,) if isinstance(sols, ZeroOrderSolution) else tuple(sols)
    if len({(s.model, s.grid, s.k0, s.offsets) for s in stack}) > 1:
        raise ValueError("stacked solutions must share model, grid, k0 and coupling offsets")
    return stack


def accumulated(sols, weights: np.ndarray, times) -> tuple[np.ndarray, np.ndarray]:
    """The accumulated amplitude sum_q w_q h_q(t) and phase
    Im sum_{p,q} w_p^* w_q g_p^* g_q I_pq(t) = int_{t0}^t Im[lamdot^* lam] dt'
    of each member of the stack `sols` for each row w of `weights`
    (rows, n_offsets), shape (M,) + times.shape + (rows,); E and I_pq
    (``_nested``) are evaluated once per distinct nu.  Branch weights
    e^{2 pi i j q/N} give the branch values of Q and chi, weights e^{-iqx}
    give alpha(x, t) and Phi(x, t); branch j = -m mod N is alpha and Phi at
    x_m = m length/N."""
    stack = solution_stack(sols)
    t0 = stack[0].grid.t0
    lead = (slice(None),) + (None,) * np.ndim(times)   # members, then times
    g = np.array([s.couplings.values for s in stack])[lead]
    distinct = {s.nu.tobytes(): s.nu for s in stack}   # each nu once, first seen first
    which = [list(distinct).index(s.nu.tobytes()) for s in stack]
    nus = np.array(list(distinct.values()))
    amplitude = (-1j * g * _ramp(nus[lead], t0, times)[which]) @ weights.T
    pair = g.conj()[..., :, None] * g[..., None, :] * _nested(nus[lead], t0, times)[which]
    phase = np.sum(weights.conj().T * (pair @ weights.T), axis=-2).imag
    if isinstance(sols, ZeroOrderSolution):
        return amplitude[0], phase[0]
    return amplitude, phase


def branch_values(sols, times) -> tuple[np.ndarray, np.ndarray]:
    """(lam, mu): the branch values of Q and chi of the stack `sols` at
    `times`, each of shape (M,) + times.shape + (N,)."""
    head = solution_stack(sols)[0]
    weights = branches(head.model.lattice, head.offsets, np.eye(len(head.offsets))).T
    return accumulated(sols, weights, times)


def u0(sols, step, states: np.ndarray) -> np.ndarray:
    """U0 of each member of the stack `sols` at grid steps `step`, applied to
    states (M, ..., N, levels) in one call: `step` is one step, or an array
    of the shape of `...` that gives each state its own step."""
    head = solution_stack(sols)[0]
    lam, mu = branch_values(sols, head.grid.times[step])
    return displacement(head.model, lam, mu, states)


def zero_order_solution(model: Model, couplings: CoefficientSet, strategy: ModulatorStrategy,
                        grid: TimeGrid, k0: int) -> ZeroOrderSolution:
    """The zero-order solution with nu_q = w + delta_q, delta_q the strategy's
    ``detuning``.  Raises if the largest |lam_j| over the grid points breaks
    the truncation rule (``OscillatorSpec.check_amplitude``)."""
    if not 0 <= int(k0) < model.lattice.sites:
        raise ValueError(f"momentum index {k0} out of range")
    check_stability(model, couplings, grid)
    nu = model.osc.omega + strategy.detuning(model, k0, couplings.offsets)
    nu.flags.writeable = False
    sol = ZeroOrderSolution(model, couplings, strategy, grid, k0, nu)
    lam = branches(model.lattice, couplings.offsets, sol.h(grid.times))
    model.osc.check_amplitude(float(np.abs(lam).max()))
    return sol


class ResidualResult(NamedTuple):
    """Rotated-frame states |t> stored at the grid steps `steps` (increasing,
    the initial and the final step always included); on an exact split
    (``ZeroOrderSolution.exact_split``) every state is |0,k0) exactly."""
    sol: ZeroOrderSolution
    steps: np.ndarray   # (samples,)
    states: np.ndarray  # (samples, N, levels)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def propagate_residual(sol: ZeroOrderSolution, *more: ZeroOrderSolution,
                       collect_every: int | None = None) -> tuple[ResidualResult, ...]:
    """Integrate i d/dt |t> = U0^dag H1 U0 |t> in the rotated frame
    |t> = U0^dag(t)|t) from |0,k0) for the stack of solutions `sol, *more`,
    one result per solution, in order (``solution_stack``).  A solution whose
    split is exact (H1 = 0 identically, ``ZeroOrderSolution.exact_split``) is
    not stepped: its states are |0,k0) exactly.  The others are stepped in
    one loop over the grid (``_midpoint_steps``).  States are stored at the steps
    ``TimeGrid.samples(collect_every)`` (by default only the initial and the
    final one), the rule the oracle's ``propagate_exact`` shares.
    """
    sols = solution_stack((sol, *more))
    model, grid, k0 = sol.model, sol.grid, sol.k0
    stored = grid.samples(collect_every)
    states = np.empty((len(sols), stored.size) + model.shape, dtype=complex)
    states[:] = make_basis_state(model, k0, 0)
    live = [m for m, s in enumerate(sols) if not s.exact_split]
    if live:
        states[live, 1:] = _midpoint_steps([sols[m] for m in live], stored[1:])
    return tuple(ResidualResult(s, stored, member) for s, member in zip(sols, states))


def _midpoint_steps(sols: list[ZeroOrderSolution], stored: np.ndarray) -> np.ndarray:
    """The states of ``propagate_residual`` for the stack `sols` at the grid
    steps `stored` (after step 0), shape (len(sols), stored.size, N, levels).

    Each step is U0m^dag exp(-i dt H1) U0m with U0m = U0 at the midpoint t_m,
    on the states kept in the branch basis phi = F psi (F = ``fourier``).
    There U0m is ``branch_displacement`` and U0m^dag reuses its phases;
    H1 phi = e P~ phi b + e^* P~^dag phi b^T with e = e^{i w t_m},
    P~ = F P F^dag formed once per step, and
    P(t) = G o e^{i (eps_r - eps_c) t} - G o e^{i delta_{c-r} t} the particle
    factor of H1 (delta the circulant of the strategy's ``detuning``).
    exp(-i dt H1) is summed as a Taylor series until the squared norm of a
    term over the whole stack falls below eps^2: one reduction per term, at
    least as strict as a rule per member, since every member keeps the unit
    norm of |0,k0) under the unitary step.  A term is two matmuls for the
    whole stack, Z = term [b | b^T] then [P~ | P~^dag] Z.  The midpoint
    branches are computed before the loop; only the stored states go back
    to the momentum basis.  The one eigensolver is ``ladder_quadrature``'s
    eigh, once per run, and no operator on the product space is formed."""
    model, grid, k0, offsets = sols[0].model, sols[0].grid, sols[0].k0, sols[0].offsets
    (N, levels), M = model.shape, len(sols)
    t_mid = grid.midpoint(np.arange(grid.steps))
    lam, mu = branch_values(sols, t_mid)                            # (M, steps, N)
    osc = np.exp(1j * model.osc.omega * t_mid)
    eps = model.energies()
    i_diff = 1j * (eps[:, None] - eps[None, :])
    i_delta = 1j * circulant(model.lattice, offsets, [
        s.strategy.detuning(model, k0, offsets) for s in sols]).real
    g_mat = circulant(model.lattice, offsets, [s.couplings.values for s in sols])
    x, w = ladder_quadrature(model.osc)
    b = oscillator_annihilation(model.osc)
    b_pair = -1j * grid.dt * np.concatenate([b, b.T], axis=1)      # (levels, 2 levels)
    dft = fourier(N)
    dft_dag = dft.conj()
    tol = np.finfo(float).eps ** 2

    phi = np.repeat((dft @ make_basis_state(model, k0, 0))[None], M, axis=0)
    # columns interleaved like the rows of term @ b_pair viewed as (2N, levels)
    pe_pair = np.empty((M, N, 2 * N), dtype=complex)
    states = np.empty((M, stored.size, N, levels), dtype=complex)
    slot = 0
    for i in range(grid.steps):
        p = g_mat * np.exp(i_diff * t_mid[i]) - g_mat * np.exp(i_delta * t_mid[i])
        pe = osc[i] * (dft @ p @ dft_dag)
        pe_pair[..., 0::2] = pe
        pe_pair[..., 1::2] = pe.conj().swapaxes(-2, -1)
        phases = branch_phases(lam[:, i], mu[:, i], x)
        term = branch_displacement(phi, phases, w)
        total = term.copy()
        n = 1
        while np.vdot(term, term).real > tol:
            # one 2-D matmul for the whole stack, (M, 2N, levels) as a view
            z = term.reshape(M * N, levels) @ b_pair
            np.matmul(pe_pair, z.reshape(M, 2 * N, levels), out=term)
            term *= 1 / n
            total += term
            n += 1
        phi = branch_displacement(total, phases, w, adjoint=True)
        if i + 1 == stored[slot]:
            states[:, slot] = phi
            slot += 1
    return dft_dag @ states
