"""Interaction Hamiltonian, its integrable/residual split, and propagation.

The interaction-picture Hamiltonian b^dag e^{i w t} sum_q g_q rho_q(t) + h.c.
is split into an exactly solvable part H0 (operator phases replaced by a
unimodular modulator f_q(t)) and a residual H1.  H0 generates the evolution

    U0(t) = exp{ Q(t) b^dag - Q^dag(t) b - i chi(t) },
    h_q(t) = -i g_q int_{t0}^t f_q(t') e^{i w t'} dt',
    chi(t) = -(i/2) int_{t0}^t [ Qdot^dag Q - Q^dag Qdot ] dt',

assembled here from half-step trapezoid quadrature of h and chi.  Every
particle factor (G, A(t), Q(t), Qdot(t), chi(t)) is a circulant built by
``hilbert.circulant``; a coupling set is a ``CoefficientSet`` that also
checks g_{-q} = g_q^*.  chi is kept as its real branch values, so
U0(t) = sum_x |x><x| x D(alpha(x,t)) e^{-i Phi(x,t)} acts on states through
``hilbert.displacement``, batched over a stack of steps.  The residual is
integrated in the rotated frame |t> = U0^dag(t)|t) by midpoint steps
U0m^dag exp(-i dt H1) U0m on the state kept in the Fourier-branch basis of
the momentum axis, where U0m is diagonal on the branches
(``hilbert.branch_displacement``; U0m^dag reuses U0m's phases) and
exp(-i dt H1) is applied by its Taylor series, two matmuls per term; every
midpoint quantity is computed before the loop, and a step is a handful of
small matmuls with no FFT, eigensolver or dense operator.  One loop steps a
stack of solutions that share model, grid and offsets (a coupling sweep's
scales, or both strategies).  No operator on the product space is formed
anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (
    CoefficientSet,
    Lattice,
    Model,
    branch_displacement,
    branch_phases,
    branches,
    circulant,
    displacement,
    ladder_quadrature,
    make_basis_state,
    oscillator_annihilation,
    require_finite,
)

STABILITY_LIMIT = 0.5


@dataclass(frozen=True)
class CouplingSet(CoefficientSet):
    """Coupling function q -> g_q of the particle-oscillator interaction: a
    coefficient set whose circulant is G = sum_q g_q rho_q.

    The physical constraint g_{-q} = g_q^* is validated by default; the
    closed-form density-matrix results for a strictly single-mode coupling
    with q0 != 0 require constructing with hermitian=False (the Hamiltonian
    itself stays Hermitian either way).
    """

    hermitian: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.hermitian:
            for q, v in self.items:
                partner = self.get(-q)
                if abs(np.conj(v) - partner) > 1e-12 * max(1.0, abs(v)):
                    raise ValueError(
                        f"coupling constraint g_-q = g_q* violated at q={q}: "
                        f"g_q={v}, g_-q={partner}")

    @classmethod
    def from_dict(cls, lattice: Lattice, values, hermitian: bool = True) -> "CouplingSet":
        return cls(lattice, tuple(values.items()), hermitian=hermitian)

    @classmethod
    def hermitian_pair(cls, lattice: Lattice, q0: int, g: complex) -> "CouplingSet":
        """{q0: g, -q0: g*}; for q0 = 0 the coupling must be real."""
        if lattice.wrap_offset(q0) == lattice.wrap_offset(-q0):
            if abs(g.imag if isinstance(g, complex) else 0.0) > 1e-15:
                raise ValueError("self-paired offset requires a real coupling")
            return cls(lattice, ((q0, complex(g).real),))
        return cls(lattice, ((q0, complex(g)), (-q0, np.conj(complex(g)))))


@dataclass(frozen=True)
class ModulatorStrategy:
    """Unimodular family f_q(t) replacing the operator phases inside H0.

    Kinds: ``static_unit`` (f = 1) and ``recoil_phase``
    (f_q(t) = exp(i (eps_{k0} - eps_{k0+q}) t), referenced to the initial
    momentum).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("static_unit", "recoil_phase"):
            raise ValueError(f"unknown modulator kind {self.kind!r}")

    @classmethod
    def static_unit(cls) -> "ModulatorStrategy":
        return cls(kind="static_unit")

    @classmethod
    def recoil_phase(cls) -> "ModulatorStrategy":
        return cls(kind="recoil_phase")

    def factors(self, model: Model, k0: int, offsets, t) -> np.ndarray:
        """f_q(t) for each offset, shape t.shape + (len(offsets),) for a time or
        an array of times; always unimodular."""
        t = np.asarray(t)[..., None]
        if self.kind == "static_unit":
            return np.ones(t.shape[:-1] + (len(offsets),), dtype=complex)
        eps = model.energies()
        lat = model.lattice
        detune = np.array([eps[k0] - eps[lat.shift_index(k0, q)] for q in offsets])
        return np.exp(1j * detune * t)


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

    def midpoint(self, i: int) -> float:
        return self.t0 + self.dt * (i + 0.5)


def _phase_diff_matrix(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(i (eps_i - eps_j) t); exactly ones for flat dispersion."""
    return np.exp(1j * t * (energies[:, None] - energies[None, :]))


def check_stability(model: Model, couplings: CouplingSet, grid: TimeGrid) -> None:
    """Reject grids with dt ||H|| beyond the stability guard.  On branch j,
    H = g_j b^dag + g_j^* b is unitarily equal to |g_j| (b + b^dag)."""
    b = oscillator_annihilation(model.osc)
    hnorm = couplings.operator_amplitude() * np.linalg.norm(b + b.conj().T, 2)
    if grid.dt * hnorm >= STABILITY_LIMIT:
        raise ValueError(
            f"dt*||H|| = {grid.dt * hnorm:.3g} exceeds stability guard {STABILITY_LIMIT}")


@dataclass(frozen=True)
class ZeroOrderSolution:
    """h_q(t), chi(t) and U0(t) accumulated on a half-step grid.

    Arrays are indexed by half-steps j = 0..2*steps (time t0 + j*dt/2); grid
    points are the even entries.  chi is stored by its real branch values,
    so it is Hermitian by construction; U0 is only ever applied to states.
    """

    model: Model
    couplings: CouplingSet
    strategy: ModulatorStrategy
    grid: TimeGrid
    k0: int
    h_half: np.ndarray      # (2*steps+1, n_offsets)
    hdot_half: np.ndarray   # (2*steps+1, n_offsets)
    mu_half: np.ndarray     # (2*steps+1, N)

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.couplings.offsets

    def half_index(self, step: int, mid: bool = False) -> int:
        return 2 * step + (1 if mid else 0)

    def u0(self, step, states: np.ndarray, mid: bool = False,
           adjoint: bool = False) -> np.ndarray:
        """U0 (U0^dag, by the negated branches, if `adjoint`) at a grid point
        or midpoint, applied to states of shape (..., N, levels).  `step` may
        be an array of steps whose shape matches the leading axes of `states`:
        then each state gets the U0 of its own step, in one call."""
        j, sign = self.half_index(np.asarray(step), mid), (-1.0 if adjoint else 1.0)
        lam = sign * branches(self.model.lattice, self.offsets, self.h_half[j])
        return displacement(self.model, lam, sign * self.mu_half[j], states)

    def zero_order_state(self, step: int) -> np.ndarray:
        """U0(t)|0,k0), the exact solution of the H0 dynamics."""
        return self.u0(step, make_basis_state(self.model, self.k0, 0))


def zero_order_solution(model: Model, couplings: CouplingSet, strategy: ModulatorStrategy,
                        grid: TimeGrid, k0: int) -> ZeroOrderSolution:
    """Accumulate h_q(t) and chi(t) by composite trapezoid on a half-step grid.

    hdot_q(t) = -i g_q f_q(t) e^{iwt} is analytic.  On branch j chi's integrand
    (i/2)(Q^dag Qdot - Qdot^dag Q) is the real Im(lamdot_j^* lam_j).  Raises if
    the accumulated amplitude breaks the truncation rule ||Q||^2 <= cutoff/4.
    """
    if not 0 <= int(k0) < model.lattice.sites:
        raise ValueError(f"momentum index {k0} out of range")
    check_stability(model, couplings, grid)
    offsets = couplings.offsets
    g_vals = couplings.values
    n_half = 2 * grid.steps + 1
    dt_half = grid.dt / 2.0
    taus = grid.t0 + dt_half * np.arange(n_half)
    omega = model.osc.omega

    hdot = (-1j * g_vals * strategy.factors(model, k0, offsets, taus)
            * np.exp(1j * omega * taus)[:, None])
    h = np.zeros_like(hdot)
    np.cumsum(0.5 * dt_half * (hdot[:-1] + hdot[1:]), axis=0, out=h[1:])
    lam, lamdot = branches(model.lattice, offsets, np.stack([h, hdot]))
    integrand = np.imag(lamdot.conj() * lam)
    mu = np.zeros(integrand.shape)
    np.cumsum(0.5 * dt_half * (integrand[:-1] + integrand[1:]), axis=0, out=mu[1:])

    amp = np.abs(lam[::2]).max()
    if amp ** 2 > model.osc.cutoff / 4.0:
        raise ValueError(
            f"accumulated amplitude^2 = {amp ** 2:.3g} exceeds cutoff/4 = "
            f"{model.osc.cutoff / 4.0:.3g}; raise the cutoff or weaken the coupling")

    return ZeroOrderSolution(model=model, couplings=couplings, strategy=strategy,
                             grid=grid, k0=k0, h_half=h, hdot_half=hdot, mu_half=mu)


class ResidualResult(NamedTuple):
    """Rotated-frame states |t> stored at the grid steps `steps` (increasing,
    the initial and the final step always included).  `exact_split` is True
    when H1 vanished at every midpoint, so every step was skipped and every
    state is |0,k0) exactly."""
    sol: ZeroOrderSolution
    steps: np.ndarray   # (samples,)
    states: np.ndarray  # (samples, N, levels)
    exact_split: bool

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def propagate_residual(sol: ZeroOrderSolution, *more: ZeroOrderSolution,
                       collect_every: int | None = None) -> tuple[ResidualResult, ...]:
    """Integrate i d/dt |t> = U0^dag H1 U0 |t> from |0,k0) by midpoint steps
    U0m^dag exp(-i dt H1) U0m, skipped where H1 vanishes, for the stack of
    solutions `sol, *more` in one loop over the grid; one result per solution,
    in order.  The solutions must share model, grid, k0 and coupling offsets
    (their coupling values and strategies may differ), else ValueError.

    The states are stepped as phi = F psi, F the unitary DFT of the momentum
    axis.  There U0m is ``branch_displacement`` at the midpoint branches, and
    U0m^dag reuses U0m's ``branch_phases``.  H1 phi = e P~ phi b + e^* P~^dag
    phi b^T, with e = e^{i w t_m}, P~ = F P F^dag and
    P = G o e^{i (eps_r - eps_c) t_m} - A(t_m) the particle factor of H1 in the
    momentum basis, so a Taylor term of exp(-i dt H1) is two matmuls:
    Z = term [b | b^T], viewed as (2N, levels) rows, then [P~ | P~^dag] Z
    with the columns interleaved to match.  The series is summed until every
    member's term falls below machine epsilon times its own sum.  A member
    whose P is exactly zero at a step skips that step.  The midpoint branches
    and modulator factors are computed before the loop, once per run.

    States are stored every `collect_every` steps (by default only the
    initial and the final one), step 0 and the last step always included,
    and only the stored states are transformed back to the momentum basis.
    A trajectory whose steps are all skipped returns |0,k0) exactly.
    """
    sols = (sol, *more)
    model, grid, k0, offsets = sol.model, sol.grid, sol.k0, sol.offsets
    for other in more:
        if (other.model, other.grid, other.k0, other.offsets) != (model, grid, k0, offsets):
            raise ValueError("stacked solutions must share model, grid, k0 and coupling offsets")
    if collect_every is not None and collect_every < 1:
        raise ValueError(f"collect_every must be positive, got {collect_every}")
    stored = np.append(np.arange(0, grid.steps, collect_every or grid.steps), grid.steps)

    lat, (N, levels), M = model.lattice, model.shape, len(sols)
    t_mid = grid.t0 + grid.dt * (np.arange(grid.steps) + 0.5)
    a_vals = np.stack([s.couplings.values * s.strategy.factors(model, k0, offsets, t_mid)
                       for s in sols], axis=1)                       # (steps, M, offsets)
    lam = branches(lat, offsets, np.stack([s.h_half[1::2] for s in sols], axis=1))
    mu = np.stack([s.mu_half[1::2] for s in sols], axis=1)           # (steps, M, N)
    osc = np.exp(1j * model.osc.omega * t_mid)
    eps = model.energies()
    g_mat = np.stack([s.couplings.particle_matrix() for s in sols])
    x, w = ladder_quadrature(model.osc)
    b = oscillator_annihilation(model.osc)
    b_pair = -1j * grid.dt * np.concatenate([b, b.T], axis=1)      # (levels, 2 levels)
    dft = np.fft.fft(np.eye(N), axis=0, norm="ortho")
    dft_dag = dft.conj().T
    tol = np.finfo(float).eps ** 2

    psi0 = make_basis_state(model, k0, 0)
    phi = np.repeat((dft @ psi0)[None], M, axis=0)
    states = np.empty((M, stored.size, N, levels), dtype=complex)
    states[:, 0] = phi
    moved = np.zeros((M, stored.size), dtype=bool)  # a member has stepped by a stored slot
    stepped = np.zeros(M, dtype=bool)
    slot = 1
    for i in range(grid.steps):
        p = g_mat * _phase_diff_matrix(eps, t_mid[i]) - circulant(lat, offsets, a_vals[i])
        live = p.any(axis=(-2, -1))
        if live.any():
            stepped |= live
            pe = osc[i] * (dft @ p @ dft_dag)
            # columns interleaved like the rows of term @ b_pair viewed as (2N, levels)
            pe_pair = np.stack([pe, pe.conj().swapaxes(-2, -1)], axis=-1).reshape(M, N, 2 * N)
            phases = branch_phases(lam[i], mu[i], x)
            term = branch_displacement(phi, phases, w)
            total = term.copy()
            n = 1
            while any(np.vdot(u, u).real > tol * np.vdot(v, v).real for u, v in zip(term, total)):
                np.matmul(pe_pair, (term @ b_pair).reshape(M, 2 * N, levels), out=term)
                term *= 1 / n
                total += term
                n += 1
            phi = np.where(live[:, None, None],
                           branch_displacement(total, phases, w, adjoint=True), phi)
        if i + 1 == stored[slot]:
            states[:, slot] = phi
            moved[:, slot] = stepped
            slot += 1
    states = np.where(moved[..., None, None], np.fft.ifft(states, axis=-2, norm="ortho"), psi0)
    return tuple(ResidualResult(sol=s, steps=stored, states=member, exact_split=not m[-1])
                 for s, member, m in zip(sols, states, moved))

