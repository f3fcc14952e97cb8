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
(``hilbert.branch_displacement``) and exp(-i dt H1) is applied by its Taylor
series; every midpoint quantity is computed before the loop, and a step is
a handful of small matmuls with no FFT, eigensolver or dense operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (
    CoefficientSet,
    Lattice,
    Model,
    ProductOperator,
    branch_displacement,
    branches,
    circulant,
    displacement,
    ladder_b,
    ladder_quadrature,
    make_basis_state,
    oscillator_annihilation,
    require_finite,
    shift_matrix,
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

    def refined(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.t0, self.t_end, self.steps * factor)


def _phase_diff_matrix(energies: np.ndarray, t: float) -> np.ndarray:
    """exp(i (eps_i - eps_j) t); exactly ones for flat dispersion."""
    return np.exp(1j * t * (energies[:, None] - energies[None, :]))


def rho_t_matrix(model: Model, q: int, t: float) -> np.ndarray:
    """Interaction-picture rho_q(t) on the particle factor: the shift matrix
    dressed with phases exp(i (eps_k - eps_{k+q}) t)."""
    return shift_matrix(model.lattice, q) * _phase_diff_matrix(model.energies(), t)


def hamiltonian_full(model: Model, couplings: CouplingSet, t: float = 0.0,
                     picture: str = "schrodinger") -> ProductOperator:
    """Full interaction Hamiltonian, Schroedinger or interaction picture."""
    if picture not in ("schrodinger", "interaction"):
        raise ValueError(f"unknown picture {picture!r}")
    gp = couplings.particle_matrix()
    b = oscillator_annihilation(model.osc)
    if picture == "interaction":
        gp = gp * _phase_diff_matrix(model.energies(), t)
        osc_phase = np.exp(1j * model.osc.omega * t)
    else:
        osc_phase = 1.0
    return ProductOperator(((gp, osc_phase * b.conj().T),
                            (gp.conj().T, np.conj(osc_phase) * b)))


def commutator_rho_t(model: Model, q: int, q_prime: int, t: float, t_prime: float) -> np.ndarray:
    """[rho_q(t), rho_q'(t')] on the particle factor, computed directly from
    the dense interaction-picture operators."""
    r1 = rho_t_matrix(model, q, t)
    r2 = rho_t_matrix(model, q_prime, t_prime)
    return r1 @ r2 - r2 @ r1


def modulated_particle_matrix(model: Model, couplings: CouplingSet,
                              strategy: ModulatorStrategy, k0: int, t: float) -> np.ndarray:
    """A(t) = sum_q g_q f_q(t) rho_q; a circulant for every strategy, so
    values at different times commute."""
    f = strategy.factors(model, k0, couplings.offsets, t)
    return circulant(model.lattice, couplings.offsets, couplings.values * f)


def split_hamiltonian(model: Model, couplings: CouplingSet, strategy: ModulatorStrategy,
                      t: float, k0: int) -> tuple[ProductOperator, ProductOperator]:
    """(H0, H1) with H0 = b^dag e^{iwt} A(t) + h.c. and H1 the remainder of
    the interaction-picture Hamiltonian.  H0 + H1 reproduces the full
    operator entrywise."""
    b = oscillator_annihilation(model.osc)
    osc_phase = np.exp(1j * model.osc.omega * t)
    a_mat = modulated_particle_matrix(model, couplings, strategy, k0, t)
    gp_t = couplings.particle_matrix() * _phase_diff_matrix(model.energies(), t)
    h0 = ProductOperator(((a_mat, osc_phase * b.conj().T),
                          (a_mat.conj().T, np.conj(osc_phase) * b)))
    h1 = ProductOperator(((gp_t - a_mat, osc_phase * b.conj().T),
                          ((gp_t - a_mat).conj().T, np.conj(osc_phase) * b)))
    return h0, h1


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
    points are the even entries.  chi is stored by its real branch values;
    chi and U0 matrices are assembled on demand.
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

    def q_matrix(self, step: int, mid: bool = False) -> np.ndarray:
        return circulant(self.model.lattice, self.offsets,
                         self.h_half[self.half_index(step, mid)])

    def chi(self, step: int, mid: bool = False) -> np.ndarray:
        """sum_j mu_j f_j f_j^dag: the circulant with offset-w coefficient
        (1/N) sum_j e^{-2 pi i j w/N} mu_j."""
        mu = self.mu_half[self.half_index(step, mid)]
        return circulant(self.model.lattice, range(mu.size), np.fft.fft(mu, norm="forward"))

    def u0(self, step, states: np.ndarray, mid: bool = False,
           adjoint: bool = False) -> np.ndarray:
        """U0 (U0^dag, by the negated branches, if `adjoint`) at a grid point
        or midpoint, applied to states of shape (..., N, levels).  `step` may
        be an array of steps whose shape matches the leading axes of `states`:
        then each state gets the U0 of its own step, in one call."""
        j, sign = self.half_index(np.asarray(step), mid), (-1.0 if adjoint else 1.0)
        lam = sign * branches(self.model.lattice, self.offsets, self.h_half[j])
        return displacement(self.model, lam, sign * self.mu_half[j], states)

    def u0_matrix(self, step: int) -> np.ndarray:
        """Dense U0 at a grid point, column by column from its action (diagnostics)."""
        eye = np.eye(self.model.dim)
        return self.u0(step, eye.reshape((-1,) + self.model.shape)).reshape(eye.shape).T

    def zero_order_state(self, step: int) -> np.ndarray:
        """U0(t)|0,k0), the exact solution of the H0 dynamics."""
        return self.u0(step, make_basis_state(self.model, self.k0, 0))

    def unitarity_error(self, step: int) -> float:
        u = self.u0_matrix(step)
        return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))

    def chi_hermiticity_error(self, step: int) -> float:
        c = self.chi(step)
        return float(np.linalg.norm(c - c.conj().T, 2))


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


def u0_commutators_check(sol: ZeroOrderSolution, step: int, tol: float = 1e-6,
                         keep_levels: int | None = None) -> float:
    """Max residual of the four ladder/evolution commutation relations
    [b, U0] = U0 Q, [b, U0^dag] = -U0^dag Q, [b^dag, U0] = U0 Q^dag,
    [b^dag, U0^dag] = -U0^dag Q^dag.

    The relations are exact at infinite cutoff; truncating the generator
    leaves a boundary layer below the top Fock level whose magnitude at
    distance d from the cutoff falls off like (||Q|| sqrt(levels))^d / d!.
    The residual is therefore measured on levels <= `keep_levels`, chosen by
    default as the largest subspace where that bound stays below tol/10.
    """
    model = sol.model
    u = sol.u0_matrix(step)
    qp = sol.q_matrix(step)
    levels = model.osc.levels
    b = ladder_b(model).dense()
    q_full = ProductOperator.single(qp, np.eye(levels)).dense()
    if keep_levels is None:
        scale = np.linalg.norm(qp, 2) * np.sqrt(levels)
        bound, depth = 1.0, 0
        while bound >= 0.1 * tol:
            depth += 1
            bound *= scale / depth
        keep_levels = model.osc.cutoff - depth
    if keep_levels < 0:
        raise ValueError("amplitude too large for a reliable subspace at this cutoff")
    mask = np.zeros(levels)
    mask[:keep_levels + 1] = 1.0
    proj = ProductOperator.single(np.eye(model.lattice.sites), np.diag(mask)).dense()

    ud = u.conj().T
    bd = b.conj().T
    qd = q_full.conj().T
    residuals = [
        (b @ u - u @ b) - u @ q_full,
        (b @ ud - ud @ b) + ud @ q_full,
        (bd @ u - u @ bd) - u @ qd,
        (bd @ ud - ud @ bd) + ud @ qd,
    ]
    return float(max(np.linalg.norm(proj @ r @ proj, 2) for r in residuals))


class ResidualResult(NamedTuple):
    """Rotated-frame states |t> stored at the grid steps `steps` (increasing,
    the initial and the final step always included)."""
    sol: ZeroOrderSolution
    steps: np.ndarray   # (samples,)
    states: np.ndarray  # (samples, N, levels)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def physical_state(self, step: int) -> np.ndarray:
        """U0(t)|t>, the interaction-picture state, at a stored step; for all
        of them in one call, ``sol.u0(steps, states)``.  Raises ValueError
        for a step that was not stored."""
        return self.sol.u0(step, self.states[self.steps.tolist().index(step)])


def propagate_residual(sol: ZeroOrderSolution, collect_every: int | None = None) -> ResidualResult:
    """Integrate i d/dt |t> = U0^dag H1 U0 |t> from |0,k0) by midpoint steps
    U0m^dag exp(-i dt H1) U0m, skipped where H1 vanishes.

    The state is stepped as phi = F psi, F the unitary DFT of the momentum
    axis.  There U0m is ``branch_displacement`` at the midpoint branches and
    H1 phi = e P~ phi b + e^* P~^dag phi b^T, with e = e^{i w t_m},
    P~ = F P F^dag and P = G o e^{i (eps_r - eps_c) t_m} - A(t_m) the particle
    factor of H1 in the momentum basis; a step is skipped where P is exactly
    zero.  exp(-i dt H1) is summed as a Taylor series until a term falls below
    machine epsilon times the sum.  The midpoint branches, phases and
    modulator factors are computed before the loop, once per run.

    States are stored every `collect_every` steps (by default only the
    initial and the final one), step 0 and the last step always included,
    and only the stored states are transformed back to the momentum basis.
    A trajectory whose steps are all skipped returns |0,k0) exactly.
    """
    model, grid, lat = sol.model, sol.grid, sol.model.lattice
    if collect_every is not None and collect_every < 1:
        raise ValueError(f"collect_every must be positive, got {collect_every}")
    stored = np.append(np.arange(0, grid.steps, collect_every or grid.steps), grid.steps)

    t_mid = grid.t0 + grid.dt * (np.arange(grid.steps) + 0.5)
    a_vals = sol.couplings.values * sol.strategy.factors(model, sol.k0, sol.offsets, t_mid)
    lam = branches(lat, sol.offsets, sol.h_half[1::2])
    mu = sol.mu_half[1::2]
    osc = np.exp(1j * model.osc.omega * t_mid)
    eps, g_mat = model.energies(), sol.couplings.particle_matrix()
    quad = ladder_quadrature(model.osc)
    b = oscillator_annihilation(model.osc)
    dft = np.fft.fft(np.eye(lat.sites), axis=0, norm="ortho")
    dft_dag = dft.conj().T
    tol = np.finfo(float).eps ** 2

    psi0 = make_basis_state(model, sol.k0, 0)
    states = np.empty((stored.size,) + model.shape, dtype=complex)
    states[0] = psi0
    phi, first, slot = None, stored.size, 1   # phi is None while |t> = |0,k0) exactly
    for i in range(grid.steps):
        p = g_mat * _phase_diff_matrix(eps, t_mid[i]) - circulant(lat, sol.offsets, a_vals[i])
        if np.any(p):
            if phi is None:
                phi, first = dft @ psi0, slot
            pe = osc[i] * (dft @ p @ dft_dag)
            pe_dag = pe.conj().T
            term = total = branch_displacement(lam[i], mu[i], phi, quad)
            n = 1
            while np.vdot(term, term).real > tol * np.vdot(total, total).real:
                term = (pe @ term @ b + pe_dag @ term @ b.T) * (-1j * grid.dt / n)
                total, n = total + term, n + 1
            phi = branch_displacement(-lam[i], -mu[i], total, quad)
        if i + 1 == stored[slot]:
            states[slot] = psi0 if phi is None else phi
            slot += 1
    states[first:] = np.fft.ifft(states[first:], axis=-2, norm="ortho")
    return ResidualResult(sol=sol, steps=stored, states=states)


class ResidualReport(NamedTuple):
    times: np.ndarray
    deviation: np.ndarray       # || |t> - |0,k0) || over time
    h_norm: np.ndarray          # l2 norm of h_q(t) over time
    integrated_h1_norm: float   # int ||H1(t')|| dt', first-order bound


def residual_magnitude_report(sol: ZeroOrderSolution,
                              residual: ResidualResult | None = None,
                              norm_samples: int = 200) -> ResidualReport:
    """Diagnostics for strategy comparison: deviation of the rotated-frame
    state from the initial one and the h amplitude at the stored steps of
    `residual` (by default every step), and the first-order bound
    int ||H1|| dt (spectral norm is conjugation-invariant, so H1 is measured
    directly; sampled on a decimated set of midpoints)."""
    if residual is None:
        residual = propagate_residual(sol, collect_every=1)
    grid = sol.grid
    psi0 = residual.states[0]
    deviation = np.linalg.norm(
        (residual.states - psi0).reshape(residual.steps.size, -1), axis=1)
    h_norm = np.linalg.norm(sol.h_half[2 * residual.steps], axis=1)
    stride = max(1, grid.steps // norm_samples)
    total = 0.0
    for i in range(0, grid.steps, stride):
        width = min(stride, grid.steps - i) * grid.dt
        _, h1 = split_hamiltonian(sol.model, sol.couplings, sol.strategy,
                                  grid.midpoint(i), sol.k0)
        total += width * float(np.linalg.norm(h1.dense(), 2))
    return ResidualReport(times=grid.times[residual.steps], deviation=deviation, h_norm=h_norm,
                          integrated_h1_norm=total)
