"""Particle density matrix in position representation, three ways.

Gamma(x, x', t) = <t| psi~^dag(x,t) psi~(x',t) |t> with the wave operator
psi(x,t) = sum_k a_k e^{ikx - i eps_k t} is evaluated exactly (from the
residual-propagated state), in first approximation (|t> frozen to |0,k0)),
and in the closed form

    Gamma(x,x',0) = e^{-i k0 (x-x')} exp{ i Phi(x) - i Phi(x')
                    - [|alpha(x,0)|^2 + |alpha(x',0)|^2 - 2 alpha*(x,0) alpha(x',0)]/2 }

built from alpha(x,t) = sum_q h_q(t) e^{-iqx} and the accumulated phase
Phi(x) = int Im[alphadot* alpha] dt'.

Cross-method agreement is exact only at positions commensurate with the
lattice (multiples of length/sites): momentum wrap-around otherwise breaks
the plane-wave contraction identity the closed form rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, ZeroOrderSolution
from .hilbert import Lattice, Model, plane_waves


@dataclass(frozen=True)
class PositionGrid:
    """Ordered positions on the ring [0, length)."""

    points: np.ndarray
    length: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("need at least 2 position points")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("positions must be strictly increasing")
        if pts[0] < 0 or pts[-1] >= self.length:
            raise ValueError("positions must lie in [0, length)")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def uniform(cls, lattice: Lattice, count: int | None = None) -> "PositionGrid":
        """`count` equally spaced points from 0; commensurate with the lattice
        when count divides the number of sites (the default count is the
        number of sites)."""
        n = lattice.sites if count is None else int(count)
        return cls(points=np.arange(n) * (lattice.length / n), length=lattice.length)

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class GammaGrid:
    """Density matrix sampled on a position grid."""

    values: np.ndarray
    grid: PositionGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.size, self.grid.size):
            raise ValueError("values must be square on the grid")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def hermiticity_error(self) -> float:
        return float(np.abs(self.values - self.values.conj().T).max())

    def trace_mean(self) -> float:
        """Ring average of the diagonal; equals the particle number 1 for the
        exact method on a full commensurate grid."""
        return float(np.mean(np.diag(self.values).real))

    def max_deviation(self, other: "GammaGrid") -> float:
        return float(np.abs(self.values - other.values).max())


def _gamma_from_product_state(model: Model, state: np.ndarray,
                              grid: PositionGrid, t: float) -> GammaGrid:
    psi = plane_waves(model, grid.points, t) @ state  # (nx, levels)
    return GammaGrid(values=psi.conj() @ psi.T, grid=grid)


def _grid_step(sol: ZeroOrderSolution, t: float | None) -> tuple[int, float]:
    times = sol.grid.times
    tt = times[-1] if t is None else float(t)
    idx = int(np.argmin(np.abs(times - tt)))
    if abs(times[idx] - tt) > 1e-9 * max(1.0, abs(tt)):
        raise ValueError(f"time {tt} not on the propagation grid")
    return idx, times[idx]


def gamma_exact(state_tilde: np.ndarray, sol: ZeroOrderSolution,
                grid: PositionGrid, t: float | None = None) -> GammaGrid:
    """Exact density matrix from the rotated-frame state at a grid time."""
    model = sol.model
    if state_tilde.shape != model.shape:
        raise ValueError("state incompatible with the model")
    step, tt = _grid_step(sol, t)
    return _gamma_from_product_state(model, sol.u0(step, state_tilde), grid, tt)


def gamma_first_approx(sol: ZeroOrderSolution, grid: PositionGrid) -> GammaGrid:
    """First approximation: the rotated-frame state frozen to |0, k0).
    Requires a solution ending at t = 0 (started at t0 < 0)."""
    require_t_end_zero(sol.grid)
    step, tt = _grid_step(sol, None)
    return _gamma_from_product_state(sol.model, sol.zero_order_state(step), grid, tt)


def require_t_end_zero(grid: TimeGrid) -> None:
    """Reject a grid that does not end at t = 0 after starting at t0 < 0."""
    if abs(grid.t_end) > 1e-12 or grid.t0 >= 0:
        raise ValueError("density matrices are compared at t = 0 after the interaction "
                         "switches on at t0 < 0: set t_end = 0 and t0 < 0")


@dataclass(frozen=True)
class AlphaField:
    """alpha(x, t) on the time grid and the accumulated phase Phi(x)."""

    model: Model
    grid: PositionGrid
    alpha: np.ndarray   # (n_times, n_points)
    phi: np.ndarray     # (n_points,)

    @property
    def alpha_final(self) -> np.ndarray:
        return self.alpha[-1]

    def phi_spread(self) -> float:
        return float(self.phi.max() - self.phi.min())


def alpha_phi(sol: ZeroOrderSolution, grid: PositionGrid) -> AlphaField:
    """Evaluate alpha(x, t) = sum_q h_q(t) e^{-iqx} on the grid at all stored
    times and accumulate Phi(x) = int_{t0}^{0} Im[alphadot*(x,t') alpha(x,t')] dt'
    by trapezoid on the half grid, with alphadot analytic."""
    require_t_end_zero(sol.grid)
    qvals = np.array([sol.model.lattice.offset_momentum(q) for q in sol.offsets])
    phases = np.exp(-1j * np.outer(grid.points, qvals))   # (nx, nq)
    alpha_half = sol.h_half @ phases.T                    # (n_half, nx)
    alphadot_half = sol.hdot_half @ phases.T
    integrand = np.imag(alphadot_half.conj() * alpha_half)
    dt_half = sol.grid.dt / 2.0
    phi = 0.5 * dt_half * (integrand[0] + integrand[-1]) + dt_half * integrand[1:-1].sum(axis=0)
    return AlphaField(model=sol.model, grid=grid, alpha=alpha_half[::2], phi=phi)


def gamma_closed_form(field: AlphaField, k0: int, grid: PositionGrid) -> GammaGrid:
    """Closed-form density matrix at t = 0 from alpha(x,0) and Phi(x)."""
    if grid.size != field.grid.size or not np.allclose(grid.points, field.grid.points):
        raise ValueError("field was evaluated on a different grid")
    k0_val = field.model.lattice.momenta[int(k0)]
    a0 = field.alpha_final
    x = grid.points
    exponent = (-1j * k0_val * (x[:, None] - x[None, :])
                + 1j * (field.phi[:, None] - field.phi[None, :])
                - 0.5 * (np.abs(a0[:, None]) ** 2 + np.abs(a0[None, :]) ** 2
                         - 2.0 * a0.conj()[:, None] * a0[None, :]))
    return GammaGrid(values=np.exp(exponent), grid=grid)

