"""Particle density matrix Gamma(x, x') in position representation at the
final grid time, three ways: ``gamma_exact``, ``gamma_first_approx`` and
``gamma_closed_form`` (from ``alpha_phi``).  Each takes a stack of solutions
(``dynamics.solution_stack``) and returns one result per member on a
leading axis; one solution gives no such axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TimeGrid, accumulated, solution_stack, u0
from .hilbert import Lattice, Model, make_basis_state, plane_waves


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
    def uniform(cls, lattice: Lattice, count: int) -> "PositionGrid":
        """`count` equally spaced points from 0; commensurate with the lattice
        when count divides the number of sites."""
        return cls(points=np.arange(count) * (lattice.length / count), length=lattice.length)

    @property
    def size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class GammaGrid:
    """Density matrices (..., n, n) sampled on a position grid; the
    reductions below keep the leading axes."""

    values: np.ndarray
    grid: PositionGrid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape[-2:] != (self.grid.size, self.grid.size):
            raise ValueError("values must be square on the grid")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def hermiticity_error(self):
        return np.abs(self.values - self.values.swapaxes(-1, -2).conj()).max((-2, -1))

    def trace_mean(self):
        """Ring average of the diagonal; equals the particle number 1 for the
        exact method on a full commensurate grid."""
        return np.diagonal(self.values, 0, -2, -1).real.mean(-1)

    def max_deviation(self, other: "GammaGrid"):
        return np.abs(self.values - other.values).max((-2, -1))


def gamma_exact(state_tilde: np.ndarray, sol, grid: PositionGrid) -> GammaGrid:
    """Exact density matrix Gamma(x, x') = <s| psi^dag(x,t) psi(x',t) |s> for
    |s> = U0(t)|state_tilde> at the final grid time t, with the wave operator
    psi(x,t) = sum_k a_k e^{ikx - i eps_k t}, by one ``u0`` call: states
    (M, N, levels) go with a stack of M solutions, (..., N, levels) with one."""
    head = solution_stack(sol)[0]
    if state_tilde.shape[-2:] != head.model.shape:
        raise ValueError("state incompatible with the model")
    psi = u0(sol, head.grid.steps, state_tilde)
    psi = plane_waves(head.model, grid.points, head.grid.times[-1]) @ psi  # (..., nx, levels)
    return GammaGrid(values=psi.conj() @ psi.swapaxes(-1, -2), grid=grid)


def gamma_first_approx(sol, grid: PositionGrid) -> GammaGrid:
    """First approximation: ``gamma_exact`` of the rotated-frame state frozen
    to |0, k0).  Requires a solution ending at t = 0 (started at t0 < 0)."""
    head = solution_stack(sol)[0]
    require_t_end_zero(head.grid)
    return gamma_exact(make_basis_state(head.model, head.k0, 0), sol, grid)


def require_t_end_zero(grid: TimeGrid) -> None:
    """Reject a grid that does not end at t = 0 after starting at t0 < 0."""
    if abs(grid.t_end) > 1e-12 or grid.t0 >= 0:
        raise ValueError("density matrices are compared at t = 0 after the interaction "
                         "switches on at t0 < 0: set t_end = 0 and t0 < 0")


@dataclass(frozen=True)
class AlphaField:
    """alpha(x, t) at the final time and the accumulated phase Phi(x)."""

    model: Model
    grid: PositionGrid
    alpha_final: np.ndarray   # (..., n_points)
    phi: np.ndarray           # (..., n_points)

    def phi_spread(self):
        return self.phi.max(-1) - self.phi.min(-1)


def alpha_phi(sol, grid: PositionGrid) -> AlphaField:
    """alpha(x, t) = sum_q h_q(t) e^{-iqx} and
    Phi(x) = int_{t0}^{t} Im[alphadot*(x,t') alpha(x,t')] dt' on the grid at
    the final time t = 0, in closed form (``dynamics.accumulated`` with the
    weights e^{-iqx})."""
    head = solution_stack(sol)[0]
    require_t_end_zero(head.grid)
    weights = np.exp(-1j * np.outer(grid.points, head.couplings.momenta))
    alpha, phi = accumulated(sol, weights, head.grid.times[-1])
    return AlphaField(model=head.model, grid=grid, alpha_final=alpha, phi=phi)


def gamma_closed_form(field: AlphaField, k0: int, grid: PositionGrid) -> GammaGrid:
    """Closed-form density matrix at t = 0 from alpha(x,0) and Phi(x),

        Gamma(x,x',0) = e^{-i k0 (x-x')} exp{ i Phi(x) - i Phi(x')
                        - [|alpha(x,0)|^2 + |alpha(x',0)|^2 - 2 alpha*(x,0) alpha(x',0)]/2 },

    which agrees with the other two methods only at positions commensurate
    with the lattice (multiples of length/sites): momentum wrap-around
    otherwise breaks the plane-wave contraction identity it rests on."""
    if grid.size != field.grid.size or not np.allclose(grid.points, field.grid.points):
        raise ValueError("field was evaluated on a different grid")
    k0_val = field.model.lattice.momenta[int(k0)]
    a, ap = field.alpha_final[..., :, None], field.alpha_final[..., None, :]
    x = grid.points
    exponent = (-1j * k0_val * (x[:, None] - x[None, :])
                + 1j * (field.phi[..., :, None] - field.phi[..., None, :])
                - 0.5 * (np.abs(a) ** 2 + np.abs(ap) ** 2 - 2.0 * a.conj() * ap))
    return GammaGrid(values=np.exp(exponent), grid=grid)

