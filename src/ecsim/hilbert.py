"""Truncated particle-ring x oscillator Hilbert space and its elementary operators.

States are complex arrays of shape ``(sites, cutoff + 1)`` indexed by
(momentum index, Fock level); a particle matrix acts on the momentum axis and
an oscillator matrix on the Fock axis, so no operator on the product space is
formed here.  ``CoefficientSet`` represents the circulant particle operators
and ``displacement`` applies their oscillator displacement.  Natural units,
hbar = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * np.pi

# Each dispersion kind -> (config key of its one parameter, value when absent).
DISPERSION_PARAMETERS = {"quadratic": ("mass", 1.0), "tight_binding": ("hopping", 1.0),
                         "flat": ("value", 0.0)}


def require_finite(**fields: float) -> None:
    """Reject NaN and infinite parameters, naming the offending field."""
    for name, value in fields.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Lattice:
    """Periodic momentum lattice of a particle on a ring of circumference `length`.

    Momenta are k_n = 2*pi*n/length with integer quantum numbers n in a window
    centred on zero: symmetric for odd `sites`, ``[-N/2, N/2)`` for even.
    Index arithmetic (momentum shifts) wraps modulo `sites`; for even `sites`
    the window is closed under negation only modulo the reciprocal lattice,
    which is the convention documented here.
    """

    sites: int
    length: float

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError(f"sites must be positive, got {self.sites}")
        require_finite(length=self.length)
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")

    @property
    def n_min(self) -> int:
        return -(self.sites // 2)

    @property
    def quanta(self) -> np.ndarray:
        """Integer momentum quantum numbers, ordered by array index."""
        return np.arange(self.sites) + self.n_min

    @property
    def momenta(self) -> np.ndarray:
        """Momentum values k_n = 2*pi*n/length in index order."""
        return TWO_PI * self.quanta / self.length

    @property
    def spacing(self) -> float:
        """Lattice constant a = length/sites; positions commensurate with the
        lattice (where the plane-wave contraction identities are exact) are
        integer multiples of this."""
        return self.length / self.sites

    def wrap_offset(self, q: int) -> int:
        """Canonical representative of an integer momentum offset."""
        return (int(q) - self.n_min) % self.sites + self.n_min

    def index_of(self, quantum: int) -> int:
        """Array index of the momentum with quantum number `quantum`."""
        idx = int(quantum) - self.n_min
        if not 0 <= idx < self.sites:
            raise ValueError(
                f"momentum quantum number {quantum} outside window "
                f"[{self.n_min}, {self.n_min + self.sites - 1}]")
        return idx

    def shift_index(self, index: int, offset: int) -> int:
        """Index of momentum `index` shifted by `offset` quanta (wraps)."""
        return (int(index) + int(offset)) % self.sites


@dataclass(frozen=True)
class Dispersion:
    """Particle dispersion relation evaluated on the lattice momenta.

    Kinds, each with the one `parameter` named in DISPERSION_PARAMETERS:
    ``quadratic`` (k^2/(2*mass), with the documented wrap-around discontinuity
    at the zone edge), ``tight_binding`` (-hopping*cos(2*pi*n/N), exactly
    periodic), ``flat`` (constant `value`).
    """

    kind: str
    parameter: float

    def __post_init__(self):
        if self.kind not in DISPERSION_PARAMETERS:
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        require_finite(**{self.key: self.parameter})
        if self.kind == "quadratic" and self.parameter <= 0:
            raise ValueError("mass must be positive")

    @property
    def key(self) -> str:   # mass, hopping or value
        return DISPERSION_PARAMETERS[self.kind][0]

    def energies(self, lattice: Lattice) -> np.ndarray:
        """Energy per momentum index; always real."""
        if self.kind == "quadratic":
            return lattice.momenta ** 2 / (2.0 * self.parameter)
        if self.kind == "tight_binding":
            return -self.parameter * np.cos(TWO_PI * lattice.quanta / lattice.sites)
        return np.full(lattice.sites, self.parameter, dtype=float)


class TruncationError(ValueError):
    """Displacement amplitude too large for the configured Fock cutoff."""


@dataclass(frozen=True)
class OscillatorSpec:
    """Truncated oscillator: Fock levels 0..cutoff, frequency omega."""

    cutoff: int
    omega: float

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        require_finite(omega=self.omega)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    @property
    def levels(self) -> int:
        return self.cutoff + 1

    def check_amplitude(self, amplitude: float) -> None:
        """The truncation rule: a displacement of amplitude |lam| fits under
        the cutoff when |lam|^2 <= cutoff/4, else TruncationError."""
        limit = self.cutoff / 4.0
        if amplitude * amplitude > limit:   # a float ** 2 raises OverflowError past ~1e154
            raise TruncationError(
                f"displacement amplitude^2 = {amplitude * amplitude:.3g} exceeds cutoff/4 = "
                f"{limit:.3g}; raise the Fock cutoff or weaken the couplings")


@dataclass(frozen=True)
class Model:
    """Bundle of lattice, dispersion and oscillator defining the product space."""

    lattice: Lattice
    dispersion: Dispersion
    osc: OscillatorSpec

    def __post_init__(self):
        """Reject finite inputs whose free problem leaves the floats: the lattice
        momenta, the free spectrum eps_k + omega n (n <= cutoff) and its spread
        (which bounds every energy difference the dynamics forms) must be
        finite.  Overflow here is the verdict, not a warning."""
        d = self.dispersion
        with np.errstate(over="ignore", invalid="ignore"):
            momenta = self.lattice.momenta
            eps = self.energies()
            top = eps.max() + self.osc.omega * self.osc.cutoff
            spread = top - eps.min()
        if not np.isfinite(momenta).all():
            raise ValueError(f"length = {self.lattice.length!r} makes the lattice momenta "
                             "2 pi n / length overflow a float")
        if not np.isfinite(eps).all():
            raise ValueError(f"{d.key} = {d.parameter!r} on length = {self.lattice.length!r} "
                             f"makes the {d.kind} energies overflow a float")
        if not np.isfinite(spread):
            raise ValueError(f"{d.key} = {d.parameter!r} and omega = {self.osc.omega!r} make "
                             "the free spectrum eps_k + omega n (n <= cutoff) or its spread "
                             "overflow a float")

    @property
    def dim(self) -> int:
        return self.lattice.sites * self.osc.levels

    @property
    def shape(self) -> tuple[int, int]:
        return (self.lattice.sites, self.osc.levels)

    def energies(self) -> np.ndarray:
        return self.dispersion.energies(self.lattice)


def make_basis_state(model: Model, k0_index: int, n: int) -> np.ndarray:
    """Unit vector |n, k0): Fock level n, particle momentum index k0_index."""
    N, levels = model.shape
    if not 0 <= int(k0_index) < N:
        raise ValueError(f"momentum index {k0_index} out of range [0, {N})")
    if not 0 <= int(n) < levels:
        raise ValueError(f"Fock level {n} out of range [0, {levels})")
    state = np.zeros(model.shape, dtype=complex)
    state[int(k0_index), int(n)] = 1.0
    return state


def fidelity(a: np.ndarray, b: np.ndarray, axis=None):
    """|<a|b>| / (||a|| ||b||), clamped to 1 so that 1 - fidelity is never a
    negative round-off residual.  The states span the axes `axis` (all of
    them by default, giving a float); the other axes broadcast, giving one
    fidelity per pair of states."""
    norms = np.linalg.norm(a, axis=axis) * np.linalg.norm(b, axis=axis)
    if not norms.all():
        raise ValueError("fidelity undefined for zero vectors")
    return np.minimum(1.0, np.abs((a.conj() * b).sum(axis=axis)) / norms)


def plane_waves(model: Model, points, t: float) -> np.ndarray:
    """Rows sum_k e^{i k x - i eps_k t} a_k, one per position x of `points` (a
    scalar position gives one row of shape (N,)): applied to a state they
    contract the particle to its vacuum and leave an oscillator vector."""
    return np.exp(1j * np.multiply.outer(points, model.lattice.momenta)
                  - 1j * model.energies() * t)


def oscillator_annihilation(osc: OscillatorSpec) -> np.ndarray:
    """Truncated annihilation matrix: b|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, osc.levels)), 1).astype(complex)


def _offset_diagonals(lattice: Lattice, offsets, values) -> np.ndarray:
    """Coefficient of rho_w for w = 0..N-1: values summed per offset modulo N."""
    values = np.asarray(values, dtype=complex)
    N = lattice.sites
    diagonals = np.zeros(values.shape[:-1] + (N,), dtype=complex)
    for i, q in enumerate(offsets):
        diagonals[..., q % N] += values[..., i]
    return diagonals


def circulant(lattice: Lattice, offsets, values) -> np.ndarray:
    """The particle matrix of sum_q v_q rho_q, rho_q the unitary shift
    |p> -> |p-q> (indices wrap modulo the lattice), batched over the leading
    axes of `values` (the last axis runs over `offsets`) into a C-ordered
    array.  Entry [r, c] depends on (c - r) mod N only; a single offset with
    value 1 gives rho_q."""
    diagonals = _offset_diagonals(lattice, offsets, values)
    cols = np.arange(lattice.sites)
    return np.take(diagonals, (cols[None, :] - cols[:, None]) % lattice.sites, axis=-1)


@functools.cache
def fourier(sites: int) -> np.ndarray:
    """The unitary DFT of the momentum axis, F[j, n] = e^{-2 pi i jn/N}/sqrt(N)
    (exponent reduced mod N), computed once per N and read-only.  F is
    symmetric: row j of F^dag = F.conj() is the Fourier vector f_j."""
    j = np.arange(sites)
    f = np.exp(-2j * np.pi * (np.outer(j, j) % sites) / sites) / math.sqrt(sites)
    f.flags.writeable = False
    return f


def branches(lattice: Lattice, offsets, values) -> np.ndarray:
    """Eigenvalues sum_w v_w e^{2 pi i j w/N} of circulant(...), batched alike,
    on the Fourier vectors f_j: one matmul with sqrt(N) F^dag."""
    N = lattice.sites
    return _offset_diagonals(lattice, offsets, values) @ fourier(N).conj() * math.sqrt(N)


@functools.cache
def ladder_quadrature(osc: OscillatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """(x, W) with b + b^dag = W diag(x) W^T for the truncated ladder, from one
    eigh per oscillator (cached, read-only): x / sqrt(2) are the roots of the
    Hermite polynomial H_levels and W holds the normalised Hermite values at
    them.  The real W is returned as complex, so products with complex states
    do not cast it per call."""
    b = oscillator_annihilation(osc).real
    x, w = np.linalg.eigh(b + b.T)
    w = w.astype(complex)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def branch_phases(lam, mu, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal factors (R_j, e^{-i |lam_j| x}, e^{-i mu_j}) of
    ``branch_displacement`` for `lam` and `mu` of shape (..., N) and the nodes
    `x` of ``ladder_quadrature``; its adjoint takes the same factors."""
    lam, mu = np.asarray(lam)[..., None], np.asarray(mu)[..., None]
    rot = np.exp(1j * (np.angle(lam) + np.pi / 2) * np.arange(x.size))
    phase = -1j * np.abs(lam) * x
    return rot, np.exp(phase, out=phase), np.exp(-1j * mu)


def branch_displacement(states: np.ndarray, phases, w: np.ndarray,
                        adjoint: bool = False) -> np.ndarray:
    """D(lam_j) e^{-i mu_j} on branch j (its adjoint if `adjoint`) of states
    (..., N, levels) already in the branch basis, phi = F psi (F = ``fourier``).

    With lam_j = |lam_j| e^{i theta_j} and R_j = diag(e^{i n (theta_j + pi/2)}),
    the truncated generator is exactly
    lam_j b^dag - lam_j^* b = -i |lam_j| R_j (b + b^dag) R_j^dag, so with
    b + b^dag = W diag(x) W^T (``ladder_quadrature``, one eigh per run) every
    branch is e^{-i mu_j} R_j W diag(e^{-i |lam_j| x}) W^T R_j^dag: phases and
    two small matmuls, no eigensolver per branch.  The adjoint conjugates the
    Hermite phases and e^{-i mu_j} and keeps R_j, so one ``branch_phases``
    serves both.  The phases broadcast against `states`, so one call applies
    a different displacement to each state of a stack."""
    rot, herm, emu = phases
    if adjoint:
        herm, emu = herm.conj(), emu.conj()
    coeffs = (states * rot.conj()) @ w
    coeffs *= herm
    coeffs = coeffs @ w.T
    coeffs *= rot
    coeffs *= emu
    return coeffs


def displacement(model: Model, lam, mu, states: np.ndarray) -> np.ndarray:
    """exp(Q b^dag - Q^dag b - i chi) = sum_j f_j f_j^dag x D(lam_j) e^{-i mu_j} on
    states (..., N, levels), for circulants with branch values `lam` (Q) and real
    `mu` (chi): ``branch_displacement`` between the DFT F = ``fourier`` and F^dag.
    `lam` and `mu` may carry leading axes (..., N) matching those of `states`,
    one set of branches per state.  Vanishing branches return `states` itself."""
    if not (np.any(lam) or np.any(mu)):
        return states
    x, w = ladder_quadrature(model.osc)
    f = fourier(model.lattice.sites)
    return f.conj() @ branch_displacement(f @ states, branch_phases(lam, mu, x), w)


@dataclass(frozen=True)
class CoefficientSet:
    """Circulant particle operator sum_q h_q rho_q, stored as the map q -> h_q.

    Every particle factor of the zero-order Hamiltonian (G, A(t), Q(t),
    chi(t)) is such a circulant; all share the Fourier vectors f_j, so every
    function of one is read off its branch values (``branches``) and no
    eigensolver runs on it.  This class is the one place offsets are
    canonicalized modulo the lattice: coefficients landing on the same
    canonical offset are summed, and consumers read the canonical
    ``offsets``, ``values`` and ``momenta``.  Absent offsets are zero; every
    value must be finite.
    """

    lattice: Lattice
    items: tuple[tuple[int, complex], ...] = field(default_factory=tuple)

    def __post_init__(self):
        merged: dict[int, complex] = {}
        for q, v in self.items:
            v = complex(v)
            if not np.isfinite(v):
                raise ValueError(f"CoefficientSet value at offset {q} must be finite, got {v}")
            qc = self.lattice.wrap_offset(q)
            merged[qc] = merged.get(qc, 0.0) + v
        object.__setattr__(self, "items", tuple(sorted(merged.items())))

    @classmethod
    def from_dict(cls, lattice: Lattice, values: Mapping[int, complex]) -> "CoefficientSet":
        return cls(lattice, tuple(values.items()))

    @classmethod
    def single_mode(cls, lattice: Lattice, q0: int, amplitude: complex) -> "CoefficientSet":
        return cls(lattice, ((int(q0), complex(amplitude)),))

    def scaled(self, factor: complex) -> "CoefficientSet":
        """All values times `factor`."""
        return CoefficientSet(self.lattice, tuple((q, factor * v) for q, v in self.items))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.items)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.items], dtype=complex)

    @property
    def momenta(self) -> np.ndarray:
        """Momentum 2 pi q / length carried by each canonical offset q."""
        return TWO_PI * np.array(self.offsets, dtype=float) / self.lattice.length

    def particle_matrix(self) -> np.ndarray:
        """The circulant sum_q h_q shift(q), so any two such matrices (and
        their adjoints) commute."""
        return circulant(self.lattice, self.offsets, self.values)

    def operator_amplitude(self) -> float:
        """Largest displacement amplitude over the commuting family's
        eigenbranches, max_j |lam_j| = ||Q||_2 (Q is normal)."""
        return float(np.abs(branches(self.lattice, self.offsets, self.values)).max())

