"""Truncated particle-ring x oscillator Hilbert space and its elementary operators.

A single spinless particle lives on a periodic momentum lattice (``Lattice``),
a harmonic oscillator on a truncated Fock ladder (``OscillatorSpec``).  States
are complex arrays of shape ``(sites, cutoff + 1)`` indexed by
(momentum index, Fock level).  This module forms no operator on the product
space: a particle matrix acts on the momentum axis, an oscillator matrix on
the Fock axis.

Every particle factor of the zero-order Hamiltonian is a circulant
sum_q v_q rho_q.  ``CoefficientSet`` is its one representation (offsets
canonicalised modulo the lattice, finite values) and ``circulant`` its one
builder, batched over leading axes of the values; ``branches`` gives their
eigenvalues on the shared Fourier vectors, which is how every function of a
circulant is built.  ``displacement`` applies
exp(Q b^dag - Q^dag b - i chi) = sum_x |x><x| x D(alpha(x)) e^{-i Phi(x)}
to states without forming it: each branch displacement is a phase rotation of
exp(-i |lam| (b + b^dag)), so one eigendecomposition of the constant
b + b^dag (the Gauss-Hermite basis, ``ladder_quadrature``) serves every
branch and every state.  ``branch_displacement`` is that action (or its
adjoint) on states already in the branch basis, from the diagonal factors of
``branch_phases``, batched over leading axes of the branches.

Natural units, hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

TWO_PI = 2.0 * np.pi

DISPERSION_KINDS = ("quadratic", "tight_binding", "flat")


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

    def offset_momentum(self, q: int) -> float:
        """Momentum carried by an integer offset (canonical representative)."""
        return TWO_PI * self.wrap_offset(q) / self.length

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

    Kinds: ``quadratic`` (k^2/(2*mass), with the documented wrap-around
    discontinuity at the zone edge), ``tight_binding``
    (-hopping*cos(2*pi*n/N), exactly periodic), ``flat`` (constant `value`).
    """

    kind: str
    mass: float = 1.0
    hopping: float = 1.0
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in DISPERSION_KINDS:
            raise ValueError(f"unknown dispersion kind {self.kind!r}")
        require_finite(mass=self.mass, hopping=self.hopping, value=self.value)
        if self.kind == "quadratic" and self.mass <= 0:
            raise ValueError("mass must be positive")

    @classmethod
    def quadratic(cls, mass: float = 1.0) -> "Dispersion":
        return cls(kind="quadratic", mass=mass)

    @classmethod
    def tight_binding(cls, hopping: float = 1.0) -> "Dispersion":
        return cls(kind="tight_binding", hopping=hopping)

    @classmethod
    def flat(cls, value: float = 0.0) -> "Dispersion":
        return cls(kind="flat", value=value)

    def energies(self, lattice: Lattice) -> np.ndarray:
        """Energy per momentum index; always real."""
        if self.kind == "quadratic":
            return lattice.momenta ** 2 / (2.0 * self.mass)
        if self.kind == "tight_binding":
            return -self.hopping * np.cos(TWO_PI * lattice.quanta / lattice.sites)
        return np.full(lattice.sites, self.value, dtype=float)


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


@dataclass(frozen=True)
class Model:
    """Bundle of lattice, dispersion and oscillator defining the product space."""

    lattice: Lattice
    dispersion: Dispersion
    osc: OscillatorSpec

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


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| / (||a|| ||b||), clamped to 1 so that 1 - fidelity is never a
    negative round-off residual."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity undefined for zero vectors")
    return min(1.0, float(abs(np.vdot(a, b)) / (na * nb)))


def shift_matrix(lattice: Lattice, q: int) -> np.ndarray:
    """Particle matrix of the density Fourier component rho_q: the unitary
    shift taking momentum component k+q to k, i.e. |p> -> |p-q> (indices
    wrap modulo the lattice)."""
    N = lattice.sites
    qw = lattice.wrap_offset(q) % N
    mat = np.zeros((N, N), dtype=complex)
    cols = np.arange(N)
    mat[(cols - qw) % N, cols] = 1.0
    return mat


def oscillator_annihilation(osc: OscillatorSpec) -> np.ndarray:
    """Truncated annihilation matrix: b|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, osc.levels)), 1).astype(complex)


def _offset_diagonals(lattice: Lattice, offsets, values) -> np.ndarray:
    """Coefficient of rho_w for w = 0..N-1: values summed per wrapped offset."""
    values = np.asarray(values, dtype=complex)
    N = lattice.sites
    diagonals = np.zeros(values.shape[:-1] + (N,), dtype=complex)
    for i, q in enumerate(offsets):
        diagonals[..., lattice.wrap_offset(q) % N] += values[..., i]
    return diagonals


def circulant(lattice: Lattice, offsets, values) -> np.ndarray:
    """sum_q values[..., q] * shift_matrix(lattice, q): the particle matrix of
    sum_q v_q rho_q, batched over the leading axes of `values` (the last axis
    runs over `offsets`).  Entry [r, c] depends on (c - r) mod N only."""
    diagonals = _offset_diagonals(lattice, offsets, values)
    cols = np.arange(lattice.sites)
    return diagonals[..., (cols[None, :] - cols[:, None]) % lattice.sites]


def branches(lattice: Lattice, offsets, values) -> np.ndarray:
    """Eigenvalues sum_w v_w e^{2 pi i j w/N} of circulant(...), batched alike,
    on the Fourier vectors f_j[n] = e^{2 pi i j n/N}/sqrt(N); one FFT."""
    return np.fft.ifft(_offset_diagonals(lattice, offsets, values), norm="forward")


def ladder_quadrature(osc: OscillatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """(x, W) with b + b^dag = W diag(x) W^T for the truncated ladder, from one
    eigh: x / sqrt(2) are the roots of the Hermite polynomial H_levels and W
    holds the normalised Hermite values at them.  The real W is returned as
    complex, so products with complex states do not cast it per call."""
    b = oscillator_annihilation(osc).real
    x, w = np.linalg.eigh(b + b.T)
    return x, w.astype(complex)


def branch_phases(lam, mu, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal factors of the branch displacement
    e^{-i mu_j} R_j W diag(e^{-i |lam_j| x}) W^T R_j^dag: the rotation
    R_j = e^{i n (theta_j + pi/2)}, the Hermite phases e^{-i |lam_j| x} and
    e^{-i mu_j}, for `lam` and `mu` of shape (..., N) and the nodes `x` of
    ``ladder_quadrature``.  The adjoint has the same R_j and the conjugate
    phases, so one set serves both."""
    lam, mu = np.asarray(lam)[..., None], np.asarray(mu)[..., None]
    rot = np.exp(1j * (np.angle(lam) + np.pi / 2) * np.arange(x.size))
    phase = -1j * np.abs(lam) * x
    return rot, np.exp(phase, out=phase), np.exp(-1j * mu)


def branch_displacement(states: np.ndarray, phases, w: np.ndarray,
                        adjoint: bool = False) -> np.ndarray:
    """The displacement of ``displacement`` (its adjoint if `adjoint`) on
    states already in the branch basis (momentum axis Fourier transformed):
    on branch j it applies e^{-i mu_j} R_j W diag(e^{-i |lam_j| x}) W^T R_j^dag
    with the factors `phases` of ``branch_phases`` and the Hermite values `w`
    of ``ladder_quadrature``.  The phases broadcast against `states`
    (..., N, levels), so one call applies a different displacement to each
    state of a stack."""
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
    `mu` (chi).  With lam_j = |lam_j| e^{i theta_j} and R_j = diag(e^{i n phi_j}),
    phi_j = theta_j + pi/2, the truncated branch generator is exactly
    lam_j b^dag - lam_j^* b = -i |lam_j| R_j (b + b^dag) R_j^dag, so one
    eigendecomposition W diag(x) W^T of the real b + b^dag serves every branch:
    an FFT of the momentum axis, ``branch_displacement``, the inverse FFT.
    `lam` and `mu` may carry leading axes (..., N) matching those of `states`,
    one set of branches per state.  Vanishing branches return `states` itself."""
    if not (np.any(lam) or np.any(mu)):
        return states
    x, w = ladder_quadrature(model.osc)
    coeffs = branch_displacement(np.fft.fft(states, axis=-2, norm="ortho"),
                                 branch_phases(lam, mu, x), w)
    return np.fft.ifft(coeffs, axis=-2, norm="ortho")


@dataclass(frozen=True)
class CoefficientSet:
    """Circulant particle operator sum_q h_q rho_q, stored as the map q -> h_q.

    Offsets are canonicalized modulo the lattice; coefficients landing on the
    same canonical offset are summed.  Absent offsets are zero; every value
    must be finite.
    """

    lattice: Lattice
    items: tuple[tuple[int, complex], ...] = field(default_factory=tuple)

    def __post_init__(self):
        merged: dict[int, complex] = {}
        for q, v in self.items:
            v = complex(v)
            if not np.isfinite(v):
                raise ValueError(
                    f"{type(self).__name__} value at offset {q} must be finite, got {v}")
            qc = self.lattice.wrap_offset(q)
            merged[qc] = merged.get(qc, 0.0) + v
        object.__setattr__(self, "items", tuple(sorted(merged.items())))

    @classmethod
    def from_dict(cls, lattice: Lattice, values: Mapping[int, complex]) -> "CoefficientSet":
        return cls(lattice, tuple(values.items()))

    @classmethod
    def single_mode(cls, lattice: Lattice, q0: int, amplitude: complex) -> "CoefficientSet":
        return cls(lattice, ((int(q0), complex(amplitude)),))

    def get(self, q: int) -> complex:
        qc = self.lattice.wrap_offset(q)
        for qq, v in self.items:
            if qq == qc:
                return v
        return 0.0

    def scaled(self, factor: complex) -> "CoefficientSet":
        """All values times `factor`; keeps the type and its other fields."""
        return replace(self, items=tuple((q, factor * v) for q, v in self.items))

    @property
    def offsets(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.items)

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.items], dtype=complex)

    @property
    def l1_amplitude(self) -> float:
        return float(sum(abs(v) for _, v in self.items))

    def particle_matrix(self) -> np.ndarray:
        """The circulant sum_q h_q shift(q), so any two such matrices (and
        their adjoints) commute."""
        return circulant(self.lattice, self.offsets, self.values)

    def operator_amplitude(self) -> float:
        """Largest displacement amplitude over the commuting family's
        eigenbranches, max_j |lam_j| = ||Q||_2 (Q is normal)."""
        return float(np.abs(branches(self.lattice, self.offsets, self.values)).max())

