"""Extended coherent states and their algebraic properties.

An extended coherent state replaces the scalar amplitude of an oscillator
coherent state by the circulant Q = sum_q h_q rho_q, entangling the particle
with the oscillator:

    |h, k0> = exp(-Q^dag Q / 2) sum_n (Q b^dag)^n / n!  |0, k0)
            = exp(Q b^dag - Q^dag b) |0, k0)

``ecs_series`` and ``ecs_displacement`` build it; the functions below check
its algebra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hilbert import (
    CoefficientSet,
    Model,
    TruncationError,
    branches,
    circulant,
    displacement,
    fidelity,
    fourier,
    make_basis_state,
    oscillator_annihilation,
    plane_waves,
)

TRUNCATION_TOL = 1e-10
# The one polar quadrature of the resolution-of-unity and moment checks
# (``_polar_nodes``), and the highest order n, m of the moment integral.
RADIAL_NODES = 40
ANGULAR_NODES = 64
MOMENT_MAX_ORDER = 4


def coherent_state_vector(alpha, levels: int) -> np.ndarray:
    """Ordinary (Schroedinger) coherent state amplitudes on levels 0..levels-1:
    exp(-|alpha|^2/2) alpha^n / sqrt(n!), batched over the axes of `alpha`
    (the levels form a new last axis); real at real `alpha`."""
    alpha = np.asarray(alpha)[..., None]
    n = np.arange(levels)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(levels)])
    return np.exp(-0.5 * np.abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n


def coherent_truncation_tail(amplitude_sq: float, cutoff: int) -> float:
    """Poisson weight beyond the Fock cutoff for mean `amplitude_sq`: the terms
    e^{-a} a^k / k! for k > cutoff, each in log space, summed until they have
    passed their peak and dropped below round-off of the sum."""
    a = float(amplitude_sq)
    if a == 0.0:
        return 0.0
    total, k = 0.0, cutoff + 1
    while True:
        term = math.exp(k * math.log(a) - a - math.lgamma(k + 1))
        total += term
        if k > a and term <= 1e-17 * total:
            return total
        k += 1


def _check_truncation(model: Model, h: CoefficientSet) -> None:
    amp = h.operator_amplitude()
    model.osc.check_amplitude(amp)
    tail = coherent_truncation_tail(amp ** 2, model.osc.cutoff)
    if tail >= TRUNCATION_TOL:
        raise TruncationError(f"coherent tail beyond the cutoff is {tail:.3g} "
                              f">= tolerance {TRUNCATION_TOL:.3g}")


def _series_state(model: Model, offsets, values, k0) -> np.ndarray:
    """exp(-Q^dag Q/2) sum_{n<=cutoff} (Q b^dag)^n/n! |0,k0), no amplitude guard,
    for Q = circulant(offsets, values), batched alike and over `k0`.

    The prefactor, the circulant with branch values e^{-|lam_j|^2/2}, acts on
    the particle factor only and commutes with Q, so it is applied to |k0)
    first.  As a function of Q^dag Q its offsets are multiples of the gcd of
    N and the differences of Q's offsets; the DFT's round-off on the other
    offsets is dropped, so amplitudes off k0's momentum orbit stay exactly
    zero (states on disjoint orbits are exactly orthogonal).  Term n lands on
    level n alone: level n is Q level(n-1) / sqrt(n), exact under truncation.
    """
    N, levels = model.shape
    lam_sq = np.abs(branches(model.lattice, offsets, values)) ** 2
    coeffs = np.exp(-0.5 * lam_sq) @ fourier(N) / math.sqrt(N)
    coeffs[..., np.arange(N) % math.gcd(N, *(q - offsets[0] for q in offsets)) != 0] = 0.0
    acc = np.zeros(np.broadcast_shapes(np.shape(values)[:-1], np.shape(k0)) + model.shape, complex)
    acc[..., 0] = np.arange(N) == np.expand_dims(k0, -1)
    acc[..., 0] = (circulant(model.lattice, range(N), coeffs) @ acc[..., 0, None])[..., 0]
    qp = circulant(model.lattice, offsets, values)
    for n in range(1, levels):
        acc[..., n] = (qp @ acc[..., n - 1, None])[..., 0] / math.sqrt(n)
    return acc


@dataclass(frozen=True)
class EcsState:
    """An extended coherent state together with its defining data."""

    model: Model
    h: CoefficientSet
    k0: int
    state: np.ndarray

    def __post_init__(self):
        self.state.flags.writeable = False


def _finish(model, h, k0, state) -> EcsState:
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 100.0 * TRUNCATION_TOL:
        raise TruncationError(
            f"constructed state norm {norm} deviates from 1 beyond tolerance")
    return EcsState(model=model, h=h, k0=k0, state=state)


def ecs_series(model: Model, h: CoefficientSet | list[CoefficientSet],
               k0: int | list[int]) -> EcsState | tuple[EcsState, ...]:
    """Series construction of the extended coherent state (``_series_state``),
    summed to the Fock cutoff; TRUNCATION_TOL bounds the coherent tail beyond
    it.  A list of coefficient sets sharing their offsets (else ValueError),
    with one k0 each, gives one EcsState per member from one call; each
    member passes its own truncation guard and norm check."""
    one = isinstance(h, CoefficientSet)
    hs, k0s = ((h,), (k0,)) if one else (h, k0)
    if any(h_m.offsets != hs[0].offsets for h_m in hs):
        raise ValueError("stacked coefficient sets must share their offsets")
    for h_m in hs:
        _check_truncation(model, h_m)
    states = _series_state(model, hs[0].offsets, [h_m.values for h_m in hs], k0s)
    family = tuple(_finish(model, *member) for member in zip(hs, k0s, states))
    return family[0] if one else family


def ecs_displacement(model: Model, h: CoefficientSet, k0: int) -> EcsState:
    """Displacement construction exp(Q b^dag - Q^dag b)|0,k0), one oscillator
    displacement D(lam_j) per eigenbranch of Q."""
    _check_truncation(model, h)
    state = displacement(model, branches(model.lattice, h.offsets, h.values), 0.0,
                         make_basis_state(model, k0, 0))
    return _finish(model, h, k0, state)


def check_b_action(ecs: EcsState) -> float:
    """Residual ||b|h,k0> - Q|h,k0>||; vanishes at infinite cutoff."""
    b = oscillator_annihilation(ecs.model.osc)
    qp = ecs.h.particle_matrix()
    lhs = ecs.state @ b.T
    rhs = qp @ ecs.state
    return float(np.linalg.norm(lhs - rhs))


def overlap_single_mode(g, g_prime, k0, k0_prime):
    """Closed-form overlap of two single-mode states sharing the mode offset:
    exp(-(|g|^2 + |g'|^2 - 2 g* g')/2) * delta(k0 - k0'), broadcast over the
    four arguments."""
    return np.where(np.equal(k0, k0_prime), np.exp(-0.5 * (
        np.abs(g) ** 2 + np.abs(g_prime) ** 2 - 2.0 * np.conj(g) * g_prime)), 0.0)[()]


def momentum_shift_check(ecs: EcsState, q) -> tuple[float, float]:
    """The shift residual ||rho_q|h,k0> - |h,k0-q>|| and the round-trip
    residual ||rho_q^dag rho_q|h,k0> - |h,k0>||, each the worst over the shifts
    `q` (one or an array); one guarded series call rebuilds every |h,k0-q>.

    Exact on the periodic lattice: rho_q acts on the particle factor only.
    """
    N, q = ecs.model.lattice.sites, np.atleast_1d(q)
    sq = circulant(ecs.model.lattice, range(N), np.eye(N)[q % N])
    shifted = sq @ ecs.state
    rebuilt = [e.state for e in ecs_series(ecs.model, [ecs.h] * q.size, (ecs.k0 - q) % N)]
    return (float(np.linalg.norm(shifted - rebuilt, axis=(-2, -1)).max()),
            float(np.linalg.norm(sq.swapaxes(-2, -1) @ shifted - ecs.state, axis=(-2, -1)).max()))


class SumRuleResult(NamedTuple):
    alpha: complex
    contracted: np.ndarray
    analytic: np.ndarray
    fidelity: float


def sum_rule(ecs: EcsState, s) -> SumRuleResult:
    """Contract the state with sum_k e^{isk} a_k and compare against the
    coherent state e^{i s k0} |alpha), alpha = sum_q h_q e^{-isq}, at each s.

    The identity is exact for positions s commensurate with the lattice
    (integer multiples of lattice.spacing); elsewhere momentum wrap-around
    makes the canonical-representative phases disagree.
    """
    model = ecs.model
    contracted = plane_waves(model, s, 0.0) @ ecs.state
    alpha = np.exp(-1j * np.multiply.outer(s, ecs.h.momenta)) @ ecs.h.values
    phase = np.exp(1j * np.multiply(s, model.lattice.momenta[ecs.k0]))[..., None]
    analytic = phase * coherent_state_vector(alpha, model.osc.levels)
    return SumRuleResult(alpha=alpha, contracted=contracted, analytic=analytic,
                         fidelity=fidelity(contracted, analytic, axis=-1))


@functools.cache
def _laguerre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes u and the slopes L_n'(u) there, read-only: they
    depend only on the node count, so each count is computed once.  The nodes
    are the eigenvalues of the (n x n) Jacobi matrix (Golub-Welsch) with one
    Newton step, L_n and L_n' from the three-term recurrence, so
    numpy.polynomial is not needed."""
    u = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + 1.0) + np.diag(np.arange(1.0, n), -1))
    prev, value = np.ones_like(u), 1.0 - u   # (k+1) L_{k+1} = (2k+1-u) L_k - k L_{k-1}
    for k in range(1, n):
        prev, value = value, ((2 * k + 1 - u) * value - k * prev) / (k + 1)
    slope = n * (value - prev) / u           # u L_n' = n (L_n - L_{n-1})
    # the Newton step moves the slope by L_n'' = ((u - 1) L_n' - n L_n) / u (Laguerre's equation)
    step = value / slope
    u, slope = u - step, slope - step * ((u - 1.0) * slope - n * value) / u
    u.flags.writeable = slope.flags.writeable = False
    return u, slope


def _polar_nodes():
    """Quadrature for (1/pi) * int d^2 z, with the radial direction mapped to
    the RADIAL_NODES Gauss-Laguerre nodes in u = |z|^2 and ANGULAR_NODES
    uniform angles.  Returns (radii, angles, weights) where weights absorb
    the 1/pi and the Laguerre weight compensation e^{+u} (the integrand must
    supply its own Gaussian decay).
    """
    # The weights 1/(u L_n'(u)^2) hold the moments int e^{-u} u^k/k! = 1 to
    # 5e-15, the sum-normalised weights of numpy's laggauss only to 1e-13.
    u, slope = _laguerre_nodes(RADIAL_NODES)
    radii = np.sqrt(u)
    radial_weights = np.exp(u) / (u * slope ** 2) / 2.0
    angles = 2.0 * np.pi * np.arange(ANGULAR_NODES) / ANGULAR_NODES
    weights = radial_weights * (2.0 * np.pi / ANGULAR_NODES) / np.pi
    return radii, angles, weights


def _angular_sum(angles: np.ndarray, orders: int) -> np.ndarray:
    """S[n, m] = sum_a e^{i (n - m) theta_a} for n, m < orders, summed over
    the quadrature angles rather than replaced by a Kronecker delta.  Only
    the real part, the cosine sum, is returned: for uniform angles
    theta_a = 2 pi a / A the sine sum vanishes exactly (a -> A - a flips its
    sign), so what is dropped is round-off and S is real symmetric."""
    phases = np.exp(1j * np.outer(angles, np.arange(orders)))
    return (phases.T @ phases.conj()).real


class UnityResolutionResult(NamedTuple):
    deviation: float
    reliable_levels: tuple[int, ...]


def unity_resolution_check(model: Model, h: CoefficientSet) -> UnityResolutionResult:
    """Quadrature test of sum_k (1/pi) int d^2z  Q |zh,k><zh,k| Q^dag = 1.

    Summed over k the integrand is block-diagonal on the Fourier branches of
    Q: on branch j it is |lam_j|^2 |z lam_j><z lam_j|, with the truncated
    coherent amplitudes (exact at every retained level).  The polar
    quadrature (``_polar_nodes``) is Gauss-Laguerre in u = |z|^2 |lam_j|^2,
    matched per branch to its Gaussian decay, and uniform in angle.  This
    absorbs |lam_j|^2, so block j is D_j B D_j^dag with
    D_j = diag(e^{i n arg lam_j}) and B the unit-phase block: with c(u) the
    real coherent amplitudes at sqrt(u), B[n, m] = sum_u w_u c(u)[n] c(u)[m]
    S[n, m], S the real angular sum (``_angular_sum``).  A live block deviates
    from the identity as the real symmetric B does, a vanishing branch
    (|lam_j|^2 <= 1e-14) by 1: one block and one norm (its largest
    |eigenvalue|, from the real symmetric eigensolver), whatever the number
    of sites.
    So h enters only through which branches vanish: the deviation depends on
    the cutoff alone, blind to any defect in the states the program builds.
    The deviation is taken on the reliable subspace: Fock levels whose
    coherent occupancy at the largest quadrature amplitude stays below
    TRUNCATION_TOL, since states at large |z| spill past the cutoff.
    """
    lam = branches(model.lattice, h.offsets, h.values)
    live = np.abs(lam) ** 2 > 1e-14
    if not live.any():
        raise ValueError("Q vanishes; the resolution of unity has no support")
    radii, angles, weights = _polar_nodes()

    levels = model.osc.levels
    amps = coherent_state_vector(radii, levels)   # [u, n]: real at real radii
    # Poisson occupancy of each level at the largest quadrature amplitude
    poisson = amps[radii.argmax()] ** 2
    reliable = tuple(int(n) for n in np.flatnonzero(poisson < TRUNCATION_TOL))
    rel = np.array(reliable)
    radial = (amps.T[rel] * weights) @ amps[:, rel]
    block = radial * _angular_sum(angles, levels)[rel[:, None], rel] - np.eye(rel.size)
    deviation = float(np.abs(np.linalg.eigvalsh(block)).max())
    return UnityResolutionResult(deviation=max(deviation, 0.0 if live.all() else 1.0),
                                 reliable_levels=reliable)


class MomentIdentityResult(NamedTuple):
    values: np.ndarray
    max_diagonal_error: float
    max_offdiagonal: float


def moment_identity_check() -> MomentIdentityResult:
    """Quadrature check of the scalar Gaussian moment integral

        int d^2z (z*)^n z^m exp(-|z|^2) = pi n! delta_nm

    for n, m = 0..MOMENT_MAX_ORDER on the unity check's polar quadrature,
    factored alike into radial and angular sums.  It has no input: it tests
    that quadrature alone."""
    radii, angles, weights = _polar_nodes()
    orders = np.arange(MOMENT_MAX_ORDER + 1)
    # (z*)^n z^m = r^{n+m} e^{-i (n - m) theta}: the radial sum of
    # pi w_r e^{-r^2} r^{n+m} times the (real) angular sum
    rp = radii[:, None] ** orders
    radial = (np.pi * weights * np.exp(-radii ** 2) * rp.T) @ rp
    values = radial * _angular_sum(angles, orders.size)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, MOMENT_MAX_ORDER + 1))))
    diff = values - np.pi * np.diag(fact)
    off = diff - np.diag(np.diag(diff))
    return MomentIdentityResult(values, float(np.abs(np.diag(diff)).max()),
                                float(np.abs(off).max()))
