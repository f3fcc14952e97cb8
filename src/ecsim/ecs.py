"""Extended coherent states and their algebraic properties.

An extended coherent state replaces the scalar displacement amplitude of an
ordinary oscillator coherent state by the particle operator
Q = sum_q h_q rho_q (a commuting family on the periodic lattice), entangling
the particle with the oscillator:

    |h, k0> = exp(-Q^dag Q / 2) sum_n (Q b^dag)^n / n!  |0, k0)
            = exp(Q b^dag - Q^dag b) |0, k0)

Q is a circulant, so every function of it is read off its Fourier branch
values lam_j (``hilbert.branches``) and no eigensolver runs on it: the
series prefactor is the circulant with branch values e^{-|lam_j|^2/2}, the
displacement is one oscillator displacement D(lam_j) per branch
(``hilbert.displacement``, U0's too), and the resolution of unity is one
(levels x levels) quadrature per branch.  The coherent amplitude at
z lam_j = r lam_j e^{i theta} factors into a radial part times e^{i n theta},
so the angular sum of the quadrature is one numerically summed
(levels x levels) matrix and the radial sum one contraction over all
branches and radii, with no loop over the nodes.  Both constructions are
provided, together with numerical checks of the annihilation action
b|h,k0> = Q|h,k0>, momentum-shift relations, the overlap formula for
single-mode coefficient sets, the quadrature test of the resolution of
unity, and the plane-wave contraction sum rule.  Only numpy is needed at
run time.
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
    make_basis_state,
    oscillator_annihilation,
    plane_waves,
)

TRUNCATION_TOL = 1e-10
# Polar quadrature of the resolution-of-unity and moment checks (radial nodes
# by default), and the highest order n, m of the moment integral.
RADIAL_NODES = 40
ANGULAR_NODES = 64
MOMENT_MAX_ORDER = 4


def coherent_state_vector(alpha, levels: int) -> np.ndarray:
    """Ordinary (Schroedinger) coherent state amplitudes on levels 0..levels-1:
    exp(-|alpha|^2/2) alpha^n / sqrt(n!), batched over the axes of `alpha`
    (the levels form a new last axis)."""
    alpha = np.asarray(alpha)[..., None]
    n = np.arange(levels)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(levels)])
    amps = np.exp(-0.5 * np.abs(alpha) ** 2 - 0.5 * log_fact) * alpha ** n
    return amps.astype(complex)


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


def _series_state(model: Model, h: CoefficientSet, k0: int) -> np.ndarray:
    """exp(-Q^dag Q/2) sum_{n<=cutoff} (Q b^dag)^n/n! |0,k0), no amplitude guard.

    Term n lands on Fock level n alone as Q^n |k0) / sqrt(n!), so level n is
    Q level(n-1) / sqrt(n), one particle matvec each; every retained Fock
    amplitude is exact under truncation.  The prefactor acts on the particle
    factor only: it is the circulant with branch values
    e^{-|lam_j|^2/2}.  As a function of Q^dag Q its offsets are multiples of
    the gcd of N and the differences of Q's offsets; the FFT's round-off on
    the other offsets is dropped, so amplitudes off k0's momentum orbit stay
    exactly zero (states on disjoint orbits are exactly orthogonal).
    """
    qp = h.particle_matrix()
    acc = make_basis_state(model, k0, 0)
    for n in range(1, model.osc.levels):
        acc[:, n] = qp @ acc[:, n - 1] / math.sqrt(n)
    N = model.lattice.sites
    lam_sq = np.abs(branches(model.lattice, h.offsets, h.values)) ** 2
    coeffs = np.fft.fft(np.exp(-0.5 * lam_sq), norm="forward")
    coeffs[np.arange(N) % math.gcd(N, *(q - h.offsets[0] for q in h.offsets)) != 0] = 0.0
    return circulant(model.lattice, range(N), coeffs) @ acc


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


def ecs_series(model: Model, h: CoefficientSet, k0: int) -> EcsState:
    """Series construction of the extended coherent state, summed to the Fock
    cutoff; TRUNCATION_TOL bounds the coherent tail beyond it.  The
    normalization prefactor is applied after the series; its placement is
    immaterial because all particle factors involved commute.
    """
    _check_truncation(model, h)
    return _finish(model, h, k0, _series_state(model, h, k0))


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


def overlap(ecs1: EcsState, ecs2: EcsState) -> complex:
    """<ecs1|ecs2> on a common model."""
    if ecs1.model.shape != ecs2.model.shape:
        raise ValueError("states live on different spaces")
    return complex(np.vdot(ecs1.state, ecs2.state))


def overlap_single_mode(g: complex, g_prime: complex, k0: int, k0_prime: int) -> complex:
    """Closed-form overlap of two single-mode states sharing the mode offset:
    exp(-(|g|^2 + |g'|^2 - 2 g* g')/2) * delta(k0 - k0')."""
    if k0 != k0_prime:
        return 0.0
    return complex(np.exp(-0.5 * (abs(g) ** 2 + abs(g_prime) ** 2
                                  - 2.0 * np.conj(g) * g_prime)))


def momentum_shift_check(ecs: EcsState, q: int) -> tuple[float, float]:
    """The shift residual ||rho_q|h,k0> - |h,k0-q>|| and the round-trip
    residual ||rho_q^dag rho_q|h,k0> - |h,k0>||; the series rebuilds |h,k0-q>.

    Exact on the periodic lattice: rho_q acts on the particle factor only.
    """
    model = ecs.model
    sq = circulant(model.lattice, (q,), (1.0,))
    shifted = sq @ ecs.state
    rebuilt = _series_state(model, ecs.h, model.lattice.shift_index(ecs.k0, -q))
    return (float(np.linalg.norm(shifted - rebuilt)),
            float(np.linalg.norm(sq.conj().T @ shifted - ecs.state)))


class SumRuleResult(NamedTuple):
    alpha: complex
    contracted: np.ndarray
    analytic: np.ndarray
    fidelity: float


def sum_rule(ecs: EcsState, s: float) -> SumRuleResult:
    """Contract the state with sum_k e^{isk} a_k and compare against the
    coherent state e^{i s k0} |alpha), alpha = sum_q h_q e^{-isq}.

    The identity is exact for positions s commensurate with the lattice
    (integer multiples of lattice.spacing); elsewhere momentum wrap-around
    makes the canonical-representative phases disagree.
    """
    model = ecs.model
    contracted = plane_waves(model, s, 0.0) @ ecs.state
    alpha = complex(ecs.h.values @ np.exp(-1j * s * ecs.h.momenta))
    k0_val = model.lattice.momenta[ecs.k0]
    analytic = np.exp(1j * s * k0_val) * coherent_state_vector(alpha, model.osc.levels)
    return SumRuleResult(alpha=alpha, contracted=contracted, analytic=analytic,
                         fidelity=fidelity(contracted, analytic))


@functools.cache
def _laguerre_nodes(radial_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Laguerre nodes u and the slopes L_n'(u) there, read-only: they
    depend only on the node count, so each count is computed once."""
    lag = np.polynomial.laguerre
    u = lag.laggauss(radial_nodes)[0]
    slope = lag.lagval(u, lag.lagder(np.eye(radial_nodes + 1)[-1]))
    u.flags.writeable = slope.flags.writeable = False
    return u, slope


def _polar_nodes(radial_nodes: int, scale: float):
    """Quadrature for (1/pi) * int d^2 z, with the radial direction mapped to
    Gauss-Laguerre nodes in u = |z|^2 * scale and ANGULAR_NODES uniform
    angles.  Returns (radii, angles, weights) where weights absorb the 1/pi
    and the Laguerre weight compensation e^{+u} (the integrand must supply its
    own Gaussian decay).
    """
    if radial_nodes < 1:
        raise ValueError("radial_nodes must be positive")
    # Weights 1/(u L_n'(u)^2) from the Gauss-Laguerre nodes: they hold the
    # moments int e^{-u} u^k/k! = 1 to 1e-14, the sum-normalised weights of
    # `laggauss` only to 1e-13.
    u, slope = _laguerre_nodes(radial_nodes)
    radii = np.sqrt(u / scale)
    radial_weights = np.exp(u) / (u * slope ** 2) / (2.0 * scale)
    angles = 2.0 * np.pi * np.arange(ANGULAR_NODES) / ANGULAR_NODES
    weights = radial_weights * (2.0 * np.pi / ANGULAR_NODES) / np.pi
    return radii, angles, weights


def _angular_sum(angles: np.ndarray, orders: int) -> np.ndarray:
    """S[n, m] = sum_a e^{i (n - m) theta_a} for n, m < orders, summed over
    the quadrature angles rather than replaced by a Kronecker delta."""
    phases = np.exp(1j * np.outer(angles, np.arange(orders)))
    return phases.T @ phases.conj()


class UnityResolutionResult(NamedTuple):
    deviation: float
    reliable_levels: tuple[int, ...]


def unity_resolution_check(model: Model, h: CoefficientSet,
                           radial_nodes: int = RADIAL_NODES) -> UnityResolutionResult:
    """Quadrature test of sum_k (1/pi) int d^2z  Q |zh,k><zh,k| Q^dag = 1.

    Summed over k the integrand is block-diagonal on the Fourier branches of
    Q: on branch j it is |lam_j|^2 |z lam_j><z lam_j|, with the truncated
    coherent amplitudes (exact at every retained level).  Polar quadrature:
    Gauss-Laguerre radially in u = |z|^2 |lam_j|^2, scaled per branch so
    every block is matched to its own Gaussian decay, uniform angularly.
    The substitution absorbs |lam_j|^2, so block j is the unit-scale
    quadrature at the amplitudes sqrt(u) e^{i arg lam_j}: with c_j(u) those
    coherent amplitudes, sum_u w_u c_j(u)[n] c_j(u)[m]^* S[n, m], one
    contraction over the radii for all branches, times the angular sum
    S[n, m] = sum_a e^{i (n - m) theta_a}, one numerically summed
    (levels x levels) matrix.  A vanishing branch (|lam_j|^2 <= 1e-14) keeps
    its zero block.  The deviation from the identity is the largest over
    branches on the reliable subspace: Fock levels whose coherent occupancy
    at the largest quadrature amplitude stays below TRUNCATION_TOL, since
    states at large |z| spill past the cutoff.
    """
    lam = branches(model.lattice, h.offsets, h.values)
    live = np.abs(lam) ** 2 > 1e-14
    if not live.any():
        raise ValueError("Q vanishes; the resolution of unity has no support")
    radii, angles, weights = _polar_nodes(radial_nodes, 1.0)

    levels = model.osc.levels
    amps = coherent_state_vector(np.exp(1j * np.angle(lam))[:, None] * radii, levels)
    radial = (amps.swapaxes(-1, -2) * weights) @ amps.conj()   # [j, n, m]
    blocks = live[:, None, None] * radial * _angular_sum(angles, levels)

    # Poisson occupancy of each level at the largest quadrature amplitude
    poisson = np.abs(coherent_state_vector(radii.max(), levels)) ** 2
    reliable = tuple(int(n) for n in np.flatnonzero(poisson < TRUNCATION_TOL))
    if not reliable:
        return UnityResolutionResult(deviation=float("inf"), reliable_levels=())
    rel = np.array(reliable)
    block = blocks[:, rel[:, None], rel] - np.eye(rel.size)
    deviation = float(np.linalg.norm(block, 2, axis=(-2, -1)).max())
    return UnityResolutionResult(deviation=deviation, reliable_levels=reliable)


class MomentIdentityResult(NamedTuple):
    values: np.ndarray
    target: np.ndarray
    max_diagonal_error: float
    max_offdiagonal: float


def moment_identity_check(c: complex) -> MomentIdentityResult:
    """Quadrature check of the scalar Gaussian moment integral

        int d^2z (z*)^n z^m exp(-|z|^2 |c|^2) c^{m+1} (c*)^{n+1} = pi n! delta_nm

    for n, m = 0..MOMENT_MAX_ORDER, using the same polar quadrature as the
    resolution-of-unity test, factored the same way into a radial sum and
    an angular sum."""
    if abs(c) == 0.0:
        raise ValueError("c must be nonzero")
    scale = abs(c) ** 2
    radii, angles, weights = _polar_nodes(RADIAL_NODES, scale)
    orders = np.arange(MOMENT_MAX_ORDER + 1)
    # (z*)^n z^m = r^{n+m} e^{-i (n - m) theta}: the radial sum of
    # pi w_r e^{-r^2 |c|^2} r^{n+m} times the conjugate angular sum
    rp = radii[:, None] ** orders
    radial = (np.pi * weights * np.exp(-radii ** 2 * scale) * rp.T) @ rp
    values = radial * _angular_sum(angles, orders.size).conj()
    values *= np.conj(c) ** (orders[:, None] + 1) * c ** (orders[None, :] + 1)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1, MOMENT_MAX_ORDER + 1))))
    target = np.pi * np.diag(fact)
    diff = values - target
    diag_err = float(np.abs(np.diag(diff)).max())
    off = np.abs(diff - np.diag(np.diag(diff))).max()
    return MomentIdentityResult(values=values, target=target,
                                max_diagonal_error=diag_err,
                                max_offdiagonal=float(off))
