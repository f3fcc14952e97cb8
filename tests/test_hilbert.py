"""Lattice, dispersion and elementary operator checks."""

import numpy as np
import pytest

from conftest import kron, make_model, random_coefficients, shift_matrix
from ecsim.hilbert import (
    DISPERSION_PARAMETERS,
    CoefficientSet,
    Dispersion,
    Lattice,
    Model,
    OscillatorSpec,
    TruncationError,
    fidelity,
    fourier,
    make_basis_state,
    oscillator_annihilation,
)


def test_fourier_is_the_cached_read_only_unitary_dft():
    """fourier(N) is numpy's orthonormal DFT of the identity to 1e-14 and
    unitary to 1e-14 for N = 1..40, computed once per N and read-only."""
    for sites in range(1, 41):
        f = fourier(sites)
        assert np.abs(f - np.fft.fft(np.eye(sites), axis=0, norm="ortho")).max() < 1e-14
        assert np.abs(f @ f.conj().T - np.eye(sites)).max() < 1e-14
        assert fourier(sites) is f and not f.flags.writeable
        with pytest.raises(ValueError):
            f[0, 0] = 0.0


def test_fidelity_never_exceeds_one():
    # |<a|c a>| / (||a|| ||c a||) is 1 up to round-off, which must not carry it
    # above 1 and make a 1 - fidelity residual negative
    rng = np.random.default_rng(7)
    for _ in range(4000):
        n = int(rng.integers(1, 50))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = complex(rng.standard_normal(), rng.standard_normal())
        fid = fidelity(a, c * a)
        assert 1.0 - 1e-14 < fid <= 1.0


@pytest.mark.parametrize("amplitude", [1e154, 2e154, 1e300])
def test_truncation_rule_rejects_every_finite_amplitude_too_large(amplitude):
    """Up to amplitude^2 near the largest float (1e154) and past it, where
    squaring overflows, the rule decides with a TruncationError and never
    raises OverflowError."""
    osc = OscillatorSpec(cutoff=12, omega=1.0)
    osc.check_amplitude(3.0 ** 0.5)   # amplitude^2 = cutoff/4 fits
    with pytest.raises(TruncationError, match="exceeds cutoff/4 = 3"):
        osc.check_amplitude(amplitude)


@pytest.mark.parametrize("kind,param,length,omega,field", [
    ("quadratic", 5e-324, 5.0, 2.5, "mass"),
    ("quadratic", 1.0, 1e-154, 2.5, "length"),
    ("tight_binding", 1.0, 5e-324, 2.5, "length"),
    ("tight_binding", 1.7e308, 5.0, 2.5, "hopping"),
    ("flat", 1e308, 5.0, 1e308, "omega"),
], ids=["tiny-mass", "tiny-length-quadratic", "tiny-length", "huge-hopping", "huge-omega"])
def test_model_whose_free_spectrum_overflows_is_rejected(kind, param, length, omega, field):
    """Finite inputs whose lattice momenta, free spectrum eps_k + omega n or
    its spread overflow: Model raises ValueError naming the field, without a
    RuntimeWarning (any warning fails a test)."""
    with pytest.raises(ValueError, match=f"{field} = "):
        Model(Lattice(sites=5, length=length), Dispersion(kind, param),
              OscillatorSpec(cutoff=12, omega=omega))
    Model(Lattice(sites=5, length=5.0), Dispersion(kind, DISPERSION_PARAMETERS[kind][1]),
          OscillatorSpec(cutoff=12, omega=2.5))


def test_stacked_fidelity_matches_per_sample_calls():
    """Over the state axes `axis`, the other axes broadcast: one fidelity per
    pair, equal to the per-pair call, clamped to 1 where pairs differ by a
    factor (a quarter of such unclamped ratios exceed 1 by round-off), and a
    zero state is an error."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 4, 3)) + 1j * rng.standard_normal((400, 4, 3))
    b = a + 0.1 * (rng.standard_normal((400, 4, 3)) + 1j * rng.standard_normal((400, 4, 3)))
    c = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    b[::2] = c[:, None, None] * a[::2]
    stacked = fidelity(a, b, axis=(-2, -1))
    assert stacked.shape == (400,)
    single = [fidelity(x, y) for x, y in zip(a, b)]
    assert np.abs(stacked - single).max() < 1e-15
    assert np.all(stacked <= 1.0) and np.all(stacked[::2] > 1.0 - 1e-14)
    assert fidelity(a, b[0], axis=(-2, -1)).shape == (400,)    # broadcasts
    assert all(isinstance(f, float) for f in single)    # all axes: one float
    b[4] = 0.0
    with pytest.raises(ValueError):
        fidelity(a, b, axis=(-2, -1))
    with pytest.raises(ValueError):
        fidelity(a[0], b[4])


def test_basis_state_examples():
    model = make_model(sites=5, cutoff=3)
    v = make_basis_state(model, 0, 0)
    assert v[0, 0] == 1.0 and np.linalg.norm(v) == 1.0
    assert np.count_nonzero(v) == 1

    w = make_basis_state(model, 2, 3)
    assert w[2, 3] == 1.0 and np.count_nonzero(w) == 1


def test_basis_state_orthonormality():
    model = make_model(sites=3, cutoff=2)
    states = [(k, n) for k in range(3) for n in range(3)]
    for k, n in states:
        for kp, np_ in states:
            ov = np.vdot(make_basis_state(model, k, n), make_basis_state(model, kp, np_))
            assert ov == (1.0 if (k, n) == (kp, np_) else 0.0)


def test_basis_state_range_errors():
    model = make_model(sites=5, cutoff=3)
    with pytest.raises(ValueError):
        make_basis_state(model, 5, 0)
    with pytest.raises(ValueError):
        make_basis_state(model, 0, 4)
    with pytest.raises(ValueError):
        make_basis_state(model, -1, 0)


def test_rho_shifts_momentum_label():
    model = make_model(sites=5, cutoff=3)
    for q in range(-5, 6):
        for k0 in range(5):
            got = shift_matrix(model.lattice, q) @ make_basis_state(model, k0, 2)
            want = make_basis_state(model, (k0 - q) % 5, 2)
            assert np.array_equal(got, want)


def test_rho_unitary_entrywise():
    model = make_model(sites=5)
    for q in range(5):
        r = kron(shift_matrix(model.lattice, q), np.eye(model.osc.levels))
        assert np.allclose(r.conj().T @ r, np.eye(model.dim), atol=1e-15)


def test_rho_dagger_is_rho_minus_q():
    lat = Lattice(sites=7, length=7.0)
    for q in range(7):
        assert np.array_equal(shift_matrix(lat, q).conj().T, shift_matrix(lat, -q))


@pytest.mark.parametrize("sites", [5, 6])
def test_rho_commutators_vanish(sites):
    lat = Lattice(sites=sites, length=float(sites))
    mats = [shift_matrix(lat, q) for q in range(sites)]
    worst = max(np.linalg.norm(a @ b - b @ a, 2) for a in mats for b in mats)
    assert worst < 1e-13


def test_ladder_operators():
    model = make_model(sites=3, cutoff=5)
    b = kron(np.eye(model.lattice.sites), oscillator_annihilation(model.osc))
    bd = b.conj().T
    M = model.osc.cutoff

    assert not np.any(b @ make_basis_state(model, 0, 0).reshape(-1))

    comm = b @ bd - bd @ b
    assert np.array_equal(comm, np.diag(np.diag(comm)))
    cdiag = np.diag(comm).reshape(model.shape)  # same on every momentum
    assert np.allclose(cdiag[:, :M], 1.0, atol=1e-14)

    num = bd @ b
    v = make_basis_state(model, 1, 2).reshape(-1)
    assert np.allclose(num @ v, 2.0 * v, atol=1e-14)

    # top of the ladder is annihilated by b^dag under truncation
    assert not np.any(bd @ make_basis_state(model, 0, M).reshape(-1))


def test_build_q_zero_and_single_mode():
    lat = Lattice(sites=5, length=5.0)
    assert not np.any(CoefficientSet(lat).particle_matrix())

    g = 0.37 - 0.2j
    single = CoefficientSet.single_mode(lat, 2, g).particle_matrix()
    assert np.allclose(single, g * shift_matrix(lat, 2), atol=1e-15)


def test_q_family_commutes():
    rng = np.random.default_rng(11)
    model = make_model(sites=5, cutoff=3)
    for _ in range(4):
        h1 = random_coefficients(model.lattice, rng)
        h2 = random_coefficients(model.lattice, rng)
        a = h1.particle_matrix()
        b = h2.particle_matrix()
        assert np.linalg.norm(a @ b - b @ a, 2) < 1e-13
        assert np.linalg.norm(a @ b.conj().T - b.conj().T @ a, 2) < 1e-13


def test_dispersion_values():
    lat = Lattice(sites=5, length=10.0)
    quad = Dispersion("quadratic", 2.0).energies(lat)
    assert np.allclose(quad, lat.momenta ** 2 / 4.0)

    tb = Dispersion("tight_binding", 1.5).energies(lat)
    assert np.allclose(tb, -1.5 * np.cos(2 * np.pi * lat.quanta / 5))
    assert np.all(np.isreal(tb))

    flat = Dispersion("flat", 0.7).energies(lat)
    assert np.all(flat == 0.7)


@pytest.mark.parametrize("kind", sorted(DISPERSION_PARAMETERS))
def test_dispersion_rejects_a_non_finite_parameter_by_its_name(kind):
    key = DISPERSION_PARAMETERS[kind][0]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            Dispersion(kind, bad)


def test_dispersion_rejects_a_non_positive_mass_and_an_unknown_kind():
    for mass in (0.0, -0.0, -1.0, -5e-324):
        with pytest.raises(ValueError, match="mass must be positive"):
            Dispersion("quadratic", mass)
    Dispersion("quadratic", 5e-324)
    for parameter in (0.0, -1.0):   # only the mass has a sign rule
        Dispersion("tight_binding", parameter)
        Dispersion("flat", parameter)
    with pytest.raises(ValueError, match="unknown dispersion kind 'cubic'"):
        Dispersion("cubic", 1.0)


def test_lattice_window_and_wrapping():
    lat = Lattice(sites=7, length=7.0)
    assert len(set(lat.quanta.tolist())) == 7
    # odd N: closed under negation exactly
    assert set((-lat.quanta).tolist()) == set(lat.quanta.tolist())
    assert lat.wrap_offset(9) == 2
    assert lat.wrap_offset(-4) == 3
    assert lat.index_of(0) == 3
    assert lat.shift_index(6, 2) == 1
    with pytest.raises(ValueError):
        lat.index_of(4)

    even = Lattice(sites=6, length=6.0)
    # even N: closed under negation modulo the reciprocal lattice
    recip = 2 * np.pi
    for k in even.momenta:
        assert any(abs((-k) - kp) % recip < 1e-12 or abs(abs((-k) - kp) % recip - recip) < 1e-12
                   for kp in even.momenta)


def test_coefficient_set_canonicalization():
    lat = Lattice(sites=5, length=5.0)
    h = CoefficientSet.from_dict(lat, {7: 1.0, 2: 0.5, -1: 2.0})
    assert h.items == ((-1, 2.0), (2, 1.5))  # 7 wraps onto 2 and merges
    assert np.array_equal(CoefficientSet.single_mode(lat, 7, 1.0).momenta,
                          [2 * np.pi * 2 / 5.0])
    assert dict(h.scaled(2.0).items) == {-1: 4.0, 2: 3.0}
    empty = CoefficientSet(lat)
    assert empty.offsets == () and empty.values.shape == empty.momenta.shape == (0,)
    single = CoefficientSet.single_mode(lat, 1, 0.3 + 0.4j)
    assert np.isclose(single.operator_amplitude(), 0.5)
