"""Lattice, dispersion and elementary operator checks."""

import numpy as np
import pytest

from conftest import make_model, random_coefficients
from ecsim.hilbert import (
    CoefficientSet,
    Dispersion,
    Lattice,
    ProductOperator,
    build_Q,
    fidelity,
    ladder_b,
    ladder_b_dag,
    make_basis_state,
    rho,
    shift_matrix,
)


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


def test_rho_zero_is_identity():
    model = make_model(sites=5)
    p, o = rho(model, 0).terms[0]
    assert np.array_equal(p, np.eye(5))
    assert np.array_equal(o, np.eye(model.osc.levels))


def test_rho_shifts_momentum_label():
    model = make_model(sites=5, cutoff=3)
    for q in range(-5, 6):
        for k0 in range(5):
            got = rho(model, q).apply(make_basis_state(model, k0, 2))
            want = make_basis_state(model, (k0 - q) % 5, 2)
            assert np.array_equal(got, want)


def test_rho_unitary_entrywise():
    model = make_model(sites=5)
    for q in range(5):
        r = rho(model, q).dense()
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
    b = ladder_b(model).dense()
    bd = ladder_b_dag(model).dense()
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
    model = make_model(sites=5, cutoff=4)
    zero = build_Q(model, CoefficientSet.zero(model.lattice))
    assert not np.any(zero.dense())

    g = 0.37 - 0.2j
    single = build_Q(model, CoefficientSet.single_mode(model.lattice, 2, g))
    assert np.allclose(single.dense(), g * rho(model, 2).dense(), atol=1e-15)


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


def test_product_operator_apply_matches_dense():
    rng = np.random.default_rng(5)
    model = make_model(sites=4, cutoff=3)
    N, L = model.shape
    terms = tuple((rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)),
                   rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L)))
                  for _ in range(3))
    op = ProductOperator(terms)
    state = rng.standard_normal(model.shape) + 1j * rng.standard_normal(model.shape)
    direct = op.apply(state).reshape(-1)
    dense = op.dense() @ state.reshape(-1)
    assert np.allclose(direct, dense, atol=1e-13)


def test_dispersion_values():
    lat = Lattice(sites=5, length=10.0)
    quad = Dispersion.quadratic(mass=2.0).energies(lat)
    assert np.allclose(quad, lat.momenta ** 2 / 4.0)

    tb = Dispersion.tight_binding(hopping=1.5).energies(lat)
    assert np.allclose(tb, -1.5 * np.cos(2 * np.pi * lat.quanta / 5))
    assert np.all(np.isreal(tb))

    flat = Dispersion.flat(0.7).energies(lat)
    assert np.all(flat == 0.7)

    with pytest.raises(ValueError):
        Dispersion(kind="cubic")


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
    assert h.get(2) == 1.5  # 7 wraps onto 2 and merges
    assert h.get(-1) == 2.0
    assert h.get(0) == 0.0
    assert np.isclose(h.scaled(2.0).get(-1), 4.0)
    single = CoefficientSet.single_mode(lat, 1, 0.3 + 0.4j)
    assert np.isclose(single.operator_amplitude(), 0.5)
    assert np.isclose(single.l2_amplitude, 0.5)
