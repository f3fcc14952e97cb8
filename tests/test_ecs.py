"""Extended-coherent-state constructions and their algebraic properties."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gammainc

from conftest import (
    PINNED,
    kron,
    make_model,
    moment_loop_reference,
    random_coefficients,
    series_dense_reference,
    shift_matrix,
    unity_dense_reference,
)
from ecsim import ecs
from ecsim.ecs import (
    RADIAL_NODES,
    TruncationError,
    check_b_action,
    coherent_state_vector,
    coherent_truncation_tail,
    ecs_displacement,
    ecs_series,
    moment_identity_check,
    momentum_shift_check,
    overlap_single_mode,
    sum_rule,
    unity_resolution_check,
)
from ecsim.hilbert import (
    CoefficientSet,
    branches,
    displacement,
    fidelity,
    make_basis_state,
    oscillator_annihilation,
)


def single_mode(model, q0, g):
    return CoefficientSet.single_mode(model.lattice, q0, g)


def test_empty_coefficients_leave_basis_state():
    model = make_model(sites=5, cutoff=6)
    h = CoefficientSet(model.lattice)
    basis = make_basis_state(model, 2, 0)
    assert np.allclose(ecs_series(model, h, 2).state, basis, atol=1e-15)
    assert np.allclose(ecs_displacement(model, h, 2).state, basis, atol=1e-15)


def test_single_mode_populations_are_poisson():
    # brute-force oracle: the single-mode state assembled by explicit dense
    # matrix powers on the product space
    model = make_model(sites=5, cutoff=20)
    g = 0.3
    e = ecs_series(model, single_mode(model, 1, g), 3)

    dim = model.dim
    step = kron(shift_matrix(model.lattice, 1), oscillator_annihilation(model.osc).conj().T)
    psi = make_basis_state(model, 3, 0).reshape(-1)
    acc = np.zeros(dim, dtype=complex)
    term = psi.copy()
    acc += term
    for n in range(1, model.osc.cutoff + 1):
        term = g * (step @ term) / n
        acc += term
    brute = (np.exp(-0.5 * g ** 2) * acc).reshape(model.shape)
    assert np.allclose(e.state, brute, atol=1e-14)

    populations = np.sum(np.abs(e.state) ** 2, axis=0)
    n = np.arange(model.osc.levels)
    fact = np.cumprod(np.concatenate(([1.0], np.arange(1.0, model.osc.levels))))
    poisson = np.exp(-g ** 2) * g ** (2 * n) / fact
    assert np.allclose(populations, poisson, atol=1e-12)


small = st.floats(min_value=-0.5, max_value=0.5, allow_nan=False)
# values whose sum over three offsets keeps the coherent tail past cutoff 12
# below TRUNCATION_TOL
weak = st.builds(complex, st.floats(min_value=-0.2, max_value=0.2),
                 st.floats(min_value=-0.2, max_value=0.2))


@PINNED
@given(st.data())
def test_multi_offset_series_matches_dense_reference(data):
    """1-3 offsets drawn from [-N, N), so they wrap and merge: the series state
    equals the Kronecker-built series to round-off, and every amplitude off
    k0's momentum orbit (level n reaches k0 - n q_1 modulo the gcd of N and
    the offset differences) is exactly zero."""
    sites = data.draw(st.integers(min_value=2, max_value=8))
    model = make_model(sites=sites, cutoff=data.draw(st.integers(min_value=8, max_value=16)))
    pairs = data.draw(st.lists(st.tuples(st.integers(min_value=-sites, max_value=sites - 1),
                                         st.builds(complex, small, small)),
                               min_size=1, max_size=3))
    h = CoefficientSet(model.lattice, tuple(pairs))
    k0 = data.draw(st.integers(min_value=0, max_value=sites - 1))
    got = ecs._series_state(model, h.offsets, h.values, k0)
    assert np.abs(got - series_dense_reference(model, h, k0)).max() < 1e-14
    q = np.array(h.offsets)
    orbit = math.gcd(sites, *(int(d) for d in q - q[0]))
    k, n = np.indices(model.shape)
    assert np.all(got[(k - k0 + n * q[0]) % orbit != 0] == 0)


@PINNED
@given(st.data())
def test_stacked_series_matches_per_member_builds(data):
    """One `_series_state` call over a stack of coefficient values on 1-3
    shared offsets (drawn from [-N, N), so they wrap and merge), each member
    at its own k0, equals the one-member builds to 1e-15, and amplitudes off
    each member's momentum orbit are exactly zero; one coefficient set
    against an array of k0 broadcasts alike.  `ecs_series` on a list gives the
    same states as on each member."""
    sites = data.draw(st.integers(min_value=2, max_value=8))
    model = make_model(sites=sites, cutoff=data.draw(st.integers(min_value=12, max_value=16)))
    offsets = CoefficientSet(model.lattice, tuple(
        (q, 1.0) for q in data.draw(st.lists(st.integers(min_value=-sites, max_value=sites - 1),
                                             min_size=1, max_size=3)))).offsets
    members = data.draw(st.integers(min_value=1, max_value=4))
    row = st.lists(weak, min_size=len(offsets), max_size=len(offsets))
    values = np.array(data.draw(st.lists(row, min_size=members, max_size=members)))
    k0 = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=sites - 1),
                                     min_size=members, max_size=members)))
    orbit = math.gcd(sites, *(q - offsets[0] for q in offsets))
    k, n = np.indices(model.shape)
    for got, vals in ((ecs._series_state(model, offsets, values, k0), values),
                      (ecs._series_state(model, offsets, values[0], k0), values[[0] * members])):
        assert got.shape == (members,) + model.shape
        for m in range(members):
            one = ecs._series_state(model, offsets, vals[m], k0[m])
            assert np.abs(got[m] - one).max() <= 1e-15
            assert np.all(got[m][(k - k0[m] + n * offsets[0]) % orbit != 0] == 0)
    hs = [CoefficientSet(model.lattice, tuple(zip(offsets, v))) for v in values]
    for e, h, k0_m in zip(ecs_series(model, hs, k0), hs, k0):
        assert (e.h, e.k0) == (h, k0_m)
        assert np.abs(e.state - ecs_series(model, h, k0_m).state).max() <= 1e-15


def test_stacked_series_guards_every_member():
    """Each member of a stack passes its own truncation guard, and the
    members must share their offsets."""
    model = make_model(sites=5, cutoff=6)
    fits, strong = single_mode(model, 1, 0.2), single_mode(model, 1, 1.0)
    assert len(ecs_series(model, [fits, fits], [0, 1])) == 2
    with pytest.raises(TruncationError):
        ecs_series(model, [fits, strong], [0, 0])
    with pytest.raises(ValueError, match="share their offsets"):
        ecs_series(model, [fits, single_mode(model, 2, 0.2)], [0, 0])


def test_series_displacement_equivalence():
    model = make_model(sites=5, cutoff=20)
    h = single_mode(model, 1, 0.5)
    assert fidelity(ecs_series(model, h, 0).state,
                    ecs_displacement(model, h, 0).state) > 1 - 1e-10

    rng = np.random.default_rng(2)
    for _ in range(3):
        hm = random_coefficients(model.lattice, rng, modes=3, scale=0.15)
        f = fidelity(ecs_series(model, hm, 1).state,
                     ecs_displacement(model, hm, 1).state)
        assert f > 1 - 1e-8


def test_displacement_generator_antihermitian():
    model = make_model(sites=4, cutoff=6)
    qp = single_mode(model, 1, 0.4 + 0.1j).particle_matrix()
    b = oscillator_annihilation(model.osc)
    gen = kron(qp, b.conj().T) - kron(qp.conj().T, b)
    assert np.linalg.norm(gen + gen.conj().T, 2) == 0.0


def test_amplitude_guard_rejects_small_cutoff():
    model = make_model(sites=4, cutoff=2)
    with pytest.raises(TruncationError):
        ecs_series(model, single_mode(model, 1, 1.0), 0)
    with pytest.raises(TruncationError):
        ecs_displacement(model, single_mode(model, 1, 1.0), 0)


def test_constructed_state_off_unit_norm_is_rejected():
    """Every construction ends in `_finish`, which rejects a state whose norm
    is off 1 by more than 100 * TRUNCATION_TOL."""
    model = make_model(sites=5, cutoff=8)
    h = single_mode(model, 1, 0.3)
    state = ecs_series(model, h, 2).state
    assert ecs._finish(model, h, 2, (1.0 + 1e-9) * state).state.shape == model.shape
    with pytest.raises(TruncationError, match="norm"):
        ecs._finish(model, h, 2, (1.0 + 1e-7) * state)


def test_b_action():
    model = make_model(sites=5, cutoff=20)
    zero = ecs_series(model, CoefficientSet(model.lattice), 0)
    assert check_b_action(zero) == 0.0

    e = ecs_series(model, single_mode(model, 1, 0.4), 0)
    assert check_b_action(e) < 1e-8


def test_b_action_truncation_decay():
    # residual shrinks monotonically as the cutoff grows (checked at a
    # spacing where it stays above the floating-point floor); the states are
    # built without the tail guard on purpose to reach the strongly
    # truncated regime
    residuals = []
    for cutoff in (2, 6, 10, 14):
        model = make_model(sites=5, cutoff=cutoff)
        h = single_mode(model, 1, 0.4)
        e = ecs.EcsState(model, h, 0, ecs._series_state(model, h.offsets, h.values, 0))
        residuals.append(check_b_action(e))
    assert all(residuals[i + 1] < residuals[i] for i in range(len(residuals) - 1))
    assert residuals[0] > 1e-4  # the sweep probes a genuinely truncated regime


def test_overlap_identical_and_orthogonal():
    model = make_model(sites=5, cutoff=20)
    h = single_mode(model, 1, 0.3)
    e = ecs_series(model, h, 1)
    assert abs(np.vdot(e.state, e.state) - 1.0) < 1e-12

    e_other = ecs_series(model, h, 2)
    assert np.vdot(e.state, e_other.state) == 0.0  # disjoint momentum support per level


def test_overlap_against_closed_form():
    model = make_model(sites=5, cutoff=20)
    g, gp = 0.3, 0.0
    e1 = ecs_series(model, single_mode(model, 1, g), 0)
    e2 = ecs_series(model, single_mode(model, 1, gp), 0)
    assert abs(abs(np.vdot(e1.state, e2.state)) - np.exp(-0.045)) < 1e-10

    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(8):
        g = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
        gp = rng.uniform(0.1, 1.0) * np.exp(2j * np.pi * rng.uniform())
        e1 = ecs_series(model, single_mode(model, 2, g), 1)
        e2 = ecs_series(model, single_mode(model, 2, gp), 1)
        worst = max(worst, abs(np.vdot(e1.state, e2.state) - overlap_single_mode(g, gp, 1, 1)))
    assert worst < 1e-8


def test_overlap_single_mode_broadcasts():
    g = 0.8 * np.exp(0.7j * np.arange(4))
    gp = 0.5 * np.exp(-0.4j * np.arange(3))
    got = overlap_single_mode(g[:, None], gp, 2, 2)
    assert got.shape == (4, 3)
    for i, j in np.ndindex(got.shape):
        assert abs(got[i, j] - overlap_single_mode(g[i], gp[j], 2, 2)) <= 1e-15
    assert np.all(overlap_single_mode(g[:, None], gp, 2, 3) == 0.0)


def test_momentum_shift_relations():
    model = make_model(sites=7, cutoff=8)
    rng = np.random.default_rng(4)
    h = random_coefficients(model.lattice, rng, modes=2, scale=0.1)
    e = ecs_series(model, h, 5)
    assert max(momentum_shift_check(e, 0)) < 1e-15
    for q in (1, 3, -2, 6):
        shift, roundtrip = momentum_shift_check(e, q)
        assert shift < 1e-13
        assert roundtrip < 1e-13


@PINNED
@given(st.data())
def test_array_arguments_give_the_worst_scalar_call(data):
    """`momentum_shift_check` on an array of shifts returns the worst of the
    scalar calls, and `sum_rule` on an array of positions gives the scalar
    call's result per position, to 1e-15."""
    sites = data.draw(st.integers(min_value=2, max_value=8))
    model = make_model(sites=sites, cutoff=data.draw(st.integers(min_value=12, max_value=16)))
    pairs = data.draw(st.lists(st.tuples(st.integers(min_value=-sites, max_value=sites - 1), weak),
                               min_size=1, max_size=3))
    e = ecs_series(model, CoefficientSet(model.lattice, tuple(pairs)),
                   data.draw(st.integers(min_value=0, max_value=sites - 1)))
    shifts = data.draw(st.lists(st.integers(min_value=-sites, max_value=2 * sites),
                                min_size=1, max_size=4))
    worst = np.max([momentum_shift_check(e, q) for q in shifts], axis=0)
    assert np.abs(np.array(momentum_shift_check(e, shifts)) - worst).max() <= 1e-15
    positions = model.lattice.spacing * np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=3 * sites), min_size=1, max_size=10)))
    res = sum_rule(e, positions)
    for i, s in enumerate(positions):
        one = sum_rule(e, s)
        for got, want in zip(res, one):
            assert np.abs(got[i] - want).max() <= 1e-15


def test_momentum_shift_composition():
    model = make_model(sites=7, cutoff=8)
    h = single_mode(model, 2, 0.3)
    e = ecs_series(model, h, 4)
    s1 = shift_matrix(model.lattice, 1)
    s3 = shift_matrix(model.lattice, 3)
    composed = s1 @ (s3 @ e.state)
    direct = ecs_series(model, h, model.lattice.shift_index(4, -4)).state
    assert np.allclose(composed, direct, atol=1e-14)


def test_unity_resolution_single_mode():
    model = make_model(sites=3, cutoff=24)
    res = unity_resolution_check(model, single_mode(model, 1, 1.0))
    assert res.reliable_levels == tuple(range(25))
    assert res.deviation < 1e-6


@st.composite
def unity_cases(draw):
    """A lattice of odd or even size, a cutoff, and a random circulant Q over
    every offset; optionally one Fourier branch of Q is projected out, so Q
    has a vanishing branch."""
    sites = draw(st.integers(min_value=2, max_value=6))
    model = make_model(sites=sites, cutoff=draw(st.integers(min_value=4, max_value=10)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    vals = 0.3 * (rng.standard_normal(sites) + 1j * rng.standard_normal(sites))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=sites - 1))
        lam = branches(model.lattice, range(sites), vals)
        vals = vals - lam[j] * np.exp(-2j * np.pi * j * np.arange(sites) / sites) / sites
    return model, CoefficientSet(model.lattice, tuple(zip(range(sites), vals)))


@PINNED
@given(unity_cases())
def test_unity_resolution_matches_dense_reference(case):
    model, h = case
    res = unity_resolution_check(model, h)
    deviation, reliable = unity_dense_reference(model, h)
    assert res.reliable_levels == reliable
    assert abs(res.deviation - deviation) < 1e-12


@pytest.mark.parametrize("sites", [16, 2])
def test_unity_resolution_takes_one_block_norm(monkeypatch, sites):
    """Every live branch block is D_j B D_j^dag for one unit-phase block B, so
    the check takes one spectral norm, the largest |eigenvalue| of one 2-D
    (levels x levels) real symmetric matrix, whatever the number of sites."""
    model = make_model(sites=sites, cutoff=24)
    ecs._laguerre_nodes(RADIAL_NODES)   # cached: the Jacobi matrix's solve is not the block's
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw:
                        calls.append((np.shape(a), np.asarray(a).dtype)) or eigvalsh(a, *args, **kw))
    res = unity_resolution_check(model, single_mode(model, 1, 1.0))
    assert calls == [((25, 25), np.float64)]
    assert res.reliable_levels == tuple(range(25)) and res.deviation < 1e-12


def test_angular_sum_drops_only_round_off():
    """The unity and moment quadratures keep only the cosine sum of
    sum_a e^{i (n - m) theta_a}: on the uniform angles the sine sum it drops
    stays below 1e-12 for every order up to 25."""
    _, angles, _ = ecs._polar_nodes()
    got = ecs._angular_sum(angles, 26)
    assert got.dtype == np.float64
    n = np.arange(26)
    full = np.exp(1j * np.subtract.outer(n, n)[..., None] * angles).sum(axis=-1)
    assert np.abs(full.imag).max() < 1e-12
    assert np.abs(got - full.real).max() < 1e-12


def test_unity_resolution_with_a_vanishing_branch_deviates_by_one():
    """A Q with one Fourier branch projected out (as ``unity_cases`` builds it)
    leaves that branch's block zero: the deviation is exactly 1."""
    model = make_model(sites=5, cutoff=12)
    rng = np.random.default_rng(3)
    vals = 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    lam = branches(model.lattice, range(5), vals)
    vals = vals - lam[2] * np.exp(-2j * np.pi * 2 * np.arange(5) / 5) / 5
    h = CoefficientSet(model.lattice, tuple(zip(range(5), vals)))
    assert np.abs(branches(model.lattice, h.offsets, h.values)[2]) ** 2 <= 1e-14
    assert unity_resolution_check(model, h).deviation == 1.0


@pytest.mark.parametrize("coupling", ["single_mode", "random_circulant"])
def test_unity_resolution_at_the_properties_cutoff(coupling):
    """Cutoff 24 and the fixed radial nodes, as on the benchmark's
    `properties` model: every Fock level reliable and the deviation against
    the dense reference.  Random circulants, whose branches differ in |lam_j|,
    resolve unity to round-off: the radial nodes are scaled per branch."""
    model = make_model(sites=4, cutoff=24)
    if coupling == "single_mode":
        cases = [single_mode(model, 1, 1.0)]
    else:
        cases = []
        for seed in range(3):
            rng = np.random.default_rng(seed)
            vals = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            cases.append(CoefficientSet(model.lattice, tuple(zip(range(4), vals))))
    for h in cases:
        res = unity_resolution_check(model, h)
        deviation, reliable = unity_dense_reference(model, h)
        assert res.reliable_levels == reliable == tuple(range(25))
        assert abs(res.deviation - deviation) < 1e-12
        assert res.deviation < 1e-12


@PINNED
@given(st.integers(min_value=1, max_value=RADIAL_NODES))
def test_laguerre_nodes_match_laggauss(radial_nodes):
    """The Golub-Welsch nodes (one Jacobi `eigvalsh`, one Newton step) match
    `numpy.polynomial.laguerre.laggauss` to 1e-14 relative to the largest
    node, and their slopes L_n'(u) match `lagval` to 1e-13 per node; the
    weights 1/(u L_n'(u)^2) hold the Laguerre moments int e^{-u} u^k/k! = 1
    (k < 30 and k < 2n, where the rule is exact) to 1e-14.  At the suite's
    RADIAL_NODES: every node to 1e-14 relative, the moments to 5e-15."""
    lag = np.polynomial.laguerre
    u, slope = ecs._laguerre_nodes(radial_nodes)
    want = lag.laggauss(radial_nodes)[0]
    want_slope = lag.lagval(want, lag.lagder(np.eye(radial_nodes + 1)[-1]))
    assert np.abs(u - want).max() <= 1e-14 * want.max()
    assert np.abs(slope / want_slope - 1.0).max() <= 1e-13
    weights = 1.0 / (u * slope ** 2)
    moments = [weights @ u ** k / math.factorial(k) for k in range(min(2 * radial_nodes, 30))]
    assert np.abs(np.array(moments) - 1.0).max() <= 1e-14
    if radial_nodes == RADIAL_NODES:
        assert np.abs(u / want - 1.0).max() <= 1e-14
        assert np.abs(np.array(moments) - 1.0).max() <= 5e-15


def test_laguerre_nodes_computed_once_per_node_count(monkeypatch):
    """The Jacobi matrix's `eigvalsh` runs once for any number of quadratures,
    and its cached nodes are read-only."""
    model = make_model(sites=4, cutoff=8)
    h = single_mode(model, 1, 1.0)
    ecs._laguerre_nodes.cache_clear()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kw: calls.append(np.shape(a)) or eigvalsh(a, *args, **kw))
    unity_resolution_check(model, h)
    unity_resolution_check(model, h)
    moment_identity_check()
    # one Jacobi solve for all three, after the cache_clear (each unity check
    # also solves its own (levels x levels) block)
    assert [s for s in calls if s == (RADIAL_NODES, RADIAL_NODES)] == [(RADIAL_NODES, RADIAL_NODES)]
    assert not any(a.flags.writeable for a in ecs._laguerre_nodes(RADIAL_NODES))


def test_no_eigensolver_on_a_circulant(monkeypatch):
    """displacement diagonalises only the constant b + b^dag; the series
    construction diagonalises nothing, and the unity quadrature takes only
    the eigenvalues of its one (levels x levels) block (``eigvalsh``)."""
    model = make_model(sites=6, cutoff=12)
    h = CoefficientSet.from_dict(model.lattice, {1: 0.3, -2: 0.2j, 3: 0.1})
    lam = branches(model.lattice, h.offsets, h.values)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh",
                        lambda a, *args, **kw: calls.append(np.shape(a)) or eigh(a, *args, **kw))
    displacement(model, lam, lam.real, np.ones((3,) + model.shape, dtype=complex))
    ecs_series(model, h, 2)
    unity_resolution_check(model, h)
    assert calls == [(model.osc.levels, model.osc.levels)]


def test_truncation_tail_matches_regularised_gamma():
    worst = 0.0
    for a in np.concatenate(([0.0, 1e-6, 1e-3, 0.1], np.linspace(0.5, 30.0, 60))):
        for cutoff in range(1, 61):
            tail, want = coherent_truncation_tail(a, cutoff), gammainc(cutoff + 1, a)
            if want > 1e-300:
                worst = max(worst, abs(tail - want) / want)
            else:
                assert tail <= 1e-300
    assert worst < 1e-12


def test_unity_resolution_rejects_vanishing_q():
    model = make_model(sites=3, cutoff=8)
    with pytest.raises(ValueError):
        unity_resolution_check(model, CoefficientSet(model.lattice))


def test_moment_identity():
    res = moment_identity_check()
    assert res.max_diagonal_error < 1e-8
    assert res.max_offdiagonal < 1e-10


def test_moment_identity_matches_loop_reference():
    want = moment_loop_reference()
    got = moment_identity_check().values
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_sum_rule_trivial_and_single_mode():
    model = make_model(sites=5, cutoff=10)
    zero = ecs_series(model, CoefficientSet(model.lattice), 3)
    res = sum_rule(zero, 2.0)
    k0_val = model.lattice.momenta[3]
    want = np.exp(2j * k0_val) * coherent_state_vector(0.0, model.osc.levels)
    assert np.allclose(res.contracted, want, atol=1e-14)

    g = 0.35 - 0.1j
    for q0 in (1, 2, -2):
        e = ecs_series(model, single_mode(model, q0, g), 0)
        assert abs(sum_rule(e, 0.0).alpha - g) < 1e-14


def test_sum_rule_matches_coherent_state():
    model = make_model(sites=7, cutoff=20)
    h = single_mode(model, 1, 0.5)
    e = ecs_series(model, h, 3)
    rng = np.random.default_rng(9)
    for m in rng.integers(0, 21, size=10):
        s = float(m) * model.lattice.spacing
        res = sum_rule(e, s)
        assert res.fidelity > 1 - 1e-8
        # component-wise agreement away from the truncation edge
        levels = model.osc.cutoff - 1
        assert np.allclose(res.contracted[:levels], res.analytic[:levels], atol=1e-10)


def test_ecs_norm_invariant():
    model = make_model(sites=5, cutoff=20)
    rng = np.random.default_rng(12)
    for _ in range(5):
        h = random_coefficients(model.lattice, rng, modes=2, scale=0.2)
        for builder in (ecs_series, ecs_displacement):
            assert abs(np.linalg.norm(builder(model, h, 0).state) - 1.0) < 1e-8
