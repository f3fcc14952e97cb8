"""Randomised reference checks of the circulant builder and the coupling type."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_model
from ecsim.dynamics import CouplingSet, ModulatorStrategy, hamiltonian_full, split_hamiltonian
from ecsim.hilbert import CoefficientSet, Lattice, circulant, shift_matrix

PINNED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
values = st.builds(complex, finite, finite)


def loop_reference(lattice, offsets, vals):
    """The explicit sum_q v_q shift(q), one matrix at a time."""
    mat = np.zeros((lattice.sites, lattice.sites), dtype=complex)
    for q, v in zip(offsets, vals):
        mat += v * shift_matrix(lattice, q)
    return mat


@st.composite
def lattice_terms(draw, max_terms=6):
    """A lattice of odd or even size and raw (possibly repeated, possibly
    out-of-window) offsets with values."""
    sites = draw(st.integers(min_value=1, max_value=9))
    lat = Lattice(sites=sites, length=float(sites))
    offsets = draw(st.lists(st.integers(min_value=-3 * sites, max_value=3 * sites),
                            max_size=max_terms))
    vals = draw(st.lists(values, min_size=len(offsets), max_size=len(offsets)))
    return lat, offsets, vals


@PINNED
@given(lattice_terms())
def test_circulant_matches_shift_loop(case):
    lat, offsets, vals = case
    assert np.array_equal(circulant(lat, offsets, vals), loop_reference(lat, offsets, vals))
    # canonicalisation merges offsets equal modulo the lattice into one term
    h = CoefficientSet(lat, tuple(zip(offsets, vals)))
    assert len(set(h.offsets)) == len(h.offsets)
    assert all(h.lattice.wrap_offset(q) == q for q in h.offsets)
    assert np.array_equal(h.particle_matrix(), loop_reference(lat, offsets, vals))


@PINNED
@given(lattice_terms(), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_circulant_batched_leading_axes(case, rows, cols, seed):
    lat, offsets, _ = case
    rng = np.random.default_rng(seed)
    batch = (rng.standard_normal((rows, cols, len(offsets)))
             + 1j * rng.standard_normal((rows, cols, len(offsets))))
    got = circulant(lat, offsets, batch)
    assert got.shape == (rows, cols, lat.sites, lat.sites)
    for i in range(rows):
        for j in range(cols):
            assert np.array_equal(got[i, j], loop_reference(lat, offsets, batch[i, j]))


@st.composite
def coupled_models(draw):
    sites = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["tight_binding", "quadratic", "flat"]))
    model = make_model(sites=sites, cutoff=draw(st.integers(min_value=1, max_value=4)),
                       omega=draw(st.floats(min_value=0.3, max_value=3.0)), kind=kind)
    lat = model.lattice
    pairs = draw(st.lists(st.tuples(st.integers(min_value=0, max_value=sites - 1), values),
                          min_size=1, max_size=3))
    g: dict[int, complex] = {}
    for q, v in pairs:
        q, qm = lat.wrap_offset(q), lat.wrap_offset(-q)
        if q == qm:
            g[q] = g.get(q, 0.0) + v.real
        else:
            g[q] = g.get(q, 0.0) + v
            g[qm] = g.get(qm, 0.0) + v.conjugate()
    return model, CouplingSet.from_dict(lat, g)


@PINNED
@given(coupled_models(), st.floats(min_value=-4.0, max_value=4.0),
       st.sampled_from(["static_unit", "recoil_phase"]))
def test_split_sums_to_full_hamiltonian(mc, t, kind):
    model, couplings = mc
    k0 = model.lattice.sites // 2
    h0, h1 = split_hamiltonian(model, couplings, ModulatorStrategy(kind=kind), t, k0)
    full = hamiltonian_full(model, couplings, t, "interaction").dense()
    assert np.abs(h0.dense() + h1.dense() - full).max() < 1e-13 * max(1.0, np.abs(full).max())


@PINNED
@given(coupled_models(), st.floats(min_value=0.1, max_value=3.0), st.booleans())
def test_scaled_coupling_keeps_type_and_flag(mc, factor, hermitian):
    model, couplings = mc
    c = CouplingSet(model.lattice, couplings.items, hermitian=hermitian)
    s = c.scaled(factor)
    assert type(s) is CouplingSet and s.hermitian is hermitian
    assert s.items == tuple((q, factor * v) for q, v in c.items)
    assert type(CoefficientSet(model.lattice, c.items).scaled(factor)) is CoefficientSet
