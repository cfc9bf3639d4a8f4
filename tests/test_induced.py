import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wfock.induced

from oracles import contains, gamma_conjugation_residual, gamma_decomposition, project
from wfock.fock import FockOperator, TruncatedFock, creation, phi_inf, weighted_creation
from wfock.graphs import CorrElement, GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.linalg import operator_norm, residual, rng_complex
from wfock.weights import AdmissibleSequence, weight_system_from

CYCLE2 = GraphCorrespondence.cycle(2)
FREE2 = GraphCorrespondence.free(2)


def test_representation_basics():
    rep = Representation((2, 3))
    assert rep.h_dim == 5
    a = np.array([2.0, -1.0])
    sig = rep.sigma(a)
    assert np.allclose(np.diag(sig), [2, 2, -1, -1, -1])
    with pytest.raises(ValueError):
        Representation((1, 0))


def test_commutant_algebra():
    rep = Representation((2, 1))
    units = rep.commutant_units()
    assert len(units) == 5
    for u in units:
        assert contains(rep, u)
        assert np.allclose(u @ rep.sigma([1.0, 2.0]), rep.sigma([1.0, 2.0]) @ u)
    assert not contains(rep, np.ones((3, 3)))


def test_induced_dims():
    rep = Representation((2, 1))
    ind = InducedSpace(CYCLE2, rep, 3)
    # level k paths alternate; block size = multiplicity at the path source
    for k in range(4):
        basis = path_basis(CYCLE2, k)
        assert ind.level_dim(k) == sum(rep.multiplicities[s] for s in basis.sources)


def test_fock_tensor_identity_multiplicative():
    rng = np.random.default_rng(0)
    rep = Representation((2, 1))
    ind = InducedSpace(CYCLE2, rep, 3)
    space = TruncatedFock(CYCLE2, 3)
    a = rng.standard_normal(2)
    t = creation(space, CorrElement.basis_vector(CYCLE2, 1, 0))
    p = phi_inf(space, a)
    tp = FockOperator(space, {(i, j): blk @ p.blocks[j, j] for (i, j), blk in t.blocks.items()})
    lhs = ind.fock_tensor_identity(tp)
    rhs = ind.fock_tensor_identity(t) @ ind.fock_tensor_identity(p)
    assert residual(lhs, rhs) < 1e-12


def test_dual_left_commutes_with_primal():
    rep = Representation((2, 2))
    ind = InducedSpace(CYCLE2, rep, 3)
    space = TruncatedFock(CYCLE2, 3)
    rng = np.random.default_rng(1)
    a_mat = project(rep, rng_complex(rng, 4, 4))
    da = ind.dual_left(a_mat)
    for e in range(CYCLE2.n_edges):
        t = ind.fock_tensor_identity(creation(space, CorrElement.basis_vector(CYCLE2, 1, e)))
        assert residual(da @ t, t @ da) < 1e-12


def test_simple_tensor_balancing():
    # xi . a (x) h = xi (x) sigma(a) h
    rep = Representation((2, 1))
    ind = InducedSpace(CYCLE2, rep, 2)
    rng = np.random.default_rng(2)
    basis = path_basis(CYCLE2, 2)
    xi = CorrElement(2, rng_complex(rng, basis.size))
    h = rng_complex(rng, rep.h_dim)
    a = np.array([0.5, -2.0])
    xa = CorrElement(2, xi.coeffs * a[list(basis.sources)])
    assert np.allclose(ind.insertion_map(xa) @ h, ind.insertion_map(xi) @ (rep.sigma(a) @ h))


def test_gamma_identity_unitary():
    rep = Representation((1, 2))
    u, blocks = gamma_decomposition(CYCLE2, rep, 2)
    assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]))
    assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]))
    assert len(blocks) == path_basis(CYCLE2, 2).size


def test_gamma_conjugation_formula():
    rng = np.random.default_rng(3)
    for graph, mults in [(CYCLE2, (2, 1)), (FREE2, (3,))]:
        rep = Representation(mults)
        k = 2
        basis = path_basis(graph, k)
        y = rng_complex(rng, basis.size, basis.size)
        for i in range(basis.size):
            for j in range(basis.size):
                if basis.sources[i] != basis.sources[j]:
                    y[i, j] = 0.0
        assert gamma_conjugation_residual(graph, rep, y, k) < 1e-12
        # Y = I: block-diagonal projections
        assert gamma_conjugation_residual(graph, rep, np.eye(basis.size), k) < 1e-14


def test_gamma_single_loop_trivial():
    rep = Representation((1,))
    u, blocks = gamma_decomposition(GraphCorrespondence.free(1), rep, 3)
    assert u.shape == (1, 1)


def test_vacuum_and_basis_inserters():
    rep = Representation((2, 1))
    ind = InducedSpace(CYCLE2, rep, 2)
    vac = ind.insertion_map(CorrElement(0, np.ones(2)))
    assert np.allclose(vac.conj().T @ vac, np.eye(rep.h_dim))
    ins = ind.insertion_map(CorrElement.basis_vector(CYCLE2, 1, 0))
    # edge 0 runs 0 -> 1, so the inserter ranges over the source block (vertex 0)
    assert np.allclose(ins.conj().T @ ins, rep.sigma([1.0, 0.0]))


def test_cached_offsets_keep_equality_and_hash():
    a, b = Representation((2, 1)), Representation((2, 1))
    assert a.offsets == (0, 2, 3)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a.block(1) == slice(2, 3)


def _old_module_map_rule(ind, y, k_out, k_in) -> bool:
    """The cross-source test with the scale max(1, ||Y||) taken before the scan."""
    rows, cols = path_basis(ind.graph, k_out), path_basis(ind.graph, k_in)
    scale = max(1.0, operator_norm(y))
    return any(rows.sources[p] != cols.sources[q] and abs(y[p, q]) > 1e-12 * scale
               for p in range(rows.size) for q in range(cols.size) if abs(y[p, q]) != 0.0)


def test_cross_source_masks_are_cached_per_level_pair():
    ind = InducedSpace(CYCLE2, Representation((2, 1)), 3)
    for k_out in range(4):
        for k_in in range(4):
            mask = ind._cross_sources(k_out, k_in)
            assert mask is ind._cross_sources(k_out, k_in)
            assert np.array_equal(mask, np.not_equal.outer(path_basis(CYCLE2, k_out).sources,
                                                           path_basis(CYCLE2, k_in).sources))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([GraphCorrespondence.cycle(2), GraphCorrespondence.cycle(3)]),
       st.integers(1, 4), st.data())
def test_module_map_check_matches_the_eager_scale_rule(graph, n, data):
    mults = tuple(data.draw(st.integers(1, 2), label="m") for _ in range(graph.n_vertices))
    ind = InducedSpace(graph, Representation(mults), n)
    k_out = data.draw(st.integers(0, n), label="k_out")
    k_in = data.draw(st.integers(0, n), label="k_in")
    rows, cols = path_basis(graph, k_out), path_basis(graph, k_in)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), label="scale")
    same = np.equal.outer(rows.sources, cols.sources)
    y = scale * rng_complex(rng, rows.size, cols.size) * same
    cross = np.argwhere(~same)
    p, q = cross[data.draw(st.integers(0, len(cross) - 1), label="entry")]
    factor = data.draw(st.floats(0.5, 2.0), label="factor")
    y[p, q] = factor * 1e-12 * max(1.0, operator_norm(y)) * np.exp(1j * rng.uniform(0, 6.3))
    expected = _old_module_map_rule(ind, y, k_out, k_in)
    if factor < 0.99 or factor > 1.01:
        assert expected == (factor > 1.0)
    if expected:
        with pytest.raises(ValueError, match="not a module map"):
            ind.level_tensor_identity(y, k_out, k_in)
    else:
        out = ind.level_tensor_identity(y, k_out, k_in)
        assert out.shape == (ind.level_dim(k_out), ind.level_dim(k_in))


def test_module_map_check_rejects_non_finite_entries():
    ind = InducedSpace(CYCLE2, Representation((1, 1)), 2)
    for bad in (np.nan, np.inf):
        y = np.eye(2, dtype=complex)
        y[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ind.level_tensor_identity(y, 1)


def test_graded_assembly_runs_no_svd(monkeypatch):
    n = 4
    space = TruncatedFock(FREE2, n)
    ws = weight_system_from(AdmissibleSequence.from_scalar(FREE2, [0.5, 1 / 12], levels=n))
    ind = InducedSpace(FREE2, Representation((2,)), n)
    xi = CorrElement(2, rng_complex(np.random.default_rng(4), path_basis(FREE2, 2).size))
    calls = []

    def counting(a):
        calls.append(a.shape)
        return operator_norm(a)

    monkeypatch.setattr(wfock.induced, "operator_norm", counting)
    big = ind.fock_tensor_identity(weighted_creation(space, ws, xi))
    assert calls == []
    assert big.shape == (ind.dim, ind.dim) and big.any()
