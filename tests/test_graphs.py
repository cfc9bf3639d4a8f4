import numpy as np
import pytest

from oracles import factor_prefix, inner_product, levels_nonzero
from wfock.graphs import (
    CorrElement,
    GraphCorrespondence,
    embed_prefix,
    embed_suffix,
    insertion_matrix,
    left_action,
    path_basis,
    tensor_pair,
)

FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)
LINE2 = GraphCorrespondence(2, ((0, 1),))  # one edge 0 -> 1, acyclic


def test_free_graph_path_counts():
    # d loops on one vertex: all words, d^k of them
    assert path_basis(FREE2, 3).size == 8
    assert path_basis(FREE2, 0).size == 1


def test_acyclic_truncates():
    assert path_basis(LINE2, 1).size == 1
    assert path_basis(LINE2, 2).size == 0
    assert levels_nonzero(LINE2, 5) == [0, 1]


def test_two_cycle_walk_counts():
    # oracle: number of length-k walks = sum of entries of A^k restricted to
    # composability; the adjacency matrix of the 2-cycle has A^k = I or swap
    adj = np.zeros((2, 2))
    for s, r in CYCLE2.edges:
        adj[r, s] += 1
    for k in range(1, 5):
        expected = int(np.linalg.matrix_power(adj, k).sum())
        assert path_basis(CYCLE2, k).size == expected
    assert path_basis(CYCLE2, 2).size == 2


def test_path_composability_and_ordering():
    basis = path_basis(CYCLE2, 3)
    for p, src, rng in zip(basis.paths, basis.sources, basis.ranges):
        for a, b in zip(p, p[1:]):
            assert CYCLE2.source(a) == CYCLE2.range_(b)
        assert src == CYCLE2.source(p[-1])
        assert rng == CYCLE2.range_(p[0])
    assert list(basis.paths) == sorted(basis.paths)


def test_inner_product_orthonormality():
    basis = path_basis(FREE2, 2)
    for i in range(basis.size):
        xi = CorrElement.basis_vector(FREE2, 2, i)
        for j in range(basis.size):
            eta = CorrElement.basis_vector(FREE2, 2, j)
            ip = inner_product(FREE2, xi, eta)
            if i == j:
                expected = np.zeros(1, dtype=complex)
                expected[basis.sources[i]] = 1.0
                assert np.allclose(ip, expected)
            else:
                assert np.allclose(ip, 0)


def test_inner_product_sesquilinear():
    xi = CorrElement.basis_vector(CYCLE2, 1, 0)
    a, b = 2 - 1j, 0.5 + 3j
    lhs = inner_product(CYCLE2, CorrElement(1, a * xi.coeffs), CorrElement(1, b * xi.coeffs))
    assert np.allclose(lhs.sum(), np.conj(a) * b)


def test_inner_product_level_mismatch():
    with pytest.raises(ValueError):
        inner_product(CYCLE2, CorrElement.basis_vector(CYCLE2, 1, 0),
                      CorrElement.basis_vector(CYCLE2, 0, 0))


def test_parseval():
    rng = np.random.default_rng(7)
    basis = path_basis(FREE2, 3)
    eta = CorrElement(3, rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size))
    acc = np.zeros(1, dtype=complex)
    for i in range(basis.size):
        xi = CorrElement.basis_vector(FREE2, 3, i)
        acc += inner_product(FREE2, eta, xi) * inner_product(FREE2, xi, eta)
    assert np.allclose(acc, inner_product(FREE2, eta, eta), atol=1e-12)


def test_left_action_unital_and_homomorphism():
    for g in (FREE2, CYCLE2):
        k = 2
        ones = np.ones(g.n_vertices)
        assert np.allclose(left_action(g, ones, k), np.eye(path_basis(g, k).size))
        a = np.array([2.0, 3.0])[: g.n_vertices]
        b = np.array([-1.0, 0.5])[: g.n_vertices]
        assert np.allclose(left_action(g, a * b, k), left_action(g, a, k) @ left_action(g, b, k))
        assert np.allclose(left_action(g, np.conj(a), k), left_action(g, a, k).conj().T)


def test_left_action_two_cycle_example():
    # a = (2, 3): edge 0->1 has range 1, edge 1->0 has range 0
    mat = left_action(CYCLE2, np.array([2.0, 3.0]), 1)
    assert np.allclose(np.diag(mat), [3.0, 2.0])


def test_insertion_adjoint_identity():
    # T_xi^{(j)*} T_xi^{(j)} = phi_j <xi, xi>
    rng = np.random.default_rng(3)
    for g in (FREE2, CYCLE2):
        for k, j in [(1, 1), (1, 2), (2, 1)]:
            d = path_basis(g, k).size
            xi = CorrElement(k, rng.standard_normal(d) + 1j * rng.standard_normal(d))
            t = insertion_matrix(g, xi, j)
            assert np.allclose(t.conj().T @ t, left_action(g, inner_product(g, xi, xi), j),
                               atol=1e-12)


def test_insertion_norm_bound():
    rng = np.random.default_rng(5)
    d = path_basis(FREE2, 2).size
    xi = CorrElement(2, rng.standard_normal(d))
    t = insertion_matrix(FREE2, xi, 2)
    assert np.linalg.norm(t, 2) <= xi.norm() + 1e-12


def test_insertion_incomposable_gives_zero_shape():
    xi = CorrElement.basis_vector(LINE2, 1, 0)
    t = insertion_matrix(LINE2, xi, 1)
    assert t.shape == (0, 1)


def test_rank_one_sum_is_identity():
    # sum over basis paths of theta_xi = I (via L_xi L_eta^* = theta entries)
    g = CYCLE2
    k = 2
    basis = path_basis(g, k)
    acc = np.zeros((basis.size, basis.size), dtype=complex)
    for i in range(basis.size):
        v = np.zeros(basis.size)
        v[i] = 1.0
        acc += np.outer(v, v)
    assert np.allclose(acc, np.eye(basis.size))


def test_embed_prefix_suffix_agree_with_tensor():
    rng = np.random.default_rng(11)
    g = CYCLE2
    a, b = 1, 2
    da, db = path_basis(g, a).size, path_basis(g, b).size

    def module_map(level, dim):
        basis = path_basis(g, level)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for i in range(dim):
            for j in range(dim):
                if basis.sources[i] != basis.sources[j] or basis.ranges[i] != basis.ranges[j]:
                    m[i, j] = 0.0
        return m

    ma, mb = module_map(a, da), module_map(b, db)
    full = tensor_pair(g, ma, a, mb, b)
    # prefix and suffix embeddings commute
    assert np.allclose(full, embed_suffix(g, mb, b, a + b) @ embed_prefix(g, ma, a, a + b))


def test_embed_suffix_level_zero_is_source_diagonal():
    g = CYCLE2
    d0 = np.diag([2.0, 5.0])
    out = embed_suffix(g, d0, 0, 1)
    basis = path_basis(g, 1)
    for i in range(basis.size):
        assert out[i, i] == d0[basis.sources[i], basis.sources[i]]


def test_prefix_factorization_partition():
    # every level-(l+j) basis path factors through its level-j prefix, and the
    # prefix fibers partition the basis
    g = GraphCorrespondence(2, ((0, 1), (1, 0), (0, 0)))
    for l, j in [(1, 1), (2, 1), (1, 2)]:
        total = path_basis(g, l + j)
        pre = path_basis(g, j)
        fibers = {p: set() for p in range(pre.size)}
        for w, wpath in enumerate(total.paths):
            fibers[pre.index_map()[wpath[:j]]].add(wpath)
        assert sum(len(v) for v in fibers.values()) == total.size
        union = set().union(*fibers.values()) if fibers else set()
        assert union == set(total.paths)
    # reconstruction: xi = sum over prefixes of prefix (x) suffix
    rng = np.random.default_rng(4)
    total = path_basis(g, 3)
    xi = CorrElement(3, rng.standard_normal(total.size) + 1j * rng.standard_normal(total.size))
    rebuilt = np.zeros(total.size, dtype=complex)
    for pidx, suffix in factor_prefix(g, xi, 2):
        pre_el = CorrElement.basis_vector(g, 2, pidx)
        mat = insertion_matrix(g, pre_el, 1)
        rebuilt += mat @ suffix.coeffs
    assert np.allclose(rebuilt, xi.coeffs, atol=1e-12)
