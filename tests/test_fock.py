import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from graph_strategies import small_graphs
from oracles import inner_product, weight_diagonal
from wfock.acceptance import _random_graph_x
from wfock.fock import (
    FockOperator,
    TruncatedFock,
    creation,
    handysums_check,
    phi_inf,
    sums_to_projection_check,
    tensor_element,
    weighted_creation,
)
from wfock.graphs import CorrElement, GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.linalg import operator_norm, residual, rng_complex
from wfock.weights import AdmissibleSequence, admissible_from_kernel_coeffs, weight_system_from

FREE1 = GraphCorrespondence.free(1)
FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)


def dirichlet_ws(graph, n):
    xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(n + 1)])
    assert ok
    return weight_system_from(AdmissibleSequence.from_scalar(graph, xs, levels=n))


def szego_ws(graph, n):
    return weight_system_from(AdmissibleSequence.from_scalar(graph, [1.0], levels=n))


def test_single_loop_creation_is_shift():
    space = TruncatedFock(FREE1, 4)
    t = creation(space, CorrElement.basis_vector(FREE1, 1, 0))
    expected = np.diag(np.ones(4), -1)
    assert np.allclose(t.matrix, expected)


def test_creation_level_zero_is_left_action():
    space = TruncatedFock(CYCLE2, 3)
    a = np.array([2.0, -1.0])
    assert np.allclose(creation(space, CorrElement(0, a)).matrix, phi_inf(space, a).matrix)


def test_creation_adjoint_product():
    rng = np.random.default_rng(0)
    space = TruncatedFock(FREE2, 4)
    d = path_basis(FREE2, 2).size
    xi = CorrElement(2, rng_complex(rng, d))
    t = creation(space, xi)
    lhs = t.matrix.conj().T @ t.matrix
    rhs = phi_inf(space, inner_product(FREE2, xi, xi)).matrix
    # the product only matches below the truncation shadow
    top = space.level_slice(3).start
    assert residual(lhs[:top, :top], rhs[:top, :top]) < 1e-12


def test_weight_diagonal_values():
    ws = dirichlet_ws(FREE1, 2)
    space = TruncatedFock(FREE1, 2)
    d1 = weight_diagonal(space, ws, 1)
    assert np.isclose(d1.matrix[0, 0], 0.0)
    assert np.isclose(d1.matrix[1, 1], np.sqrt(2))
    assert np.isclose(d1.matrix[2, 2], np.sqrt(3) / np.sqrt(2))
    d0 = weight_diagonal(space, ws, 0)
    assert np.allclose(d0.matrix, np.eye(space.dim))


def test_unweighted_creation_equals_plain():
    ws = szego_ws(FREE2, 3)
    space = TruncatedFock(FREE2, 3)
    xi = CorrElement.basis_vector(FREE2, 1, 1)
    assert np.allclose(weighted_creation(space, ws, xi).matrix, creation(space, xi).matrix)
    dk = weight_diagonal(space, ws, 2)
    proj = np.zeros((space.dim, space.dim))
    for k in (2, 3):
        sl = space.level_slice(k)
        proj[sl, sl] = np.eye(sl.stop - sl.start)
    assert np.allclose(dk.matrix, proj)


def test_weighted_creation_multiplicative():
    rng = np.random.default_rng(1)
    for graph in (FREE2, CYCLE2):
        ws = dirichlet_ws(graph, 4)
        space = TruncatedFock(graph, 4)
        d1, d2 = path_basis(graph, 1).size, path_basis(graph, 2).size
        xi = CorrElement(1, rng_complex(rng, d1))
        eta = CorrElement(2, rng_complex(rng, d2))
        lhs = weighted_creation(space, ws, xi).matrix @ weighted_creation(space, ws, eta).matrix
        rhs = weighted_creation(space, ws, tensor_element(graph, xi, eta)).matrix
        assert residual(lhs, rhs) < 1e-10


def test_weighted_creation_bimodule():
    rng = np.random.default_rng(2)
    graph = CYCLE2
    ws = dirichlet_ws(graph, 3)
    space = TruncatedFock(graph, 3)
    d = path_basis(graph, 2).size
    xi = CorrElement(2, rng_complex(rng, d))
    a = np.array([1.5, -0.5 + 1j])
    b = np.array([2.0, 0.25])
    basis = path_basis(graph, 2)
    scaled = CorrElement(2, a[list(basis.ranges)] * xi.coeffs * b[list(basis.sources)])
    lhs = weighted_creation(space, ws, scaled).matrix
    rhs = phi_inf(space, a).matrix @ weighted_creation(space, ws, xi).matrix @ phi_inf(space, b).matrix
    assert residual(lhs, rhs) < 1e-12


def test_weighted_norm_bound():
    ws = dirichlet_ws(FREE2, 4)
    space = TruncatedFock(FREE2, 4)
    rng = np.random.default_rng(3)
    xi = CorrElement(1, rng_complex(rng, 2))
    w = weighted_creation(space, ws, xi)
    dk = weight_diagonal(space, ws, 1)
    assert operator_norm(w.matrix) <= operator_norm(dk.matrix) * xi.norm() + 1e-12


def test_handysums():
    rep = Representation((1, 2))
    for graph, k in [(FREE2, 1), (FREE2, 2), (CYCLE2, 2)]:
        space = TruncatedFock(graph, 4)
        rep_k = Representation(tuple([1] * graph.n_vertices)) if graph is FREE2 else rep
        ind = InducedSpace(graph, rep_k, 4)
        report = handysums_check(space, k, rng=np.random.default_rng(5), ind=ind)
        assert max(report.values()) < 1e-12, report


def test_handysums_level_zero_and_dead_level():
    line = GraphCorrespondence(2, ((0, 1),))
    space = TruncatedFock(line, 3)
    report = handysums_check(space, 0)
    assert max(report.values()) < 1e-12
    report = handysums_check(space, 2)  # empty basis: zero operators
    assert max(report.values()) == 0.0


def test_sums_to_projection():
    for graph in (FREE1, FREE2, CYCLE2):
        for mk in (szego_ws, dirichlet_ws):
            ws = mk(graph, 4)
            x = AdmissibleSequence.from_scalar(
                graph,
                [1.0] if mk is szego_ws else admissible_from_kernel_coeffs(
                    [1 / (k + 1) for k in range(5)])[0],
                levels=4,
            )
            assert sums_to_projection_check(TruncatedFock(graph, 4), x, ws) < 1e-10


def test_diagonal_reassembly():
    # a degree-0 operator equals the sum of its level compressions
    rng = np.random.default_rng(8)
    space = TruncatedFock(CYCLE2, 3)
    op = FockOperator(space, {(k, k): rng_complex(rng, d, d)
                              for k, d in enumerate(space.level_dims)})
    m = op.matrix
    assert op.degree == 0
    acc = np.zeros_like(m)
    for k in range(4):
        vk = _level_isometry(space, k)
        acc += vk @ op.blocks[k, k] @ vk.conj().T
    assert residual(acc, m) < 1e-14
    total = sum(_level_isometry(space, k) @ _level_isometry(space, k).conj().T for k in range(4))
    assert np.allclose(total, np.eye(space.dim))


def _level_isometry(space, k):
    """v_k: E^{(x)k} -> Fock, so Q_k = v_k v_k^*."""
    out = np.zeros((space.dim, space.level_dims[k]), dtype=complex)
    out[space.level_slice(k), :] = np.eye(space.level_dims[k])
    return out


def test_cached_offsets_keep_equality_and_hash():
    a, b = TruncatedFock(CYCLE2, 3), TruncatedFock(CYCLE2, 3)
    assert a.offsets == (0, 2, 4, 6, 8) and a.level_dims == (2, 2, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != TruncatedFock(CYCLE2, 2)


def test_fock_operator_rejects_bad_blocks():
    """A block must fit its levels and be finite; the error names the level pair."""
    space = TruncatedFock(CYCLE2, 2)
    with pytest.raises(ValueError, match=r"block \(2,1\) has shape \(2, 3\), expected \(2, 2\)"):
        FockOperator(space, {(1, 0): np.ones((2, 2)), (2, 1): np.ones((2, 3))})
    with pytest.raises(ValueError, match=r"block \(3,0\) is outside levels 0..2"):
        FockOperator(space, {(3, 0): np.ones((2, 2))})
    for bad in (np.nan, np.inf):
        blk = np.eye(2, dtype=complex)
        blk[0, 0] = bad
        with pytest.raises(ValueError, match=r"block \(1,1\) has non-finite entries"):
            FockOperator(space, {(0, 0): np.eye(2), (1, 1): blk})


def test_fock_operator_degree_and_matrix():
    space = TruncatedFock(CYCLE2, 2)
    op = FockOperator(space, {(2, 1): np.ones((2, 2)), (1, 0): 2 * np.eye(2)})
    assert list(op.blocks) == [(1, 0), (2, 1)]
    assert op.degree == 1
    assert FockOperator(space, {(0, 0): np.eye(2), (1, 0): np.eye(2)}).degree is None
    assert FockOperator(space, {}).degree is None
    m = op.matrix
    assert m.shape == (6, 6) and not m.flags.writeable
    assert np.array_equal(m[2:4, 0:2], 2 * np.eye(2))
    assert np.array_equal(m[4:6, 2:4], np.ones((2, 2)))
    assert np.count_nonzero(m) == 6


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_weighted_creation_blocks_are_weighted_creation_blocks(graph, n, data):
    """Each block of W_xi has the bytes of Z^{(i,j)} times that block of T_xi (at
    k = 0, where Z^{(j,j)} = I, of T_xi itself), and a non-finite coefficient is
    named at block (k, 0), the first block T_xi checks."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    space = TruncatedFock(graph, n)
    k = data.draw(st.integers(0, n), label="k")
    d = path_basis(graph, k).size
    xi = CorrElement(k, rng_complex(rng, d))
    w, t = weighted_creation(space, ws, xi), creation(space, xi)
    assert list(w.blocks) == list(t.blocks) == [(j + k, j) for j in range(n + 1 - k)]
    for (i, j), blk in w.blocks.items():
        want = t.blocks[i, j] if k == 0 else ws.z_between(i, j) @ t.blocks[i, j]
        assert blk.tobytes() == want.tobytes()
    if d:
        bad = xi.coeffs.copy()
        bad[data.draw(st.integers(0, d - 1), label="bad index")] = \
            data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="bad value")
        with pytest.raises(ValueError, match=rf"^block \({k},0\) has non-finite entries$"):
            weighted_creation(space, ws, CorrElement(k, bad))
    with pytest.raises(ValueError, match="creation level exceeds truncation"):
        weighted_creation(space, ws, CorrElement(n + 1, np.zeros(path_basis(graph, n + 1).size)))
