import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wfock.fock import (
    FockOperator,
    TruncatedFock,
    creation,
    handysums_check,
    phi_inf,
    sums_to_projection_check,
    tensor_element,
    weight_diagonal,
    weighted_creation,
)
from wfock.graphs import CorrElement, GraphCorrespondence, inner_product, path_basis
from wfock.induced import Representation
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
    lhs = t.adjoint().matrix @ t.matrix
    rhs = phi_inf(space, inner_product(FREE2, xi, xi)).matrix
    # the product only matches below the truncation shadow
    top = space.level_slice(3).start
    assert residual(lhs[:top, :top], rhs[:top, :top]) < 1e-12


def test_degree_band_enforced():
    space = TruncatedFock(FREE1, 3)
    bad = np.eye(space.dim)
    with pytest.raises(ValueError):
        FockOperator(space, bad, degree=1)


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
    assert w.norm() <= operator_norm(dk.matrix) * xi.norm() + 1e-12


def test_handysums():
    rep = Representation((1, 2))
    for graph, k in [(FREE2, 1), (FREE2, 2), (CYCLE2, 2)]:
        space = TruncatedFock(graph, 4)
        rep_k = Representation(tuple([1] * graph.n_vertices)) if graph is FREE2 else rep
        report = handysums_check(space, k, rng=np.random.default_rng(5), rep=rep_k)
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
    blocks = []
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(4):
        sl = space.level_slice(k)
        d = sl.stop - sl.start
        m[sl, sl] = rng_complex(rng, d, d)
    op = FockOperator(space, m, 0)
    acc = np.zeros_like(m)
    for k in range(4):
        vk = space.level_isometry(k)
        acc += vk @ op.block(k, k) @ vk.conj().T
    assert residual(acc, m) < 1e-14
    total = sum(space.level_projection(k) for k in range(4))
    assert np.allclose(total, np.eye(space.dim))


def test_cached_offsets_keep_equality_and_hash():
    a, b = TruncatedFock(CYCLE2, 3), TruncatedFock(CYCLE2, 3)
    assert a.offsets == (0, 2, 4, 6, 8) and a.level_dims == (2, 2, 2, 2)
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != TruncatedFock(CYCLE2, 2)


def _old_band_rule(space, matrix, degree) -> bool:
    """The band test before exact zeros were skipped: an SVD per off-band block."""
    for j in range(space.levels + 1):
        for i in range(space.levels + 1):
            if i - j == degree:
                continue
            block = matrix[space.level_slice(i), space.level_slice(j)]
            if block.size and operator_norm(block) > 1e-13 * max(1.0, operator_norm(matrix)):
                return True
    return False


GRAPHS = st.sampled_from([GraphCorrespondence.cycle(2), GraphCorrespondence.cycle(3),
                          FREE1, FREE2])


@settings(max_examples=60, deadline=None)
@given(GRAPHS, st.integers(1, 4), st.data())
def test_band_check_matches_the_per_block_svd_rule(graph, n, data):
    space = TruncatedFock(graph, n)
    degree = data.draw(st.integers(-n, n), label="degree")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    scale = data.draw(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), label="scale")
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(n + 1):
        if 0 <= j + degree <= n:
            rs, cs = space.level_slice(j + degree), space.level_slice(j)
            m[rs, cs] = scale * rng_complex(rng, rs.stop - rs.start, cs.stop - cs.start)
    off_band = [(i, j) for i in range(n + 1) for j in range(n + 1) if i - j != degree]
    i, j = data.draw(st.sampled_from(off_band), label="block")
    factor = data.draw(st.floats(0.5, 2.0), label="factor")
    bump = rng_complex(rng, space.level_dims[i], space.level_dims[j])
    bump *= factor * 1e-13 * max(1.0, operator_norm(m)) / operator_norm(bump)
    m[space.level_slice(i), space.level_slice(j)] += bump
    expected = _old_band_rule(space, m, degree)
    if factor < 0.99 or factor > 1.01:
        assert expected == (factor > 1.0)
    if expected:
        with pytest.raises(ValueError, match="has mass at block"):
            FockOperator(space, m, degree)
    else:
        FockOperator(space, m, degree)


def test_band_check_rejects_non_finite_entries():
    space = TruncatedFock(CYCLE2, 2)
    for bad in (np.nan, np.inf):
        m = np.eye(space.dim, dtype=complex)
        m[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            FockOperator(space, m, 0)
