import numpy as np
import pytest

from oracles import _commutant_dim, pi_sigma_residuals, project
from wfock.duality import (
    DualStructure,
    commutation_check_section5,
    dual_lift_model,
    dual_weights,
    intertwiner_basis,
    interior_tensor,
    omega_checks,
    primal_generators,
    u_k_unitarity_residual,
    u_k_unitary,
)
from wfock.graphs import GraphCorrespondence
from wfock.induced import InducedSpace, Representation
from wfock.linalg import operator_norm, residual, rng_complex
from wfock.weights import (
    AdmissibleSequence,
    WeightSystem,
    admissible_from_kernel_coeffs,
    weight_system_from,
)

FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)
TRIANGLE = GraphCorrespondence(3, ((0, 1), (1, 2), (2, 0), (0, 0)))


def dirichlet_x(graph, n):
    xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(n + 1)])
    assert ok
    return AdmissibleSequence.from_scalar(graph, xs, levels=n)


def szego_x(graph, n):
    return AdmissibleSequence.from_scalar(graph, [1.0], levels=n)


CASES = [
    (FREE2, Representation((1,)), 4),
    (FREE2, Representation((2,)), 3),
    (CYCLE2, Representation((1, 1)), 4),
    (CYCLE2, Representation((2, 1)), 4),
    (TRIANGLE, Representation((1, 1, 1)), 3),
]


def test_intertwiner_dimensions():
    # single vertex, d loops, multiplicity 1: dimension d
    dual = intertwiner_basis(FREE2, Representation((1,)))
    assert len(dual) == 2
    dual = intertwiner_basis(CYCLE2, Representation((1, 1)))
    assert len(dual) == 2
    dual = intertwiner_basis(CYCLE2, Representation((2, 3)))
    assert len(dual) == 2 * 3 + 3 * 2


def test_intertwiner_property():
    graph, rep = CYCLE2, Representation((2, 1))
    dual = intertwiner_basis(graph, rep)
    ind = InducedSpace(graph, rep, 1)
    for t in dual:
        for v in range(graph.n_vertices):
            a = np.zeros(graph.n_vertices)
            a[v] = 1.0
            assert residual(t @ rep.sigma(a), ind.sigma_level(a, 1) @ t) < 1e-10


def test_interior_tensor_identity_gram():
    out = interior_tensor([[np.eye(3)]], 3)
    assert out.shape[0] == 3
    v = out @ np.array([1.0, 2.0, 3.0])
    assert np.isclose(np.linalg.norm(v) ** 2, 14.0)


def test_interior_tensor_rank_deficient():
    gram = [[np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)]]
    out = interior_tensor(gram, 2)
    assert out.shape[0] == 2  # quotient by the null direction f_0 - f_1


def test_interior_tensor_rejects_indefinite():
    with pytest.raises(ValueError):
        interior_tensor([[-np.eye(2)]], 2)


def test_theta_unitary():
    for graph, rep, n in CASES:
        ws = weight_system_from(szego_x(graph, n))
        s = DualStructure(InducedSpace(graph, rep, n), ws)
        for k in range(n + 1):
            d = s.ind.level_dim(k)
            th = np.eye(d)[s.theta(k)]
            if k > 0:
                assert th.shape == (len(s.tuples(k)), d)
            assert residual(th @ th.conj().T, np.eye(th.shape[0])) < 1e-12
            assert residual(th.conj().T @ th, np.eye(d)) < 1e-12


def test_dual_weights_rejects_a_frame_that_is_not_a_permutation():
    graph, rep, n = CYCLE2, Representation((2, 1)), 3
    x = szego_x(graph, n)
    s = DualStructure(InducedSpace(graph, rep, n), weight_system_from(x))
    theta = s.theta
    # level 2 repeats its first coordinate in place of its last
    s.theta = lambda k: np.r_[theta(k)[:1], theta(k)[:-1]] if k == 2 else theta(k)
    with pytest.raises(ValueError, match="frame at level 2 is not unitary"):
        dual_weights(s, x)


def test_u_k_unitarity():
    for graph, rep in [(FREE2, Representation((1,))), (CYCLE2, Representation((1, 1))),
                       (CYCLE2, Representation((2, 1)))]:
        for k in range(0, 3):
            assert u_k_unitarity_residual(graph, rep, k) < 1e-10


def test_u1_dimension_free_case():
    u, coord_map = u_k_unitary(FREE2, Representation((1,)), 1)
    assert coord_map.shape[0] == 2
    assert u.shape == (2, 2)


def test_u_k_insertion_identity():
    # U_k applied to (tuple tensor h)-coordinates reproduces the product map
    graph, rep, k = CYCLE2, Representation((2, 1)), 2
    dual = intertwiner_basis(graph, rep)
    u, coord_map = u_k_unitary(graph, rep, k)
    ind = InducedSpace(graph, rep, k)
    h = rep.h_dim
    n_tuples = len(dual) ** k
    for flat, (i, j) in enumerate((a, b) for a in range(len(dual)) for b in range(len(dual))):
        lam = ind.suffix_insert(dual[i], 1, 1) @ dual[j]
        for col in range(h):
            weights = np.zeros(n_tuples * h)
            weights[flat * h + col] = 1.0
            assert np.allclose(u @ (coord_map @ weights), lam[:, col], atol=1e-10)


def test_rho_phi_isometric_on_commutant():
    graph, rep, n = CYCLE2, Representation((2, 1)), 3
    ws = weight_system_from(szego_x(graph, n))
    s = DualStructure(InducedSpace(graph, rep, n), ws)
    rng = np.random.default_rng(2)
    from wfock.linalg import operator_norm, rng_complex

    a = project(rep, rng_complex(rng, rep.h_dim, rep.h_dim))
    assert abs(operator_norm(s.ind.dual_left(a)) - operator_norm(a)) < 1e-12
    assert residual(s.ind.dual_left(a.conj().T), s.ind.dual_left(a).conj().T) < 1e-14


def test_commutation_section5():
    for graph, rep, n in CASES:
        for make_x in (szego_x, dirichlet_x):
            ws = weight_system_from(make_x(graph, n))
            ind = InducedSpace(graph, rep, n)
            report = commutation_check_section5(ind, ws)
            assert report["max_commutator"] < 1e-10, (graph, rep, report)


def test_commutant_dims_report():
    graph, rep, n = CYCLE2, Representation((1, 1)), 2
    ws = weight_system_from(szego_x(graph, n))
    ind = InducedSpace(graph, rep, n)
    primal_dim = _commutant_dim([m for _, m in primal_generators(ind, ws)])
    dual_dim = _commutant_dim([m for _, m in DualStructure(ind, ws).dual_generators()])
    assert primal_dim >= len(rep.commutant_basis())
    assert dual_dim >= graph.n_vertices


def test_pi_sigma_properties():
    graph, rep, n = CYCLE2, Representation((2, 1)), 3
    ws = weight_system_from(dirichlet_x(graph, n))
    res = pi_sigma_residuals(InducedSpace(graph, rep, n), ws, seed=11)
    assert res["identity"] < 1e-12
    assert res["left_action_formula"] < 1e-12
    assert res["isometry"] < 1e-10
    assert res["multiplicativity"] < 1e-10
    assert res["creation_band"] < 1e-12


def test_dual_weights_laws():
    for graph, rep, n in CASES:
        for make_x in (szego_x, dirichlet_x):
            x = make_x(graph, n)
            ws = weight_system_from(x)
            s = DualStructure(InducedSpace(graph, rep, n), ws)
            data = dual_weights(s, x)
            assert max(data.residuals.values()) < 1e-9, (graph, rep, data.residuals)


def test_dual_weights_unweighted_trivial():
    graph, rep, n = CYCLE2, Representation((1, 1)), 3
    ws = weight_system_from(szego_x(graph, n))
    s = DualStructure(InducedSpace(graph, rep, n), ws)
    data = dual_weights(s, szego_x(graph, n))
    for k in range(n + 1):
        assert residual(data.C[k], np.eye(data.C[k].shape[0])) < 1e-12
        assert residual(data.Z_prime[k], np.eye(data.Z_prime[k].shape[0])) < 1e-12


def test_dual_weights_scalar_case_matches_c():
    # one vertex, one loop, multiplicity 1: Z'_k = C_k as numbers
    graph, rep, n = GraphCorrespondence.free(1), Representation((1,)), 4
    x = dirichlet_x(graph, n)
    ws = weight_system_from(x)
    s = DualStructure(InducedSpace(graph, rep, n), ws)
    data = dual_weights(s, x)
    for k in range(1, n + 1):
        assert np.isclose(data.Z_prime[k][0, 0], data.C[k][0, 0])


@pytest.mark.parametrize("graph, rep, n", CASES)
def test_rho_creation_gathers_each_weight_block_once(monkeypatch, graph, rep, n):
    """One call, several intertwiners: C^{(j+k,k)} (x) I is built once per j and
    shared, and each band block equals the per-intertwiner level blocks."""
    ind = InducedSpace(graph, rep, n)
    s = DualStructure(ind, weight_system_from(dirichlet_x(graph, n)))
    calls, gathers = [], []
    c_between = WeightSystem.c_between
    monkeypatch.setattr(WeightSystem, "c_between",
                        lambda ws, i, k: calls.append((i, k)) or c_between(ws, i, k))
    tensor = ind.level_tensor_identity
    monkeypatch.setattr(ind, "level_tensor_identity",
                        lambda m, *ij: gathers.append(ij) or tensor(m, *ij))
    rng = np.random.default_rng(n)
    for k in range(n + 1):
        t_mats = [rng_complex(rng, ind.level_dim(k), ind.h_dim) for _ in range(3)]
        calls.clear()
        gathers.clear()
        bands = s.rho_creation(t_mats, k)
        assert calls == [(j + k, k) for j in range(n + 1 - k)]
        assert gathers == [(j + k,) for j in range(n + 1 - k)]
        top = ind.level_offsets[k]
        for band, t_mat in zip(bands, t_mats):
            assert band.shape == (ind.dim - top, ind.level_offsets[n + 1 - k])
            for j in range(n + 1 - k):
                cw = ind.level_tensor_identity(c_between(s.ws, j + k, k), j + k)
                rows = slice(ind.level_offsets[j + k] - top, ind.level_offsets[j + k + 1] - top)
                assert np.array_equal(band[rows, ind.level_slice(j)],
                                      cw @ ind.suffix_insert(t_mat, k, j))
    calls.clear()
    dual_lift_model(s)  # one pass per level from 1, and one for the level-1 generators
    expected = [(j + k, k) for k in range(1, n + 1) for j in range(n + 1 - k)]
    assert sorted(calls) == sorted(expected + [(j + 1, 1) for j in range(n)])


def test_dual_calculus_embeddings_consistent():
    graph, rep, n = CYCLE2, Representation((1, 1)), 3
    ws = weight_system_from(dirichlet_x(graph, n))
    s = DualStructure(InducedSpace(graph, rep, n), ws)
    zp = s.z_matrices()
    # I'_1 (x) (I'_1 (x) Z'_1) = I'_2 (x) Z'_1
    inner = s.embed_suffix(zp[1], 1, 2)
    assert residual(s.embed_suffix(inner, 1, 3), s.embed_suffix(zp[1], 2, 3)) < 1e-13
    # prefix and suffix embeddings commute on disjoint legs
    a = s.embed_prefix(zp[1], 2, 3)
    b = s.embed_suffix(zp[2], 1, 3)
    assert residual(a @ b, b @ a) < 1e-13


def test_omega_checks_multiplicity_one():
    for graph, n in [(FREE2, 3), (CYCLE2, 4), (TRIANGLE, 3)]:
        rep = Representation((1,) * graph.n_vertices)
        for make_x in (szego_x, dirichlet_x):
            x = make_x(graph, n)
            ws = weight_system_from(x)
            out = omega_checks(InducedSpace(graph, rep, n), ws, x)
            assert max(out.values()) < 1e-9, (graph, make_x, out)


def test_omega_requires_multiplicity_one():
    graph, n = CYCLE2, 2
    ws = weight_system_from(szego_x(graph, n))
    with pytest.raises(ValueError):
        omega_checks(InducedSpace(graph, Representation((2, 1)), n), ws, szego_x(graph, n))
