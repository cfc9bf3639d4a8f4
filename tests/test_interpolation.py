import numpy as np
import pytest

from wfock.duality import DualStructure
from wfock.fock import TruncatedFock
from wfock.graphs import CorrElement, GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import (
    CauchyKernel,
    DiscPoint,
    PickInfeasibleError,
    PickProblem,
    hat_eval,
    iota_w_star_check,
    kernel_tail_bound,
    kernel_value,
    np_solve,
    phi_map,
    pick_map_cp_test,
    quadratic_form_gap,
    representation_eval,
    szego_kernel,
    word_matrix,
)
from wfock.linalg import operator_norm, residual, rng_complex
from wfock.weights import AdmissibleSequence, admissible_from_kernel_coeffs, weight_system_from

FREE1 = GraphCorrespondence.free(1)
CYCLE2 = GraphCorrespondence.cycle(2)


def scalar_setup(kind="szego", n=40):
    if kind == "szego":
        x = AdmissibleSequence.from_scalar(FREE1, [1.0], levels=n)
    else:
        xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(n + 1)])
        assert ok
        x = AdmissibleSequence.from_scalar(FREE1, xs, levels=n)
    ws = weight_system_from(x)
    ind = InducedSpace(FREE1, Representation((1,)), n)
    return ind, x, ws


def graph_setup(graph=CYCLE2, mults=(1, 1), n=5, kind="dirichlet"):
    if kind == "szego":
        x = AdmissibleSequence.from_scalar(graph, [1.0], levels=n)
    else:
        xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(n + 1)])
        assert ok
        x = AdmissibleSequence.from_scalar(graph, xs, levels=n)
    ws = weight_system_from(x)
    ind = InducedSpace(graph, Representation(mults), n)
    return ind, x, ws


def graph_point(ind, x, scale, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng_complex(rng, ind.rep.h_dim, ind.level_dim(1))
    # project onto the intertwiner structure: block (r(e), e) free, rest zero
    mat = np.zeros_like(raw)
    for e in range(ind.graph.n_edges):
        v = ind.graph.range_(e)
        esl = slice(ind.block_offsets[1][e], ind.block_offsets[1][e + 1])
        mat[ind.rep.block(v), esl] = raw[ind.rep.block(v), esl]
    mat *= scale / max(operator_norm(mat), 1e-12)
    return DiscPoint(ind, x, mat)


# -- disc membership and powers -------------------------------------------------


def test_scalar_point_membership():
    ind, x, ws = scalar_setup("szego", 20)
    z = DiscPoint.scalar(ind, x, 0.5)
    assert np.isclose(z.phi_norm, 0.25)
    with pytest.raises(ValueError):
        DiscPoint.scalar(ind, x, 1.0)


def test_point_intertwining_required():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 3)
    bad = np.ones((ind.rep.h_dim, ind.level_dim(1)))
    with pytest.raises(ValueError):
        DiscPoint(ind, x, bad)


def test_power_semigroup():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    z = graph_point(ind, x, 0.55, seed=3)
    assert z.power_residual() < 1e-10
    # z^{(k+l)} = z^{(k)} (I_k (x) z^{(l)}): peel l edges one at a time
    k, l = 2, 3
    acc = z.powers[k].copy()
    for j in range(k + 1, k + l + 1):
        acc = acc @ ind.lower_by_point(z.mat, j)
    assert residual(z.powers[k + l], acc) < 1e-12


def test_phi_map_scalar_geometric():
    ind, x, ws = scalar_setup("szego", 40)
    z = DiscPoint.scalar(ind, x, 0.5)
    out = phi_map(z, np.eye(1))
    assert np.isclose(out.value[0, 0], 0.25)
    # Neumann sum = 1/(1 - 0.25) = 4/3 within the combined tails
    assert out.neumann_residual <= out.tail + out.level_tail + 1e-12
    level = kernel_value(z, z, np.eye(1))
    assert abs(level[0, 0] - 4.0 / 3.0) <= out.tail + 1e-12


def test_phi_map_zero_point():
    ind, x, ws = scalar_setup("szego", 10)
    z = DiscPoint.scalar(ind, x, 0.0)
    out = phi_map(z, np.eye(1))
    assert operator_norm(out.value) == 0.0
    assert out.neumann_residual < 1e-14


def test_neumann_identity_scalar_dirichlet():
    ind, x, ws = scalar_setup("dirichlet", 40)
    z = DiscPoint.scalar(ind, x, 0.5)
    out = phi_map(z, np.eye(1))
    assert out.neumann_residual <= out.tail + out.level_tail + 1e-9


def test_neumann_identity_graph():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 6)
    z = graph_point(ind, x, 0.5, seed=1)
    a = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    a[ind.rep.block(0), ind.rep.block(0)] = np.eye(2)
    out = phi_map(z, a)
    assert out.neumann_residual <= out.tail + out.level_tail + 1e-9


def test_phi_value_matches_the_inline_formula_bit_for_bit():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    z = graph_point(ind, x, 0.5, seed=2)
    rng = np.random.default_rng(6)
    a = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    for v in range(ind.graph.n_vertices):
        blk = ind.rep.block(v)
        a[blk, blk] = rng_complex(rng, blk.stop - blk.start, blk.stop - blk.start)
    for arg in (np.eye(ind.rep.h_dim), a):
        old = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
        for k in range(1, ind.levels + 1):
            xk = ind.level_tensor_identity(x.X[k], k)
            old += z.powers[k] @ xk @ ind.dual_left_level(arg, k) @ z.powers[k].conj().T
        assert np.array_equal(z.phi_value(arg), old)


def test_kernel_tail_bound_is_computed_once_per_point(monkeypatch):
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    z = graph_point(ind, x, 0.5, seed=2)
    eye = np.eye(ind.rep.h_dim)
    neumann, acc = eye.copy(), eye.copy()
    for _ in range(ind.levels):
        acc = z.phi_value(acc)
        neumann = neumann + acc
    expected = residual(neumann, kernel_value(z, z, eye)) \
        + z.phi_norm ** (ind.levels + 1) / (1.0 - z.phi_norm)
    calls = []
    phi_value = DiscPoint.phi_value
    monkeypatch.setattr(DiscPoint, "phi_value", lambda self, a: calls.append(1) or phi_value(self, a))
    assert kernel_tail_bound(z) == expected
    first = len(calls)
    assert first == ind.levels
    assert kernel_tail_bound(z) == expected
    assert len(calls) == first


# -- kernels ---------------------------------------------------------------------


def test_szego_kernel_classical():
    ind, x, ws = scalar_setup("szego", 40)
    rng = np.random.default_rng(9)
    for _ in range(10):
        wv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        zv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        w = DiscPoint.scalar(ind, x, wv)
        z = DiscPoint.scalar(ind, x, zv)
        value, tail, cres = szego_kernel(w, z, np.eye(1), ws)
        assert cres < 1e-9
        assert abs(value[0, 0] - 1.0 / (1.0 - wv * np.conj(zv))) <= tail + 1e-10


def test_dirichlet_kernel_log_series():
    ind, x, ws = scalar_setup("dirichlet", 60)
    w = DiscPoint.scalar(ind, x, 0.5)
    value, tail, cres = szego_kernel(w, w, np.eye(1), ws)
    u = 0.25
    assert abs(value[0, 0] - (-np.log(1 - u) / u)) < 1e-8
    assert cres < 1e-9


def test_kernel_at_zero_is_identity_action():
    ind, x, ws = scalar_setup("szego", 10)
    z = DiscPoint.scalar(ind, x, 0.0)
    value, _, _ = szego_kernel(z, z, np.array([[2.5]]), ws)
    assert np.isclose(value[0, 0], 2.5)


def test_kernel_hermiticity():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    w = graph_point(ind, x, 0.5, seed=2)
    z = graph_point(ind, x, 0.4, seed=5)
    rng = np.random.default_rng(0)
    a = rng_complex(rng, ind.rep.h_dim, ind.rep.h_dim)
    from wfock.induced import CommutantAlgebra

    a = CommutantAlgebra(ind.rep).project(a)
    lhs = kernel_value(w, z, a).conj().T
    rhs = kernel_value(z, w, a.conj().T)
    assert residual(lhs, rhs) < 1e-10


def test_cauchy_levelwise_identity():
    ind, x, ws = graph_setup(CYCLE2, (1, 1), 6)
    w = graph_point(ind, x, 0.5, seed=7)
    z = graph_point(ind, x, 0.45, seed=8)
    cw, cz = CauchyKernel(w, ws), CauchyKernel(z, ws)
    a = np.diag([1.5, -0.5]).astype(complex)
    assert cw.levelwise_residual(cz, a) < 1e-9


def test_iota_w_star():
    for kind in ("szego", "dirichlet"):
        ind, x, ws = graph_setup(CYCLE2, (1, 1), 6, kind)
        z = graph_point(ind, x, 0.5, seed=4)
        s = DualStructure(ind, ws)
        rng = np.random.default_rng(6)
        # random dual element and commutant element
        xi = sum(coef * s.alpha_matrix(t.edges[0], t.row)
                 for coef, t in zip(rng_complex(rng, len(s.tuples(1))), s.tuples(1)))
        from wfock.induced import CommutantAlgebra

        d = CommutantAlgebra(ind.rep).project(rng_complex(rng, 2, 2))
        assert iota_w_star_check(z, ws, xi, d) < 1e-9
        assert iota_w_star_check(z, ws, xi, np.eye(2, dtype=complex)) < 1e-9


def test_iota_w_star_scalar_backward_shift():
    ind, x, ws = scalar_setup("szego", 30)
    z = DiscPoint.scalar(ind, x, 0.5)
    s = DualStructure(ind, ws)
    xi = s.alpha_matrix(0, 0)
    assert iota_w_star_check(z, ws, xi, np.eye(1, dtype=complex)) < 1e-10


# -- evaluation ------------------------------------------------------------------


def test_representation_eval_generators():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    z = graph_point(ind, x, 0.5, seed=11)
    a = np.array([1.5, -2.0])
    assert residual(representation_eval(z, [("a", a)]), ind.rep.sigma(a)) < 1e-14
    xi = CorrElement.basis_vector(ind.graph, 1, 0)
    word = [("xi", xi)]
    direct = representation_eval(z, word)
    via_kernel = hat_eval(z, ws, word_matrix(ind, ws, word))
    assert residual(direct, via_kernel) < 1e-10


def test_representation_eval_multiplicative():
    ind, x, ws = graph_setup(CYCLE2, (1, 1), 6)
    z = graph_point(ind, x, 0.5, seed=13)
    xi = CorrElement.basis_vector(ind.graph, 1, 0)
    eta = CorrElement.basis_vector(ind.graph, 1, 1)
    w1, w2 = [("xi", xi)], [("xi", eta), ("a", np.array([0.5, 2.0]))]
    lhs = representation_eval(z, w1 + w2)
    rhs = representation_eval(z, w1) @ representation_eval(z, w2)
    assert residual(lhs, rhs) < 1e-10


def test_representation_eval_scalar_power():
    ind, x, ws = scalar_setup("szego", 10)
    z = DiscPoint.scalar(ind, x, 0.3 + 0.2j)
    xi2 = CorrElement.basis_vector(FREE1, 2, 0)
    val = representation_eval(z, [("xi", xi2)])
    assert np.isclose(val[0, 0], (0.3 + 0.2j) ** 2)


def test_eval_contractive_on_short_words():
    ind, x, ws = scalar_setup("dirichlet", 20)
    z = DiscPoint.scalar(ind, x, 0.6)
    rng = np.random.default_rng(21)
    for _ in range(5):
        word = []
        for _ in range(int(rng.integers(1, 4))):
            word.append(("xi", CorrElement(1, rng_complex(rng, 1))))
        mat = word_matrix(ind, ws, word)
        assert operator_norm(representation_eval(z, word)) <= operator_norm(mat) * (1 + 1e-8)


# -- the Pick map -----------------------------------------------------------------


def classical_pick_det(z1, z2, l1, l2):
    p11 = (1 - abs(l1) ** 2) / (1 - abs(z1) ** 2)
    p22 = (1 - abs(l2) ** 2) / (1 - abs(z2) ** 2)
    p12 = (1 - l1 * np.conj(l2)) / (1 - z1 * np.conj(z2))
    return (p11 * p22 - abs(p12) ** 2).real


def scalar_problem(ind, x, zs, lams):
    points = [DiscPoint.scalar(ind, x, zv) for zv in zs]
    B = [np.eye(1, dtype=complex) for _ in zs]
    F = [np.array([[l]], dtype=complex) for l in lams]
    return PickProblem(points, B, F)


def test_cp_trivial_zero_targets():
    ind, x, ws = scalar_setup("szego", 30)
    prob = scalar_problem(ind, x, [0.3, -0.4], [0.0, 0.0])
    assert pick_map_cp_test(prob).is_cp


def test_cp_matches_classical_two_point():
    ind, x, ws = scalar_setup("szego", 60)
    z1, z2 = 0.4, -0.25 + 0.3j
    l1 = 0.5
    rng = np.random.default_rng(3)
    for _ in range(12):
        l2 = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.7
        det = classical_pick_det(z1, z2, l1, l2)
        report = pick_map_cp_test(scalar_problem(ind, x, [z1, z2], [l1, l2]))
        if det > 1e-8:
            assert report.is_cp
        elif det < -1e-8:
            assert not report.is_cp


def test_cp_quadratic_form_agrees():
    ind, x, ws = scalar_setup("szego", 40)
    rng = np.random.default_rng(5)
    for lams in ([0.2, 0.3], [0.9, -0.95]):
        prob = scalar_problem(ind, x, [0.35, -0.5], lams)
        report = pick_map_cp_test(prob)
        gap = quadratic_form_gap(prob, ws, rng, families=200)
        if report.is_cp:
            assert gap >= -1e-8
        else:
            assert gap < 1e-8  # some family should come close to or below zero


def test_cp_weight_independence():
    ind, x, ws = scalar_setup("dirichlet", 30)
    prob = scalar_problem(ind, x, [0.3, -0.2], [0.4, 0.1])
    report_plain = pick_map_cp_test(prob)
    report_canonical = pick_map_cp_test(prob, ws=ws)
    # a second valid weight sequence for the same data: flip the sign of Z_k
    zs = [ws.Z[0]] + [-z for z in ws.Z[1:]]
    from wfock.weights import WeightSystem

    ws2 = WeightSystem(FREE1, ind.levels, zs, R=x.R)
    assert max(ws2.validate().values()) < 1e-10
    report_flipped = pick_map_cp_test(prob, ws=ws2)
    assert residual(report_canonical.choi, report_plain.choi) < 1e-9
    assert residual(report_flipped.choi, report_plain.choi) < 1e-9


# -- the solver -------------------------------------------------------------------


def test_solve_one_point_constant():
    ind, x, ws = scalar_setup("szego", 30)
    prob = scalar_problem(ind, x, [0.45], [0.7])
    out = np_solve(prob, ws)
    assert abs(out.evaluations[0][0, 0] - 0.7) < 1e-8
    assert out.norm <= 1 + 1e-8
    assert max(out.residuals) < 1e-8


def test_solve_two_point_interior():
    ind, x, ws = scalar_setup("szego", 40)
    z1, z2 = 0.4, -0.3
    l1, l2 = 0.3, 0.1
    assert classical_pick_det(z1, z2, l1, l2) > 0
    out = np_solve(scalar_problem(ind, x, [z1, z2], [l1, l2]), ws)
    assert max(out.residuals) < 1e-7
    assert out.norm <= 1 + 1e-8


def test_solve_two_point_boundary_blaschke():
    # equality in the pseudo-hyperbolic criterion: the unique solution is the
    # Mobius map through both nodes
    ind, x, ws = scalar_setup("szego", 60)
    z1, z2 = 0.4, -0.2
    a = 0.15

    def blaschke(v):
        return (v - a) / (1 - np.conj(a) * v)

    l1, l2 = blaschke(z1), blaschke(z2)
    assert abs(classical_pick_det(z1, z2, l1, l2)) < 1e-12
    out = np_solve(scalar_problem(ind, x, [z1, z2], [l1, l2]), ws)
    assert max(out.residuals) < 1e-6
    assert out.norm <= 1 + 1e-6


def test_solve_rejects_infeasible():
    ind, x, ws = scalar_setup("szego", 40)
    z1, z2 = 0.4, -0.3
    l1, l2 = 0.95, -0.9
    assert classical_pick_det(z1, z2, l1, l2) < 0
    with pytest.raises(PickInfeasibleError):
        np_solve(scalar_problem(ind, x, [z1, z2], [l1, l2]), ws)


def test_solve_forward_instance_scalar():
    ind, x, ws = scalar_setup("dirichlet", 40)
    rng = np.random.default_rng(17)
    word1 = [("xi", CorrElement(1, np.array([0.4 + 0.1j])))]
    word2 = [("xi", CorrElement(2, np.array([0.2 - 0.3j])))]
    y_mat = word_matrix(ind, ws, word1) + word_matrix(ind, ws, word2) \
        + 0.2 * np.eye(ind.dim)
    y_mat /= operator_norm(y_mat) * 1.25
    zs = [0.35, -0.4 + 0.2j, 0.1 + 0.5j]
    points = [DiscPoint.scalar(ind, x, zv) for zv in zs]
    B = [np.eye(1, dtype=complex)] * 3
    F = [np.eye(1) @ hat_eval(z, ws, y_mat) for z in points]
    prob = PickProblem(points, B, F)
    report = pick_map_cp_test(prob)
    assert report.is_cp
    out = np_solve(prob, ws)
    assert max(out.residuals) < 1e-7
    assert out.norm <= 1 + 1e-8


def test_solve_forward_instance_graph():
    ind, x, ws = graph_setup(CYCLE2, (1, 1), 6, "szego")
    rng = np.random.default_rng(23)
    from wfock.duality import primal_generators

    gens = [m for _, m in primal_generators(ind, ws)]
    y_mat = sum(c * g for c, g in zip(rng_complex(rng, len(gens)), gens))
    y_mat = y_mat @ gens[2] + 0.1 * np.eye(ind.dim)
    y_mat /= operator_norm(y_mat) * 1.3
    points = [graph_point(ind, x, 0.01, seed=31), graph_point(ind, x, 0.012, seed=37)]
    B = [np.eye(2, dtype=complex)] * 2
    F = [hat_eval(z, ws, y_mat) for z in points]
    prob = PickProblem(points, B, F)
    assert pick_map_cp_test(prob).is_cp
    out = np_solve(prob, ws)
    assert max(out.residuals) < 1e-7
    assert out.norm <= 1 + 1e-8


def test_solve_forward_multiplicity_and_weighted_b():
    # multiplicities (2, 1): the commutant is noncommutative, targets are
    # weighted by a nontrivial invertible B
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5, "szego")
    rng = np.random.default_rng(41)
    from wfock.duality import primal_generators

    gens = [m for _, m in primal_generators(ind, ws)]
    y_mat = sum(c * g for c, g in zip(rng_complex(rng, len(gens)), gens)) \
        + 0.25 * np.eye(ind.dim)
    y_mat /= operator_norm(y_mat) * 1.4
    points = [graph_point(ind, x, 0.01, seed=51), graph_point(ind, x, 0.012, seed=53)]
    h = ind.rep.h_dim
    b_mats = [np.eye(h, dtype=complex) + 0.3 * rng_complex(rng, h, h) for _ in points]
    F = [b @ hat_eval(z, ws, y_mat) for b, z in zip(b_mats, points)]
    prob = PickProblem(points, b_mats, F)
    assert pick_map_cp_test(prob).is_cp
    out = np_solve(prob, ws)
    assert max(out.residuals) < 1e-7
    assert out.norm <= 1 + 1e-8


def test_solve_matrix_targets():
    # s = t = 2 on the scalar graph: 2x2 matrix interpolation
    ind, x, ws = scalar_setup("szego", 30)
    z1 = 0.3
    lam = np.array([[0.4, 0.1], [0.0, 0.2]], dtype=complex)
    prob = PickProblem([DiscPoint.scalar(ind, x, z1)], [np.eye(2, dtype=complex)], [lam],
                       s=2, t=2)
    out = np_solve(prob, ws)
    assert residual(out.evaluations[0], lam) < 1e-8
    assert out.norm <= 1 + 1e-8


def test_solve_rectangular_targets():
    # s = 1, t = 2: a row-valued interpolant through two nodes
    ind, x, ws = scalar_setup("szego", 30)
    zs = [0.25, -0.4]
    rows = [0.55 * np.array([[0.3, -0.2]], dtype=complex),
            0.55 * np.array([[0.1, 0.45]], dtype=complex)]
    # classical row-valued Pick matrix for these nodes is positive definite
    pick = np.array([[(1 - (rows[i] @ rows[j].conj().T)[0, 0]) / (1 - zs[i] * np.conj(zs[j]))
                      for j in range(2)] for i in range(2)])
    assert np.linalg.eigvalsh(pick).min() > 0
    prob = PickProblem([DiscPoint.scalar(ind, x, zv) for zv in zs],
                       [np.eye(1, dtype=complex)] * 2, rows, s=1, t=2)
    assert pick_map_cp_test(prob).is_cp
    out = np_solve(prob, ws)
    assert out.g_tilde.shape == (ind.dim, 2 * ind.dim)  # maps K^(t) into K^(s)
    assert out.evaluations[0].shape == (1, 2)
    assert max(out.residuals) < 1e-7
    assert out.norm <= 1 + 1e-8
