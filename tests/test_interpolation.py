import numpy as np
import pytest

from oracles import dual_tuples, intertwiner, iota_w_star_check, levelwise_residual, \
    power_residual, prefix_columns, project, quadratic_form_gap, representation_eval
from wfock.duality import DualStructure, dual_lift_model, primal_lift_model
from wfock.graphs import CorrElement, GraphCorrespondence
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import (
    CauchyKernel,
    DiscPoint,
    PickInfeasibleError,
    PickProblem,
    hat_eval,
    kernel_tail_bound,
    kernel_value,
    _span_generators,
    np_solve,
    phi_map,
    pick_map_cp_test,
    szego_kernel,
    word_matrix,
)
from wfock.jsonio import decode_pick_problem, decode_setting
from wfock.lifting import commutant_lift
from wfock.linalg import operator_norm, orth_columns, pinv, residual, rng_complex
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
    assert power_residual(z) < 1e-10
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
            old += z.powers[k] @ xk @ ind.dual_left_levels(arg)[k] @ z.powers[k].conj().T
        assert np.array_equal(z.phi_value(arg), old)


def test_kernel_value_matches_the_inline_formula_bit_for_bit(monkeypatch):
    # the R-weighted powers are cached per point and the product stays left-associated
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    w, z = graph_point(ind, x, 0.5, seed=2), graph_point(ind, x, 0.4, seed=3)
    a = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    rng = np.random.default_rng(8)
    for v in range(ind.graph.n_vertices):
        blk = ind.rep.block(v)
        a[blk, blk] = rng_complex(rng, blk.stop - blk.start, blk.stop - blk.start)
    r = x.R
    old = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    for k in range(ind.levels + 1):
        r2 = ind.level_tensor_identity(r[k] @ r[k], k)
        old += w.powers[k] @ r2 @ ind.dual_left_levels(a)[k] @ z.powers[k].conj().T
    gathers = []
    tensor = ind.level_tensor_identity
    monkeypatch.setattr(ind, "level_tensor_identity",
                        lambda m, *ij: gathers.append(ij) or tensor(m, *ij))
    assert np.array_equal(kernel_value(w, z, a), old)
    assert levelwise_residual(CauchyKernel(w, ws), CauchyKernel(z, ws), a) < 1e-9
    assert len(gathers) == 2 * (ind.levels + 1)  # the two Cauchy columns; none for R_k^2 (x) I


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


CLOSED_FORM_X = {"szego": [1.0], "dirichlet": [0.5, 1.0 / 12.0], "gapped": [0.5, 0.0, 0.25]}


@pytest.mark.parametrize("graph, kind, top", [
    (FREE1, "szego", 11), (FREE1, "dirichlet", 11), (FREE1, "gapped", 11),
    (GraphCorrespondence.free(2), "szego", 7), (GraphCorrespondence.free(2), "dirichlet", 7)],
    ids=["free1-szego", "free1-dirichlet", "free1-gapped", "free2-szego", "free2-dirichlet"])
def test_kernel_tail_bound_bounds_the_error_against_the_closed_form(graph, kind, top):
    """With scalar X and sigma (1), K(z, z)(1) = 1 / (1 - sum_k x_k t^k), t = ||z||^2, on the
    one-loop space and on free(2) (a row point); the truncated kernel misses it by at most
    ``kernel_tail_bound``, for N from the last support level up and ||z|| up to 0.95."""
    xs = CLOSED_FORM_X[kind]
    direction = np.array([[1.0]]) if graph.n_edges == 1 else np.array([[0.6, 0.8j]])
    for n in range(len(xs), top + 1):
        x = AdmissibleSequence.from_scalar(graph, xs, levels=n)
        ind = InducedSpace(graph, Representation((1,)), n)
        for radius in (0.3, 0.6, 0.85, 0.95):
            z = DiscPoint(ind, x, radius * direction)
            t = radius ** 2
            true = 1.0 / (1.0 - sum(xk * t ** k for k, xk in enumerate(xs, start=1)))
            error = abs(true - kernel_value(z, z, np.eye(1))[0, 0])
            assert error <= kernel_tail_bound(z) + 1e-14 * true, (n, radius)


# -- kernels ---------------------------------------------------------------------


def test_szego_kernel_classical():
    ind, x, ws = scalar_setup("szego", 40)
    rng = np.random.default_rng(9)
    for _ in range(10):
        wv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        zv = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6)) / np.sqrt(2)
        w = DiscPoint.scalar(ind, x, wv)
        z = DiscPoint.scalar(ind, x, zv)
        value, tail, cres = szego_kernel(CauchyKernel(w, ws), CauchyKernel(z, ws), np.eye(1))
        assert cres < 1e-9
        assert abs(value[0, 0] - 1.0 / (1.0 - wv * np.conj(zv))) <= tail + 1e-10


def test_szego_kernel_on_built_columns_matches_the_per_pair_build():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    cauchy = [CauchyKernel(graph_point(ind, x, r, seed=seed), ws)
              for r, seed in ((0.5, 2), (0.4, 5), (0.45, 7))]
    a = project(ind.rep, rng_complex(np.random.default_rng(3), 3, 3))
    for cw in cauchy:
        for cz in cauchy:
            w, z = cw.point, cz.point
            # the old build: two fresh Cauchy columns per ordered pair of points
            value = kernel_value(w, z, a)
            tail = 0.5 * (kernel_tail_bound(w) + kernel_tail_bound(z)) * operator_norm(a)
            cres = residual(value, CauchyKernel(w, ws).pairing(CauchyKernel(z, ws), a))
            new_value, new_tail, new_cres = szego_kernel(cw, cz, a)
            assert new_value.tobytes() == value.tobytes()
            assert (new_tail, new_cres) == (tail, cres)


def test_dirichlet_kernel_log_series():
    ind, x, ws = scalar_setup("dirichlet", 60)
    c = CauchyKernel(DiscPoint.scalar(ind, x, 0.5), ws)
    value, tail, cres = szego_kernel(c, c, np.eye(1))
    u = 0.25
    assert abs(value[0, 0] - (-np.log(1 - u) / u)) < 1e-8
    assert cres < 1e-9


def test_kernel_at_zero_is_identity_action():
    ind, x, ws = scalar_setup("szego", 10)
    c = CauchyKernel(DiscPoint.scalar(ind, x, 0.0), ws)
    value, _, _ = szego_kernel(c, c, np.array([[2.5]]))
    assert np.isclose(value[0, 0], 2.5)


def test_kernel_hermiticity():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5)
    w = graph_point(ind, x, 0.5, seed=2)
    z = graph_point(ind, x, 0.4, seed=5)
    rng = np.random.default_rng(0)
    a = rng_complex(rng, ind.rep.h_dim, ind.rep.h_dim)
    a = project(ind.rep, a)
    lhs = kernel_value(w, z, a).conj().T
    rhs = kernel_value(z, w, a.conj().T)
    assert residual(lhs, rhs) < 1e-10


def test_cauchy_levelwise_identity():
    ind, x, ws = graph_setup(CYCLE2, (1, 1), 6)
    w = graph_point(ind, x, 0.5, seed=7)
    z = graph_point(ind, x, 0.45, seed=8)
    cw, cz = CauchyKernel(w, ws), CauchyKernel(z, ws)
    a = np.diag([1.5, -0.5]).astype(complex)
    assert levelwise_residual(cw, cz, a) < 1e-9


def test_iota_w_star():
    for kind in ("szego", "dirichlet"):
        ind, x, ws = graph_setup(CYCLE2, (1, 1), 6, kind)
        z = graph_point(ind, x, 0.5, seed=4)
        s = DualStructure(ind, ws)
        rng = np.random.default_rng(6)
        # random dual element and commutant element
        tuples = dual_tuples(s, 1)
        xi = sum(coef * intertwiner(s, edges, row)
                 for coef, (edges, row) in zip(rng_complex(rng, len(tuples)), tuples))
        d = project(ind.rep, rng_complex(rng, 2, 2))
        assert iota_w_star_check(z, ws, xi, d) < 1e-9
        assert iota_w_star_check(z, ws, xi, np.eye(2, dtype=complex)) < 1e-9


def test_iota_w_star_scalar_backward_shift():
    ind, x, ws = scalar_setup("szego", 30)
    z = DiscPoint.scalar(ind, x, 0.5)
    s = DualStructure(ind, ws)
    xi = intertwiner(s, (0,), 0)
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
        # one vertex with one unit and scalar targets: the Choi matrix is the 2 x 2 Pick matrix
        zs, lams = np.array([z1, z2]), np.array([l1, l2])
        pick = (1 - np.outer(lams, lams.conj())) / (1 - np.outer(zs, zs.conj()))
        assert report.choi.shape == (2, 2)
        assert abs(report.min_eigenvalue - np.linalg.eigvalsh(pick).min()) < 1e-9


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


# -- the hypothesis budget and the corollary's conclusions ---------------------


def _reference_defect(problem, ws):
    """The lifting-hypothesis defect as np_solve measured it on amplified models
    before two_space_lift checked the summands, with the dense amplified generators
    I_c (x) g; also the spans, the map and those generators."""
    cols_b, cols_f, _ = _span_generators(problem, ws)
    q_b, q_f = orth_columns(cols_b), orth_columns(cols_f)
    coords_b, coords_f = q_b.conj().T @ cols_b, q_f.conj().T @ cols_f
    g12 = (coords_f @ pinv(coords_b)).conj().T
    base = dual_lift_model(DualStructure(problem.ind, ws))
    gens_s, gens_t = ([np.kron(np.eye(copies), g) for g in base.generators]
                      for copies in (problem.s, problem.t))
    defect = 0.0
    for gens, frame in ((gens_s, q_b), (gens_t, q_f)):
        for g in gens:  # (I - P) g^* Q on the thin frame Q
            image = g.conj().T @ frame
            defect = max(defect, operator_norm(image - frame @ (frame.conj().T @ image)))
    for g_s, g_t in zip(gens_s, gens_t):
        defect = max(defect, residual(g12 @ (q_f.conj().T @ g_t @ q_f),
                                      (q_b.conj().T @ g_s @ q_b) @ g12))
    return defect, q_f, q_b, g12, gens_t, gens_s


def _reference_corollary(g_tilde, j1, j2, g12, gens1, gens2):
    """The corollary's four conclusions written out, (I - P_1) g_tilde^* J_2 on the thin frames."""
    adjoint = g_tilde.conj().T @ j2
    return {
        "adjoint_invariance": operator_norm(adjoint - j1 @ (j1.conj().T @ adjoint)),
        "compression": residual(j2.conj().T @ g_tilde @ j1, g12),
        "intertwining": max(residual(g_tilde @ a, b @ g_tilde) for a, b in zip(gens1, gens2)),
        "norm": abs(operator_norm(g_tilde) - operator_norm(g12)),
    }


def _cycle2_matrix_point_problem():
    ind, x, ws = graph_setup(CYCLE2, (2, 1), 5, "szego")
    rng = np.random.default_rng(41)
    from wfock.duality import primal_generators

    gens = [m for _, m in primal_generators(ind, ws)]
    y_mat = sum(c * g for c, g in zip(rng_complex(rng, len(gens)), gens)) \
        + 0.25 * np.eye(ind.dim)
    y_mat /= operator_norm(y_mat) * 1.4
    points = [graph_point(ind, x, 0.01, seed=51), graph_point(ind, x, 0.012, seed=53)]
    return PickProblem(points, [np.eye(ind.rep.h_dim, dtype=complex)] * 2,
                       [hat_eval(z, ws, y_mat) for z in points]), ws


def _rectangular_problem():
    ind, x, ws = scalar_setup("szego", 30)
    rows = [0.55 * np.array([[0.3, -0.2]], dtype=complex),
            0.55 * np.array([[0.1, 0.45]], dtype=complex)]
    return PickProblem([DiscPoint.scalar(ind, x, zv) for zv in (0.25, -0.4)],
                       [np.eye(1, dtype=complex)] * 2, rows, s=1, t=2), ws


@pytest.mark.parametrize("make", [_cycle2_matrix_point_problem, _rectangular_problem],
                         ids=["cycle2-matrix-points", "rectangular"])
def test_hypothesis_budget_and_conclusions_match_the_reference(monkeypatch, make):
    problem, ws = make()
    builds = []
    init = CauchyKernel.__post_init__
    monkeypatch.setattr(CauchyKernel, "__post_init__", lambda c: builds.append(1) or init(c))
    out = np_solve(problem, ws)
    assert len(builds) == len(problem.points)  # one Cauchy column per point, reused
    monkeypatch.undo()
    defect, q_f, q_b, g12, gens_t, gens_s = _reference_defect(problem, ws)
    assert max(out.trace["hypothesis"].values()) == defect
    assert out.hyp_budget == max(1e-9, 2.0 * defect)
    assert out.trace["conclusions"] == _reference_corollary(out.g_tilde, q_f, q_b, g12,
                                                            gens_t, gens_s)


def test_solve_refuses_spans_that_violate_the_hypotheses(monkeypatch):
    # a defect above 1e-3 is refused, named, with the truncation advice
    problem, ws = _rectangular_problem()
    import wfock.lifting

    monkeypatch.setattr(wfock.lifting, "_frame_coinvariance", lambda frame, gens: 2e-3)
    with pytest.raises(ValueError, match=r"kernel spans: lifting hypothesis fails: "
                                         r"J_1 co-invariance residual 2\.00e-03; "):
        np_solve(problem, ws)
    monkeypatch.setattr(wfock.lifting, "_frame_coinvariance", lambda frame, gens: 1e-3)
    assert np_solve(problem, ws).hyp_budget == 2e-3


def test_a_linalg_error_in_the_loop_is_not_a_hypothesis_failure(monkeypatch):
    # only the lifting hypotheses are re-worded as a kernel-span refusal
    problem, ws = _rectangular_problem()
    import wfock.lifting

    def no_convergence(p):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(wfock.lifting, "parrott_complete", no_convergence)
    with pytest.raises(np.linalg.LinAlgError) as info:
        np_solve(problem, ws)
    assert "kernel spans" not in str(info.value)


CLAMPED = {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
           "X": {"scalar": [1.0]},
           "points": [{"matrix": [[[-0.023, -0.149], [-0.086, -0.06]]]},
                      {"matrix": [[[0.121, -0.007], [-0.006, 0.0]]]}],
           "F": [[[[0.12, 0.004]]], [[[0.108, 0.001]]]]}


def setting_of(obj, n):
    """(ind, x, ws) of an input at truncation n."""
    graph, rep, x, ws = decode_setting(obj, n)
    return InducedSpace(graph, rep, n), x, ws


def test_the_ledger_keeps_what_its_readers_read():
    # the reports read m, n_m, dim_j, mu and the residuals; perfbench counts the
    # steps whose f_clamp < 1 with a default of 1, so a dropped key would read as no clamp
    ws, problem = decode_pick_problem(CLAMPED, lambda: setting_of(CLAMPED, 5))
    steps = np_solve(problem, ws).trace["steps"]
    for step in steps:
        assert set(step) == {"m", "n_m", "dim_j", "mu", "f_clamp", "coinvariant",
                             "intertwining"}
    clamps = [step["f_clamp"] for step in steps if step["f_clamp"] < 1.0]
    assert clamps == pytest.approx([0.929, 2.25e-4, 8.16e-5], rel=1e-2)
    # only the lift report reads norm_one, which commutant_lift adds to each step
    ind, _, ws = graph_setup(n=3)
    model = primal_lift_model(ind, ws)
    j = prefix_columns(model, 0)
    for step in commutant_lift(model, j, 0.5 * np.eye(j.shape[1]))[1]["steps"]:
        assert set(step) == {"m", "n_m", "dim_j", "mu", "f_clamp", "coinvariant",
                             "intertwining", "norm_one"}
