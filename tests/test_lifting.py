import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wfock.liftcheck
import wfock.lifting
from graph_strategies import multiplicities, small_graphs
from oracles import CoinvariantSubspace, gm_star_expansion_residual, prefix_columns
from wfock.acceptance import _random_graph_x
from wfock.duality import DualStructure, dual_lift_model, primal_lift_model
from wfock.graphs import GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.liftcheck import alphabeta_validator, compression_instance, krylov_closure, \
    random_commutant_element
from wfock.lifting import (
    ParrottProblem,
    _check_contains_prefix,
    _conclusions,
    _escape_level,
    _frame_coinvariance,
    commutant_lift,
    LiftState,
    parrott_complete,
    two_space_lift,
)
from wfock.linalg import RANK_TOL, _complement, _complement_coords, _project_out, operator_norm, \
    orth_columns, residual, rng_complex
from wfock.weights import AdmissibleSequence, admissible_from_kernel_coeffs, weight_system_from

FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)


def make_setup(graph, mults, n, kind="dirichlet"):
    if kind == "szego":
        x = AdmissibleSequence.from_scalar(graph, [1.0], levels=n)
    else:
        xs, ok, _ = admissible_from_kernel_coeffs([1 / (k + 1) for k in range(n + 1)])
        assert ok
        x = AdmissibleSequence.from_scalar(graph, xs, levels=n)
    ws = weight_system_from(x)
    ind = InducedSpace(graph, Representation(mults), n)
    return ind, ws


# -- Parrott ------------------------------------------------------------------


def test_parrott_scalar_example():
    p = ParrottProblem(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    u = parrott_complete(p)
    assert np.isclose(u[0, 0], 0.0)
    assert np.isclose(operator_norm(p.assemble(u)), 1.0)


def test_parrott_zero_column():
    p = ParrottProblem(np.array([[0.5]]), np.array([[0.5]]), np.zeros((1, 1)))
    u = parrott_complete(p)
    assert np.isclose(u[0, 0], 0.0)
    assert operator_norm(p.assemble(u)) <= p.mu * (1 + 1e-8)


def test_parrott_random_blocks():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        a, b, c, d = rng.integers(1, 9, size=4)
        p = ParrottProblem(rng_complex(rng, a, b), rng_complex(rng, c, b), rng_complex(rng, a, d))
        u = parrott_complete(p)
        worst = max(worst, operator_norm(p.assemble(u)) / p.mu - 1.0)
    assert worst <= 1e-8


def test_parrott_boundary_case():
    # column already attains mu: the pseudoinverse threshold must cope
    rng = np.random.default_rng(1)
    r = np.diag([1.0, 0.3])
    s = np.zeros((2, 2))
    t = rng_complex(rng, 2, 2) * 0.1
    p = ParrottProblem(r, s, t)
    u = parrott_complete(p)
    assert operator_norm(p.assemble(u)) <= p.mu * (1 + 1e-8)


def _boundary_blocks(rng):
    """Random R, S, T with ||[R; S]|| = ||[R, T]|| = ||R|| = mu, so that
    mu^2 I - R^* R is singular: R = U diag(s) V^* with s_1 = mu, and S, T built
    as contractions times the square roots of mu^2 I - R^* R and mu^2 I - R R^*,
    formed on the singular vectors so that the null direction stays exact."""
    a, b, c, d = rng.integers(1, 6, size=4)
    mu = float(rng.uniform(0.5, 2.0))
    u, v = (np.linalg.qr(rng_complex(rng, n, n))[0] for n in (a, b))
    s = np.zeros(max(a, b))
    s[:min(a, b)] = np.sort(rng.uniform(0.0, 0.9 * mu, size=min(a, b)))[::-1]
    s[0] = mu
    r = (u[:, :min(a, b)] * s[:min(a, b)]) @ v[:, :min(a, b)].conj().T

    def contraction(rows, cols):
        m = rng_complex(rng, rows, cols)
        return m * (rng.uniform(0.2, 1.0) / operator_norm(m))

    s_blk = contraction(c, b) @ (v * np.sqrt(mu * mu - s[:b] ** 2)) @ v.conj().T
    t_blk = (u * np.sqrt(mu * mu - s[:a] ** 2)) @ u.conj().T @ contraction(a, d)
    return r, s_blk, t_blk, mu


def _near_floor_blocks(rng, ratio):
    """R, S, T with lambda_min(mu^2 I - R^* R) = ratio x 1e-12 mu^2, the damping floor
    at ratio 1: T = tau u_1 along R's top left singular vector makes mu^2 = s_1^2 + tau^2,
    and S of norm 0.3 sees only the other right singular vectors."""
    a, b, c = (int(n) for n in rng.integers(2, 7, size=3))
    u, v = (np.linalg.qr(rng_complex(rng, n, n))[0] for n in (a, b))
    s = np.sort(rng.uniform(0.1, 0.9, size=min(a, b)))[::-1]
    s[0] = 1.0
    r = (u[:, :s.size] * s) @ v[:, :s.size].conj().T
    t = (np.sqrt(ratio * 1e-12) * u[:, 0])[:, None]
    s_blk = rng_complex(rng, c, b) @ (np.eye(b) - np.outer(v[:, 0], v[:, 0].conj()))
    s_blk *= 0.3 / operator_norm(s_blk)  # ||[R; S]|| = s_1 = 1 < mu
    return r, s_blk, t


def _assert_parrott_oracle(p):
    """Parrott's lemma, with no reference to how the corner is found: a finite
    completion whose norm is the least possible, mu, up to 1e-8 relative."""
    u = parrott_complete(p)
    assert u.shape == (p.S.shape[0], p.T.shape[1])
    assert np.isfinite(u).all()
    assert operator_norm(p.assemble(u)) <= p.mu * (1 + 1e-8)


def test_parrott_completion_where_the_gram_is_singular():
    # ||[R; S]|| = mu = ||R|| = 1, so mu^2 I - R^* R = diag(0, 0.91) is singular
    p = ParrottProblem(np.diag([1.0, 0.3]), np.array([[0.0, 0.5], [0.0, 0.0]]),
                       np.array([[0.0], [0.2]]))
    assert np.isclose(p.mu, 1.0, rtol=0, atol=1e-15)
    _assert_parrott_oracle(p)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_parrott_completion_on_boundary_blocks(seed):
    r, s_blk, t_blk, mu = _boundary_blocks(np.random.default_rng(seed))
    p = ParrottProblem(r, s_blk, t_blk)
    assert np.isclose(p.mu, mu, rtol=1e-14, atol=0)
    assert np.isclose(operator_norm(r), mu, rtol=1e-14, atol=0)
    _assert_parrott_oracle(p)


@pytest.mark.parametrize("ratio", [0.3, 0.6, 0.99, 1.01, 1.5, 3.0])
def test_parrott_completion_around_the_damping_floor(ratio):
    for seed in range(4):
        r, s_blk, t = _near_floor_blocks(np.random.default_rng([seed, int(100 * ratio)]), ratio)
        p = ParrottProblem(r, s_blk, t)
        assert p.mu == p.row_norm
        gap = np.linalg.eigvalsh(p.mu ** 2 * np.eye(r.shape[1]) - r.conj().T @ r).min()
        assert gap == pytest.approx(ratio * 1e-12 * p.mu ** 2, rel=1e-3)
        _assert_parrott_oracle(p)


def test_parrott_shapes_checked():
    with pytest.raises(ValueError):
        ParrottProblem(np.eye(2), np.eye(3), np.eye(2))


def test_parrott_norms_are_the_known_row_and_column():
    rng = np.random.default_rng(3)
    r, s, t = rng_complex(rng, 3, 4), rng_complex(rng, 2, 4), rng_complex(rng, 3, 1)
    p = ParrottProblem(r, s, t)
    assert p.row_norm == float(np.linalg.norm(np.hstack([r, t]), 2))
    assert p.col_norm == float(np.linalg.norm(np.vstack([r, s]), 2))
    assert p.mu == max(p.col_norm, p.row_norm)


# -- the f_clamp --------------------------------------------------------------


def _clamped_blocks(rng, clamp):
    """Random R, S, T whose column norm ||[R; S]|| exceeds the row norm, with
    the crossing ||[R; cS]|| = row norm (1 + 1e-11) near c = ``clamp``."""
    a, b, c, d = rng.integers(1, 6, size=4)
    r, s, t = rng_complex(rng, a, b), rng_complex(rng, c, b), rng_complex(rng, a, d)
    target = float(np.linalg.norm(np.hstack([r, t]), 2)) * (1.0 + 1e-11)
    lo, hi = 0.0, 1.0  # scale of s at the crossing; ||[R; hi s]|| > target
    while float(np.linalg.norm(np.vstack([r, hi * s]), 2)) <= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if float(np.linalg.norm(np.vstack([r, mid * s]), 2)) <= target \
            else (lo, mid)
    return r, (lo / clamp) * s, t, target


@pytest.mark.parametrize("clamp", [1.0 - 1e-9, 1.0 - 1e-7, 1.0 - 1e-6, 0.9, 3e-4, 1e-4, 1e-8])
def test_clamp_column_is_the_largest_scale_within_the_target(clamp):
    rng = np.random.default_rng(int(clamp * 1e9) % 2 ** 32)
    for _ in range(10):
        r, s, t, target = _clamped_blocks(rng, clamp)
        p = ParrottProblem(r, s, t)
        assert p.col_norm > target
        c = p.clamp_column(target)
        assert 0.0 < c < 1.0
        assert np.array_equal(p.S, c * s)
        assert p.col_norm == operator_norm(np.vstack([r, p.S]))
        assert p.col_norm <= target * (1 + 1e-12)
        assert operator_norm(np.vstack([r, c * (1 + 1e-8) * s])) > target
        assert p.mu == max(p.col_norm, p.row_norm)


def test_clamp_column_keeps_a_column_within_the_target():
    rng = np.random.default_rng(5)
    for clamp in (1.0 + 1e-9, 1.5, 4.0):
        r, s, t, target = _clamped_blocks(rng, clamp)
        p = ParrottProblem(r, s, t)
        col_norm = p.col_norm
        assert col_norm <= target
        assert p.clamp_column(target) == 1.0
        assert np.array_equal(p.S, s) and p.col_norm == col_norm


# -- lifting on the graph side --------------------------------------------------


def test_commutant_lift_zero_operator():
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    j = prefix_columns(model, 0)
    g0 = np.zeros((j.shape[1], j.shape[1]))
    g_tilde, trace = commutant_lift(model, j, g0)
    assert operator_norm(g_tilde) == 0.0
    assert max(trace["conclusions"].values()) < 1e-12


def test_commutant_lift_identity_on_vacuum_slice():
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    j = prefix_columns(model, 0)  # the vacuum slice K_0
    g = np.eye(j.shape[1])
    g_tilde, trace = commutant_lift(model, j, g)
    concl = trace["conclusions"]
    assert max(concl.values()) < 1e-8, concl
    # compression back to J is the identity we started from
    assert residual(j.conj().T @ g_tilde @ j, g) < 1e-9


def test_commutant_lift_scalar_multiple():
    ind, ws = make_setup(CYCLE2, (1, 1), 4)
    model = primal_lift_model(ind, ws)
    j = prefix_columns(model, 1)
    g = 0.6 * np.eye(j.shape[1])
    g_tilde, trace = commutant_lift(model, j, g)
    assert max(trace["conclusions"].values()) < 1e-9
    assert abs(operator_norm(g_tilde) - 0.6) < 1e-9


def prefix_coinvariant(model):
    sub = CoinvariantSubspace(model, prefix_columns(model, 1))
    return sub.coinvariance_residual()


def test_prefix_subspaces_coinvariant():
    ind, ws = make_setup(CYCLE2, (2, 1), 3)
    assert prefix_coinvariant(primal_lift_model(ind, ws)) < 1e-12


def _with_f_checks(validator, record):
    """``validator`` as a step validator that also appends to ``record`` the F checks
    the ledger does not carry: ||F|| with F rebuilt from the compressions,
    ||F^* restricted to J_m - R||, and ||G_{m+1}|| (the assembled Parrott
    completion, up to a permutation of its columns)."""
    def step(state, new_state):
        model, q_m, q_m1 = state.model, state.frame, new_state.frame
        g_vec = model.vacuum(state.g_mat)
        f_mat = np.zeros((model.dim, q_m1.shape[1]), dtype=complex)
        for k in range(1, model.levels + 1):
            for beta, (rows, cols) in model.compressions(k, q_m1, q_m):
                f_mat[rows] += (g_vec.conj().T @ beta.conj().T)[cols]
        rest = np.flatnonzero(model.level > 0)
        record.append({
            "f_norm": operator_norm(f_mat),
            "f_restriction": residual(f_mat.conj().T[:state.dim_j, rest], state.g_mat[:, rest]),
            "completed_norm": operator_norm(new_state.g_mat)})
        return validator(state, new_state)
    return step


def test_random_instances_all_conclusions():
    rng = np.random.default_rng(7)
    configs = [
        (FREE2, (1,), 3, "szego"),
        (FREE2, (1,), 3, "dirichlet"),
        (CYCLE2, (1, 1), 4, "dirichlet"),
        (CYCLE2, (2, 1), 3, "dirichlet"),
    ]
    for graph, mults, n, kind in configs:
        ind, ws = make_setup(graph, mults, n, kind)
        model = primal_lift_model(ind, ws)
        dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
        validator = alphabeta_validator(ind, ws, seed=3)
        for trial in range(3):
            frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
            if frame.shape[1] == model.dim:
                continue  # closure swallowed everything; nothing to lift
            f_checks = []
            g_tilde, trace = commutant_lift(model, frame, g_on_j,
                                            step_validator=_with_f_checks(validator, f_checks))
            concl = trace["conclusions"]
            assert max(concl.values()) < 1e-8, (graph, mults, kind, concl)
            assert len(f_checks) == len(trace["steps"])
            for step, f_check in zip(trace["steps"], f_checks):
                assert f_check["completed_norm"] <= step["mu"] * (1 + 1e-8)
                assert f_check["f_norm"] <= 1 + 1e-8
                assert f_check["f_restriction"] < 1e-9
                assert step["coinvariant"] < 1e-8
                assert step["intertwining"] < 1e-8
                if "extra" in step:
                    assert max(step["extra"].values()) < 1e-9, step["extra"]


def test_validator_builds_each_weighted_creation_once(monkeypatch):
    # per step: W_xi, W_{a^* . xi}, W_{xi . a}, W_{T eta} and one W per level-k basis piece
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    built = []
    build = wfock.liftcheck.weighted_creation
    monkeypatch.setattr(wfock.liftcheck, "weighted_creation",
                        lambda space, z, xi: built.append(xi.level) or build(space, z, xi))
    validator = alphabeta_validator(ind, ws, seed=3)
    counts = []

    def step(state, new_state):
        built.clear()
        out = validator(state, new_state)
        assert len(set(built)) == 1
        counts.append((len(built), path_basis(FREE2, built[0]).size + 4))
        return out

    j = prefix_columns(model, 0)
    _, trace = commutant_lift(model, j, 0.5 * np.eye(j.shape[1]), step_validator=step)
    assert len(counts) == len(trace["steps"]) > 1
    assert all(got == want for got, want in counts), counts
    assert max(max(entry["extra"].values()) for entry in trace["steps"]) < 1e-9


def test_gm_star_expansion():
    rng = np.random.default_rng(11)
    ind, ws = make_setup(CYCLE2, (1, 1), 4)
    model = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
    nrm = operator_norm(g_on_j)
    state = LiftState(model, frame, (g_on_j / nrm) @ frame.conj().T, [-1])
    assert gm_star_expansion_residual(state, ind) < 1e-9


def test_commutation_with_random_words():
    # conclusion (3) extends from generators to words
    rng = np.random.default_rng(5)
    ind, ws = make_setup(FREE2, (1,), 4)
    model = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
    g_tilde, _ = commutant_lift(model, frame, g_on_j)
    for _ in range(5):
        word = np.eye(model.dim, dtype=complex)
        for _ in range(3):
            word = word @ model.generators[int(rng.integers(0, len(model.generators)))]
        assert residual(g_tilde @ word, word @ g_tilde) < 1e-8


def test_lift_on_dual_model():
    # the same loop runs on the transported dual side
    rng = np.random.default_rng(13)
    ind, ws = make_setup(CYCLE2, (1, 1), 4)
    s = DualStructure(ind, ws)
    model = dual_lift_model(s)
    from wfock.duality import primal_generators

    commutant_gens = [m for _, m in primal_generators(ind, ws)]
    frame, g_on_j, _ = compression_instance(model, commutant_gens, rng)
    if frame.shape[1] < model.dim:
        g_tilde, trace = commutant_lift(model, frame, g_on_j)
        assert max(trace["conclusions"].values()) < 1e-8


def test_two_space_lift_self_case_matches():
    rng = np.random.default_rng(17)
    ind, ws = make_setup(CYCLE2, (1, 1), 3)
    model = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
    g_tilde2, trace2 = two_space_lift(model, 1, 1, frame, frame, g_on_j, hypothesis_tol=1e-9)
    assert max(trace2["conclusions"].values()) < 1e-8
    g_tilde1, _ = commutant_lift(model, frame, g_on_j)
    assert abs(operator_norm(g_tilde2) - operator_norm(g_tilde1)) < 1e-8
    # (t, s) = (2, 1): J_1 = J (+) J in K^(2), and [G, G] / sqrt 2 maps it onto J
    frame2 = np.kron(np.eye(2), frame)
    g12 = np.hstack([g_on_j, g_on_j]) / np.sqrt(2.0)
    g_tilde3, trace3 = two_space_lift(model, 2, 1, frame2, frame, g12, hypothesis_tol=1e-9)
    assert max(trace3["conclusions"].values()) < 1e-8
    assert g_tilde3.shape == (model.dim, 2 * model.dim)


def test_two_space_lift_zero():
    ind, ws = make_setup(FREE2, (1,), 2)
    model = primal_lift_model(ind, ws)
    j = prefix_columns(model, 0)
    g = np.zeros((j.shape[1], j.shape[1]))
    g_tilde, trace = two_space_lift(model, 1, 1, j, j, g, hypothesis_tol=1e-9)
    assert operator_norm(g_tilde) == 0.0


def test_lift_of_cauchy_line_matches_one_point_norm():
    # J spanned by one kernel column: the lifted norm is the compression norm,
    # which for a single node is the classical minimal multiplier norm
    from wfock.graphs import GraphCorrespondence as GC
    from wfock.induced import InducedSpace, Representation
    from wfock.interpolation import CauchyKernel, DiscPoint

    free1 = GC.free(1)
    x = AdmissibleSequence.from_scalar(free1, [1.0], levels=30)
    ws = weight_system_from(x)
    ind = InducedSpace(free1, Representation((1,)), 30)
    model = primal_lift_model(ind, ws)
    z = DiscPoint.scalar(ind, x, 0.4)
    col = CauchyKernel(z, ws).column
    frame = col / np.linalg.norm(col)
    lam = 0.65 - 0.2j
    g_tilde, trace = commutant_lift(model, frame, np.array([[lam]]))
    assert abs(operator_norm(g_tilde) - abs(lam)) < 1e-8
    assert max(trace["conclusions"].values()) < 1e-8


def test_krylov_closure_stabilizes():
    ind, ws = make_setup(CYCLE2, (1, 1), 3)
    model = primal_lift_model(ind, ws)
    rng = np.random.default_rng(23)
    frame = krylov_closure(model, rng_complex(rng, model.dim, 1), [])
    sub = CoinvariantSubspace(model, frame)
    assert sub.coinvariance_residual() < 1e-12


def _reference_closure(model, seeds, extra_ops, res_norms):
    """``krylov_closure`` with an SVD of every residual; appends each residual's
    Frobenius norm to ``res_norms``."""
    ops = [g.conj().T / max(operator_norm(g), 1e-30)
           for g in list(model.generators) + list(extra_ops)]
    frame = orth_columns(seeds, 1e-12)
    for _ in range(4 * (model.dim + 1)):
        escaped = []
        for op in ops:
            res = _project_out(frame, op @ frame)
            res_norms.append(np.linalg.norm(res))
            norm = operator_norm(res)
            if norm > 1e-13:
                escaped.append(res / norm)
        if not escaped:
            return frame
        add = orth_columns(np.hstack(escaped), 1e-9)
        add = orth_columns(_complement(frame, add), 0.5)
        if add.shape[1] == 0:
            return frame
        frame = np.hstack([frame, add])
        if frame.shape[1] >= model.dim:
            return orth_columns(np.eye(model.dim, dtype=complex), 0.5)
    raise RuntimeError("closure did not stabilize")


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_krylov_closure_matches_the_svd_of_every_residual(graph, n, data):
    """The closure's frame equals, bit for bit, that of a closure taking an SVD of
    every residual, and no SVD is taken of a residual with Frobenius norm <= 0.5e-13."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    model = primal_lift_model(ind, weight_system_from(_random_graph_x(graph, n, rng)))
    support = model.prefix_idx(data.draw(st.integers(0, n), label="seed level"))
    seeds = np.zeros((model.dim, 1), dtype=complex)
    seeds[support] = rng_complex(rng, support.size, 1)
    extra = [random_commutant_element(model.generators, rng)] \
        if data.draw(st.booleans(), label="extra operator") else []
    res_norms = []
    want = _reference_closure(model, seeds, extra, res_norms)
    svd_norms = []
    norm = wfock.liftcheck.operator_norm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.liftcheck, "operator_norm",
                      lambda a: svd_norms.append(np.linalg.norm(a)) or norm(a))
        got = krylov_closure(model, seeds, extra)
    assert np.array_equal(got, want)
    n_ops = len(model.generators) + len(extra)  # the normalizations come first
    assert len(svd_norms) == n_ops + sum(f > 0.5e-13 for f in res_norms)
    assert all(f > 0.5e-13 for f in svd_norms[n_ops:])


def test_one_rank_test_per_lift_step(monkeypatch):
    # the escape scan starts above n_m, so on the one-loop space, where each
    # step adjoins the next level, it tests exactly one level per step
    from wfock.interpolation import CauchyKernel, DiscPoint

    free1 = GraphCorrespondence.free(1)
    x = AdmissibleSequence.from_scalar(free1, [1.0], levels=12)
    ws = weight_system_from(x)
    ind = InducedSpace(free1, Representation((1,)), 12)
    model = primal_lift_model(ind, ws)
    col = CauchyKernel(DiscPoint.scalar(ind, x, 0.1), ws).column
    tested = []
    orth = wfock.lifting.orth_columns

    def orth_columns(a, tol):
        if tol == RANK_TOL:  # the escape scan's rank test; new directions are taken at 0.5
            tested.append(a.shape[1])
        return orth(a, tol)

    monkeypatch.setattr(wfock.lifting, "orth_columns", orth_columns)
    _, trace = commutant_lift(model, col / np.linalg.norm(col), np.array([[0.5]]))
    assert len(trace["steps"]) == model.dim - 1
    assert len(tested) == len(trace["steps"])
    assert tested == [step["n_m"] + 1 for step in trace["steps"]]


def test_lift_step_raises_when_the_frame_misses_the_escaping_level(monkeypatch):
    # keep one of the two new directions of K_1 out of J_2 (the ledger's m = 2): K_1 is not in J
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    orth = wfock.lifting.orth_columns
    monkeypatch.setattr(wfock.lifting, "orth_columns",
                        lambda a, tol: orth(a, tol)[:, :-1] if tol == 0.5 else orth(a, tol))
    j = prefix_columns(model, 0)
    with pytest.raises(RuntimeError, match="lift step 2: K_1 is not contained in J"):
        commutant_lift(model, j, np.eye(j.shape[1]))


def test_lift_step_names_a_completion_that_is_not_finite(monkeypatch):
    # a factorization of R gone NaN, which the clamp and the Parrott corner both read,
    # is named at its step (the first is m = 2), not one SVD later
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    monkeypatch.setattr(wfock.lifting, "_svd", lambda a: tuple(
        np.full_like(f, np.nan) for f in np.linalg.svd(a, full_matrices=False)))
    j = prefix_columns(model, 0)
    with pytest.raises(RuntimeError, match="lift step 2: the Parrott completion is not finite"):
        commutant_lift(model, j, 0.5 * np.eye(j.shape[1]))


def _reference_escape(state):
    """The escape scan as a values-only SVD followed by a thin one, on dense prefix columns."""
    q = state.frame
    for n in range(state.n_list[-1] + 1, state.model.levels + 1):
        res = _project_out(q, prefix_columns(state.model, n))
        if res.size and operator_norm(res) > RANK_TOL:
            return n, orth_columns(res, RANK_TOL)
    raise AssertionError("a proper frame has an escaping level")


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_escape_scan_and_containment_guard_match_the_svd_tests(graph, n, data):
    """On frames that hold K_{n1} up to a perturbation of random size, at n_m = n0 <= n1:
    the escape level and frame equal those of the values-only rank test, the scan
    takes no SVD of a tested level whose residual has Frobenius norm at most
    RANK_TOL / 2, and the guard raises exactly when ||(I - P) E_{n0}|| > RANK_TOL,
    without an SVD when the Frobenius norm is at most RANK_TOL / 2."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    model = primal_lift_model(ind, weight_system_from(_random_graph_x(graph, n, rng)))
    proper = [k for k in range(n + 1) if model.prefix_idx(k).size < model.dim]
    n1 = data.draw(st.sampled_from(proper), label="n1")
    n0 = data.draw(st.integers(-1, n1), label="n0")
    held = prefix_columns(model, n1)
    delta = 10.0 ** data.draw(st.floats(-12, -8), label="log10 perturbation")
    extra = data.draw(st.integers(0, model.dim - held.shape[1] - 1), label="extra columns")
    seeds = np.hstack([held + delta * rng_complex(rng, *held.shape),
                       rng_complex(rng, model.dim, extra)])
    frame = np.linalg.qr(seeds)[0]
    state = LiftState(model, frame, np.zeros((frame.shape[1], model.dim), dtype=complex), [n0])
    prefix = prefix_columns(model, n0)

    rank_tests = []
    orth = wfock.lifting.orth_columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.lifting, "orth_columns",
                      lambda a, tol: rank_tests.append(np.linalg.norm(a)) or orth(a, tol))
        got_n, got_frame = _escape_level(state)
    want_n, want_frame = _reference_escape(state)
    assert got_n == want_n
    assert np.array_equal(got_frame, want_frame)
    tested = [np.linalg.norm(_complement(frame, _complement_coords(frame, model.prefix_idx(k))))
              for k in range(n0 + 1, got_n + 1)]
    assert len(rank_tests) == sum(f > RANK_TOL / 2 for f in tested)
    assert all(f > RANK_TOL / 2 for f in rank_tests)

    c = _complement(frame, prefix)
    svds = []
    norm = wfock.lifting.operator_norm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.lifting, "operator_norm", lambda a: svds.append(1) or norm(a))
        if operator_norm(c) > RANK_TOL:
            with pytest.raises(RuntimeError, match=f"K_{n0} is not contained in J"):
                _check_contains_prefix(state)
        else:
            _check_contains_prefix(state)
    if np.linalg.norm(c) <= RANK_TOL / 2:
        assert svds == []


def test_lift_step_rejects_full_space():
    ind, ws = make_setup(FREE2, (1,), 2)
    model = primal_lift_model(ind, ws)
    state = LiftState(model, np.eye(model.dim, dtype=complex),
                      np.eye(model.dim, dtype=complex), [-1])
    from wfock.lifting import lift_step

    with pytest.raises(ValueError):
        lift_step(state)


def test_amplified_dual_model_stays_small():
    # band blocks shared by the copies, not a dense whole-space operator per
    # basis element kron'ed per copy (that held about 160 MB here)
    ind, ws = make_setup(FREE2, (1,), 6)
    structure = DualStructure(ind, ws)
    tracemalloc.start()
    try:
        model = dual_lift_model(structure).amplify(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.dim == 254
    assert peak < 16e6, peak


# -- the shared hypotheses and conclusions ------------------------------------


def _reference_conclusions(model, j_frame, g_on_j, g_tilde):
    """The four conclusions written out, (I - P) g_tilde^* J on the thin frame J."""
    adjoint = g_tilde.conj().T @ j_frame
    return {
        "adjoint_invariance": operator_norm(adjoint - j_frame @ (j_frame.conj().T @ adjoint)),
        "compression": residual(j_frame.conj().T @ g_tilde @ j_frame, g_on_j),
        "commutation": max(residual(g_tilde @ g, g @ g_tilde) for g in model.generators),
        "norm": abs(operator_norm(g_tilde) - operator_norm(g_on_j)),
    }


def test_commutant_lift_conclusions_match_the_reference_bit_for_bit():
    rng = np.random.default_rng(29)
    for graph, mults, n in ((CYCLE2, (2, 1), 3), (FREE2, (1,), 3)):
        ind, ws = make_setup(graph, mults, n)
        model = primal_lift_model(ind, ws)
        dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
        frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
        assert frame.shape[1] < model.dim
        g_tilde, trace = commutant_lift(model, frame, g_on_j)
        assert trace["conclusions"] == _reference_conclusions(model, frame, g_on_j, g_tilde)


@settings(max_examples=25, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_thin_frame_residuals_match_the_whole_space_projector(graph, n, data):
    """||(I - P) g^* Q|| and ||(I - P_in) g_tilde^* J_out|| on thin frames against the
    whole-space projector formulas ||(I - P) g^* P|| and ||(I - P_in) g_tilde^* J_out||,
    on random orthonormal frames that are not co-invariant in general."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    model = primal_lift_model(ind, weight_system_from(_random_graph_x(graph, n, rng)))

    def frame():
        width = data.draw(st.integers(1, model.dim), label="width")
        return np.linalg.qr(rng_complex(rng, model.dim, width))[0]

    j_in, j_out = frame(), frame()
    p_in = j_in @ j_in.conj().T
    comp = np.eye(model.dim) - p_in
    whole_space = max(operator_norm(comp @ g.conj().T @ p_in) for g in model.generators)
    scale = max(1.0, max(operator_norm(g) for g in model.generators))
    assert abs(_frame_coinvariance(j_in, model.generators) - whole_space) <= 1e-14 * scale
    g_tilde = rng_complex(rng, model.dim, model.dim)
    pairs = [(g, g) for g in model.generators]
    thin = _conclusions(g_tilde, j_out.conj().T @ g_tilde @ j_in, j_in, j_out, pairs)
    whole_space = operator_norm(comp @ g_tilde.conj().T @ j_out)
    assert abs(thin["adjoint_invariance"] - whole_space) <= \
        1e-14 * max(1.0, operator_norm(g_tilde))


def _two_space_base():
    ind, ws = make_setup(FREE2, (1,), 2)
    return primal_lift_model(ind, ws)


def test_two_space_lift_names_a_frame_that_is_not_coinvariant():
    base = _two_space_base()
    top = prefix_columns(base, base.levels)[:, -1:]  # a top-level coordinate: W^* moves it down
    vac = prefix_columns(base, 0)
    with pytest.raises(ValueError, match=r"hypothesis fails: J_1 co-invariance residual \d"):
        two_space_lift(base, 1, 1, top, vac, np.zeros((1, 1)), hypothesis_tol=1e-9)
    with pytest.raises(ValueError, match="lifting hypothesis fails: J_2 co-invariance"):
        two_space_lift(base, 1, 1, vac, top, np.zeros((1, 1)), hypothesis_tol=1e-9)


def test_two_space_lift_names_a_map_that_does_not_intertwine():
    base = _two_space_base()
    k1 = prefix_columns(base, 1)  # K_1 is co-invariant; the creations compress to nonzero maps
    rng = np.random.default_rng(31)
    g12 = 0.5 * rng_complex(rng, k1.shape[1], k1.shape[1])
    with pytest.raises(ValueError, match="lifting hypothesis fails: intertwining"):
        two_space_lift(base, 1, 1, k1, k1, g12, hypothesis_tol=1e-9)


def test_two_space_lift_names_a_frame_that_is_not_orthonormal():
    base = _two_space_base()
    vac = prefix_columns(base, 0)
    with pytest.raises(ValueError, match="J_2 frame columns are not orthonormal"):
        two_space_lift(base, 1, 1, vac, 2.0 * vac, np.zeros((1, 1)), hypothesis_tol=1e-9)


def test_two_space_lift_reports_the_summand_hypotheses():
    base = _two_space_base()
    vac = prefix_columns(base, 0)
    _, trace = two_space_lift(base, 1, 1, vac, vac, np.array([[0.5]]), hypothesis_tol=1e-9)
    assert set(trace["hypothesis"]) == {"J_1 co-invariance", "J_2 co-invariance", "intertwining"}
    assert max(trace["hypothesis"].values()) < 1e-12
    assert set(trace["conclusions"]) == {"adjoint_invariance", "compression", "intertwining",
                                         "norm"}
    assert max(trace["conclusions"].values()) < 1e-8
