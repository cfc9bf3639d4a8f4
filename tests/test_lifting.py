import contextlib
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wfock.fock
import wfock.interpolation
import wfock.liftcheck
import wfock.lifting
from graph_strategies import multiplicities, small_graphs
from oracles import CoinvariantSubspace, dense_alphabeta_validator, full_frame_escape, \
    gm_star_expansion_residual, prefix_columns, sum_space_lift, whole_space_creation
from wfock.acceptance import _random_graph_x
from wfock.cli import main
from wfock.duality import DualStructure, dual_lift_model, primal_lift_model
from wfock.graphs import CorrElement, GraphCorrespondence, path_basis
from wfock.induced import InducedSpace, Representation
from wfock.liftcheck import alphabeta_validator, compression_instance, \
    krylov_closure, random_commutant_element
from wfock.lifting import (
    ParrottProblem,
    _check_contains_prefix,
    _conclusions,
    _escape_level,
    _frame_coinvariance,
    commutant_lift,
    creation_mix,
    j_prime_frame,
    lift_step,
    LiftState,
    parrott_complete,
    per_copy_left,
    per_copy_right,
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
        z_out, z_g = model.levelwise(model.z_star, q_m1), model.levelwise(model.z_inv, q_m @ g_vec)
        for k in range(1, model.levels + 1):
            rows, cols, elem = model.insertions[k]
            f_mat[rows] = model.compressions(z_out, z_g, model.mixes[k])[elem, :, cols].conj()
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
        validator = alphabeta_validator(ind, seed=3)
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


def test_validator_step_builds_no_whole_space_creation(monkeypatch):
    """A validator step builds and places no graded operator (so no whole-space W_xi (x) I
    or phi(a) (x) I) and takes one max_operator_norm, over all eight identities."""
    ind, ws = make_setup(FREE2, (1,), 3)
    model = primal_lift_model(ind, ws)
    built, norms = [], []
    post_init = wfock.fock.FockOperator.__post_init__
    monkeypatch.setattr(wfock.fock.FockOperator, "__post_init__",
                        lambda self: built.append("__post_init__") or post_init(self))
    gathered = wfock.fock.FockOperator._gathered.__func__
    monkeypatch.setattr(wfock.fock.FockOperator, "_gathered", classmethod(
        lambda cls, *args: built.append("_gathered") or gathered(cls, *args)))
    max_norm = wfock.liftcheck.max_operator_norm
    monkeypatch.setattr(wfock.liftcheck, "max_operator_norm",
                        lambda mats: norms.append("max") or max_norm(mats))
    monkeypatch.setattr(wfock.liftcheck, "operator_norm", lambda a: norms.append("one"))
    validator = alphabeta_validator(ind, seed=3)
    steps = []

    def step(state, new_state):
        built.clear()
        norms.clear()
        out = validator(state, new_state)
        steps.append((list(built), list(norms)))
        return out

    j = prefix_columns(model, 0)
    _, trace = commutant_lift(model, j, 0.5 * np.eye(j.shape[1]), step_validator=step)
    assert len(steps) == len(trace["steps"]) > 1
    assert all(step == ([], ["max"]) for step in steps), steps
    assert all(entry["extra"].keys() == {"alpha_beta_worst"} for entry in trace["steps"])
    assert max(entry["extra"]["alpha_beta_worst"] for entry in trace["steps"]) < 1e-9


@settings(max_examples=30, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.sampled_from([1, 2, 3]), st.data())
def test_creation_gather_matches_the_whole_space_compressions(graph, n, copies, data):
    """q_out^* (W_c (x) I) q_in from the model's one routine, on a graph-side model with
    non-scalar weights amplified to 1-3 copies, equals the compression by the
    whole-space matrix on every copy, for random frames, coefficient rows with some
    zero entries and every level k; an empty stack keeps its shape."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    ind = InducedSpace(graph, rep, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    model = primal_lift_model(ind, ws).amplify(copies)
    q_out = rng_complex(rng, model.dim, data.draw(st.integers(1, model.dim), label="out"))
    q_in = rng_complex(rng, model.dim, data.draw(st.integers(1, 3), label="in"))
    z_out, z_in = model.levelwise(model.z_star, q_out), model.levelwise(model.z_inv, q_in)
    for k in range(1, n + 1):
        coeffs = rng_complex(rng, 3, path_basis(graph, k).size)
        coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
        got = model.compressions(z_out, z_in, creation_mix(model.gathers[k], ind.dim, coeffs))
        want = [q_out.conj().T @ np.kron(np.eye(copies), whole_space_creation(
            ind, ws, CorrElement(k, c))) @ q_in for c in coeffs]
        scale = max(1.0, *(operator_norm(w) for w in want))
        assert got.shape == (3, q_out.shape[1], q_in.shape[1])
        assert max(residual(g, w) for g, w in zip(got, want)) <= 1e-12 * scale
        empty = creation_mix(model.gathers[k], ind.dim, coeffs[:0])
        assert model.compressions(z_out, z_in, empty).shape == \
            (0, q_out.shape[1], q_in.shape[1])


def _creation_bytes(model):
    """The bytes of the arrays a lift model keeps for its weighted creations."""
    arrays = [*model.z_star, *model.z_inv, *(a for level in model.gathers for a in level),
              *(a for level in model.mixes for a in level)]
    return sum(a.nbytes for a in arrays)


def test_creation_data_stays_small():
    """The level blocks of Dz and Dz^{-1}, the 0/1 gathers and the elements' mixes of a
    model on free(2) at N=6 and on the one-loop space at N=40 stay within 0.25 and
    0.05 MB, on both sides."""
    for graph, n, bound in ((FREE2, 6, 0.25e6), (GraphCorrespondence.free(1), 40, 0.05e6)):
        ind, ws = make_setup(graph, (1,), n)
        for model in (primal_lift_model(ind, ws), dual_lift_model(DualStructure(ind, ws))):
            assert _creation_bytes(model) <= bound, (graph, _creation_bytes(model))


def _corrupting(validator, corrupt_step):
    """``validator`` as a step validator that, at step ``corrupt_step`` (counted from 1),
    is shown a state whose G_m is moved by a fixed random matrix of entries about 1e-6."""
    def step(state, new_state):
        if new_state.m == corrupt_step:
            noise = rng_complex(np.random.default_rng(0), *state.g_mat.shape)
            state = dataclasses.replace(state, g_mat=state.g_mat + 1e-6 * noise)
        return validator(state, new_state)
    return step


@settings(max_examples=10, deadline=None)
@given(small_graphs(full=True), st.data())
def test_validator_agrees_with_the_dense_oracle_and_trips_on_a_corrupted_g(graph, data):
    """On the same draws the validator's worst residual is the dense oracle's largest one
    within 1e-12 at every step, and a G_m moved by about 1e-6 at one step exceeds 1e-9
    there and only there."""
    rep = Representation(tuple(data.draw(multiplicities(graph), label="sigma")))
    n = data.draw(st.integers(2, 3), label="levels")
    ind = InducedSpace(graph, rep, n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    model = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
    assume(frame.shape[1] < model.dim)
    corrupt = data.draw(st.integers(1, 2), label="corrupted step")
    seed = data.draw(st.integers(0, 100), label="validator seed")
    new = _corrupting(alphabeta_validator(ind, seed=seed), corrupt)
    dense = _corrupting(dense_alphabeta_validator(ind, ws, seed=seed), corrupt)
    values = []

    def step(state, new_state):
        worst = new(state, new_state)["alpha_beta_worst"]
        values.append((new_state.m, worst, max(dense(state, new_state).values())))
        return {"alpha_beta_worst": worst}

    commutant_lift(model, frame, g_on_j, step_validator=step)
    assume(any(m == corrupt for m, _, _ in values))
    for m, worst, want in values:
        assert abs(worst - want) <= 1e-12, (m, worst, want)
        assert (worst > 1e-9) if m == corrupt else (worst <= 1e-9), (m, worst)


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
    n_ops = len(extra)  # the extra operators' normalizations come first; the model has its norms
    assert len(svd_norms) == n_ops + sum(f > 0.5e-13 for f in res_norms)
    assert all(f > 0.5e-13 for f in svd_norms[n_ops:])


def test_one_rank_test_per_lift_step(monkeypatch):
    # the escape scan starts above n_m and tests only the coordinates of K_n above n_m,
    # so on the one-loop space, where each step adjoins the next level, it takes one
    # rank test per step, of width 1
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
    steps = trace["steps"]
    assert len(steps) == model.dim - 1
    lows = [-1] + [step["n_m"] for step in steps[:-1]]
    assert tested == [np.count_nonzero((model.level > low) & (model.level <= step["n_m"]))
                      for low, step in zip(lows, steps)]
    assert tested == [1] * len(steps)


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
    """The escape scan as a values-only SVD followed by a thin one, on the dense columns
    of K_n above n_m and the J' frame."""
    model, q, low = state.model, state.j_prime[0], state.n_list[-1]
    for n in range(low + 1, model.levels + 1):
        above = prefix_columns(model, n)[:, model.level[model.prefix_idx(n)] > low]
        res = _project_out(q, above)
        if res.size and operator_norm(res) > RANK_TOL:
            return n, orth_columns(res, RANK_TOL)
    raise AssertionError("a proper frame has an escaping level")


def _projector(frame):
    return frame @ frame.conj().T


@settings(max_examples=50, deadline=None)
@given(small_graphs(), st.integers(1, 3), st.data())
def test_escape_scan_and_containment_guard_match_the_svd_tests(graph, n, data):
    """On frames that hold K_{n1} up to a perturbation of random size, at n_m = n0 <= n1,
    with J' formed from the frame by ``j_prime_frame``: the escape level and frame equal
    those of the values-only rank test on the same J', the scan takes no SVD of a tested
    level whose residual has Frobenius norm at most RANK_TOL / 2, and the guard raises
    exactly when ||(I - P) E_{n0}|| > RANK_TOL, without an SVD when the Frobenius norm is
    at most RANK_TOL / 2.  On states that hold K_{n1} within RANK_TOL / 10, which pass the
    guard, the escape level and the escaping space equal those of the scan on the whole
    frame (``full_frame_escape``)."""
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
    prefix = prefix_columns(model, n0)
    prime = j_prime_frame(model, frame, n0, frame.shape[1] - prefix.shape[1])
    state = LiftState(model, frame, np.zeros((frame.shape[1], model.dim), dtype=complex), [n0],
                      j_prime=[prime])

    rank_tests = []
    orth = wfock.lifting.orth_columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.lifting, "orth_columns",
                      lambda a, tol: rank_tests.append(np.linalg.norm(a)) or orth(a, tol))
        got_n, (got_frame,) = _escape_level(state)
    want_n, want_frame = _reference_escape(state)
    assert got_n == want_n
    assert np.array_equal(got_frame, want_frame)
    above = model.level > n0
    tested = [np.linalg.norm(_complement(prime, _complement_coords(
        prime, np.flatnonzero(above & (model.level <= k))))) for k in range(n0 + 1, got_n + 1)]
    assert len(rank_tests) == sum(f > RANK_TOL / 2 for f in tested)
    assert all(f > RANK_TOL / 2 for f in rank_tests)

    c = _complement(frame, prefix)
    svds = []
    norm = wfock.lifting.operator_norm
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.lifting, "operator_norm", lambda a: svds.append(1) or norm(a))
        if operator_norm(c) > RANK_TOL:
            with pytest.raises(RuntimeError, match=f"lift step 1: K_{n0} is not contained in J"):
                _check_contains_prefix(state.spaces, n0, state.m)
        else:
            _check_contains_prefix(state.spaces, n0, state.m)
    if np.linalg.norm(c) <= RANK_TOL / 2:
        assert svds == []

    if operator_norm(_complement(frame, held)) <= RANK_TOL / 10:
        # K_{n1}, and so K_{n0}, lies in J within a tenth of the guard's tolerance: no
        # tested singular value sits near the rank cut on either side
        full_n, full_frame = full_frame_escape(state)
        assert got_n == full_n
        assert residual(_projector(got_frame), _projector(full_frame)) <= 1e-8


def _check_j_prime_frames(state):
    """J' = J ⊖ K_{n_m} per summand: orthonormal, zero rows on K_{n_m} and inside J, and
    the ledger's co-invariance residual, read on J', equal to the one on the whole frame."""
    low = state.n_list[-1]
    for (model, frame), prime in zip(state.spaces, state.j_prime):
        assert operator_norm(prime.conj().T @ prime - np.eye(prime.shape[1])) <= 1e-13
        assert not prime[model.prefix_idx(low)].any()
        assert operator_norm(_complement(frame, prime)) <= 1e-13
    full = max(_frame_coinvariance(frame, state.model.generators) for _, frame in state.spaces)
    value = state.ledger[-1]["coinvariant"]
    assert abs(value - full) <= 1e-14 * max(1.0, value), (value, full)


@settings(max_examples=20, deadline=None)
@given(small_graphs(full=True), st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
def test_lift_states_keep_an_orthonormal_frame_of_j_minus_the_held_prefix(graph, ts, data):
    """On every state of a commutant lift and a two-space lift over random graphs and
    weights, the J' frames are what ``LiftState`` says (``_check_j_prime_frames``)."""
    t, s = ts
    n = data.draw(st.integers(1, 3), label="N")
    ind = InducedSpace(graph, Representation(tuple(data.draw(multiplicities(graph),
                                                             label="sigma"))), n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    base = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    states, step = [], wfock.lifting.lift_step

    def recorded(state, step_validator=None):
        states.append(step(state, step_validator))
        return states[-1]

    frame, g_on_j, _ = compression_instance(base, dual_gens, rng)
    j1, j2, g12 = _two_space_instance(base, dual_gens, t, s, rng)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wfock.lifting, "lift_step", recorded)
        commutant_lift(base, frame, g_on_j)
        two_space_lift(base, t, s, j1, j2, g12, hypothesis_tol=1e-9)
    for state in states:
        _check_j_prime_frames(state)


def test_lift_step_names_a_j_prime_row_in_the_held_prefix():
    # J spanned by one kernel column on the one-loop space: after the first step J holds
    # K_0, and J' is one column above level 0; a K_0 row set by hand in it is named at
    # the next step (the ledger's m = 3)
    from wfock.interpolation import CauchyKernel, DiscPoint

    free1 = GraphCorrespondence.free(1)
    x = AdmissibleSequence.from_scalar(free1, [1.0], levels=4)
    ind = InducedSpace(free1, Representation((1,)), 4)
    model = primal_lift_model(ind, weight_system_from(x))
    col = CauchyKernel(DiscPoint.scalar(ind, x, 0.3), weight_system_from(x)).column
    q = col / np.linalg.norm(col)
    state = lift_step(LiftState(model, q, 0.5 * q.conj().T, [-1]))
    assert state.n_list == [-1, 0] and state.j_prime[0].shape[1] == 1
    _check_j_prime_frames(state)
    lift_step(dataclasses.replace(state, j_prime=[state.j_prime[0].copy()]))  # untouched, it passes
    state.j_prime[0][model.prefix_idx(0)] = 1e-3
    with pytest.raises(RuntimeError, match=r"lift step 3: the J' frame has a row in K_0"):
        lift_step(state)


def test_lift_step_rejects_full_space():
    ind, ws = make_setup(FREE2, (1,), 2)
    model = primal_lift_model(ind, ws)
    state = LiftState(model, np.eye(model.dim, dtype=complex),
                      np.eye(model.dim, dtype=complex), [-1])
    with pytest.raises(ValueError):
        lift_step(state)


def test_amplified_dual_model_stays_small():
    # the copies share the generators and the creation data: amplify builds index
    # arrays only, no whole-space matrix (kron'ed generators held about 3.1 MB here)
    ind, ws = make_setup(FREE2, (1,), 6)
    model = dual_lift_model(DualStructure(ind, ws))
    tracemalloc.start()
    try:
        amp = model.amplify(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert amp.dim == 254
    assert amp.generators is model.generators and amp.mixes is model.mixes
    assert amp.z_star is model.z_star and amp.gathers is model.gathers
    assert peak < 0.5e6, peak


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
    g = j_out.conj().T @ g_tilde @ j_in
    thin = _conclusions(g_tilde, g, operator_norm(g), j_in, j_out, model.generators)
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


# -- the two-space lift on its corner ------------------------------------------


def _block_diagonal(frames: list[np.ndarray], dim: int) -> np.ndarray:
    """The direct sum of per-copy frames of one base space, copy-major."""
    out = np.zeros((dim * len(frames), sum(f.shape[1] for f in frames)), dtype=complex)
    col = 0
    for i, f in enumerate(frames):
        out[i * dim:(i + 1) * dim, col:col + f.shape[1]] = f
        col += f.shape[1]
    return out


def _two_space_instance(base, dual_gens, t, s, rng):
    """J_1 in K^(t), J_2 in K^(s) and g12 = P_{J_2} Theta|J_1 for an s x t block matrix
    Theta of random commutant elements theta_ij.  Copy i of J_2 is the closure of a
    random vector below the top level under the generator adjoints; copy j of J_1 is
    the closure of sum_i theta_ij^* J_2^(i) and another such vector.  Both are
    co-invariant, and Theta^* J_2 lies in J_1, so P_{J_2} Theta (I - P_{J_1}) = 0 and
    g12 intertwines the compressions."""
    below = base.prefix_idx(max(base.levels - 1, 0))

    def seed():
        v = np.zeros((base.dim, 1), dtype=complex)
        v[below] = rng_complex(rng, below.size, 1)
        return v

    j2 = [krylov_closure(base, seed(), []) for _ in range(s)]
    theta = [[random_commutant_element(dual_gens, rng) for _ in range(t)] for _ in range(s)]
    j1 = [krylov_closure(base, np.hstack([theta[i][j].conj().T @ j2[i] for i in range(s)]
                                         + [seed()]), []) for j in range(t)]
    j1_frame, j2_frame = _block_diagonal(j1, base.dim), _block_diagonal(j2, base.dim)
    g12 = j2_frame.conj().T @ np.block(theta) @ j1_frame
    return j1_frame, j2_frame, g12 / max(operator_norm(g12), 1e-30) * rng.uniform(0.2, 1.5)


def _schedule(steps):
    return [(step["m"], step["n_m"], step["dim_j"]) for step in steps]


def _check_against_the_sum(split, g12, lift, sum_lift):
    """The corner lift (g_tilde, trace) equals the lower-left block of the lift on the
    whole Putnam sum (``sum_space_lift``), whose other blocks vanish, and the two
    ledgers share their schedule; K^(t) is the first ``split`` coordinates of the sum."""
    (g_tilde, trace), (oracle, oracle_steps) = lift, sum_lift
    assert residual(g_tilde, oracle[split:, :split]) <= 1e-9 * max(1.0, operator_norm(g12))
    assert operator_norm(oracle[:split]) <= 1e-9
    assert operator_norm(oracle[split:, split:]) <= 1e-9
    assert _schedule(trace["steps"]) == _schedule(oracle_steps)


@settings(max_examples=25, deadline=None)
@given(small_graphs(full=True), st.sampled_from([(1, 1), (2, 1), (1, 2)]), st.data())
def test_two_space_lift_equals_the_corner_of_the_sum_lift(graph, ts, data):
    """The lift of X: K^(t) -> J_2 is the lower-left block of the lift of
    [[0, 0], [G, 0]] on the sum, up to roundoff, on instances whose sum lift takes
    no clamp (a deep clamp amplifies last bits)."""
    t, s = ts
    n = data.draw(st.integers(1, 3), label="N")
    ind = InducedSpace(graph, Representation(tuple(data.draw(multiplicities(graph),
                                                             label="sigma"))), n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ws = weight_system_from(_random_graph_x(graph, n, rng))
    base = primal_lift_model(ind, ws)
    dual_gens = [m for _, m in DualStructure(ind, ws).dual_generators()]
    j1, j2, g12 = _two_space_instance(base, dual_gens, t, s, rng)
    sum_lift = sum_space_lift(base, t, s, j1, j2, g12)
    assume(all(step["f_clamp"] == 1.0 for step in sum_lift[1]))
    lift = two_space_lift(base, t, s, j1, j2, g12, hypothesis_tol=1e-9)
    assert lift[0].shape == (s * base.dim, t * base.dim)
    _check_against_the_sum(t * base.dim, g12, lift, sum_lift)


@pytest.mark.parametrize("j1_level, j2_level", [(1, 0), (0, 1)])
def test_two_space_lift_where_one_summand_escapes_first(monkeypatch, j1_level, j2_level):
    """On free(2) with sigma (1) at N=3, J_1 = K_1 with J_2 = K_0 makes a first step
    that adjoins K_1 to J_2 alone, and J_1 = K_0 with J_2 = K_1 one that adjoins K_1 to
    J_1 alone and adds no row to X.  g12 is the K_0 coordinates of K_1 in the first
    case and 0.6 x (vacuum -> each level-1 coordinate) in the second; both intertwine
    the compressions, since the generators raise the level."""
    base = primal_lift_model(*make_setup(FREE2, (1,), 3))
    j1, j2 = prefix_columns(base, j1_level), prefix_columns(base, j2_level)
    g12 = j2.conj().T @ j1 if j1_level else 0.6 * (base.level[base.prefix_idx(1)] == 1)[:, None]
    rows = []
    step = wfock.lifting.lift_step

    def counted(state, step_validator=None):
        new_state = step(state, step_validator)
        rows.append((state.g_mat.shape[0], new_state.g_mat.shape[0]))
        return new_state

    monkeypatch.setattr(wfock.lifting, "lift_step", counted)
    g_tilde, trace = two_space_lift(base, 1, 1, j1, j2, g12, hypothesis_tol=1e-9)
    assert max(trace["hypothesis"].values()) < 1e-12
    assert max(trace["conclusions"].values()) < 1e-12
    assert _schedule(trace["steps"]) == [(2, 1, 6), (3, 2, 14), (4, 3, 30)]
    # X gains the new directions of J_2: none when K_1 joins J_1 alone
    assert rows == ([(1, 3), (3, 7), (7, 15)] if j1_level else [(3, 3), (3, 7), (7, 15)])
    monkeypatch.setattr(wfock.lifting, "lift_step", step)
    _check_against_the_sum(base.dim, g12, (g_tilde, trace),
                           sum_space_lift(base, 1, 1, j1, j2, g12))


def test_two_space_lift_stays_small(monkeypatch, tmp_path):
    # the lift runs on X: K -> J_2 and never forms the sum K (+) K; on this solve
    # (free(2), sigma (1), N=6, three matrix points) the sum lift peaked at 13.0 MB
    problem = {"graph": {"vertices": 1, "edges": [[0, 0], [0, 0]]}, "sigma": [1],
               "X": {"scalar": [0.5, 0.08333333333333333]},
               "points": [{"matrix": [[[0.0257, -0.0699], [-0.1673, 0.0753]]]},
                          {"matrix": [[[-0.0141, -0.0014], [0.1186, 0.0935]]]},
                          {"matrix": [[[-0.0576, -0.0361], [0.0865, 0.0333]]]}],
               "F": [[[[0.0317, -0.0410]]], [[[0.0509, 0.0287]]], [[[0.0624, 0.0194]]]]}
    inp = tmp_path / "solve.json"
    inp.write_text(json.dumps(problem))
    lift, peaks = wfock.interpolation.two_space_lift, []

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return lift(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(wfock.interpolation, "two_space_lift", traced)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(["--command", "solve", "--N", "6", "--input", str(inp),
                     "--output", str(tmp_path / "out.json")])
    assert code == 0
    assert len(peaks) == 1 and peaks[0] < 6e6, peaks


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_per_copy_products_take_empty_frames(copies):
    """A frame without columns (left) or rows (right), as the J_F frame of a solve whose
    targets are all zero, gives an empty product of the same shape."""
    g = rng_complex(np.random.default_rng(copies), 4, 4)
    empty_cols, empty_rows = np.zeros((4 * copies, 0), dtype=complex), np.zeros((0, 4 * copies))
    assert per_copy_left(g, empty_cols).shape == (4 * copies, 0)
    assert per_copy_right(empty_rows, g).shape == (0, 4 * copies)
