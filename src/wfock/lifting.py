"""Parrott completion and the weighted commutant lifting loop.

The lifting theorem takes a co-invariant subspace J of an induced Fock space
K, an operator G on J commuting with all compressed algebra elements, and
produces a norm-preserving extension commuting with the full induced algebra.
The construction is an induction over growing subspaces: at each step the
least level subspace K_n escaping the current J is adjoined, a contraction F
is assembled from the orthonormal-basis data of the correspondence powers,
and the new operator is completed from the blocks

    F^* = [R; S]   and   G_m = [R, T]

by Parrott's lemma.  The completion is evaluated in closed form on one thin
SVD of R rather than as a weak limit, which keeps the run deterministic;
optimality is verified per instance.

Everything operates on a ``LiftModel``: a bundle of the induced space
dimensions, the generator images Y (x) I, and, per level, the basis
insertions as coordinate maps with the band blocks of the weighted creations
at the inverse weight product.  Both the graph side and the transported dual side
produce such bundles, so one loop serves the lifting theorem and, through the
Putnam trick, its two-space corollary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import PINV_TOL, RANK_TOL, _complement, _complement_coords, _svd, as_complex, \
    max_operator_norm, operator_norm, orth_columns, residual


class _HypothesisError(ValueError):
    """A lifting hypothesis fails on the input; any other error keeps its own type."""


@dataclass
class ParrottProblem:
    """The three known blocks of a 2x2 completion [[R, T], [S, ?]].

    ``row_norm`` = ||[R, T]|| and ``col_norm`` = ||[R; S]|| are the norms of
    the known row and column; ``mu``, the larger of the two, is the least norm
    any completion can have.  R is factored once, as the thin SVD
    R = U diag(sigma) V^* (empty factors for an empty R), and the clamp and
    the completion both read these factors.
    """

    R: np.ndarray
    S: np.ndarray
    T: np.ndarray
    row_norm: float = field(init=False)
    col_norm: float = field(init=False)

    def __post_init__(self):
        self.R = as_complex(self.R)
        self.S = as_complex(self.S)
        self.T = as_complex(self.T)
        if self.R.shape[1] != self.S.shape[1] or self.R.shape[0] != self.T.shape[0]:
            raise ValueError("Parrott blocks are not conformal")
        self.col_norm = operator_norm(np.vstack([self.R, self.S]))
        self.row_norm = operator_norm(np.hstack([self.R, self.T]))
        self._u, self._sigma, self._vh = _svd(self.R)

    @property
    def mu(self) -> float:
        return max(self.col_norm, self.row_norm)

    def clamp_column(self, target: float) -> float:
        """Scale S by the largest c in [0, 1] with ||[R; cS]|| <= t = target, and return c.

        A = t^2 I - R^* R is positive definite for t > ||R||, and ||[R; cS]|| <= t iff
        c^2 S^* S <= A, so c = min(1, 1 / ||S A^{-1/2}||), where
        A^{-1/2} = V diag(((t - sigma)(t + sigma))^{-1/2}) V^* + (I - V V^*) / t.
        A column already within the target keeps c = 1 and S as it is.
        """
        if self.col_norm <= target:
            return 1.0
        t, sv = target, self.S @ self._vh.conj().T
        inv_sqrt = 1.0 / np.sqrt((t - self._sigma) * (t + self._sigma))
        c = min(1.0, 1.0 / operator_norm((sv * (inv_sqrt - 1.0 / t)) @ self._vh + self.S / t))
        self.S = c * self.S
        self.col_norm = operator_norm(np.vstack([self.R, self.S]))
        return c

    def assemble(self, u: np.ndarray) -> np.ndarray:
        top = np.hstack([self.R, self.T])
        bottom = np.hstack([self.S, u])
        return np.vstack([top, bottom])


def parrott_complete(p: ParrottProblem) -> np.ndarray:
    """The closed-form Parrott corner U = -S (mu^2 I - R^* R)^+ R^* T, evaluated on the
    factors of R as -(S V) diag(sigma_i / ((m - sigma_i)(m + sigma_i))) (U^* T).

    m = mu, or mu (1 + 1e-12) when the least (mu - sigma_i)(mu + sigma_i) is below
    1e-12 mu^2; directions outside V see mu^2 and never set that least value.  A
    denominator below PINV_TOL mu^2 is dropped, as a pseudoinverse of the gram drops it,
    with the cut relative to mu^2 rather than to the gram's largest eigenvalue.
    Zero-size and all-zero blocks give correctly shaped zeros.
    """
    mu, sigma = float(p.mu), p._sigma
    gaps = (mu - sigma) * (mu + sigma)
    if (gaps < 1e-12 * mu * mu).any():
        m = mu * (1.0 + 1e-12)
        gaps = (m - sigma) * (m + sigma)
    large = gaps > PINV_TOL * mu * mu
    weights = np.divide(sigma, gaps, where=large, out=np.zeros_like(sigma))
    return -((p.S @ p._vh.conj().T) * weights) @ (p._u.conj().T @ p.T)


@dataclass
class LiftModel:
    """Everything the lifting loop needs about one induced Fock space.

    ``level[c]`` is the truncation level of coordinate c, so K_n (levels
    0..n) is the coordinate set ``level <= n``.  Per orthonormal basis element
    xi of the level-k power, ``insertions[k]`` holds L_{xi^}: H -> K as (rows,
    cols), K coordinate rows[i] receiving H index cols[i], and ``creations[k]``
    the weighted creation W at the inverse weight product applied to xi: its
    one band block K_{<=N-k} -> K_{>=k}.  Both lists start at level 1; level 0,
    which no lift step reads, is empty.  The ``copies`` direct summands
    (copy-major layout) share the creations."""

    dim: int
    levels: int
    level: np.ndarray
    copies: int
    generators: list[np.ndarray]
    insertions: list[list[tuple[np.ndarray, np.ndarray]]]
    creations: list[list[np.ndarray]]

    def prefix_idx(self, n: int) -> np.ndarray:
        """Coordinate indices of K_n."""
        return np.flatnonzero(self.level <= n)

    def amplify(self, copies: int) -> "LiftModel":
        """The same model on ``copies`` direct summands (copy-major layout).

        The level subspaces of the sum are the direct sums of the per-copy
        level subspaces, so the prefix coordinate sets interleave rather than
        stay contiguous.
        """
        eye, shift, h = np.eye(copies), np.arange(copies)[:, None], self.prefix_idx(0).size
        return LiftModel(
            dim=self.dim * copies,
            levels=self.levels,
            level=np.tile(self.level, copies),
            copies=self.copies * copies,
            generators=[np.kron(eye, g) for g in self.generators],
            insertions=[[((rows + self.dim * shift).ravel(), (cols + h * shift).ravel())
                         for rows, cols in level] for level in self.insertions],
            creations=self.creations,
        )

    def vacuum(self, m: np.ndarray) -> np.ndarray:
        """M L_{1^}, the K_0 columns of M."""
        return m[:, self.prefix_idx(0)]

    def inserted(self, m: np.ndarray, ins: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """M L_{xi^} for the insertion (rows, cols) of a basis element."""
        out = np.zeros((m.shape[0], self.prefix_idx(0).size), dtype=complex)
        out[:, ins[1]] = m[:, ins[0]]
        return out

    def compressions(self, k: int, q_out: np.ndarray, q_in: np.ndarray):
        """Per level-k basis element: q_out^* W q_in for its weighted creation W,
        and its insertion (rows, cols).  W maps the first band_cols coordinates of
        each copy into its last band_rows, so only those rows of q_out and q_in enter."""
        if not self.creations[k]:
            return
        base = self.dim // self.copies
        band_rows, band_cols = self.creations[k][0].shape[0], self.creations[k][0].shape[-1]
        out_band = q_out.reshape(self.copies, base, -1)[:, base - band_rows:]
        out_band = out_band.conj().transpose(0, 2, 1)  # copies x d_out x band_rows
        in_band = q_in.reshape(self.copies, base, -1)[:, :band_cols].reshape(-1, q_in.shape[1])
        for blk, ins in zip(self.creations[k], self.insertions[k]):
            per_copy = out_band @ blk  # copies x d_out x band_cols
            yield per_copy.transpose(1, 0, 2).reshape(-1, in_band.shape[0]) @ in_band, ins


def _frame_coinvariance(frame: np.ndarray, generators: list[np.ndarray]) -> float:
    """The co-invariance residual max_g ||(I - P) g^* P|| of the span J of an
    orthonormal frame Q, measured as max_g ||(I - P) g^* Q|| (Q^* is a co-isometry)."""
    return max_operator_norm([_complement(frame, g.conj().T @ frame) for g in generators])


@dataclass
class LiftState:
    """The inductive state: levels n_i, nested frames, compatible operators.

    ``frame`` spans J_m; ``g_mat`` is G_m as a map K -> J_m in frame
    coordinates; ``ledger`` collects per-step condition residuals.
    """

    model: LiftModel
    frame: np.ndarray
    g_mat: np.ndarray
    n_list: list[int]
    ledger: list[dict] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.n_list)

    @property
    def dim_j(self) -> int:
        return self.frame.shape[1]

    def is_full(self) -> bool:
        return self.dim_j >= self.model.dim


def _escape_level(state: LiftState) -> tuple[int, np.ndarray]:
    """Least n with K_n not contained in the current J, and an orthonormal frame
    of the part of K_n orthogonal to J.

    At most one thin SVD per tested level: the rank rule of ``orth_columns``
    keeps a column iff the largest singular value exceeds RANK_TOL, so K_n
    escapes iff the frame has a column.  A residual whose Frobenius norm is at
    most RANK_TOL / 2 has no such column, and takes no SVD.  The scan starts
    above n_m: K_{n_m} lies in J by construction, which
    ``_check_contains_prefix`` guards at each step.
    """
    model = state.model
    q = state.frame
    for n in range(state.n_list[-1] + 1, model.levels + 1):
        # the projection is subtracted twice, as in ``_project_out``: one pass leaves
        # roundoff drift along q that the rank test would read as new directions
        res = _complement(q, _complement_coords(q, model.prefix_idx(n)))
        if np.linalg.norm(res) <= RANK_TOL / 2:
            continue
        frame = orth_columns(res, RANK_TOL)
        if frame.shape[1]:
            return n, frame
    raise RuntimeError("no level escapes J although J is proper")


def _check_contains_prefix(state: LiftState) -> None:
    """Raise unless K_{n_m} lies in J_m: ||(I - P) E_{n_m}|| <= RANK_TOL.

    The Frobenius norm bounds the operator norm, so a residual whose Frobenius
    norm is at most RANK_TOL / 2 passes without an SVD.
    """
    n = state.n_list[-1]
    c = _complement_coords(state.frame, state.model.prefix_idx(n))
    if np.linalg.norm(c) <= RANK_TOL / 2:
        return
    worst = operator_norm(c)
    if worst > RANK_TOL:
        raise RuntimeError(f"lift step {state.m}: K_{n} is not contained in J "
                           f"(residual {worst:.2e}); numerical failure")


def _condition_residuals(state: LiftState) -> dict:
    """Residuals of the running conditions the reports read at the current state."""
    model = state.model
    q = state.frame
    q_star = q.conj().T
    return {"coinvariant": _frame_coinvariance(q, model.generators),
            "intertwining": max_operator_norm([q_star @ g @ q @ state.g_mat - state.g_mat @ g
                                               for g in model.generators])}


def lift_step(state: LiftState, step_validator=None) -> LiftState:
    """One induction step: adjoin the least escaping level and complete.

    Computes n_{m+1} and the enlarged subspace, assembles the contraction F
    from the basis data via g = G_m L_{1^}, splits F^* = [R; S] and
    G_m = [R, T], fills the missing corner by Parrott, and returns the new
    state.  Its ledger entry holds what the reports and the loop read: m,
    n_m, dim_j, the Parrott mu, the f_clamp, and the coinvariant and
    intertwining residuals.  Raises if J is already
    everything, if K_{n_m} is not contained in the new J (a guard, not a
    recorded number), or if the completion is not finite.
    """
    model = state.model
    if state.is_full():
        raise ValueError("subspace is already the whole induced space")
    q_m = state.frame
    d_m = q_m.shape[1]
    n_new, q_new = _escape_level(state)
    q_new = orth_columns(_complement(q_m, q_new), 0.5)
    if q_new.shape[1] == 0:
        raise RuntimeError("escaping level added no new directions")
    q_m1 = np.hstack([q_m, q_new])

    g_star = model.vacuum(state.g_mat).conj().T  # g^* for g = G_m L_{1^}: H -> J_m
    f_new = np.zeros((model.dim, q_new.shape[1]), dtype=complex)  # the J_{m+1} \ J_m columns of F
    for k in range(1, model.levels + 1):
        for beta, (rows, cols) in model.compressions(k, q_m1, q_m):  # beta(W_{Z^{(k)-1} xi})
            row = g_star @ beta.conj().T  # h x d_{m+1}
            f_new[rows] += row[cols, d_m:]
    k0_idx = model.prefix_idx(0)
    rest_idx = np.flatnonzero(model.level > 0)

    r_blk = state.g_mat[:, rest_idx]
    t_blk = state.g_mat[:, k0_idx]
    s_blk = f_new.conj().T[:, rest_idx]
    # On the truncation the chopped kernel tails can push ||[R; S]|| past
    # ||[R, T]|| = ||G_m||.  The clamp scales the new rows, and not the G_m rows, by
    # the largest c <= 1 with ||[R; cS]|| <= row_norm (1 + 1e-11); it does not
    # undo the truncation.
    problem = ParrottProblem(r_blk, s_blk, t_blk)
    f_clamp = 1.0
    if problem.row_norm > 0.0:
        f_clamp = problem.clamp_column(problem.row_norm * (1.0 + 1e-11))
    u_blk = parrott_complete(problem)
    if not np.isfinite(u_blk).all():
        raise RuntimeError(f"lift step {state.m + 1}: the Parrott completion is not finite")
    new_rows = np.zeros((q_new.shape[1], model.dim), dtype=complex)
    new_rows[:, k0_idx] = u_blk
    new_rows[:, rest_idx] = problem.S
    g_m1 = np.vstack([state.g_mat, new_rows])

    new_state = LiftState(model, q_m1, g_m1, state.n_list + [n_new], list(state.ledger))
    _check_contains_prefix(new_state)
    entry = _condition_residuals(new_state)
    entry.update({
        "m": new_state.m,
        "n_m": n_new,
        "dim_j": new_state.dim_j,
        "mu": problem.mu,
        "f_clamp": f_clamp,
    })
    if step_validator is not None:
        entry["extra"] = step_validator(state, new_state)
    new_state.ledger.append(entry)
    return new_state


def _hypotheses(g: np.ndarray, j_in: np.ndarray, j_out: np.ndarray, pairs, tol: float,
                names: tuple[str, str]) -> dict[str, float]:
    """The lifting hypotheses for g: J_in -> J_out over the generator pairs (a, b):
    orthonormal frames, J_in co-invariant under the a's and J_out under the b's
    (one space when ``names`` are equal), and g intertwining the compressions.
    A defect, or a residual above tol, raises a _HypothesisError naming it."""
    for name, frame in dict(zip(names, (j_in, j_out))).items():  # each space once
        if residual(frame.conj().T @ frame, np.eye(frame.shape[1])) > 1e-12:
            raise _HypothesisError(f"{name} frame columns are not orthonormal")
    out = {f"{names[0]} co-invariance": _frame_coinvariance(j_in, [a for a, _ in pairs])}
    if names[1] != names[0]:
        out[f"{names[1]} co-invariance"] = _frame_coinvariance(j_out, [b for _, b in pairs])
    out["intertwining"] = max_operator_norm([g @ (j_in.conj().T @ a @ j_in)
                                             - (j_out.conj().T @ b @ j_out) @ g for a, b in pairs])
    for key, value in out.items():
        if value > tol:
            raise _HypothesisError(f"lifting hypothesis fails: {key} residual {value:.2e}")
    return out


def _loop(model: LiftModel, frame: np.ndarray, g: np.ndarray, validator):
    """The induction loop lifting g on the span of ``frame``; returns the lift, the
    ledger and the final G in frame coordinates (None when g = 0 takes no step)."""
    scale = operator_norm(g)
    if scale == 0.0:
        return np.zeros((model.dim, model.dim), dtype=complex), [], None
    state = LiftState(model, frame, (g / scale) @ frame.conj().T, [-1])
    while not state.is_full():
        state = lift_step(state, step_validator=validator)
    return scale * (state.frame @ state.g_mat), state.ledger, state.g_mat


def _conclusions(g_tilde: np.ndarray, g: np.ndarray, j_in: np.ndarray, j_out: np.ndarray,
                 pairs, key: str = "intertwining") -> dict[str, float]:
    """The four conclusions for a lift g_tilde of g: J_in -> J_out: g_tilde^* J_out
    in J_in, compression back to g, g_tilde a = b g_tilde (as ``key``), norms equal."""
    return {
        "adjoint_invariance": operator_norm(_complement(j_in, g_tilde.conj().T @ j_out)),
        "compression": residual(j_out.conj().T @ g_tilde @ j_in, g),
        key: max_operator_norm([g_tilde @ a - b @ g_tilde for a, b in pairs]),
        "norm": abs(operator_norm(g_tilde) - operator_norm(g)),
    }


def commutant_lift(model: LiftModel, j_frame: np.ndarray, g_on_j: np.ndarray,
                   step_validator=None):
    """Lift a commuting operator on a co-invariant subspace to all of K.

    A hypothesis residual above 1e-9 raises a _HypothesisError naming it.
    Returns (g_tilde, trace) with the hypothesis residuals in trace["hypothesis"]
    and the four conclusions residual-checked in trace["conclusions"]:
    co-invariance of the adjoint, compression back to the input, commutation
    with every generator image, and norm equality.  Each step in trace["steps"]
    also carries norm_one = | ||G_m|| - 1 |, which only the lift report reads.
    """
    j_frame, g_on_j = as_complex(j_frame), as_complex(g_on_j)
    pairs = [(x, x) for x in model.generators]
    hypotheses = _hypotheses(g_on_j, j_frame, j_frame, pairs, 1e-9, ("J", "J"))
    g_tilde, steps, g_final = _loop(model, j_frame, g_on_j, step_validator)
    for step in steps:  # G_m is the first dim_j rows of every later G, bit for bit
        step["norm_one"] = abs(operator_norm(g_final[:step["dim_j"]]) - 1.0)
    return g_tilde, {"steps": steps, "hypothesis": hypotheses, "conclusions": _conclusions(
        g_tilde, g_on_j, j_frame, j_frame, pairs, "commutation")}


def two_space_lift(base: LiftModel, t: int, s: int, j1_frame: np.ndarray,
                   j2_frame: np.ndarray, g12: np.ndarray, hypothesis_tol: float):
    """Two-representation lifting by the Putnam trick, between the amplifications
    K^(t) and K^(s) of one model.

    ``j1_frame`` lives in K^(t), ``j2_frame`` in K^(s), and ``g12`` maps J_1
    coordinates to J_2 coordinates.  The hypotheses are checked on the
    summands (orthonormal frames, J_i co-invariant under the amplified
    generators, g12 intertwining the compressions), and one above
    ``hypothesis_tol`` raises a _HypothesisError naming it.  Then
    [[0, 0], [G, 0]] on J_1 ⊕ J_2 is lifted on K^(t+s) = ``base.amplify(t + s)``,
    whose copy-major layout puts K^(t) in the first t dim coordinates, and the
    lower-left corner extracted; trace["hypothesis"] and trace["conclusions"]
    carry the corollary's hypothesis and four conclusion residuals.
    """
    j1_frame, j2_frame, g12 = as_complex(j1_frame), as_complex(j2_frame), as_complex(g12)

    def pairs():  # rebuilt after the loop rather than held through it
        eye_t, eye_s = np.eye(t), np.eye(s)
        return [(np.kron(eye_t, g), np.kron(eye_s, g)) for g in base.generators]

    hypotheses = _hypotheses(g12, j1_frame, j2_frame, pairs(), hypothesis_tol, ("J_1", "J_2"))
    model_sum = base.amplify(t + s)
    split = t * base.dim
    d1, d2 = j1_frame.shape[1], j2_frame.shape[1]
    j_frame = np.zeros((model_sum.dim, d1 + d2), dtype=complex)
    j_frame[:split, :d1] = j1_frame
    j_frame[split:, d1:] = j2_frame
    g0 = np.zeros((d1 + d2, d1 + d2), dtype=complex)
    g0[d1:, :d1] = g12
    g_tilde0, steps, _ = _loop(model_sum, j_frame, g0, None)
    g_tilde = g_tilde0[split:, :split].copy()
    del model_sum, g_tilde0  # the sum space is not held through the conclusions
    return g_tilde, {"steps": steps, "hypothesis": hypotheses,
                     "conclusions": _conclusions(g_tilde, g12, j1_frame, j2_frame, pairs())}
