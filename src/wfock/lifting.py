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

Every generator's adjoint maps K_n into K_n (units have degree 0, creations
degree 1), so J = K_{n_m} (+) J' at each step, and the state keeps a frame
of J' = J ⊖ K_{n_m} beside the frame of J: the co-invariance residual and the
escape scan read J' alone, and the frame of J stays where the rows of G_m need it.

Everything operates on a ``LiftModel``: a bundle of the induced space
dimensions and, per level, the basis insertions as coordinate maps with the
weighted creations at the inverse weight product as level data, from which one
routine forms every compression q_out^* W q_in that the step validator and the
model's builder read.  The lift step reads F's new columns off the same data by
another route: the terms they read are listed once per lift (``FPattern``), so
a step takes one gather and one segment sum for them, and the validator's
identity (5) checks that route against ``compressions``.  The generator images
Y (x) I are dense matrices that the model's builder (``duality._lift_model``)
forms from the same level data: the units, then the compressions of the
identity by the level-1 creations.  Both the graph side and the transported
dual side produce such bundles, so one loop serves the lifting theorem and its
two-space corollary, which it runs on the one nonzero block of the Putnam lift
(see ``two_space_lift``).  An amplified model, the direct sum of copies of one
space, shares the generators and the creation data of its base: a product with
an amplified generator acts on each copy of its operand (``per_copy_left`` and
``per_copy_right``), and I_c (x) g is never formed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from functools import cached_property

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


def creation_mix(gather: tuple[np.ndarray, np.ndarray], dim: int, coeffs: np.ndarray):
    """T_c = sum_m c_m T_m per row c of ``coeffs``, T_m sending coordinate col[r] to the r-th
    of the last key.size of ``dim`` where key[r] = m, (key, col) = ``gather``: per row, its
    T_c[rows, cols] = weights, nonzero ones first, up to the longest row's count."""
    key, col = gather
    weights = coeffs[:, key]
    band = np.argsort(weights == 0, axis=1, kind="stable")
    band = band[:, :int(np.count_nonzero(weights, axis=1).max(initial=0))]
    return dim - key.size + band, col[band], np.take_along_axis(weights, band, axis=1)


@dataclass
class LiftModel:
    """Everything the lifting loop needs about one induced Fock space.

    ``level[c]`` is the truncation level of coordinate c, so K_n is ``level <= n``.
    ``insertions[k]`` = (rows, cols, elem) holds the insertions L_{xi^}: H -> K of the
    level-k basis elements: coordinate rows[i] receives H index cols[i] of element elem[i].
    Their weighted creations at the inverse weight product are W = Dz T Dz^{-1} with the
    level blocks of Dz^* and Dz^{-1}, Dz = ⊕_i Z^{(i)} (x) I_H, in ``z_star`` and ``z_inv``
    (stacked by runs of one size) and T in ``mixes[k]``, mixes of the 0/1 ``gathers[k]``.
    Level 0 is empty.  ``generators`` are the dense units and level-1 creations that the
    builder forms from this data.  The ``copies`` direct summands (copy-major layout)
    share the generators and the creation data, which act on each summand
    (``per_copy_left``, ``per_copy_right``, ``compressions``).  ``compressions`` serves
    general coefficient rows (the builder and the step validator); the lift step reads
    F's new columns through an ``FPattern`` of the model and its row model."""

    dim: int
    levels: int
    level: np.ndarray
    copies: int
    generators: list[np.ndarray]
    insertions: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    z_star: list[np.ndarray]
    z_inv: list[np.ndarray]
    gathers: list[tuple[np.ndarray, np.ndarray]]
    mixes: list[tuple[np.ndarray, np.ndarray, np.ndarray]]

    @cached_property
    def generator_norms(self) -> tuple[float, ...]:
        """The operator norm of each generator, taken once."""
        return tuple(operator_norm(g) for g in self.generators)

    def prefix_idx(self, n: int) -> np.ndarray:
        """Coordinate indices of K_n."""
        return np.flatnonzero(self.level <= n)

    def amplify(self, copies: int) -> "LiftModel":
        """The same model on ``copies`` direct summands (copy-major layout).

        The level subspaces of the sum are the direct sums of the per-copy
        level subspaces, so the prefix coordinate sets interleave rather than
        stay contiguous.  The copies share the generators and the creation data;
        only the level and insertion indices are built for the sum.
        """
        shift, h = np.arange(copies)[:, None], self.prefix_idx(0).size
        return replace(
            self, dim=self.dim * copies, level=np.tile(self.level, copies),
            copies=self.copies * copies,
            insertions=[((rows + self.dim * shift).ravel(), (cols + h * shift).ravel(),
                         np.tile(elem, copies)) for rows, cols, elem in self.insertions])

    def vacuum(self, m: np.ndarray) -> np.ndarray:
        """M L_{1^}, the K_0 columns of M."""
        return m[:, self.prefix_idx(0)]

    def inserted(self, m: np.ndarray, k: int) -> np.ndarray:
        """M L_{xi^} for each level-k basis element xi, stacked on axis 0."""
        rows, cols, elem = self.insertions[k]
        out = np.zeros((self.mixes[k][0].shape[0], m.shape[0], self.prefix_idx(0).size), complex)
        out[elem, :, cols] = m[:, rows].T
        return out

    def levelwise(self, runs: list[np.ndarray], q: np.ndarray) -> np.ndarray:
        """(⊕_i B_i) q on every copy, for level blocks B_i stacked in runs: Dz^* q for
        ``z_star`` and Dz^{-1} q for ``z_inv``."""
        c, cols, off = self.copies, q.shape[1], 0
        per_copy = q.reshape(c, self.dim // c, cols)
        out = np.empty(per_copy.shape, dtype=complex)
        for run in runs:
            size = run.shape[0] * run.shape[1]
            out[:, off:off + size] = (run @ per_copy[:, off:off + size].reshape(
                c, *run.shape[:2], cols)).reshape(c, size, cols)
            off += size
        return out.reshape(q.shape)

    def compressions(self, zq_out: np.ndarray, zq_in: np.ndarray, mix) -> np.ndarray:
        """q_out^* W_c q_in, W_c = Dz T_c Dz^{-1}, per row T_c of a ``creation_mix`` (axis 0), as
        zq_out^* T_c zq_in from Dz^* q_out and Dz^{-1} q_in (``levelwise``, once for all
        levels); the rows go in batches that gather at most one copy of zq_out."""
        (rows, cols, weights), c, base = mix, self.copies, self.dim // self.copies
        (n, width), d_out, d_in = rows.shape, zq_out.shape[1], zq_in.shape[1]
        top, low = zq_out.reshape(c, base, d_out), zq_in.reshape(c, base, d_in)
        out, step = np.empty((n, d_out, d_in), dtype=complex), max(1, base // max(width, 1))
        for lo in range(0, n, step):
            part, size = slice(lo, min(lo + step, n)), min(step, n - lo)
            t = top.take(rows[part], axis=1).conj().transpose(1, 3, 0, 2)
            b = (weights[part, :, None] * low.take(cols[part], axis=1)).transpose(1, 0, 2, 3)
            out[part] = t.reshape(size, d_out, c * width) @ b.reshape(size, c * width, d_in)
        return out


@dataclass(frozen=True)
class FPattern:
    """The terms F's new columns read, for a domain ``model`` and a ``row_model``: F's
    row r, where the domain inserts H index x of a level-k element xi, is

        f[r] = sum conj(w) conj(z_g[c b + col, x]) z_new[c b + row]

    over the nonzero (row, col, w) of xi's row of the row model's level-k ``mixes`` and
    the copies c of the row side (b their base dimension), with z_new = Dz^* q_new and
    z_g = Dz^{-1} q_m g.  One term per (r, copy, entry), the terms of one r in one run:
    ``g_at`` is its flat index into z_g, ``new_at`` its row of z_new, ``weight`` its w.
    ``batches`` = (terms, run starts, rows) cut the terms into whole runs, at most one
    copy of z_new (``row_model.dim`` terms) per batch.  Rows with no term (K_0 and
    levels with no insertion) stay zero."""

    dim: int
    g_at: np.ndarray
    new_at: np.ndarray
    weight: np.ndarray
    batches: tuple[tuple[slice, np.ndarray, np.ndarray], ...]

    @classmethod
    def build(cls, model: LiftModel, row_model: LiftModel) -> "FPattern":
        empty = np.zeros(0, dtype=np.intp)
        insertions, entries, offset = [(empty,) * 4], [(empty, empty, empty)], 0
        for k in range(1, model.levels + 1):
            rows, cols, elem = model.insertions[k]
            m_rows, m_cols, w = row_model.mixes[k]
            nonzero = w != 0
            count = nonzero.sum(axis=1)
            insertions.append((rows, cols, (offset + np.cumsum(count) - count)[elem], count[elem]))
            entries.append((m_rows[nonzero], m_cols[nonzero], w[nonzero]))
            offset += count.sum()
        rows, cols, first, count = (np.concatenate(a) for a in zip(*insertions))
        m_rows, m_cols, w = (np.concatenate(a) for a in zip(*entries))
        c, base, h = row_model.copies, row_model.dim // row_model.copies, model.prefix_idx(0).size
        per = c * count
        starts = np.cumsum(per) - per
        ins = np.repeat(np.arange(rows.size), per)
        copy, slot = np.divmod(np.arange(ins.size) - starts[ins], count[ins])
        entry, shift = first[ins] + slot, base * copy
        # one run per row with a term, at most c * base = row_model.dim terms long; each
        # batch takes whole runs, as many as fit in row_model.dim terms
        starts, rows = starts[per > 0], rows[per > 0]
        bounds, batches, a = starts.tolist() + [ins.size], [], 0
        while a < starts.size:
            b = max(a + 1, bisect.bisect_right(bounds, bounds[a] + row_model.dim) - 1)
            batches.append((slice(bounds[a], bounds[b]), starts[a:b] - bounds[a], rows[a:b]))
            a = b
        return cls(model.dim, (shift + m_cols[entry]) * h + cols[ins], shift + m_rows[entry],
                   as_complex(w[entry]), tuple(batches))

    def columns(self, z_new: np.ndarray, z_g: np.ndarray) -> np.ndarray:
        """F's new columns, ``dim`` x d_new, from z_new and z_g: one gather of z_g for
        all terms, then one segment sum per batch."""
        out = np.zeros((self.dim, z_new.shape[1]), dtype=complex)
        if not z_new.shape[1]:
            return out
        vals = (self.weight * z_g.take(self.g_at)).conj()
        for terms, starts, rows in self.batches:
            part = z_new[self.new_at[terms]]
            part *= vals[terms, None]
            out[rows] = np.add.reduceat(part, starts)
        return out


def per_copy_left(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(I_c (x) g) x for the square g, with c = rows(x) / dim(g) copy-major copies;
    x may have no columns."""
    return (g @ x.reshape(x.shape[0] // g.shape[1], g.shape[1], x.shape[1])).reshape(x.shape)


def per_copy_right(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x (I_c (x) g) for the square g, with c = cols(x) / dim(g) copy-major copies."""
    return (x.reshape(-1, g.shape[0]) @ g).reshape(x.shape)


def _frame_coinvariance(frame: np.ndarray, generators: list[np.ndarray]) -> float:
    """The co-invariance residual max_g ||(I - P) g^* P|| of the span J of an
    orthonormal frame Q, measured as max_g ||(I - P) g^* Q|| (Q^* is a co-isometry),
    with each generator acting on every copy of the frame's space."""
    return max_operator_norm([_complement(frame, per_copy_left(g.conj().T, frame))
                              for g in generators])


@dataclass
class LiftState:
    """The inductive state: levels n_i, nested frames, compatible operators.

    G_m maps the domain ``model`` into J_m.  ``frame`` spans J_m in the row space
    ``row_model`` (``model`` itself unless given), and ``g_mat`` is G_m in frame
    row coordinates.  For the two-space corollary G_m is X_m: K^(t) -> J_2
    (``model`` is K^(t), ``row_model`` K^(s), ``frame`` spans J_2), and ``j1``
    spans J_1 in K^(t).  J_1 holds no row of G_m, but it is a summand of J: it
    takes part in the step schedule, in ``dim_j`` = d_1 + d_2 and in the
    co-invariance residual.  ``ledger`` holds one entry per step: m, n_m, dim_j, the
    Parrott mu and the f_clamp, and the running residuals when the loop is asked for
    them (``_loop``).

    Each summand of J is K_{n_m} (+) J' (every step guards K_{n_m} in J), and
    ``j_prime`` holds per summand, in the order of ``spaces``, an orthonormal frame of
    J' = J ⊖ K_{n_m} with zero rows on K_{n_m}: the input frames at n_m = -1,
    where K_{-1} = 0.  Every generator's adjoint maps K_n into K_n, so the
    co-invariance residual and the escape scan read J' alone; the rows of G_m
    stay in ``frame`` coordinates.  ``f_pattern``, the terms F's new columns read
    (``FPattern``), is formed when not given and carried from step to step.
    """

    model: LiftModel
    frame: np.ndarray
    g_mat: np.ndarray
    n_list: list[int]
    ledger: list[dict] = field(default_factory=list)
    row_model: LiftModel | None = None
    j1: np.ndarray | None = None
    j_prime: list[np.ndarray] | None = None
    f_pattern: FPattern | None = None

    def __post_init__(self):
        if self.row_model is None:
            self.row_model = self.model
        if self.f_pattern is None:
            self.f_pattern = FPattern.build(self.model, self.row_model)
        if self.j_prime is None:
            if self.n_list[-1] >= 0:
                raise ValueError(f"the J' frames of a state at n_m = {self.n_list[-1]} "
                                 "must be given")
            self.j_prime = [q for _, q in self.spaces]

    @property
    def spaces(self) -> tuple[tuple[LiftModel, np.ndarray], ...]:
        """(model, frame) per summand of J: the row side, then J_1 if there is one."""
        if self.j1 is None:
            return ((self.row_model, self.frame),)
        return (self.row_model, self.frame), (self.model, self.j1)

    @property
    def m(self) -> int:
        return len(self.n_list)

    @property
    def dim_j(self) -> int:
        return sum(q.shape[1] for _, q in self.spaces)

    def is_full(self) -> bool:
        return all(q.shape[1] >= model.dim for model, q in self.spaces)


def j_prime_frame(model: LiftModel, cols: np.ndarray, n: int, width: int) -> np.ndarray:
    """An orthonormal frame of J ⊖ K_n with zero rows on K_n, for J = K_n + span(cols),
    ``cols`` orthonormal and dim J = |K_n| + ``width``: the first ``width`` left singular
    vectors of the rows of ``cols`` above level n.  Those rows project span(cols) onto
    the coordinates above n, which keeps J ⊖ K_n (singular values 1) and sends the part
    of K_n in span(cols) to 0."""
    above = np.flatnonzero(model.level > n)
    out = np.zeros((model.dim, width), dtype=complex)
    if width:
        out[above] = _svd(cols[above])[0][:, :width]
    return out


def _escaping(model: LiftModel, q: np.ndarray, low: int, n: int) -> np.ndarray:
    """An orthonormal frame of the part of K_n orthogonal to K_low (+) span(q), for q with
    zero rows on K_low: the coordinates of K_n above level low, less their projection
    on q (no column when K_n lies in the sum).  A residual whose Frobenius norm is at
    most RANK_TOL / 2 has no singular value above RANK_TOL, and takes no SVD."""
    idx = np.flatnonzero((model.level > low) & (model.level <= n))
    # the projection is subtracted twice, as in ``_project_out``: one pass leaves
    # roundoff drift along q that the rank test would read as new directions
    res = _complement(q, _complement_coords(q, idx))
    if np.linalg.norm(res) <= RANK_TOL / 2:
        return res[:, :0]
    return orth_columns(res, RANK_TOL)


def _escape_level(state: LiftState) -> tuple[int, list[np.ndarray]]:
    """Least n with K_n not contained in the current J, and per summand of J (in the
    order of ``state.spaces``) an orthonormal frame of the part of K_n orthogonal to it.

    J = K_{n_m} (+) J' (``_check_contains_prefix`` guards K_{n_m} in J at each step), so
    the scan starts above n_m and tests only the coordinates of K_n above n_m against
    J'; a J' with a nonzero row on K_{n_m} raises.  At most one thin SVD per summand
    and tested level: the rank rule of ``orth_columns`` keeps a column iff the largest
    singular value exceeds RANK_TOL, so K_n escapes iff a frame has a column.
    """
    low = state.n_list[-1]
    for (model, _), q in zip(state.spaces, state.j_prime):
        if q[model.prefix_idx(low)].any():
            raise RuntimeError(f"lift step {state.m + 1}: the J' frame has a row in "
                               f"K_{low}; numerical failure")
    for n in range(low + 1, state.model.levels + 1):
        frames = [_escaping(model, q, low, n)
                  for (model, _), q in zip(state.spaces, state.j_prime)]
        if any(frame.shape[1] for frame in frames):
            return n, frames
    raise RuntimeError("no level escapes J although J is proper")


def _outside(q: np.ndarray, new: np.ndarray, m: int) -> np.ndarray:
    """``new`` less its component q c, c = q^* new, in the span J of the frame q.  The
    escape scan makes ``new`` orthonormal and orthogonal to K_{n_m} (+) J' = J, so c is
    roundoff; a c above RANK_TOL (Frobenius) raises, naming lift step m."""
    c = q.conj().T @ new
    size = np.linalg.norm(c)
    if size > RANK_TOL:
        raise RuntimeError(f"lift step {m}: the escape frame has a component {size:.2e} "
                           "in J; numerical failure")
    return new - q @ c


def _check_contains_prefix(spaces, n: int, m: int) -> None:
    """Raise unless K_n lies in each summand of J_m, given as (model, frame) ``spaces``:
    ||(I - P) E_n|| <= RANK_TOL.

    The Frobenius norm bounds the operator norm, so a residual whose Frobenius
    norm is at most RANK_TOL / 2 passes without an SVD.
    """
    for model, q in spaces:
        c = _complement_coords(q, model.prefix_idx(n))
        if np.linalg.norm(c) <= RANK_TOL / 2:
            continue
        worst = operator_norm(c)
        if worst > RANK_TOL:
            raise RuntimeError(f"lift step {m}: K_{n} is not contained in J "
                               f"(residual {worst:.2e}); numerical failure")


def _condition_residuals(state: LiftState) -> dict:
    """Residuals of the running conditions at a state, which the lift report and the
    solve trace read: the co-invariance of J, max_g ||(I - P_J) g^* Q'|| on the J'
    frames Q' (the largest over the summands of J; the adjoints keep K_{n_m}, which J
    holds), and max_g ||q^* g q G - G g||."""
    q = state.frame
    q_star = q.conj().T
    generators = state.model.generators
    return {"coinvariant": max_operator_norm([
                _complement(frame, per_copy_left(g.conj().T, prime))
                for (_, frame), prime in zip(state.spaces, state.j_prime) for g in generators]),
            "intertwining": max_operator_norm([per_copy_right(q_star, g) @ q @ state.g_mat
                                               - per_copy_right(state.g_mat, g)
                                               for g in generators])}


def lift_step(state: LiftState, step_validator=None) -> LiftState:
    """One induction step: adjoin the least escaping level and complete.

    Computes n_{m+1} and the enlarged subspace, assembles the new columns of the
    contraction F from the basis data via g = G_m L_{1^}, splits F^* = [R; S] and
    G_m = [R, T], fills the missing corner by Parrott, and returns the new
    state.  The new directions are the escape frames as the scan computed them, less
    their roundoff component in J (``_outside``, no SVD).  F's new columns are
    q_new^* W q_m g on the row side, placed by the insertions of the domain, read by
    the state's ``f_pattern`` in one gather and one segment sum (no per-level loop),
    so for the corollary a step that adds no direction to J_2 adds no row to G.  The
    new J' frames are formed once, after the guard, from the old ones and the new
    directions (``j_prime_frame``).  The ledger entry holds what the reports, the loop
    and perfbench read: m, n_m, dim_j (the width of J, d_1 + d_2 for the corollary),
    the Parrott mu and the f_clamp; the step measures no running residual (see
    ``_loop``).
    Raises if J is already everything, if a J' frame has a row in K_{n_m}, an escape
    frame a component in J or K_{n_m} is not contained in the new J (guards, not
    recorded numbers), or if the completion is not finite.
    """
    model = state.model
    if state.is_full():
        raise ValueError("subspace is already the whole induced space")
    # rebinding drops the escape frames before F is formed
    n_new, added = _escape_level(state)
    added = [_outside(q, new, state.m + 1) for (_, q), new in zip(state.spaces, added)]
    if not any(new.shape[1] for new in added):
        raise RuntimeError("escaping level added no new directions")
    q_m, q_new = state.frame, added[0]

    # beta(W_{Z^{(k)-1} xi}) g = q_new^* W q_m g on the new directions, g = G_m L_{1^}
    rows_side = state.row_model
    z_new = rows_side.levelwise(rows_side.z_star, q_new)
    z_g = rows_side.levelwise(rows_side.z_inv, q_m @ model.vacuum(state.g_mat))
    f_new = state.f_pattern.columns(z_new, z_g)  # the J_{m+1} \ J_m columns of F
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

    spaces = [(space, np.hstack([q, new])) for (space, q), new in zip(state.spaces, added)]
    _check_contains_prefix(spaces, n_new, state.m + 1)
    j_prime = [j_prime_frame(space, np.hstack([prime, new]), n_new,
                             q.shape[1] - space.prefix_idx(n_new).size)
               for (space, q), prime, new in zip(spaces, state.j_prime, added)]
    j1 = None if state.j1 is None else spaces[1][1]
    new_state = LiftState(model, spaces[0][1], g_m1, state.n_list + [n_new],
                          list(state.ledger), state.row_model, j1, j_prime, state.f_pattern)
    entry = {"m": new_state.m, "n_m": n_new, "dim_j": new_state.dim_j, "mu": problem.mu,
             "f_clamp": f_clamp}
    if step_validator is not None:
        entry["extra"] = step_validator(state, new_state)
    new_state.ledger.append(entry)
    return new_state


def _hypotheses(g: np.ndarray, j_in: np.ndarray, j_out: np.ndarray, generators,
                tol: float, names: tuple[str, str]) -> dict[str, float]:
    """The lifting hypotheses for g: J_in -> J_out over the generators, each acting
    on every copy of the space of J_in and of J_out: orthonormal frames, J_in and
    J_out co-invariant (one space when ``names`` are equal), and g intertwining the
    compressions.  A defect, or a residual above tol, raises a _HypothesisError
    naming it."""
    for name, frame in dict(zip(names, (j_in, j_out))).items():  # each space once
        gap = frame.conj().T @ frame - np.eye(frame.shape[1])
        # the Frobenius norm bounds the operator norm: at most 1e-12 passes without an SVD
        if np.linalg.norm(gap) > 1e-12 and operator_norm(gap) > 1e-12:
            raise _HypothesisError(f"{name} frame columns are not orthonormal")
    out = {f"{names[0]} co-invariance": _frame_coinvariance(j_in, generators)}
    if names[1] != names[0]:
        out[f"{names[1]} co-invariance"] = _frame_coinvariance(j_out, generators)
    out["intertwining"] = max_operator_norm([
        g @ (per_copy_right(j_in.conj().T, a) @ j_in)
        - (per_copy_right(j_out.conj().T, a) @ j_out) @ g for a in generators])
    for key, value in out.items():
        if value > tol:
            raise _HypothesisError(f"lifting hypothesis fails: {key} residual {value:.2e}")
    return out


def _loop(model: LiftModel, frame: np.ndarray, g: np.ndarray, validator,
          row_model: LiftModel | None = None, j1: np.ndarray | None = None,
          step_residuals: bool = False):
    """The induction loop lifting g: J_1 -> J, with J the span of ``frame`` in
    ``row_model`` (``model`` unless given) and J_1 the span of ``j1`` in ``model`` (J
    unless given); returns the lift ``model`` -> ``row_model``, the ledger, the
    final G in frame coordinates (None when g = 0 takes no step) and ||g||.  With
    ``step_residuals`` each ledger entry also gets the running residuals of the state
    its step returned (``_condition_residuals``)."""
    row_model = model if row_model is None else row_model
    scale = operator_norm(g)
    if scale == 0.0:
        return np.zeros((row_model.dim, model.dim), dtype=complex), [], None, scale
    domain = frame if j1 is None else j1
    state = LiftState(model, frame, (g / scale) @ domain.conj().T, [-1], row_model=row_model,
                      j1=j1)
    while not state.is_full():
        state = lift_step(state, step_validator=validator)
        if step_residuals:
            state.ledger[-1].update(_condition_residuals(state))
    return scale * (state.frame @ state.g_mat), state.ledger, state.g_mat, scale


def _conclusions(g_tilde: np.ndarray, g: np.ndarray, g_norm: float, tilde_norm: float,
                 j_in: np.ndarray, j_out: np.ndarray, generators,
                 key: str = "intertwining") -> dict[str, float]:
    """The four conclusions for a lift g_tilde of g: J_in -> J_out, with g_norm = ||g||
    and tilde_norm = ||g_tilde||: g_tilde^* J_out in J_in, compression back to g,
    g_tilde a = a g_tilde (as ``key``) for each generator a on every copy of either
    side, norms equal."""
    return {
        "adjoint_invariance": operator_norm(_complement(j_in, g_tilde.conj().T @ j_out)),
        "compression": residual(j_out.conj().T @ g_tilde @ j_in, g),
        key: max_operator_norm([per_copy_right(g_tilde, a) - per_copy_left(a, g_tilde)
                                for a in generators]),
        "norm": abs(tilde_norm - g_norm),
    }


def commutant_lift(model: LiftModel, j_frame: np.ndarray, g_on_j: np.ndarray,
                   step_validator=None):
    """Lift a commuting operator on a co-invariant subspace to all of K.

    A hypothesis residual above 1e-9 raises a _HypothesisError naming it.
    Returns (g_tilde, trace) with the hypothesis residuals in trace["hypothesis"]
    and the four conclusions residual-checked in trace["conclusions"]:
    co-invariance of the adjoint, compression back to the input, commutation
    with every generator image, and norm equality.  Each step in trace["steps"]
    also carries its running residuals, coinvariant and intertwining, and norm_one =
    | ||G_m|| - 1 |, which only the lift report reads.
    """
    j_frame, g_on_j = as_complex(j_frame), as_complex(g_on_j)
    hypotheses = _hypotheses(g_on_j, j_frame, j_frame, model.generators, 1e-9, ("J", "J"))
    g_tilde, steps, g_final, g_norm = _loop(model, j_frame, g_on_j, step_validator,
                                            step_residuals=True)
    for step in steps:  # G_m is the first dim_j rows of every later G, bit for bit
        step["norm_one"] = abs(operator_norm(g_final[:step["dim_j"]]) - 1.0)
    return g_tilde, {"steps": steps, "hypothesis": hypotheses, "conclusions": _conclusions(
        g_tilde, g_on_j, g_norm, operator_norm(g_tilde), j_frame, j_frame, model.generators,
        "commutation")}


def two_space_lift(base: LiftModel, t: int, s: int, j1_frame: np.ndarray,
                   j2_frame: np.ndarray, g12: np.ndarray, hypothesis_tol: float,
                   step_residuals: bool = False):
    """Two-representation lifting by the Putnam trick, between the amplifications
    K^(t) and K^(s) of one model.

    ``j1_frame`` lives in K^(t), ``j2_frame`` in K^(s), and ``g12`` maps J_1
    coordinates to J_2 coordinates.  All copies share the base generators and
    creation data.  The hypotheses are checked on the
    summands (orthonormal frames, J_i co-invariant under the amplified
    generators, g12 intertwining the compressions), and one above
    ``hypothesis_tol`` raises a _HypothesisError naming it.  The Putnam trick
    lifts [[0, 0], [G, 0]] on J_1 (+) J_2 in K^(t) (+) K^(s); that lift keeps the
    form [[0, 0], [X, 0]], since G has no J_1 row and no K^(s) column, the
    generators act per copy, and the Parrott corner -S (mu^2 - R^* R)^+ R^* T keeps
    both zero blocks.  So the loop runs on X: K^(t) -> J_2 alone, and J_1 enters
    only through the step schedule, dim_j and the co-invariance residual (see
    ``LiftState``); the sum is never formed.  trace["hypothesis"] and
    trace["conclusions"] carry the corollary's hypothesis and four conclusion
    residuals, and trace["lift_norm"] is ||g_tilde||, which the conclusions take.
    trace["steps"] holds m, n_m, dim_j, mu and f_clamp per step, and with
    ``step_residuals`` (no tol, no verdict reads them) coinvariant and intertwining.
    """
    j1_frame, j2_frame, g12 = as_complex(j1_frame), as_complex(j2_frame), as_complex(g12)
    hypotheses = _hypotheses(g12, j1_frame, j2_frame, base.generators, hypothesis_tol,
                             ("J_1", "J_2"))
    g_tilde, steps, _, g_norm = _loop(base.amplify(t), j2_frame, g12, None,
                                      row_model=base.amplify(s), j1=j1_frame,
                                      step_residuals=step_residuals)
    lift_norm = operator_norm(g_tilde)
    return g_tilde, {"steps": steps, "hypothesis": hypotheses, "lift_norm": lift_norm,
                     "conclusions": _conclusions(g_tilde, g12, g_norm, lift_norm, j1_frame,
                                                 j2_frame, base.generators)}
