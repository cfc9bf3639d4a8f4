"""Disc points, Szego-type kernels, the Pick map, and the interpolation solver.

A disc point is an intertwiner z: E (x)_sigma H -> H whose weighted power
series sum_k z^(k) (X_k (x) I) z^(k)* has norm strictly below one.  Points
evaluate the weighted algebra through z^(k) compositions; their Cauchy kernel
vectors live in the dual Fock space and are carried here in transported form,
as block columns L_z: H -> K with level-k block ((Z^{(k)})^{-1})^* (x) I z^(k)*.

Truncation accounting: the admissible data is finitely supported at the
truncation, so the point transform Phi_z is computed exactly, and the kernel
tail beyond level N is bounded by a computable defect (the gap between the
Neumann partial sum and the level partial sum at the identity) plus the
geometric remainder of the Neumann series.

Solvability of an interpolation problem is decided by complete positivity of
the Pick map, tested through its Choi matrix over the matrix-unit basis of
the commutant; interpolants are constructed by lifting the kernel-span
exchange map with the two-space commutant lifting corollary on the
transported dual side and evaluating the lift at the points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .duality import DualStructure, dual_lift_model
from .fock import phi_inf, weighted_creation
from .induced import InducedSpace
from .lifting import _HypothesisError, two_space_lift
from .linalg import as_complex, operator_norm, orth_columns, pinv, residual
from .weights import AdmissibleSequence, WeightSystem


class PickInfeasibleError(ValueError):
    """Raised when an interpolation instance fails the positivity test."""


BOUNDARY_MARGIN = 1e-6


@dataclass
class DiscPoint:
    """An intertwiner inside the weighted disc, with cached tensorial powers.

    ``weighted_powers[k]`` is z^{(k)} (X_k (x) I) for each level k of the
    support of X (``AdmissibleSequence.support``), so ``phi_value`` costs one
    level product per support level, and ``kernel_powers[k]`` is
    z^{(k)} (R_k^2 (x) I) for each nonempty level k >= 0; both are built once
    per point.  ``tail_bound`` holds ``kernel_tail_bound`` once it has been
    computed.
    """

    ind: InducedSpace
    x_seq: AdmissibleSequence
    mat: np.ndarray
    powers: list[np.ndarray] = field(init=False)
    weighted_powers: dict[int, np.ndarray] = field(init=False)
    kernel_powers: dict[int, np.ndarray] = field(init=False)
    phi_norm: float = field(init=False)
    tail_bound: float | None = field(init=False, default=None)

    def __post_init__(self):
        self.mat = as_complex(self.mat)
        ind = self.ind
        if self.mat.shape != (ind.rep.h_dim, ind.level_dim(1)):
            raise ValueError("point must map the level-one induced space to H")
        worst = 0.0
        for v in range(ind.graph.n_vertices):
            a = np.zeros(ind.graph.n_vertices)
            a[v] = 1.0
            worst = max(worst, residual(ind.rep.sigma(a) @ self.mat,
                                        self.mat @ ind.sigma_level(a, 1)))
        if worst > 1e-10:
            raise ValueError(f"point is not an intertwiner (residual {worst:.2e})")
        self.powers = [np.eye(ind.rep.h_dim, dtype=complex)]
        for k in range(1, ind.levels + 1):
            self.powers.append(self.powers[-1] @ ind.lower_by_point(self.mat, k))
        self.weighted_powers = {
            k: self.powers[k] @ ind.level_tensor_identity(as_complex(self.x_seq.X[k]), k)
            for k in self.x_seq.support}
        r = self.x_seq.R
        self.kernel_powers = {
            k: self.powers[k] @ ind.level_tensor_identity(r[k] @ r[k], k)
            for k in range(ind.levels + 1) if ind.level_dim(k)}
        self.phi_norm = operator_norm(self.phi_value(np.eye(ind.rep.h_dim)))
        if self.phi_norm > 1.0 - BOUNDARY_MARGIN:
            raise ValueError(
                f"point lies outside the open disc (power sum norm {self.phi_norm:.6f})")

    @classmethod
    def scalar(cls, ind: InducedSpace, x_seq: AdmissibleSequence, z: complex) -> "DiscPoint":
        """The one-vertex one-loop shortcut: z is a complex number."""
        if ind.graph.n_vertices != 1 or ind.graph.n_edges != 1 or ind.rep.h_dim != 1:
            raise ValueError("scalar points need the one-loop graph with multiplicity one")
        return cls(ind, x_seq, np.array([[z]], dtype=complex))

    def phi_value(self, a: np.ndarray) -> np.ndarray:
        """Phi_z(A) = sum_{k>=1} z^{(k)} (X_k (x) A) z^{(k)*}, exact for the data."""
        return _power_sum(self.weighted_powers, self, a)


def _power_sum(left: dict[int, np.ndarray], z: DiscPoint, a: np.ndarray) -> np.ndarray:
    """sum_k L_k (I_k (x) A) z^{(k)*} over the levels k of the left powers L_k; only
    their blocks of I_k (x) A are gathered."""
    ind = z.ind
    out = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    for (k, lk), blk in zip(left.items(), ind.dual_left_levels(a, left)):
        out += lk @ blk @ z.powers[k].conj().T
    return out


@dataclass
class PhiMapResult:
    value: np.ndarray
    tail: float
    level_tail: float
    neumann_residual: float


def phi_map(z: DiscPoint, a: np.ndarray) -> PhiMapResult:
    """Evaluate Phi_z(A) with its tail budgets and the Neumann cross-check.

    The Neumann identity sum_j Phi_z^j(A) = sum_k z^{(k)} (R_k^2 (x) A) z^{(k)*}
    is verified with both partial sums.  ``tail`` bounds the truncation of the
    Neumann series (geometric), ``level_tail`` the truncation of the level
    series; their sum bounds the reported residual, since both partial sums
    approximate the same limit.
    """
    a = as_complex(a)
    value = z.phi_value(a)
    phi = z.phi_norm
    geom_tail = phi ** (z.ind.levels + 1) / (1.0 - phi)
    neumann = _neumann_partial_sum(z, a)
    level = kernel_value(z, z, a)
    return PhiMapResult(value=value, tail=geom_tail * operator_norm(a),
                        level_tail=kernel_tail_bound(z) * operator_norm(a),
                        neumann_residual=residual(neumann, level))


def _neumann_partial_sum(z: DiscPoint, a: np.ndarray) -> np.ndarray:
    """sum_{j=0}^{N} Phi_z^j(A), the Neumann series cut at the truncation level."""
    neumann = a.copy()
    acc = a.copy()
    for _ in range(z.ind.levels):
        acc = z.phi_value(acc)
        neumann = neumann + acc
    return neumann


def kernel_tail_bound(z: DiscPoint) -> float:
    """Computable bound on the mass of the kernel series beyond the truncation.

    The level partial sum is the level-restricted part of the Neumann partial
    sum, so the missing completely positive mass at the identity is the gap
    between the two partial sums plus the geometric remainder.  The bound is
    computed once per point and kept in ``z.tail_bound``.
    """
    if z.tail_bound is None:
        phi = z.phi_norm
        eye = np.eye(z.ind.rep.h_dim)
        gap = residual(_neumann_partial_sum(z, eye), kernel_value(z, z, eye))
        z.tail_bound = gap + phi ** (z.ind.levels + 1) / (1.0 - phi)
    return z.tail_bound


@dataclass
class CauchyKernel:
    """The transported Cauchy column L_z: H -> K, stacked level by level."""

    point: DiscPoint
    ws: WeightSystem
    column: np.ndarray = field(init=False)

    def __post_init__(self):
        ind = self.point.ind
        self.column = np.vstack([ind.level_tensor_identity(self.ws.z_prod_inv(k).conj().T, k)
                                 @ self.point.powers[k].conj().T for k in range(ind.levels + 1)])

    def pairing(self, other: "CauchyKernel", a: np.ndarray) -> np.ndarray:
        """<c_w, A . c_z> computed from the stored columns."""
        ind = self.point.ind
        return self.column.conj().T @ ind.dual_left(as_complex(a)).matrix @ other.column


def kernel_value(w: DiscPoint, z: DiscPoint, a: np.ndarray) -> np.ndarray:
    """The truncated Szego-type kernel K(w, z)(A) = sum w^{(k)} (R_k^2 (x) A) z^{(k)*}."""
    return _power_sum(w.kernel_powers, z, a)


def szego_kernel(cw: CauchyKernel, cz: CauchyKernel, a: np.ndarray):
    """Kernel value at the points of two built Cauchy columns, plus tail bound,
    cross-checked against their pairing.

    Returns (value, tail, cauchy_residual).
    """
    w, z = cw.point, cz.point
    value = kernel_value(w, z, a)
    tail = 0.5 * (kernel_tail_bound(w) + kernel_tail_bound(z)) * operator_norm(a)
    return value, tail, residual(value, cw.pairing(cz, a))


# ---------------------------------------------------------------------------
# point evaluation of the truncated algebra
# ---------------------------------------------------------------------------


def hat_eval(z: DiscPoint, ws: WeightSystem, op_matrix: np.ndarray) -> np.ndarray:
    """Evaluation through the kernel column: L_z^* (Y (x) I) L_I."""
    c = CauchyKernel(z, ws)
    return (c.column.conj().T @ op_matrix)[:, z.ind.level_slice(0)]


def word_matrix(ind: InducedSpace, ws: WeightSystem, word) -> np.ndarray:
    """The induced image (Y (x) I) of a generator word."""
    out = np.eye(ind.dim, dtype=complex)
    for kind, payload in word:
        if kind == "a":
            out = out @ ind.fock_tensor_identity(phi_inf(ind.fock, payload)).matrix
        else:
            out = out @ ind.fock_tensor_identity(weighted_creation(ind.fock, ws, payload)).matrix
    return out


# ---------------------------------------------------------------------------
# the Pick map and its complete positivity test
# ---------------------------------------------------------------------------


@dataclass
class PickProblem:
    """Interpolation data: points z_i, targets B_i (s x s), F_i (s x t)."""

    points: list[DiscPoint]
    B: list[np.ndarray]
    F: list[np.ndarray]
    s: int = 1
    t: int = 1

    def __post_init__(self):
        if not self.points:
            raise ValueError("need at least one point")
        ind = self.points[0].ind
        h = ind.rep.h_dim
        if any(z.ind is not ind for z in self.points):
            raise ValueError("all points must live on one induced space")
        self.B = [as_complex(b) for b in self.B]
        self.F = [as_complex(f) for f in self.F]
        if len(self.B) != len(self.points) or len(self.F) != len(self.points):
            raise ValueError("need one B and one F per point")
        for b, f in zip(self.B, self.F):
            if b.shape != (self.s * h, self.s * h) or f.shape != (self.s * h, self.t * h):
                raise ValueError("target shapes are not conformal with (s, t)")

    @property
    def ind(self) -> InducedSpace:
        return self.points[0].ind


@dataclass
class CPReport:
    is_cp: bool
    min_eigenvalue: float
    choi_norm: float
    choi: np.ndarray
    kernel_tails: list[float]


def pick_map_cp_test(problem: PickProblem, ws: WeightSystem | None = None) -> CPReport:
    """Assemble the Choi matrix of the Pick map and test positivity.

    The Choi matrix is the direct sum over vertices of the images of the
    matrix units E_mu,nu of sigma(M)', rows and columns over (point, mu), s h
    each.  A unit moves the coordinates C_nu of H index nu to C_mu
    (``InducedSpace.h_coordinates``), so K(z_i, z_j)(E_mu,nu) =
    L_i[:, C_mu] R_j[:, C_nu]^* and vertex v's block is U_B V_B^* - U_F V_F^*,
    U_B stacking B_i (I_s (x) L_i[:, C_mu]) over (i, mu), V_B likewise with R,
    the F terms with I_t.  The h x dim factors L_i and R_i are the kernel
    powers z_i^{(k)} (R_k^2 (x) I) and the powers z_i^{(k)} side by side, or
    with a weight system both the adjoint Cauchy column c_i^* (the kernel does
    not depend on the weights).  The map is completely positive iff every
    block is PSD, up to a relative 1e-9 of the Choi norm.
    """
    ind = problem.ind
    if ws is None:
        left = [np.hstack(list(z.kernel_powers.values())) for z in problem.points]
        right = [np.hstack(z.powers) for z in problem.points]
    else:
        left = right = [CauchyKernel(z, ws).column.conj().T for z in problem.points]
    rows_per_h = len(problem.points) * problem.s * ind.h_dim
    choi = np.zeros((rows_per_h * ind.h_dim,) * 2, dtype=complex)
    for h_block in map(ind.rep.block, range(ind.graph.n_vertices)):  # diagonal vertex blocks
        coords = ind.h_coordinates[h_block]
        u_b, v_b = (_unit_rows(problem.B, factors, problem.s, coords) for factors in (left, right))
        u_f, v_f = (_unit_rows(problem.F, factors, problem.t, coords) for factors in (left, right))
        rows = slice(rows_per_h * h_block.start, rows_per_h * h_block.stop)
        choi[rows, rows] = u_b @ v_b.conj().T - u_f @ v_f.conj().T
    choi = 0.5 * (choi + choi.conj().T)
    eigs = np.linalg.eigvalsh(choi)
    norm = float(abs(eigs).max())
    min_eig = float(eigs.min())
    tails = [kernel_tail_bound(z) for z in problem.points]
    return CPReport(is_cp=bool(min_eig >= -1e-9 * max(1.0, norm)),
                    min_eigenvalue=min_eig, choi_norm=norm, choi=choi, kernel_tails=tails)


def _unit_rows(targets, factors, copies: int, coords) -> np.ndarray:
    """T_i (I_copies (x) G_i[:, C_mu]) over the rows (i, mu), for one vertex's lists C_mu."""
    return np.vstack([t @ np.kron(np.eye(copies), g[:, c])
                      for t, g in zip(targets, factors) for c in coords])


def _span_generators(problem: PickProblem, ws: WeightSystem):
    """Columns spanning J_B and J_F, aligned index by index, and each point's Cauchy column.

    Enumerates the commutant matrix units E and the coordinate vectors of H^{(s)}; the
    column for (i, E, h) is the transported E . c_{z_i} (x) (.)^* h on the relevant copy
    stack, where E_mu,nu . c is c's rows C_nu at the rows C_mu (``h_coordinates``).
    """
    ind = problem.ind
    cauchy = [CauchyKernel(z, ws).column for z in problem.points]
    coords, offsets = ind.h_coordinates, ind.rep.offsets
    cols_b, cols_f = [[] for _ in cauchy], [[] for _ in cauchy]
    for v, mu, nu in ind.rep.commutant_basis():
        rows, cols = coords[offsets[v] + mu], coords[offsets[v] + nu]
        for i, column in enumerate(cauchy):
            base = np.zeros_like(column)  # K x h
            base[rows] = column[cols]
            cols_b[i].append(np.kron(np.eye(problem.s), base) @ problem.B[i].conj().T)
            cols_f[i].append(np.kron(np.eye(problem.t), base) @ problem.F[i].conj().T)
    # the columns in (point, unit) order
    return (np.hstack([c for cols in cols_b for c in cols]),
            np.hstack([c for cols in cols_f for c in cols]), cauchy)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


@dataclass
class SolveResult:
    g_tilde: np.ndarray
    evaluations: list[np.ndarray]
    residuals: list[float]
    norm: float
    cp: CPReport
    r_margin: float
    r_consistency: float
    eps_estimate: float
    hyp_budget: float
    trace: dict


def np_solve(problem: PickProblem, ws: WeightSystem, eps: float = 1e-7,
             dual_model=None) -> SolveResult:
    """Construct an interpolant by two-space lifting on the dual side.

    Builds the kernel spans J_B and J_F, the exchange map R on them, lifts
    R^* through the transported dual algebra, and evaluates the lift at the
    points.  Raises PickInfeasibleError when the positivity test fails, and
    reports the kernel tail budget so callers can judge the truncation.  The
    kernel spans meet the lifting hypotheses only up to tail effects, so a
    defect above 1e-3 is refused and ``hyp_budget`` is max(1e-9, 2 x defect);
    ``trace["conclusions"]`` holds the corollary's four conclusion residuals.
    ``dual_model``, a function of no arguments, gives the dual lift model of the
    problem's setting (a new one by default); it is called only for a problem
    that passes both checks.
    """
    ind = problem.ind
    cp = pick_map_cp_test(problem)
    if not cp.is_cp:
        raise PickInfeasibleError(
            f"Pick map is not completely positive (min eigenvalue {cp.min_eigenvalue:.3e})")
    tail_budget = max(cp.kernel_tails) if cp.kernel_tails else 0.0
    if tail_budget > eps:
        raise ValueError(
            f"kernel tail budget {tail_budget:.3e} exceeds the requested eps {eps:.1e}; "
            "raise the truncation level or move the points inward")

    cols_b, cols_f, cauchy = _span_generators(problem, ws)
    q_b, q_f = orth_columns(cols_b), orth_columns(cols_f)
    coords_b, coords_f = q_b.conj().T @ cols_b, q_f.conj().T @ cols_f
    r_op = coords_f @ pinv(coords_b)
    r_consistency = residual(r_op @ coords_b, coords_f)
    r_margin = operator_norm(r_op) - 1.0

    base = dual_model() if dual_model is not None else dual_lift_model(DualStructure(ind, ws))
    g12 = r_op.conj().T  # J_F coords -> J_B coords
    try:
        g_tilde, trace = two_space_lift(base, problem.t, problem.s, q_f, q_b, g12, 1e-3)
    except _HypothesisError as exc:
        raise ValueError(f"kernel spans: {exc}; the truncation cannot support this instance, "
                         "raise N or move the points inward") from exc
    hyp_budget = max(1e-9, 2.0 * max(trace["hypothesis"].values()))

    # K_0 of each copy of K^(t), the domain of g_tilde
    vacuum = (base.dim * np.arange(problem.t)[:, None] + base.prefix_idx(0)).ravel()
    evaluations, residuals_out = [], []
    for i, column in enumerate(cauchy):
        left = np.kron(np.eye(problem.s), column)
        y_hat = (left.conj().T @ g_tilde)[:, vacuum]
        evaluations.append(y_hat)
        residuals_out.append(operator_norm(problem.B[i] @ y_hat - problem.F[i]))
    lift_err = max(trace["conclusions"]["adjoint_invariance"],
                   trace["conclusions"]["compression"])
    return SolveResult(
        g_tilde=g_tilde,
        evaluations=evaluations,
        residuals=residuals_out,
        norm=operator_norm(g_tilde),
        cp=cp,
        r_margin=r_margin,
        r_consistency=r_consistency,
        eps_estimate=lift_err + tail_budget + r_consistency,
        hyp_budget=hyp_budget,
        trace=trace,
    )
