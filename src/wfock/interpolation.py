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
from .fock import TruncatedFock, phi_inf, weighted_creation
from .graphs import CorrElement
from .induced import CommutantAlgebra, InducedSpace
from .lifting import _coinvariance_residual, two_space_lift
from .linalg import as_complex, operator_norm, orth_columns, pinv, residual, rng_complex
from .weights import AdmissibleSequence, WeightSystem


class PickInfeasibleError(ValueError):
    """Raised when an interpolation instance fails the positivity test."""


BOUNDARY_MARGIN = 1e-6


@dataclass
class DiscPoint:
    """An intertwiner inside the weighted disc, with cached tensorial powers.

    ``weighted_powers[k]`` is z^{(k)} (X_k (x) I) for each nonempty level
    k >= 1, built once per point; ``tail_bound`` holds ``kernel_tail_bound``
    once it has been computed.
    """

    ind: InducedSpace
    x_seq: AdmissibleSequence
    mat: np.ndarray
    powers: list[np.ndarray] = field(init=False)
    weighted_powers: dict[int, np.ndarray] = field(init=False)
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
            for k in range(1, ind.levels + 1) if ind.level_dim(k)}
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

    def power_residual(self) -> float:
        """Check z^{(k+l)} = z^{(k)} (I_k (x) z^{(l)}) on the cached powers."""
        worst = 0.0
        for k in range(1, self.ind.levels):
            step = self.ind.lower_by_point(self.mat, k + 1)
            worst = max(worst, residual(self.powers[k + 1], self.powers[k] @ step))
        return worst

    def phi_value(self, a: np.ndarray) -> np.ndarray:
        """Phi_z(A) = sum_{k>=1} z^{(k)} (X_k (x) A) z^{(k)*}, exact for the data."""
        ind = self.ind
        out = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
        for k, zx in self.weighted_powers.items():
            out += zx @ ind.dual_left_level(a, k) @ self.powers[k].conj().T
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
    """The transported Cauchy column L_z: H -> K, with its level blocks."""

    point: DiscPoint
    ws: WeightSystem
    levels: list[np.ndarray] = field(init=False)
    column: np.ndarray = field(init=False)

    def __post_init__(self):
        ind = self.point.ind
        self.levels = []
        self.column = np.zeros((ind.dim, ind.rep.h_dim), dtype=complex)
        for k in range(ind.levels + 1):
            zinv = self.ws.z_prod_inv(k)
            blk = ind.level_tensor_identity(zinv.conj().T, k) @ self.point.powers[k].conj().T
            self.levels.append(blk)
            self.column[ind.level_slice(k), :] = blk

    def pairing(self, other: "CauchyKernel", a: np.ndarray) -> np.ndarray:
        """<c_w, A . c_z> computed from the stored columns."""
        ind = self.point.ind
        return self.column.conj().T @ ind.dual_left(as_complex(a)) @ other.column

    def levelwise_residual(self, other: "CauchyKernel", a: np.ndarray) -> float:
        """Both routes to <c_w(k), A . c_z(k)> = w^{(k)} (R_k^2 (x) A) z^{(k)*}."""
        ind = self.point.ind
        r = self.point.x_seq.R
        worst = 0.0
        a = as_complex(a)
        for k in range(ind.levels + 1):
            if ind.level_dim(k) == 0:
                continue
            lhs = self.levels[k].conj().T @ ind.dual_left_level(a, k) @ other.levels[k]
            r2 = ind.level_tensor_identity(r[k] @ r[k], k)
            rhs = self.point.powers[k] @ r2 @ ind.dual_left_level(a, k) \
                @ other.point.powers[k].conj().T
            worst = max(worst, residual(lhs, rhs))
        return worst


def kernel_value(w: DiscPoint, z: DiscPoint, a: np.ndarray) -> np.ndarray:
    """The truncated Szego-type kernel K(w, z)(A) = sum w^{(k)} (R_k^2 (x) A) z^{(k)*}."""
    ind = w.ind
    r = w.x_seq.R
    out = np.zeros((ind.rep.h_dim, ind.rep.h_dim), dtype=complex)
    for k in range(ind.levels + 1):
        if ind.level_dim(k) == 0:
            continue
        r2 = ind.level_tensor_identity(r[k] @ r[k], k)
        out += w.powers[k] @ r2 @ ind.dual_left_level(a, k) @ z.powers[k].conj().T
    return out


def szego_kernel(w: DiscPoint, z: DiscPoint, a: np.ndarray, ws: WeightSystem):
    """Kernel value plus tail bound, cross-checked against the Cauchy pairing.

    Returns (value, tail, cauchy_residual).
    """
    value = kernel_value(w, z, a)
    tail = 0.5 * (kernel_tail_bound(w) + kernel_tail_bound(z)) * operator_norm(a)
    cw, cz = CauchyKernel(w, ws), CauchyKernel(z, ws)
    return value, tail, residual(value, cw.pairing(cz, a))


# ---------------------------------------------------------------------------
# point evaluation of the truncated algebra
# ---------------------------------------------------------------------------


def representation_eval(z: DiscPoint, word) -> np.ndarray:
    """Evaluate the point representation on a product of generators.

    ``word`` is a list of ("a", vector) left-action factors and
    ("xi", CorrElement) weighted-creation factors; the value is the product of
    sigma(a) and z^{(k)} L_xi factors, which is multiplicative by construction
    and agrees with the compression route on words of total degree within the
    truncation.
    """
    ind = z.ind
    out = np.eye(ind.rep.h_dim, dtype=complex)
    for kind, payload in word:
        if kind == "a":
            out = out @ ind.rep.sigma(payload)
        elif kind == "xi":
            xi: CorrElement = payload
            out = out @ (z.powers[xi.level] @ ind.insertion_map(xi))
        else:
            raise ValueError(f"unknown word factor {kind!r}")
    return out


def hat_eval(z: DiscPoint, ws: WeightSystem, op_matrix: np.ndarray) -> np.ndarray:
    """Evaluation through the kernel column: L_z^* (Y (x) I) L_I."""
    c = CauchyKernel(z, ws)
    return c.column.conj().T @ op_matrix @ z.ind.vacuum_inserter()


def word_matrix(ind: InducedSpace, ws: WeightSystem, word) -> np.ndarray:
    """The induced image (Y (x) I) of a generator word."""
    space = TruncatedFock(ind.graph, ind.levels)
    out = np.eye(ind.dim, dtype=complex)
    for kind, payload in word:
        if kind == "a":
            out = out @ ind.fock_tensor_identity(phi_inf(space, payload))
        else:
            out = out @ ind.fock_tensor_identity(weighted_creation(space, ws, payload))
    return out


def iota_w_star_check(z: DiscPoint, ws: WeightSystem, xi_mat: np.ndarray,
                      d_mat: np.ndarray) -> float:
    """Residual of (W'_xi)^* (D . c_z) = <D^* . xi, z^*> . c_z, levelwise.

    The top level is excluded: it is consumed by the truncation.
    """
    ind = z.ind
    s = DualStructure(ind, ws)
    c = CauchyKernel(z, ws)
    lhs = s.rho_creation(xi_mat, 1).conj().T @ ind.dual_left(as_complex(d_mat)) @ c.column
    coeff = xi_mat.conj().T @ ind.dual_left_level(as_complex(d_mat), 1) @ z.mat.conj().T
    rhs = ind.dual_left(coeff) @ c.column
    top = ind.level_slice(ind.levels).start
    return residual(lhs[:top, :], rhs[:top, :])


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

    The domain splits over vertices into full matrix algebras, so the Choi
    matrix is the direct sum over vertices of the unit-by-unit images; the
    map is completely positive iff every block is PSD, up to a relative 1e-9
    of the Choi norm.  When a weight system is supplied the kernels are
    evaluated through the Cauchy columns; the default is the weight-free
    power series, and the two agree up to roundoff because the kernel does
    not depend on the weights.
    """
    ind = problem.ind
    npts = len(problem.points)
    h = ind.rep.h_dim
    s_dim = problem.s * h
    w_dim = npts * s_dim

    cauchy = [CauchyKernel(z, ws) for z in problem.points] if ws is not None else None

    def kernel(i: int, j: int, unit: np.ndarray) -> np.ndarray:
        if cauchy is not None:
            return cauchy[i].pairing(cauchy[j], unit)
        return kernel_value(problem.points[i], problem.points[j], unit)

    blocks = []
    for v in range(ind.graph.n_vertices):
        m_v = ind.rep.multiplicities[v]
        d = npts * m_v
        choi_v = np.zeros((d * w_dim, d * w_dim), dtype=complex)
        for i in range(npts):
            for mu in range(m_v):
                for j in range(npts):
                    for nu in range(m_v):
                        unit = ind.rep.commutant_unit(v, mu, nu)
                        kij = kernel(i, j, unit)
                        img = problem.B[i] @ np.kron(np.eye(problem.s), kij) @ problem.B[j].conj().T \
                            - problem.F[i] @ np.kron(np.eye(problem.t), kij) @ problem.F[j].conj().T
                        row = (i * m_v + mu) * w_dim + i * s_dim
                        col = (j * m_v + nu) * w_dim + j * s_dim
                        choi_v[row:row + s_dim, col:col + s_dim] = img
        blocks.append(choi_v)
    total = sum(b.shape[0] for b in blocks)
    choi = np.zeros((total, total), dtype=complex)
    pos = 0
    for b in blocks:
        choi[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    choi = 0.5 * (choi + choi.conj().T)
    eigs = np.linalg.eigvalsh(choi)
    norm = float(abs(eigs).max())
    min_eig = float(eigs.min())
    tails = [kernel_tail_bound(z) for z in problem.points]
    return CPReport(is_cp=bool(min_eig >= -1e-9 * max(1.0, norm)),
                    min_eigenvalue=min_eig, choi_norm=norm, choi=choi, kernel_tails=tails)


def quadratic_form_gap(problem: PickProblem, ws: WeightSystem,
                       rng: np.random.Generator, families: int = 20) -> float:
    """Minimum of the defining quadratic form over random (A, h) families.

    Negative values witness failure of the kernel-domination condition; the
    sign agrees with the Choi verdict up to roundoff.
    """
    cols_b, cols_f = _span_generators(problem, ws)
    worst = np.inf
    n_b = cols_b.shape[1]
    for _ in range(families):
        c = rng_complex(rng, n_b)
        vb = cols_b @ c
        vf = cols_f @ c
        gap = float(np.vdot(vb, vb).real - np.vdot(vf, vf).real)
        scale = max(1.0, float(np.vdot(vb, vb).real))
        worst = min(worst, gap / scale)
    return worst


def _span_generators(problem: PickProblem, ws: WeightSystem):
    """Columns spanning J_B and J_F, aligned index by index.

    Enumerates the commutant matrix units A and the coordinate vectors of
    H^{(s)}; the column for (i, A, h) is the transported A . c_{z_i} (x) (.)^* h
    on the relevant copy stack.
    """
    ind = problem.ind
    units = CommutantAlgebra(ind.rep).units()
    cols_b, cols_f = [], []
    for i, z in enumerate(problem.points):
        c = CauchyKernel(z, ws)
        for unit in units:
            base = ind.dual_left(unit) @ c.column  # K x h
            stack_b = np.kron(np.eye(problem.s), base) @ problem.B[i].conj().T
            stack_f = np.kron(np.eye(problem.t), base) @ problem.F[i].conj().T
            cols_b.append(stack_b)
            cols_f.append(stack_f)
    return np.hstack(cols_b), np.hstack(cols_f)


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


def np_solve(problem: PickProblem, ws: WeightSystem, eps: float = 1e-7) -> SolveResult:
    """Construct an interpolant by two-space lifting on the dual side.

    Builds the kernel spans J_B and J_F, the exchange map R on them, lifts
    R^* through the transported dual algebra, and evaluates the lift at the
    points.  Raises PickInfeasibleError when the positivity test fails, and
    reports the kernel tail budget so callers can judge the truncation.
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

    cols_b, cols_f = _span_generators(problem, ws)
    q_b = orth_columns(cols_b)
    q_f = orth_columns(cols_f)
    coords_b = q_b.conj().T @ cols_b
    coords_f = q_f.conj().T @ cols_f
    r_op = coords_f @ pinv(coords_b)
    r_consistency = residual(r_op @ coords_b, coords_f)
    r_margin = operator_norm(r_op) - 1.0

    structure = DualStructure(ind, ws)
    base_model = dual_lift_model(structure)
    model_sum = base_model.amplify(problem.t + problem.s)
    dim_k = base_model.dim
    emb1 = np.zeros((model_sum.dim, problem.t * dim_k), dtype=complex)
    emb1[: problem.t * dim_k, :] = np.eye(problem.t * dim_k)
    emb2 = np.zeros((model_sum.dim, problem.s * dim_k), dtype=complex)
    emb2[problem.t * dim_k:, :] = np.eye(problem.s * dim_k)

    # The truncated kernel spans satisfy the lifting hypotheses only up to
    # tail effects amplified by the span conditioning, which is intrinsic to
    # the finite model.  Measure the actual defects, disclose them, and gate
    # at the measured scale, refusing only when the truncation is plainly
    # inadequate for the requested accuracy.
    g12 = r_op.conj().T  # J_F coords -> J_B coords
    amp_s = base_model.amplify(problem.s)
    amp_t = base_model.amplify(problem.t)
    defect = 0.0
    for amp, frame in ((amp_s, q_b), (amp_t, q_f)):
        defect = max(defect, _coinvariance_residual(frame @ frame.conj().T, amp.generators))
    for g_s, g_t in zip(amp_s.generators, amp_t.generators):
        defect = max(defect, residual(g12 @ (q_f.conj().T @ g_t @ q_f),
                                      (q_b.conj().T @ g_s @ q_b) @ g12))
    hyp_budget = max(1e-9, 2.0 * defect)
    if defect > 1e-3:
        raise ValueError(
            f"kernel spans violate the lifting hypotheses by {defect:.2e}; the "
            "truncation cannot support this instance, raise N or move the points inward")

    g_tilde, trace = two_space_lift(model_sum, emb1, emb2, q_f, q_b, g12,
                                    hypothesis_tol=hyp_budget)

    vac = ind.vacuum_inserter()
    evaluations = []
    residuals_out = []
    for i, z in enumerate(problem.points):
        c = CauchyKernel(z, ws)
        left = np.kron(np.eye(problem.s), c.column)
        right = np.kron(np.eye(problem.t), vac)
        y_hat = left.conj().T @ g_tilde @ right
        evaluations.append(y_hat)
        residuals_out.append(operator_norm(problem.B[i] @ y_hat - problem.F[i]))
    lift_err = max(trace["corollary"]["adjoint_invariance"],
                   trace["corollary"]["compression"])
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
