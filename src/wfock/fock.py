"""The truncated Fock space and its graded operators.

The Fock space of E is the direct sum of the tensor powers; we keep levels
0..N and represent operators as dense square matrices over the stacked path
bases.  Compressing to levels <= N is exactly multiplicative for operators of
nonnegative degree (a product of raising operators cannot pass through levels
above N and return), so every algebraic identity among weighted creation
operators and left actions holds exactly on the truncation, not just
approximately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graphs import CorrElement, GraphCorrespondence, _random_module_map, insertion_matrix, \
    left_action, path_basis
from .linalg import as_complex, operator_norm, psd_sqrt, residual
from .weights import AdmissibleSequence, WeightSystem


@dataclass(frozen=True)
class TruncatedFock:
    """Index bookkeeping for ⊕_{k<=N} E^{(x)k}."""

    graph: GraphCorrespondence
    levels: int

    @cached_property
    def level_dims(self) -> tuple[int, ...]:
        return tuple(path_basis(self.graph, k).size for k in range(self.levels + 1))

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        dims = self.level_dims
        out = [0]
        for d in dims:
            out.append(out[-1] + d)
        return tuple(out)

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def level_slice(self, k: int) -> slice:
        off = self.offsets
        return slice(off[k], off[k + 1])

    def level_isometry(self, k: int) -> np.ndarray:
        """v_k: E^{(x)k} -> Fock, so Q_k = v_k v_k^*."""
        d = path_basis(self.graph, k).size
        out = np.zeros((self.dim, d), dtype=complex)
        out[self.level_slice(k), :] = np.eye(d)
        return out

    def level_projection(self, k: int) -> np.ndarray:
        vk = self.level_isometry(k)
        return vk @ vk.conj().T


@dataclass
class FockOperator:
    """A square matrix on the truncated Fock space with degree metadata.

    ``degree`` d means level j maps into level j + d; None means mixed.  On
    construction, entries outside the declared graded band must vanish.
    """

    space: TruncatedFock
    matrix: np.ndarray
    degree: int | None = None

    def __post_init__(self):
        self.matrix = as_complex(self.matrix)
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise ValueError(f"operator shape {self.matrix.shape} != {(n, n)}")
        if self.degree is not None:
            self._check_band()

    def _check_band(self):
        """Off-band blocks must have norm <= 1e-13 max(1, ||M||).

        Exactly zero blocks pass without a factorization, and the whole-matrix
        scale is computed only once a nonzero off-band block needs it.
        """
        if not np.isfinite(self.matrix).all():
            raise ValueError(f"degree-{self.degree} operator has non-finite entries")
        sp = self.space
        tol = None
        for j in range(sp.levels + 1):
            for i in range(sp.levels + 1):
                if i - j == self.degree:
                    continue
                block = self.matrix[sp.level_slice(i), sp.level_slice(j)]
                if not block.any():
                    continue
                if tol is None:
                    tol = 1e-13 * max(1.0, operator_norm(self.matrix))
                if operator_norm(block) > tol:
                    raise ValueError(f"degree-{self.degree} operator has mass at block ({i},{j})")

    def block(self, i: int, j: int) -> np.ndarray:
        return self.matrix[self.space.level_slice(i), self.space.level_slice(j)]

    def norm(self) -> float:
        return operator_norm(self.matrix)

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        deg = None
        if self.degree is not None and other.degree is not None:
            deg = self.degree + other.degree
            if deg > self.space.levels:
                deg = None  # product vanishes or is mixed-zero; keep unlabeled
        return FockOperator(self.space, self.matrix @ other.matrix, deg)

    def adjoint(self) -> "FockOperator":
        deg = None if self.degree is None else -self.degree
        return FockOperator(self.space, self.matrix.conj().T, deg)


def phi_inf(space: TruncatedFock, a) -> FockOperator:
    """phi_inf(a) = diag[phi_0(a), phi_1(a), ...]; equals W_a at level 0."""
    g = space.graph
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(space.levels + 1):
        sl = space.level_slice(k)
        m[sl, sl] = left_action(g, a, k)
    return FockOperator(space, m, 0)


def creation(space: TruncatedFock, xi: CorrElement) -> FockOperator:
    """T_xi: the k-subdiagonal matrix of insertion operators xi (x) -."""
    k = xi.level
    if k > space.levels:
        raise ValueError("creation level exceeds truncation")
    if k == 0:
        return phi_inf(space, xi.coeffs)
    g = space.graph
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.levels + 1 - k):
        m[space.level_slice(j + k), space.level_slice(j)] = insertion_matrix(g, xi, j)
    return FockOperator(space, m, k)


def weight_diagonal(space: TruncatedFock, Z: WeightSystem, k: int) -> FockOperator:
    """D_k = diag[0, ..., 0, Z^{(k)}, Z^{(k+1,1)}, Z^{(k+2,2)}, ...]."""
    if k > space.levels:
        raise ValueError("weight level exceeds truncation")
    m = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(k, space.levels + 1):
        sl = space.level_slice(i)
        m[sl, sl] = Z.z_between(i, i - k)
    return FockOperator(space, m, 0)


def weighted_creation(space: TruncatedFock, Z: WeightSystem, xi: CorrElement) -> FockOperator:
    """W_xi = D_k T_xi; block (j+k, j) is Z^{(j+k,j)} T_xi^{(j)}."""
    t = creation(space, xi)
    if xi.level == 0:
        return t
    d = weight_diagonal(space, Z, xi.level)
    return FockOperator(space, d.matrix @ t.matrix, xi.level)


def tensor_element(graph: GraphCorrespondence, xi: CorrElement, eta: CorrElement) -> CorrElement:
    """xi (x) eta as a correspondence element (coefficients over paths)."""
    mat = insertion_matrix(graph, xi, eta.level)
    return CorrElement(xi.level + eta.level, mat @ eta.coeffs)


def handysums_check(space: TruncatedFock, k: int, rng: np.random.Generator | None = None,
                    rep=None) -> dict[str, float]:
    """Residuals of the three summation identities over the level-k basis.

    (1) sum_xi theta_{S xi} = S S^* for a random module map S;
    (2) Q_k (x) I_H = sum_xi L_{xi^} L_{xi^}^* on an induced space (if rep given);
    (3) sum_xi T_xi T_xi^* = sum_{i>=k} Q_i on the truncation.
    All three are exact finite sums; an empty basis gives zero operators.
    """
    rng = rng or np.random.default_rng(0)
    g = space.graph
    basis = path_basis(g, k)
    report: dict[str, float] = {}

    d = basis.size
    if d == 0:
        report["theta_sum"] = 0.0
        report["projection_sum"] = 0.0
        return report

    # (1) with S: E^{(x)k} -> E^{(x)k} a random source-preserving module map
    s = _random_module_map(g, k, rng)
    acc = np.zeros((d, d), dtype=complex)
    for idx in range(d):
        sxi = s[:, idx]
        theta = np.zeros((d, d), dtype=complex)
        for p in range(d):
            for q in range(d):
                if basis.sources[p] == basis.sources[q]:
                    theta[p, q] = sxi[p] * np.conj(sxi[q])
        acc += theta
    report["theta_sum"] = residual(acc, s @ s.conj().T)

    # (3) sum T T^* against the tail projection
    acc2 = np.zeros((space.dim, space.dim), dtype=complex)
    for idx in range(d):
        t = creation(space, CorrElement.basis_vector(g, k, idx)).matrix
        acc2 += t @ t.conj().T
    tail = np.zeros((space.dim, space.dim), dtype=complex)
    for i in range(k, space.levels + 1):
        tail += space.level_projection(i)
    report["projection_sum"] = residual(acc2, tail)

    if rep is not None:
        from .induced import InducedSpace  # local import to avoid a cycle

        ind = InducedSpace(g, rep, space.levels)
        acc3 = np.zeros((ind.dim, ind.dim), dtype=complex)
        for idx in range(d):
            ins = ind.basis_inserter(k, idx)
            acc3 += ins @ ins.conj().T
        qk = ind.fock_tensor_identity(space.level_projection(k))
        report["induced_projection_sum"] = residual(acc3, qk)
    return report


def sums_to_projection_check(space: TruncatedFock, x: AdmissibleSequence,
                             Z: WeightSystem) -> float:
    """Max residual of sum_j sum_xi W_{X_j^{1/2} xi} W^*_{X_j^{1/2} xi} = I - Q_0.

    The identity is levelwise: level i only needs terms with j <= i, so it
    holds exactly on the truncation.
    """
    g = space.graph
    acc = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(1, space.levels + 1):
        basis = path_basis(g, j)
        if basis.size == 0:
            continue
        root = psd_sqrt(x.X[j])
        for idx in range(basis.size):
            w = weighted_creation(space, Z, CorrElement(j, root[:, idx])).matrix
            acc += w @ w.conj().T
    target = np.eye(space.dim, dtype=complex)
    target[space.level_slice(0), space.level_slice(0)] = 0.0
    return residual(acc, target)
