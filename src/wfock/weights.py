"""Admissible sequences, the derived positive operators R_k, and weight systems.

An admissible sequence X assigns to each level k a PSD matrix X_k on the path
basis, commuting with the left action, with X_0 = 0 and X_1 invertible.  From
X one forms

    R_k^2 = sum over j and over compositions alpha of k into j positive parts
            of X_{alpha(1)} (x) ... (x) X_{alpha(j)},

which we evaluate through the equivalent first-part recursion
R_k^2 = sum_j X_j (x) R_{k-j}^2 (the literal composition sum is exponential in
k and infeasible at scalar truncations around 60; the two agree term by term
by splitting off alpha(1), and the test suite cross-checks the enumeration).

A weight system Z is any sequence of invertible operators in the commutant of
the left action with Z_0 = I and Z^{(k)*} Z^{(k)} = R_k^{-2}, where Z^{(k)} is
the telescoping product of the weights.  The canonical choice is
Z_k = R_k^{-1} (I_1 (x) R_{k-1}), for which Z^{(k)} collapses to R_k^{-1}.

X determines R, so R is computed once per admissible sequence, on first use
of ``AdmissibleSequence.R``, and everything downstream reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .graphs import (
    GraphCorrespondence,
    embed_prefix,
    embed_suffix,
    left_action,
    path_basis,
    tensor_pair,
)
from .linalg import ATOL, as_complex, operator_norm, psd_sqrt, residual


@dataclass
class AdmissibleSequence:
    """The data X = {X_k}_{k<=N} with the admissibility constraints.

    The growth condition limsup ||X_k||^{1/k} < inf cannot be checked from
    finitely many terms and is not part of the data.  ``R`` holds R_0 .. R_N,
    computed on first use; computing it rejects X whose R_k^2 is not PSD.
    """

    graph: GraphCorrespondence
    levels: int
    X: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.X = [as_complex(x) for x in self.X]
        if len(self.X) != self.levels + 1:
            raise ValueError("need X_0 .. X_N")
        self.validate()

    @cached_property
    def R(self) -> list[np.ndarray]:
        return compute_R(self)

    @classmethod
    def from_scalar(cls, graph: GraphCorrespondence, xs, levels: int) -> "AdmissibleSequence":
        """Lift a scalar sequence (x_1, x_2, ...) to X_k = x_k * I for k = 1..levels;
        x_k beyond the sequence is 0."""
        xs = [float(x) for x in xs]
        mats = [np.zeros((graph.n_vertices, graph.n_vertices), dtype=complex)]
        for k in range(1, levels + 1):
            d = path_basis(graph, k).size
            xk = xs[k - 1] if k - 1 < len(xs) else 0.0
            mats.append(xk * np.eye(d, dtype=complex))
        return cls(graph, levels, mats)

    def validate(self):
        g = self.graph
        if operator_norm(self.X[0]) > ATOL:
            raise ValueError("X_0 must vanish")
        for k, xk in enumerate(self.X):
            d = path_basis(g, k).size
            if xk.shape != (d, d):
                raise ValueError(f"X_{k} has shape {xk.shape}, expected {(d, d)}")
            if d == 0:
                continue
            if residual(xk, xk.conj().T) > ATOL:
                raise ValueError(f"X_{k} is not Hermitian")
            eigs = np.linalg.eigvalsh(0.5 * (xk + xk.conj().T))
            if eigs.size and eigs.min() < -ATOL:
                raise ValueError(f"X_{k} has eigenvalue {eigs.min():.2e} below the PSD floor")
            if _left_commutator(g, xk, k) > ATOL:
                raise ValueError(f"X_{k} does not commute with the left action")
        if path_basis(g, 1).size:
            s = np.linalg.svd(self.X[1], compute_uv=False)
            if s.size == 0 or s.min() <= 1e-10:
                raise ValueError("X_1 must be invertible")


def _left_commutator(graph: GraphCorrespondence, m: np.ndarray, k: int) -> float:
    """max over the vertex units a of ||m phi_k(a) - phi_k(a) m||."""
    worst = 0.0
    for a in np.eye(graph.n_vertices):
        phi = left_action(graph, a, k)
        worst = max(worst, residual(m @ phi, phi @ m))
    return worst


def compute_R(x: AdmissibleSequence) -> list[np.ndarray]:
    """The positive invertible square roots R_0 .. R_N (R_0 = I on M).

    Evaluated through R_k^2 = sum_{j=1}^k X_j (x) R_{k-j}^2; the square root is
    Hermitian-eigendecomposition based with a small negative-eigenvalue clip.
    A sum that overflows, or fails PSD beyond tolerance, marks X invalid.  Read
    R through ``AdmissibleSequence.R``, which calls this once per sequence.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is named below
        r2 = _first_part_sums(x.X, partial(tensor_pair, x.graph))
    rs = [r2[0]]
    for i in range(1, x.levels + 1):
        if not np.isfinite(r2[i]).all():
            raise ValueError(f"R_{i}^2 is not finite: X is too large to sum to level {i}")
        try:
            rs.append(psd_sqrt(r2[i]))
        except ValueError as exc:
            raise ValueError(f"R_{i}^2 is not PSD; X is not admissible: {exc}") from exc
    return rs


def _first_part_sums(xs: list[np.ndarray], tensor) -> list[np.ndarray]:
    """R_0^2 = I and R_k^2 = sum_{j=1}^k X_j (x) R_{k-j}^2 for k >= 1.

    ``tensor(A, a, B, b)`` is A (x) B for A at level a and B at level b; empty
    levels are skipped.  The graph side (X_k) and the dual side (X'_k) share it.
    """
    r2 = [np.eye(xs[0].shape[0], dtype=complex)]
    for k in range(1, len(xs)):
        acc = np.zeros(xs[k].shape, dtype=complex)
        for j in range(1, k + 1):
            if xs[j].size:
                acc += xs[j] if j == k else tensor(xs[j], j, r2[k - j], k - j)
        r2.append(acc)
    return r2


@dataclass
class WeightSystem:
    """Weights Z with cached products Z^{(k)}, Z^{(k,j)} and inverses."""

    graph: GraphCorrespondence
    levels: int
    Z: list[np.ndarray]
    R: list[np.ndarray] | None = None

    def __post_init__(self):
        self.Z = [as_complex(z) for z in self.Z]
        if len(self.Z) != self.levels + 1:
            raise ValueError("need Z_0 .. Z_N")
        if residual(self.Z[0], np.eye(self.graph.n_vertices)) > ATOL:
            raise ValueError("Z_0 must be the identity on M")
        self._zprod: dict[int, np.ndarray] = {}
        self._zprod_inv: dict[int, np.ndarray] = {}
        self._zbetween: dict[tuple[int, int], np.ndarray] = {}

    def z_prod(self, k: int) -> np.ndarray:
        """Z^{(k)} = Z_k (I_1 (x) Z_{k-1}) ... (I_{k-1} (x) Z_1)."""
        if k not in self._zprod:
            g = self.graph
            if k == 0:
                acc = np.eye(g.n_vertices, dtype=complex)
            else:
                acc = self.Z[k].copy()
                for a in range(1, k):
                    acc = acc @ embed_suffix(g, self.Z[k - a], k - a, k)
            self._zprod[k] = acc
        return self._zprod[k]

    def z_prod_inv(self, k: int) -> np.ndarray:
        if k not in self._zprod_inv:
            zp = self.z_prod(k)
            self._zprod_inv[k] = np.linalg.inv(zp) if zp.size else zp.copy()
        return self._zprod_inv[k]

    def z_between(self, k: int, j: int) -> np.ndarray:
        """Z^{(k,j)} = Z^{(k)} (I_{k-j} (x) Z^{(j)})^{-1}, the partial product."""
        if not (0 <= j <= k):
            raise ValueError("need 0 <= j <= k")
        if j == k:
            d = path_basis(self.graph, k).size
            return np.eye(d, dtype=complex)
        if j == 0:
            return self.z_prod(k)
        if (k, j) not in self._zbetween:
            inner = np.linalg.inv(embed_suffix(self.graph, self.z_prod(j), j, k))
            self._zbetween[k, j] = self.z_prod(k) @ inner
        return self._zbetween[k, j]

    def c_quotient(self, k: int) -> np.ndarray:
        """C_k = Z^{(k)} (Z^{(k-1)} (x) I_1)^{-1}; the prefix-sided quotient."""
        if k == 0:
            return np.eye(self.graph.n_vertices, dtype=complex)
        inner = embed_prefix(self.graph, self.z_prod(k - 1), k - 1, k)
        return self.z_prod(k) @ np.linalg.inv(inner)

    def c_between(self, i: int, k: int) -> np.ndarray:
        """Z^{(i)} ((Z^{(i-k)})^{-1} (x) I_k): prefix-sided partial product."""
        if not (0 <= k <= i):
            raise ValueError("need 0 <= k <= i")
        if k == 0:
            d = path_basis(self.graph, i).size
            return np.eye(d, dtype=complex)
        if k == i:
            return self.z_prod(i)
        inner = embed_prefix(self.graph, self.z_prod_inv(i - k), i - k, i)
        return self.z_prod(i) @ inner

    def validate(self) -> dict[str, float]:
        """Residuals of the defining laws against the attached R sequence."""
        if self.R is None:
            raise ValueError("no R sequence attached")
        g = self.graph
        out = {"weight_law": 0.0, "projection_law": 0.0, "telescope": 0.0, "commutant": 0.0}
        for k in range(self.levels + 1):
            d = path_basis(g, k).size
            if d == 0:
                continue
            zp = self.z_prod(k)
            r2 = self.R[k] @ self.R[k]
            eye = np.eye(d)
            out["weight_law"] = max(out["weight_law"], residual(zp.conj().T @ zp, np.linalg.inv(r2)))
            out["projection_law"] = max(out["projection_law"], residual(zp @ r2 @ zp.conj().T, eye))
            out["commutant"] = max(out["commutant"], _left_commutator(g, self.Z[k], k))
            if k >= 1 and path_basis(g, k).size:
                lhs = self.z_prod_inv(k) @ self.Z[k]
                rhs = embed_suffix(g, self.z_prod_inv(k - 1), k - 1, k)
                out["telescope"] = max(out["telescope"], residual(lhs, rhs))
        return out


def canonical_weights(graph: GraphCorrespondence, R: list[np.ndarray]) -> WeightSystem:
    """The canonical sequence Z_k = R_k^{-1} (I_1 (x) R_{k-1}).

    The unweighted setting is recovered when every Z_k is the identity, which
    happens exactly for the free-Szego choice X_1 = I, X_k = 0 (k >= 2).
    """
    zs = [np.eye(graph.n_vertices, dtype=complex)]
    for k in range(1, len(R)):
        d = path_basis(graph, k).size
        if d == 0:
            zs.append(np.zeros((0, 0), dtype=complex))
            continue
        lifted = embed_suffix(graph, R[k - 1], k - 1, k)
        zs.append(np.linalg.solve(R[k], lifted))
    return WeightSystem(graph, len(R) - 1, zs, R=R)


def weight_system_from(x: AdmissibleSequence, Z: list[np.ndarray] | None = None) -> WeightSystem:
    """Canonical weights for X, or validate a user-supplied Z against X."""
    R = x.R
    if Z is None:
        return canonical_weights(x.graph, R)
    ws = WeightSystem(x.graph, x.levels, Z, R=R)
    res = ws.validate()
    worst = max(res.values())
    if worst > 1e-8:
        raise ValueError(f"supplied Z is not a weight sequence for X (residual {worst:.2e})")
    return ws


def admissible_from_kernel_coeffs(a) -> tuple[list[float], bool, str]:
    """Invert kernel coefficients a_k = R_k^2 into the scalar sequence x.

    Solves sum_k a_k t^k = 1 / (1 - sum_{k>=1} x_k t^k) by power-series
    reciprocal: x_k = a_k - sum_{j=1}^{k-1} x_j a_{k-j}.  The sequence is
    admissible iff every x_k clears a small negative floor and x_1 > 0; this
    is the scalar complete-Pick criterion (Hardy and Dirichlet pass, Bergman
    fails at x_2 = -1).
    """
    a = [float(v) for v in a]
    if not all(np.isfinite(a)):
        raise ValueError("kernel coefficients must be finite")
    if not a or abs(a[0] - 1.0) > 1e-12:
        raise ValueError("kernel coefficients must start at a_0 = 1")
    if any(v <= 0 for v in a):
        raise ValueError("kernel coefficients must be positive")
    xs: list[float] = []
    for k in range(1, len(a)):
        xk = a[k] - sum(xs[j - 1] * a[k - j] for j in range(1, k))
        xs.append(xk)
    if xs and xs[0] <= 0:
        return xs, False, "x_1 <= 0"
    for k, xk in enumerate(xs, start=1):
        if xk < -1e-12:
            return xs, False, f"x_{k} = {xk:.6g} < 0"
    return xs, True, "admissible"


def scalar_r2(xs, n: int) -> list[float]:
    """Scalar R_k^2 from x by the same recursion; round-trip oracle."""
    r2 = [1.0]
    for k in range(1, n + 1):
        r2.append(sum((xs[j - 1] if j - 1 < len(xs) else 0.0) * r2[k - j] for j in range(1, k + 1)))
    return r2
