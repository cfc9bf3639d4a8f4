"""The truncated Fock space and its graded operators.

The Fock space of E is the direct sum of the tensor powers; we keep levels
0..N and store an operator as its blocks between levels, so an operator of
degree k holds only the blocks from level j to level j + k; the induced
spaces F(E) (x)_sigma H use the same type, which alone places blocks into a
matrix, on request.  Compressing to levels <= N is exactly multiplicative for
operators of nonnegative degree (a product of raising operators cannot pass
through levels above N and return), so every algebraic identity among weighted
creation operators and left actions holds exactly on the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .graphs import CorrElement, GraphCorrespondence, _masked_gather, _random_module_map, \
    insertion_matrix, left_action, path_basis
from .linalg import as_complex, psd_sqrt, residual
from .weights import AdmissibleSequence, WeightSystem

if TYPE_CHECKING:
    from .induced import InducedSpace


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
        return tuple(accumulate(self.level_dims, initial=0))

    @property
    def dim(self) -> int:
        return self.offsets[-1]

    def level_slice(self, k: int) -> slice:
        off = self.offsets
        return slice(off[k], off[k + 1])


@dataclass(frozen=True, eq=False)
class FockOperator:
    """A graded operator on a truncated Fock or induced space, stored as its level blocks.

    ``blocks[(i, j)]`` maps level j into level i; absent blocks are zero, so
    the operator holds no mass outside the blocks it was built with.  On
    construction every block must have the shape of its levels (``level_dims``
    of ``space``) and finite entries.  The blocks are kept in (i, j) order.
    """

    space: TruncatedFock | InducedSpace
    blocks: dict[tuple[int, int], np.ndarray]

    def __post_init__(self):
        dims, blocks = self.space.level_dims, {}
        for (i, j), blk in sorted(self.blocks.items()):
            blk = as_complex(blk)
            if not (0 <= i < len(dims) and 0 <= j < len(dims)):
                raise ValueError(f"block ({i},{j}) is outside levels 0..{self.space.levels}")
            if blk.shape != (dims[i], dims[j]):
                raise ValueError(f"block ({i},{j}) has shape {blk.shape}, "
                                 f"expected {(dims[i], dims[j])}")
            blocks[i, j] = blk
        # one finiteness pass over all entries; the block scan only names the pair
        if blocks and not np.isfinite(np.concatenate([b.ravel() for b in blocks.values()])).all():
            i, j = next(ij for ij, b in blocks.items() if not np.isfinite(b).all())
            raise ValueError(f"block ({i},{j}) has non-finite entries")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def _gathered(cls, space: TruncatedFock | InducedSpace, blocks: dict) -> FockOperator:
        """The operator without the constructor's checks, for blocks gathered from checked ones."""
        op = object.__new__(cls)
        op.__dict__.update(space=space, blocks=blocks)
        return op

    @cached_property
    def degree(self) -> int | None:
        """The common i - j of the blocks: level j maps into level j + degree; None if mixed."""
        degrees = {i - j for i, j in self.blocks}
        return degrees.pop() if len(degrees) == 1 else None

    @property
    def matrix(self) -> np.ndarray:
        """The blocks placed in a whole-space matrix, kept (read-only); not a cached_property,
        whose lock would cost hot loops."""
        if "_matrix" not in self.__dict__:
            off = list(accumulate(self.space.level_dims, initial=0))
            out = np.zeros((off[-1], off[-1]), dtype=complex)
            for (i, j), blk in self.blocks.items():
                out[off[i]:off[i + 1], off[j]:off[j + 1]] = blk
            out.flags.writeable = False
            self.__dict__["_matrix"] = out
        return self.__dict__["_matrix"]


def phi_inf(space: TruncatedFock, a) -> FockOperator:
    """phi_inf(a) = diag[phi_0(a), phi_1(a), ...]; equals W_a at level 0."""
    g = space.graph
    return FockOperator(space, {(k, k): left_action(g, a, k) for k in range(space.levels + 1)})


def creation(space: TruncatedFock, xi: CorrElement) -> FockOperator:
    """T_xi: the k-subdiagonal blocks of insertion operators xi (x) -."""
    k = xi.level
    if k > space.levels:
        raise ValueError("creation level exceeds truncation")
    if k == 0:
        return phi_inf(space, xi.coeffs)
    g = space.graph
    return FockOperator(space, {(j + k, j): insertion_matrix(g, xi, j)
                                for j in range(space.levels + 1 - k)})


def weighted_creation(space: TruncatedFock, Z: WeightSystem, xi: CorrElement) -> FockOperator:
    """W_xi = D_k T_xi; block (j+k, j) is Z^{(j+k,j)} T_xi^{(j)}, formed and checked once."""
    k = xi.level
    if k == 0 or k > space.levels:
        return creation(space, xi)
    g = space.graph
    return FockOperator(space, {(j + k, j): Z.z_between(j + k, j) @ insertion_matrix(g, xi, j)
                                for j in range(space.levels + 1 - k)})


def tensor_element(graph: GraphCorrespondence, xi: CorrElement, eta: CorrElement) -> CorrElement:
    """xi (x) eta as a correspondence element (coefficients over paths)."""
    mat = insertion_matrix(graph, xi, eta.level)
    return CorrElement(xi.level + eta.level, mat @ eta.coeffs)


def multiplicativity_residual(space: TruncatedFock, Z: WeightSystem, xi: CorrElement,
                              eta: CorrElement) -> float:
    """The residual of W_xi W_eta = W_{xi (x) eta} on the truncation, where it holds exactly."""
    lhs = weighted_creation(space, Z, xi).matrix @ weighted_creation(space, Z, eta).matrix
    return residual(lhs, weighted_creation(space, Z, tensor_element(space.graph, xi, eta)).matrix)


def handysums_check(space: TruncatedFock, k: int, rng: np.random.Generator | None = None,
                    ind=None) -> dict[str, float]:
    """Residuals of the three summation identities over the level-k basis.

    (1) sum_xi theta_{S xi} = S S^* for a random module map S;
    (2) Q_k (x) I_H = sum_xi L_{xi^} L_{xi^}^* on the induced space ``ind`` over
        ``space`` (if given);
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
    paths = np.arange(d)
    acc = np.zeros((d, d), dtype=complex)
    for i in range(d):
        theta = np.outer(s[:, i], s[:, i].conj())  # theta_{S xi}[p, q] = S[p, i] conj(S[q, i])
        acc += _masked_gather(theta, paths, paths, basis.sources, basis.sources)
    report["theta_sum"] = residual(acc, s @ s.conj().T)

    # (3) sum T T^* against the tail projection
    acc2 = np.zeros((space.dim, space.dim), dtype=complex)
    for idx in range(d):
        t = creation(space, CorrElement.basis_vector(g, k, idx)).matrix
        acc2 += t @ t.conj().T
    tail = np.diag((np.arange(space.dim) >= space.offsets[k]).astype(complex))
    report["projection_sum"] = residual(acc2, tail)

    if ind is not None:
        acc3 = np.zeros((ind.level_dim(k), ind.level_dim(k)), dtype=complex)
        for idx in range(d):
            ins = ind.insertion_map(CorrElement.basis_vector(g, k, idx))
            acc3 += ins @ ins.conj().T
        report["induced_projection_sum"] = residual(acc3, ind.level_tensor_identity(np.eye(d), k))
    return report


def sums_to_projection_check(space: TruncatedFock, x: AdmissibleSequence,
                             Z: WeightSystem) -> float:
    """Max residual of sum_j sum_xi W_{X_j^{1/2} xi} W^*_{X_j^{1/2} xi} = I - Q_0.

    The identity is levelwise: level i only needs terms with j <= i, so it
    holds exactly on the truncation.  A zero X_j adds nothing, so j runs over
    the support of X.
    """
    acc = np.zeros((space.dim, space.dim), dtype=complex)
    for j in x.support:
        root = psd_sqrt(x.X[j])
        for idx in range(root.shape[0]):
            w = weighted_creation(space, Z, CorrElement(j, root[:, idx])).matrix
            acc += w @ w.conj().T
    target = np.eye(space.dim, dtype=complex)
    target[space.level_slice(0), space.level_slice(0)] = 0.0
    return residual(acc, target)
