"""Dense complex linear algebra helpers: PSD square roots, thresholded
pseudoinverses, orthonormal frames and nullspaces via SVD.

Everything here works on plain ``numpy`` arrays of dtype complex128.  Empty
(zero-dimensional) matrices are legal inputs throughout; they show up whenever
a tensor power of a correspondence vanishes.
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-10
RANK_TOL = 1e-10
PINV_TOL = 1e-12
EPS = float(np.finfo(float).eps)


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def operator_norm(a: np.ndarray) -> float:
    """Largest singular value; 0.0 for empty and all-zero matrices, which take no SVD.

    gesdd returns the singular values sorted, so the first one is bit for bit
    what ``np.linalg.norm(a, 2)`` takes the maximum of.
    """
    a = as_complex(a)
    if a.size == 0 or not a.any():
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def max_operator_norm(mats) -> float:
    """``max(operator_norm(m) for m in mats)`` bit for bit, with an SVD only of a matrix that
    can still set it: a computed sigma_max is at most ||m||_F (1 + O(m.size eps)), so by
    decreasing ||m||_F one below best (1 - max(1e-12, 4 m.size eps)) is ruled out.  Under
    1e-150, where ||m||_F may have underflowed, only a zero matrix is; a non-finite ||m||_F
    (NaN, inf, overflow) or no matrix at all takes the plain max, raising where it raises."""
    mats = [as_complex(m) for m in mats]
    fro = [float(np.linalg.norm(m)) for m in mats]
    if not mats or not np.isfinite(fro).all():
        return max(operator_norm(m) for m in mats)
    best = 0.0
    for i in sorted(range(len(mats)), key=lambda i: -fro[i]):
        margin = max(1e-12, 4 * mats[i].size * EPS)
        if not fro[i] < best * (1.0 - margin) or (fro[i] < 1e-150 and mats[i].any()):
            best = max(best, operator_norm(mats[i]))
    return best


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian square root, clipping eigenvalues in [-1e-12, 0] to 0.

    Raises ValueError if an eigenvalue falls below -1e-12 * max(1, ||a||).
    """
    a = as_complex(a)
    if a.size == 0:
        return a.copy()
    h = 0.5 * (a + a.conj().T)
    w, v = np.linalg.eigh(h)
    scale = max(1.0, float(abs(w).max()))
    if w.min() < -1e-12 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _unit_columns(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=0)
    return x / np.where(norms > 0.0, norms, 1.0)


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``u, s, vh``, as ``np.linalg.svd`` gives it (empty factors for an empty matrix).

    gesdd can return non-finite factors for a finite input without raising (OpenBLAS
    0.3.31's SkylakeX kernels do on a Hermitian gram with a 36-fold eigenvalue).  Then
    the factors are read off ``eigh`` of the Hermitian dilation [[0, A], [A^*, 0]],
    whose eigenpairs are (+-s_i, (u_i, +-v_i) / sqrt 2).  Each half is normalized on
    its own: an eigenvector of a small s_i can mix with that of -s_i, which scales
    u_i and v_i but does not turn them.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if all(np.isfinite(f).all() for f in (u, s, vh)) or not np.isfinite(a).all():
        return u, s, vh
    m, n = a.shape
    dilation = np.zeros((m + n, m + n), dtype=a.dtype)
    dilation[:m, m:] = a
    dilation[m:, :m] = a.conj().T
    w, x = np.linalg.eigh(dilation)
    top = slice(m + n - 1, m + n - 1 - min(m, n), -1)  # the min(m, n) largest, descending
    x = x[:, top]
    return _unit_columns(x[:m]), np.clip(w[top], 0.0, None), _unit_columns(x[m:]).conj().T


def pinv(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with the relative singular value threshold PINV_TOL.

    The formula is ``np.linalg.pinv``'s with ``rcond=PINV_TOL``, on the factors of ``_svd``.
    """
    a = as_complex(a)
    if a.size == 0:
        return a.conj().T.copy()
    u, s, vt = _svd(a.conjugate())
    large = s > PINV_TOL * s.max()
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    return vt.T @ (s[:, None] * u.T)


def orth_columns(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) for the column space of ``a``."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = _svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return u[:, :rank]


def nullspace(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) for the kernel of ``a``."""
    a = as_complex(a)
    if a.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a)
    rank = int(np.sum(s > tol * max(1.0, s[0])))
    return vh[rank:].conj().T


def _complement(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(I - Q Q^*) a = a - Q (Q^* a) for the orthonormal columns Q of ``q``, in one pass."""
    return a - q @ (q.conj().T @ a)


def _complement_coords(q: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(I - Q Q^*) E for the coordinate columns E of ``idx``: Q^* E is the row gather
    ``q[idx]^*``, which has the sums of the dense product (one nonzero term each)."""
    e = np.zeros((q.shape[0], idx.size), dtype=complex)
    e[idx, np.arange(idx.size)] = 1.0
    return e - q @ q[idx].conj().T


def _project_out(q: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a`` minus its projection onto the orthonormal columns of ``q``.

    The projection is subtracted twice: a single pass leaves roundoff drift
    along ``q`` that the rank tests downstream would read as new directions.
    """
    return _complement(q, _complement(q, a))


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance between two matrices of equal shape."""
    return operator_norm(as_complex(a) - as_complex(b))


def rng_complex(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
