"""JSON schemas for graphs, weight data, operators, and problems.

Complex numbers are [re, im] pairs, matrices are row-major nested lists, and
all files are plain JSON so fixtures diff cleanly.  Decoding raises ValueError
with the violated field named; the CLI maps that to an input error.  Every
number is checked to be finite as it is parsed, so NaN and infinities never
reach a factorization.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import FockOperator
from .graphs import GraphCorrespondence, path_basis
from .induced import InducedSpace, Representation
from .interpolation import DiscPoint, PickProblem
from .linalg import as_complex
from .weights import AdmissibleSequence, WeightSystem, _left_commutator, weight_system_from


def encode_complex(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _finite(v) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ValueError(f"not a finite number: {v!r}")
    return float(v)


def _count(v) -> int:
    """A JSON integer, taken as it is: floats, strings and booleans are rejected."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"not an integer: {v!r}")
    return v


def _positive(v) -> int:
    """A JSON integer of at least 1."""
    if (n := _count(v)) < 1:
        raise ValueError(f"must be at least 1, got {n}")
    return n


def _named(field: str, decode, *args):
    """``decode(*args)`` with a malformed-input error reported against ``field``."""
    try:
        return decode(*args)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def required(obj: dict, key: str):
    """The field ``key`` of an input object; a missing one is named."""
    if key not in obj:
        raise ValueError(f"{key}: missing")
    return obj[key]


def _items(field: str, decode, value, *args) -> list:
    """``decode(item, *args)`` for each item of the list ``value``, errors named per item."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list, got {type(value).__name__}")
    return [_named(f"{field}[{i}]", decode, item, *args) for i, item in enumerate(value)]


def decode_kernel_coeffs(value) -> list[float]:
    return _items("kernel_coeffs", _finite, value)


def decode_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(_finite(v))
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(_finite(v[0]), _finite(v[1]))
    raise ValueError(f"not a complex value: {v!r}")


def encode_matrix(m) -> list:
    m = as_complex(np.atleast_2d(m))
    return [[encode_complex(v) for v in row] for row in m]


def decode_matrix(rows) -> np.ndarray:
    if not isinstance(rows, list):
        raise ValueError("matrix must be a list of rows")
    return np.array([[decode_complex(v) for v in row] for row in rows], dtype=complex)


def encode_graph(g: GraphCorrespondence) -> dict:
    return {"vertices": g.n_vertices, "edges": [list(e) for e in g.edges]}


def decode_count(obj: dict, key: str, default: int) -> int:
    """The integer field ``key`` of ``obj``, at least 1; a bad value is named, never truncated."""
    return _named(key, _positive, obj.get(key, default))


def _edge(e) -> tuple[int, int]:
    if not isinstance(e, list) or len(e) != 2:
        raise ValueError(f"expected a [source, range] pair, got {e!r}")
    return _count(e[0]), _count(e[1])


def decode_graph(obj) -> GraphCorrespondence:
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ValueError(f"graph: expected vertices/edges, got {obj!r}")
    return GraphCorrespondence(_named("graph.vertices", _count, obj["vertices"]),
                               tuple(_items("graph.edges", _edge, obj["edges"])))


def decode_rep(obj, graph: GraphCorrespondence) -> Representation:
    mults = obj.get("multiplicities", obj) if isinstance(obj, dict) else obj
    rep = Representation(tuple(_items("sigma", _positive, mults)))
    if rep.n_vertices != graph.n_vertices:
        raise ValueError("sigma: multiplicity count differs from the vertex count")
    return rep


def _by_level(field: str, obj) -> dict:
    """The object ``field`` mapping the levels "1", "2", ... to matrices; other keys are named."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field}: expected an object keyed by level, got {type(obj).__name__}")
    if bad := [key for key in obj if not (key.isascii() and key.isdigit() and key[0] != "0")]:
        raise ValueError(f"{field}.{bad[0]}: not a level; the keys are \"1\", \"2\", ...")
    return obj


def decode_x(obj, graph: GraphCorrespondence, levels: int) -> AdmissibleSequence:
    if not isinstance(obj, dict):
        raise ValueError("X: expected an object with 'scalar' or 'matrices'")
    if "scalar" in obj:
        xs = _items("X.scalar", _finite, obj["scalar"])
        return AdmissibleSequence.from_scalar(graph, xs, levels=levels)
    if "matrices" in obj:
        given = _by_level("X.matrices", obj["matrices"])
        mats = [np.zeros((graph.n_vertices,) * 2, dtype=complex)]
        for k in range(1, levels + 1):
            key = str(k)
            d = path_basis(graph, k).size
            if key in given:
                m = _named(f"X.matrices.{key}", decode_matrix, given[key])
                if m.shape != (d, d):
                    raise ValueError(f"X.matrices.{key}: has shape {m.shape}, expected {(d, d)}")
                mats.append(m)
            else:
                mats.append(np.zeros((d, d), dtype=complex))
        return AdmissibleSequence(graph, levels, mats)
    raise ValueError("X: expected 'scalar' or 'matrices'")


def check_x_within(obj, levels: int) -> None:
    """Name the first nonzero entry of an input's X beyond level ``levels``,
    ``X.scalar[i]`` with i >= levels or ``X.matrices.<k>`` with k > levels.

    ``decode_x`` keeps X_1 .. X_N only, so the kernel sums and their tail
    bounds would silently leave such an entry out.  A matrix beyond ``levels``
    is decoded to be judged, so a malformed one is named as well.  Call it on
    an X that ``decode_x`` accepted.
    """
    if "scalar" in obj:
        beyond = ((f"X.scalar[{i}]", v) for i, v in enumerate(obj["scalar"][levels:], levels))
    else:
        beyond = ((f"X.matrices.{k}", _named(f"X.matrices.{k}", decode_matrix, obj["matrices"][k]))
                  for k in sorted(obj["matrices"], key=int) if int(k) > levels)
    for field, value in beyond:
        if np.any(value):
            raise ValueError(f"{field}: nonzero beyond the truncation N = {levels}; the kernel "
                             "sums and their tail bounds read X_1 .. X_N only, so raise N")


def decode_weights(obj, x: AdmissibleSequence) -> WeightSystem:
    if obj is None or obj == "canonical":
        return weight_system_from(x)
    if isinstance(obj, dict) and "matrices" in obj:
        given = _by_level("Z.matrices", obj["matrices"])
        zs = [np.eye(x.graph.n_vertices, dtype=complex)]
        for k in range(1, x.levels + 1):
            if str(k) not in given:
                raise ValueError(f"Z.matrices.{k}: missing; every level 1..{x.levels} needs a matrix")
            z = _named(f"Z.matrices.{k}", decode_matrix, given[str(k)])
            d = path_basis(x.graph, k).size
            if z.shape != (d, d) and (d or z.size):  # an empty list stands for a 0x0 level
                raise ValueError(f"Z.matrices.{k}: has shape {z.shape}, expected {(d, d)}")
            if d and (comm := _left_commutator(x.graph, z, k)) > 1e-8:  # weight_system_from's bound
                raise ValueError(f"Z.matrices.{k}: not a module map, its commutator with the "
                                 f"left action is {comm:.2e}")
            if d:
                try:  # validation inverts the products Z^{(k)}
                    np.linalg.inv(z)
                except np.linalg.LinAlgError:
                    raise ValueError(f"Z.matrices.{k}: not invertible") from None
            zs.append(z)
        return _named("Z.matrices", weight_system_from, x, zs)
    raise ValueError("Z: expected 'canonical' or {'matrices': ...}")


def encode_weights(ws: WeightSystem) -> dict:
    return {"matrices": {str(k): encode_matrix(ws.Z[k]) for k in range(1, ws.levels + 1)}}


def decode_point(obj, ind: InducedSpace, x: AdmissibleSequence) -> DiscPoint:
    if isinstance(obj, dict) and "scalar" in obj:
        return DiscPoint.scalar(ind, x, decode_complex(obj["scalar"]))
    if isinstance(obj, dict) and "matrix" in obj:
        return DiscPoint(ind, x, decode_matrix(obj["matrix"]))
    raise ValueError("point: expected {'scalar': z} or {'matrix': rows}")


def decode_points(items, ind: InducedSpace, x: AdmissibleSequence) -> list[DiscPoint]:
    return _items("points", decode_point, items, ind, x)


def decode_setting(obj, levels: int):
    """(graph, rep, x, ws) of an input; sigma defaults to multiplicity one per vertex."""
    graph = decode_graph(required(obj, "graph"))
    rep = decode_rep(obj.get("sigma", [1] * graph.n_vertices), graph)
    x = decode_x(required(obj, "X"), graph, levels)
    return graph, rep, x, decode_weights(obj.get("Z"), x)


def decode_pick_problem(obj, setting):
    """Parse a full interpolation problem over ``setting()``, the (ind, x, ws) of
    the input (see ``decode_setting``); returns (ws, problem).

    The targets F and B are parsed before ``setting`` is called, so a
    malformed entry is named before any factorization runs on the rest of the
    input.
    """
    f_list = _items("F", decode_matrix, required(obj, "F"))
    b_list = _items("B", decode_matrix, obj["B"]) if "B" in obj else None
    s = decode_count(obj, "s", 1)
    t = decode_count(obj, "t", 1)
    ind, x, ws = setting()
    points = decode_points(required(obj, "points"), ind, x)
    if b_list is None:
        b_list = [np.eye(s * ind.h_dim, dtype=complex) for _ in points]
    return ws, PickProblem(points, b_list, f_list, s=s, t=t)


def encode_fock_operator(op: FockOperator) -> dict:
    """Operator dump: shape, degree, and the nonzero graded blocks in (i, j) order."""
    blocks = {f"{i},{j}": encode_matrix(blk) for (i, j), blk in op.blocks.items()
              if blk.size and np.abs(blk).max() > 0}
    return {"shape": [op.space.dim, op.space.dim], "degree": op.degree, "blocks": blocks}


def encode_basis(graph: GraphCorrespondence, k: int) -> list:
    basis = path_basis(graph, k)
    if k == 0:
        return [[v] for v in basis.sources]
    return [list(p) for p in basis.paths]
