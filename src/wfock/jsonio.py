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
from .weights import AdmissibleSequence, WeightSystem, weight_system_from


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


def _named(field: str, decode, *args):
    """``decode(*args)`` with a malformed-input error reported against ``field``."""
    try:
        return decode(*args)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _items(field: str, decode, value, *args) -> list:
    """``decode(item, *args)`` for each item of the list ``value``, errors named per item."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list, got {type(value).__name__}")
    return [_named(f"{field}[{i}]", decode, item, *args) for i, item in enumerate(value)]


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
    """The integer field ``key`` of ``obj``; a non-integral value is named, never truncated."""
    return _named(key, _count, obj.get(key, default))


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
    rep = Representation(tuple(_items("sigma", _count, mults)))
    if rep.n_vertices != graph.n_vertices:
        raise ValueError("sigma: multiplicity count differs from the vertex count")
    return rep


def decode_x(obj, graph: GraphCorrespondence, levels: int) -> AdmissibleSequence:
    if not isinstance(obj, dict):
        raise ValueError("X: expected an object with 'scalar' or 'matrices'")
    if "scalar" in obj:
        xs = _items("X.scalar", _finite, obj["scalar"])
        return AdmissibleSequence.from_scalar(graph, xs, levels=levels)
    if "matrices" in obj:
        mats = [np.zeros((graph.n_vertices,) * 2, dtype=complex)]
        for k in range(1, levels + 1):
            key = str(k)
            d = path_basis(graph, k).size
            if key in obj["matrices"]:
                mats.append(_named(f"X.matrices.{key}", decode_matrix, obj["matrices"][key]))
            else:
                mats.append(np.zeros((d, d), dtype=complex))
        return AdmissibleSequence(graph, levels, mats)
    raise ValueError("X: expected 'scalar' or 'matrices'")


def encode_x(x: AdmissibleSequence) -> dict:
    return {"matrices": {str(k): encode_matrix(x.X[k]) for k in range(1, x.levels + 1)}}


def decode_weights(obj, x: AdmissibleSequence) -> WeightSystem:
    if obj is None or obj == "canonical":
        return weight_system_from(x)
    if isinstance(obj, dict) and "matrices" in obj:
        zs = [np.eye(x.graph.n_vertices, dtype=complex)]
        for k in range(1, x.levels + 1):
            zs.append(_named(f"Z.matrices.{k}", decode_matrix, obj["matrices"][str(k)]))
        return weight_system_from(x, Z=zs)
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
    graph = decode_graph(obj["graph"])
    rep = decode_rep(obj.get("sigma", [1] * graph.n_vertices), graph)
    x = decode_x(obj["X"], graph, levels)
    return graph, rep, x, decode_weights(obj.get("Z"), x)


def decode_pick_problem(obj, levels: int):
    """Parse a full interpolation problem; returns (ws, problem).

    The targets F and B are parsed first, so a malformed entry is named
    before any factorization runs on the rest of the input.
    """
    f_list = _items("F", decode_matrix, obj["F"])
    b_list = _items("B", decode_matrix, obj["B"]) if "B" in obj else None
    s = decode_count(obj, "s", 1)
    t = decode_count(obj, "t", 1)
    graph, rep, x, ws = decode_setting(obj, levels)
    ind = InducedSpace(graph, rep, levels)
    points = decode_points(obj["points"], ind, x)
    if b_list is None:
        b_list = [np.eye(s * rep.h_dim, dtype=complex) for _ in points]
    return ws, PickProblem(points, b_list, f_list, s=s, t=t)


def encode_fock_operator(op: FockOperator) -> dict:
    """Operator dump: shape, degree, and the nonzero graded blocks."""
    blocks = {}
    sp = op.space
    for i in range(sp.levels + 1):
        for j in range(sp.levels + 1):
            blk = op.block(i, j)
            if blk.size and np.abs(blk).max() > 0:
                blocks[f"{i},{j}"] = encode_matrix(blk)
    return {"shape": [op.matrix.shape[0], op.matrix.shape[1]],
            "degree": op.degree, "blocks": blocks}


def encode_basis(graph: GraphCorrespondence, k: int) -> list:
    basis = path_basis(graph, k)
    if k == 0:
        return [[v] for v in basis.sources]
    return [list(p) for p in basis.paths]
