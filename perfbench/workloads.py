"""Seeded inputs for the three benchmark workloads.

Every workload is a fixed rotation of problem templates.  The rotation fixes
the problem class, its graph, multiplicities, truncation level, number of
points and whether the targets are feasible, all before any outcome is
seen; the workload seed only draws the numbers inside each template (points,
multipliers, lift seeds).  Problem ``i`` of a run uses template
``i % len(templates)`` and the generator ``default_rng([seed, i])``, so the
same seed always gives the same inputs and every seed gives the same mix.

Feasible targets are the point values of a multiplier of norm at most 0.8,
so the Pick map is completely positive and the solver must succeed (exit 0).
Infeasible targets are ``1.25 I``: the Choi matrix is then ``-0.5625`` times
a nonzero positive matrix, so the Pick test must reject (exit 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from wfock import jsonio
from wfock.duality import primal_generators
from wfock.graphs import GraphCorrespondence
from wfock.induced import InducedSpace, Representation
from wfock.interpolation import DiscPoint, hat_eval
from wfock.linalg import operator_norm, rng_complex
from wfock.weights import AdmissibleSequence, weight_system_from

SZEGO = [1.0]
DIRICHLET = [0.5, 1.0 / 12.0]
MULTIPLIER_NORM = 0.8
INFEASIBLE_SCALE = 1.25

FREE1 = GraphCorrespondence.free(1)
FREE2 = GraphCorrespondence.free(2)
CYCLE2 = GraphCorrespondence.cycle(2)
CYCLE3 = GraphCorrespondence.cycle(3)


@dataclass(frozen=True)
class Template:
    """One problem class of a workload rotation."""

    name: str
    graph: GraphCorrespondence
    sigma: tuple[int, ...]
    N: int
    x: tuple[float, ...]
    points: int = 0        # 0 for lift problems
    radius: float = 0.5    # largest |z| (scalar) or point norm (matrix)
    feasible: bool = True


@dataclass
class Problem:
    """A generated problem: CLI steps with the exit code each must return."""

    pid: str
    template: Template
    input: dict
    steps: list[tuple[str, int]]   # (command, expected exit code)
    cli_seed: int = 0


def _t(name, graph, sigma, n, x, points=0, radius=0.5, feasible=True):
    return Template(name, graph, tuple(sigma), n, tuple(x), points, radius, feasible)


# solve-mix: three quarters feasible.  A feasible solve spends most of its
# time in the amplified dual lift; the infeasible quarter stops after the
# Pick test, so a lifting gain shows on only part of the mix.
SOLVE_MIX = [
    _t("free1-szego-N32-p3", FREE1, (1,), 32, SZEGO, 3),
    _t("cycle2-s21-N12-p3", CYCLE2, (2, 1), 12, SZEGO, 3, 0.2),
    _t("free1-dirichlet-N40-p2", FREE1, (1,), 40, DIRICHLET, 2),
    _t("free1-szego-N32-p3-infeasible", FREE1, (1,), 32, SZEGO, 3, feasible=False),
    _t("free2-s1-N5-p2", FREE2, (1,), 5, SZEGO, 2, 0.2),
    _t("cycle2-s21-N16-p2", CYCLE2, (2, 1), 16, DIRICHLET, 2, 0.2),
    _t("free2-s1-N6-p3", FREE2, (1,), 6, DIRICHLET, 3, 0.2),
    _t("cycle2-s21-N14-p3-infeasible", CYCLE2, (2, 1), 14, SZEGO, 3, 0.2, False),
]

# kernel-table: pick, then kernel, on one input.  Kernel tails dominate and
# the lifting code is never entered.  Half of the targets are infeasible.
KERNEL_TABLE = [
    _t("free1-szego-N48-p3", FREE1, (1,), 48, SZEGO, 3),
    _t("cycle2-s21-N24-p4-infeasible", CYCLE2, (2, 1), 24, SZEGO, 4, 0.4, False),
    _t("free2-s1-N6-p3", FREE2, (1,), 6, DIRICHLET, 3, 0.3),
    _t("free1-dirichlet-N48-p3-infeasible", FREE1, (1,), 48, DIRICHLET, 3, feasible=False),
    _t("cycle3-s211-N24-p4", CYCLE3, (2, 1, 1), 24, DIRICHLET, 4, 0.4),
    _t("free2-s1-N6-p3-infeasible", FREE2, (1,), 6, SZEGO, 3, 0.3, False),
]

# lift-graphs: many small primal lifts with the alpha/beta validator, so the
# band checks in fock dominate.  Interpolation is never called.
LIFT_GRAPHS = [
    _t("cycle2-s11-N6", CYCLE2, (1, 1), 6, SZEGO),
    _t("cycle2-s21-N5", CYCLE2, (2, 1), 5, DIRICHLET),
    _t("free2-s1-N4", FREE2, (1,), 4, SZEGO),
    _t("cycle3-s111-N6", CYCLE3, (1, 1, 1), 6, DIRICHLET),
    _t("cycle2-s22-N4", CYCLE2, (2, 2), 4, SZEGO),
    _t("free2-s2-N3", FREE2, (2,), 3, DIRICHLET),
]

WORKLOADS = {
    "solve-mix": SOLVE_MIX,
    "kernel-table": KERNEL_TABLE,
    "lift-graphs": LIFT_GRAPHS,
}

# The untimed warm-up problem: a cheap template whose cost does not swing
# with its draw, drawn from one fixed stream so that set-up time does not
# depend on the workload seed.
WARMUP = {
    "solve-mix": "cycle2-s21-N12-p3",
    "kernel-table": "free2-s1-N6-p3",
    "lift-graphs": "cycle2-s21-N5",
}
WARMUP_SEED = 0

LIFT_INSTANCES = 2


def _encode_points(points: list[np.ndarray], scalar: bool) -> list[dict]:
    if scalar:
        return [{"scalar": jsonio.encode_complex(z[0, 0])} for z in points]
    return [{"matrix": jsonio.encode_matrix(z)} for z in points]


def _scalar_points(rng: np.random.Generator, count: int, radius: float) -> list[complex]:
    """Points in |z| <= radius, pairwise at least 0.15 apart."""
    out: list[complex] = []
    while len(out) < count:
        z = radius * np.sqrt(rng.uniform(0.04, 1.0)) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= 0.15 for w in out):
            out.append(complex(z))
    return out


def _matrix_point(rng: np.random.Generator, ind: InducedSpace, radius: float) -> np.ndarray:
    """A random intertwiner H <- level 1, scaled to a norm in [radius/2, radius]."""
    graph = ind.graph
    zmat = np.zeros((ind.h_dim, ind.level_dim(1)), dtype=complex)
    for e in range(graph.n_edges):
        rows = ind.rep.block(graph.range_(e))
        cols = slice(ind.block_offsets[1][e], ind.block_offsets[1][e + 1])
        zmat[rows, cols] = rng_complex(rng, rows.stop - rows.start, cols.stop - cols.start)
    return zmat * (radius * rng.uniform(0.5, 1.0) / operator_norm(zmat))


@lru_cache(maxsize=None)
def _space(t: Template):
    """Induced space, data and weights of a template; they do not depend on the seed."""
    ind = InducedSpace(t.graph, Representation(t.sigma), t.N)
    x = AdmissibleSequence.from_scalar(t.graph, list(t.x), levels=t.N)
    return ind, x, weight_system_from(x)


@lru_cache(maxsize=None)
def _generators(t: Template) -> list[np.ndarray]:
    """Multiplier building blocks Y (x) I of a template, built once per process.

    On the one-loop graph with multiplicity one these are the weighted shifts
    W_{e^k} (Z^{(j+k, j)} at block (j+k, j)) for k = 1, 2; otherwise the
    primal generator images.
    """
    ind, _, ws = _space(t)
    if ind.graph == FREE1 and ind.h_dim == 1:
        out = []
        for k in (1, 2):
            m = np.zeros((ind.dim, ind.dim), dtype=complex)
            for j in range(ind.levels + 1 - k):
                m[j + k, j] = ws.z_between(j + k, j)[0, 0]
            out.append(m)
        return out
    return [m for _, m in primal_generators(ind, ws)]


def _multiplier(rng: np.random.Generator, t: Template) -> np.ndarray:
    """A random multiplier image Y (x) I of norm MULTIPLIER_NORM."""
    gens = _generators(t)
    y = sum(c * g for c, g in zip(rng_complex(rng, len(gens)), gens))
    if len(gens) > 2:
        y = y @ gens[-1]
    y = y + 0.3 * np.eye(y.shape[0])
    return y * (MULTIPLIER_NORM / operator_norm(y))


def _pick_input(t: Template, rng: np.random.Generator) -> dict:
    ind, x, ws = _space(t)
    scalar = ind.graph == FREE1 and ind.h_dim == 1
    if scalar:
        mats = [np.array([[z]], dtype=complex) for z in _scalar_points(rng, t.points, t.radius)]
    else:
        mats = [_matrix_point(rng, ind, t.radius) for _ in range(t.points)]
    if not t.feasible:
        targets = [INFEASIBLE_SCALE * np.eye(ind.h_dim) for _ in mats]
    elif scalar and list(t.x) == SZEGO:
        # c * Moebius: an inner function times c, so its multiplier norm is c
        a = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        c = MULTIPLIER_NORM * np.exp(2j * np.pi * rng.uniform())
        targets = [np.array([[c * (m[0, 0] - a) / (1 - np.conj(a) * m[0, 0])]]) for m in mats]
    else:
        y = _multiplier(rng, t)
        targets = [hat_eval(DiscPoint(ind, x, m), ws, y) for m in mats]
    return {
        "graph": jsonio.encode_graph(t.graph),
        "sigma": list(t.sigma),
        "X": {"scalar": list(t.x)},
        "points": _encode_points(mats, scalar),
        "F": [jsonio.encode_matrix(f) for f in targets],
    }


def make_problem(workload: str, seed: int, index: int) -> Problem:
    """Problem ``index`` of a run of ``workload`` with workload seed ``seed``."""
    templates = WORKLOADS[workload]
    return _build(workload, templates[index % len(templates)],
                  np.random.default_rng([seed, index]), f"{workload}/{index}")


def warmup_problem(workload: str) -> Problem:
    """The untimed warm-up problem of ``workload``; the same for every seed."""
    t = next(t for t in WORKLOADS[workload] if t.name == WARMUP[workload])
    return _build(workload, t, np.random.default_rng(WARMUP_SEED), f"{workload}/warmup")


def _build(workload: str, t: Template, rng: np.random.Generator, prefix: str) -> Problem:
    pid = f"{prefix}/{t.name}"
    if workload == "lift-graphs":
        obj = {"graph": jsonio.encode_graph(t.graph), "sigma": list(t.sigma),
               "X": {"scalar": list(t.x)}, "instances": LIFT_INSTANCES}
        return Problem(pid, t, obj, [("lift", 0)], cli_seed=int(rng.integers(0, 2**31)))
    obj = _pick_input(t, rng)
    code = 0 if t.feasible else 2
    if workload == "solve-mix":
        return Problem(pid, t, obj, [("solve", code)])
    return Problem(pid, t, obj, [("pick", code), ("kernel", 0)])
