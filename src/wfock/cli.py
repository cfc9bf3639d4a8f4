"""Batch front end: JSON in, JSON out, deterministic for a fixed seed.

Exit codes: 0 on success, 1 on input errors (malformed JSON, violated
invariants or a failed allocation, each named), 2 on mathematical rejection (a
non-admissible sequence or a Pick map that is not completely positive).
Timing goes to stderr only, so reports are byte-identical across runs.

Every problem sits over a setting: the graph, sigma, X and Z of its input at
truncation N.  What is built from the setting alone (the decoded weights, the
induced space, for ``lift`` the primal lift model, and for ``lift`` and
``solve`` the dual lift model, whose generators ``lift`` draws from) is kept
per process, so a loop of calls over a few settings builds each of them once.
``solve`` builds the dual lift model only for a problem that passes the Pick
test and the tail budget.  Kept arrays are read-only, and the store holds at
most ``SETTING_BYTES`` bytes, dropping the least recently used setting first.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import acceptance, jsonio
from .duality import DualStructure, dual_lift_model, dual_weights, primal_lift_model
from .fock import handysums_check, multiplicativity_residual, sums_to_projection_check, \
    weighted_creation
from .graphs import CorrElement, path_basis
from .induced import InducedSpace
from .interpolation import (
    CauchyKernel,
    PickInfeasibleError,
    np_solve,
    phi_map,
    pick_map_cp_test,
    szego_kernel,
)
from .liftcheck import alphabeta_validator, compression_instance
from .lifting import commutant_lift
from .linalg import rng_complex
from .weights import admissible_from_kernel_coeffs, scalar_r2

COMMANDS = ("validate", "weights", "fock", "kernel", "pick", "solve", "lift", "selftest")
SETTING_BYTES = 16 * 2**20  # the most array bytes kept settings may hold


def _check_eps(value) -> float:
    """The one rule for a solve tolerance, from ``--eps`` or the input: finite and > 0."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    eps = float(value) if number else math.nan
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a finite positive number, got {value!r}")
    return eps


@dataclass
class RunConfig:
    command: str
    input_path: str | None = None
    N: int = 8
    eps: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {self.seed}")
        _check_eps(self.eps)


class MathRejection(Exception):
    """A well-formed input that the theory rejects (exit code 2)."""


def _load(config: RunConfig) -> dict:
    if config.input_path is None:
        return {}
    with open(config.input_path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"top-level JSON value must be an object, got {type(obj).__name__}")
    return obj


class _Setting:
    """The decoded setting of an input, and what is built from it alone.

    The induced space and the lift models (the primal one of ``lift``, the dual
    one of ``lift`` and ``solve``) are built on first use.
    """

    def __init__(self, obj: dict, levels: int):
        self.graph, self.rep, self.x, self.ws = jsonio.decode_setting(obj, levels)
        self.levels = levels

    @cached_property
    def ind(self) -> InducedSpace:
        return InducedSpace(self.graph, self.rep, self.levels)

    @cached_property
    def lift_model(self):
        return primal_lift_model(self.ind, self.ws)

    @cached_property
    def dual_lift_model(self):
        return dual_lift_model(DualStructure(self.ind, self.ws))


# key -> (setting, its array bytes), the least recently used first
_settings: OrderedDict[str, tuple[_Setting, int]] = OrderedDict()


def _setting(obj: dict, levels: int) -> _Setting:
    """The setting of ``obj`` at truncation ``levels``: the kept one, or a new one.

    A new one is decoded and validated in full, and kept only if that succeeds.
    """
    key = json.dumps([obj.get(k) for k in ("graph", "sigma", "X", "Z")] + [levels],
                     sort_keys=True)
    setting, _ = _settings.pop(key, (None, 0))
    if setting is None:
        setting = _Setting(obj, levels)
    _settings[key] = setting, 0
    return setting


class _Walk:
    """Make every array reachable from ``root`` through wfock objects, dicts, lists and
    tuples read-only, and keep their summed bytes and each dict and list reached (for a
    wfock object, its attribute dict) with its length then.  A kept setting only grows
    (a call adds attributes, cached entries or list items, and replaces none), so it
    needs a new walk only when one of those lengths changed (``grew``)."""

    def __init__(self, root):
        self.sized: list[tuple[dict | list, int]] = []
        self.nbytes = 0
        seen, stack = set(), [root]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, np.ndarray):
                node.flags.writeable = False
                self.nbytes += node.nbytes
                continue
            if type(node).__module__.startswith(__package__ + "."):
                node = vars(node)
            elif not isinstance(node, (dict, list, tuple)):
                continue
            if not isinstance(node, tuple):
                self.sized.append((node, len(node)))
            stack.extend(node.values() if isinstance(node, dict) else node)

    def grew(self) -> bool:
        return any(len(node) != size for node, size in self.sized)


# the walk of each setting that has been kept, dropped with the setting
_walks: weakref.WeakKeyDictionary[_Setting, _Walk] = weakref.WeakKeyDictionary()


def _keep_settings() -> None:
    """After a call: freeze and count the last used setting if it is new or the call
    grew it, then drop settings, least recently used first, until the kept bytes fit
    ``SETTING_BYTES``.  A setting larger than that is not kept."""
    if not _settings:
        return
    key, (setting, _) = _settings.popitem()
    walk = _walks.get(setting)
    if walk is None or walk.grew():
        walk = _walks[setting] = _Walk(setting)
    size = walk.nbytes
    if size <= SETTING_BYTES:
        _settings[key] = setting, size
    total = sum(n for _, n in _settings.values())
    while total > SETTING_BYTES:
        total -= _settings.popitem(last=False)[1][1]


def _cmd_validate(config: RunConfig, obj: dict) -> dict:
    if "kernel_coeffs" in obj:
        coeffs = jsonio.decode_kernel_coeffs(obj["kernel_coeffs"])
        xs, ok, reason = admissible_from_kernel_coeffs(coeffs)
        back = scalar_r2(xs, len(coeffs) - 1)
        roundtrip = max(abs(u - v) for u, v in zip(back, coeffs))
        report = {"admissible": ok, "reason": reason, "x": xs,
                  "roundtrip_residual": {"value": roundtrip, "tol": 1e-10}}
        if not ok:
            raise MathRejection(json.dumps(report, sort_keys=True))
        return report
    graph = jsonio.decode_graph(jsonio.required(obj, "graph"))
    if "sigma" in obj:
        jsonio.decode_rep(obj["sigma"], graph)
    x = jsonio.decode_x(jsonio.required(obj, "X"), graph, config.N)  # validation happens on build
    x.R  # a non-PSD R_k^2 rejects X
    if "Z" in obj:
        jsonio.decode_weights(obj["Z"], x)
    return {"admissible": True, "reason": "admissible",
            "levels": config.N,
            "flags": {"faithful_left_action": graph.faithful_left_action,
                      "full": graph.full}}


def _cmd_weights(config: RunConfig, obj: dict) -> dict:
    setting = _setting(obj, config.N)
    ws = setting.ws
    res = ws.validate()
    out = {
        "residuals": {k: {"value": v, "tol": 1e-10} for k, v in res.items()},
        "R": {"matrices": {str(k): jsonio.encode_matrix(ws.R[k])
                           for k in range(1, config.N + 1)}},
        "Z": jsonio.encode_weights(ws),
    }
    if "sigma" in obj:
        data = dual_weights(DualStructure(setting.ind, ws), setting.x)
        out["dual"] = {
            "residuals": {k: {"value": v, "tol": 1e-9} for k, v in data.residuals.items()},
            "Z_prime": {"matrices": {str(k): jsonio.encode_matrix(data.Z_prime[k])
                                     for k in range(1, config.N + 1)}},
            "X_prime": {"matrices": {str(k): jsonio.encode_matrix(data.X_prime[k])
                                     for k in range(1, config.N + 1)}},
        }
    return out


def _cmd_fock(config: RunConfig, obj: dict) -> dict:
    rng = np.random.default_rng(config.seed)
    setting = _setting(obj, config.N)
    graph, x, ws = setting.graph, setting.x, setting.ws
    space = setting.ind.fock
    handy = {}
    for k in range(0, config.N + 1):
        report = handysums_check(space, k, rng=rng, ind=setting.ind)
        handy[str(k)] = {k2: {"value": v, "tol": 1e-12} for k2, v in report.items()}
    mult = 0.0
    if path_basis(graph, 1).size and path_basis(graph, 2).size and config.N >= 3:
        xi = CorrElement(1, rng_complex(rng, path_basis(graph, 1).size))
        eta = CorrElement(2, rng_complex(rng, path_basis(graph, 2).size))
        mult = multiplicativity_residual(space, ws, xi, eta)
    sample = weighted_creation(space, ws, CorrElement.basis_vector(graph, 1, 0)) \
        if path_basis(graph, 1).size else None
    return {
        "handy_sums": handy,
        "multiplicativity": {"value": mult, "tol": 1e-10},
        "sums_to_projection": {"value": sums_to_projection_check(space, x, ws), "tol": 1e-10},
        "level_dims": [path_basis(graph, k).size for k in range(config.N + 1)],
        "bases": {str(k): jsonio.encode_basis(graph, k)
                  for k in range(min(config.N, 3) + 1)},
        "sample_operator": jsonio.encode_fock_operator(sample) if sample is not None else None,
    }


def _cmd_kernel(config: RunConfig, obj: dict) -> dict:
    setting = _setting(obj, config.N)
    jsonio.check_x_within(obj["X"], config.N)
    points = jsonio.decode_points(jsonio.required(obj, "points"), setting.ind, setting.x)
    eye = np.eye(setting.rep.h_dim, dtype=complex)
    cauchy = [CauchyKernel(z, setting.ws) for z in points]
    table = {}
    for i, cw in enumerate(cauchy):
        for j, cz in enumerate(cauchy):
            value, tail, cres = szego_kernel(cw, cz, eye)
            table[f"{i},{j}"] = {"value": jsonio.encode_matrix(value), "tail": tail,
                                 "cauchy_residual": {"value": cres, "tol": 1e-9}}
    neumann = {}
    for i, z in enumerate(points):
        out = phi_map(z, eye)
        neumann[str(i)] = {"residual": out.neumann_residual, "tail": out.tail,
                           "phi_norm": z.phi_norm}
    return {"kernel": table, "neumann": neumann}


def _pick_problem(config: RunConfig, obj: dict):
    """(setting, problem) of a pick or solve input, over the input's kept setting."""
    setting = None

    def decoded():
        nonlocal setting
        setting = _setting(obj, config.N)
        jsonio.check_x_within(obj["X"], config.N)
        return setting.ind, setting.x, setting.ws
    _, problem = jsonio.decode_pick_problem(obj, decoded)
    return setting, problem


def _cmd_pick(config: RunConfig, obj: dict) -> dict:
    _, problem = _pick_problem(config, obj)
    report = pick_map_cp_test(problem)
    out = {
        "verdict": "completely-positive" if report.is_cp else "not-completely-positive",
        "choi_min_eig": {"value": report.min_eigenvalue,
                         "tol": -1e-9 * max(1.0, report.choi_norm)},
        "choi_norm": report.choi_norm,
        "kernel_tails": report.kernel_tails,
    }
    if not report.is_cp:
        raise MathRejection(json.dumps(out, sort_keys=True))
    return out


def _cmd_solve(config: RunConfig, obj: dict) -> dict:
    eps = _check_eps(obj.get("eps", config.eps))
    setting, problem = _pick_problem(config, obj)
    try:
        result = np_solve(problem, setting.ws, eps=eps,
                          dual_model=lambda: setting.dual_lift_model)
    except PickInfeasibleError as exc:
        raise MathRejection(json.dumps({"verdict": "not-completely-positive",
                                        "reason": str(exc)}, sort_keys=True)) from exc
    steps = [{"m": s["m"], "n_m": s["n_m"], "dim_j": s["dim_j"], "mu": s["mu"],
              "coinvariant": s["coinvariant"], "intertwining": s["intertwining"]}
             for s in result.trace["steps"]]
    return {
        "verdict": "solved",
        "choi_min_eig": result.cp.min_eigenvalue,
        "evaluations": [jsonio.encode_matrix(ev) for ev in result.evaluations],
        "residuals": [{"value": r, "tol": eps + result.eps_estimate}
                      for r in result.residuals],
        "norm": {"value": result.norm, "tol": 1.0 + 1e-8},
        "r_margin": result.r_margin,
        "r_consistency": result.r_consistency,
        "eps_estimate": result.eps_estimate,
        "hypothesis_budget": result.hyp_budget,
        "kernel_tails": result.cp.kernel_tails,
        "trace": {"steps": steps, "conclusions": result.trace["conclusions"]},
    }


def _cmd_lift(config: RunConfig, obj: dict) -> dict:
    rng = np.random.default_rng(config.seed)
    setting = _setting(obj, config.N)
    instances = jsonio.decode_count(obj, "instances", 3)
    model, dual_gens = setting.lift_model, setting.dual_lift_model.generators
    validator = alphabeta_validator(setting.ind, seed=config.seed)
    runs = []
    for trial in range(instances):
        frame, g_on_j, _ = compression_instance(model, dual_gens, rng)
        if frame.shape[1] >= model.dim:
            runs.append({"trial": trial, "skipped": "closure filled the space"})
            continue
        _, trace = commutant_lift(model, frame, g_on_j, step_validator=validator)
        runs.append({
            "trial": trial,
            "dim_j": frame.shape[1],
            "conclusions": {k: {"value": v, "tol": 1e-8}
                            for k, v in trace["conclusions"].items()},
            "steps": [{"m": s["m"], "n_m": s["n_m"], "dim_j": s["dim_j"], "mu": s["mu"],
                       "condition_residuals": {
                           "coinvariant": s["coinvariant"],
                           "intertwining": s["intertwining"],
                           "norm_one": s["norm_one"]},
                       "alpha_beta_worst": max(s["extra"].values()) if "extra" in s else None}
                      for s in trace["steps"]],
        })
    return {"instances": runs, "space_dim": model.dim}


def _cmd_selftest(config: RunConfig, obj: dict) -> dict:
    report = acceptance.run_all(config.seed)
    if not report["passed"]:
        raise MathRejection(json.dumps(report, sort_keys=True))
    return report


_DISPATCH = {
    "validate": _cmd_validate,
    "weights": _cmd_weights,
    "fock": _cmd_fock,
    "kernel": _cmd_kernel,
    "pick": _cmd_pick,
    "solve": _cmd_solve,
    "lift": _cmd_lift,
    "selftest": _cmd_selftest,
}


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch a command; returns (exit_code, report)."""
    started = time.time()
    try:
        obj = _load(config)
    except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        return 1, {"schema": 1, "command": config.command, "error": f"input: {exc}"}
    try:
        body = _DISPATCH[config.command](config, obj)
        code = 0
    except MathRejection as exc:
        body = {"rejected": json.loads(str(exc))}
        code = 2
    except (ValueError, KeyError, RuntimeError) as exc:
        return 1, {"schema": 1, "command": config.command,
                   "error": f"{type(exc).__name__}: {exc}"}
    except MemoryError as exc:  # numpy's message names the shape and size it asked for
        return 1, {"schema": 1, "command": config.command,
                   "error": f"MemoryError: {str(exc) or 'an allocation failed'}"}
    finally:
        _keep_settings()
    print(f"{config.command}: {time.time() - started:.2f}s", file=sys.stderr)
    report = {"schema": 1, "command": config.command, "seed": config.seed, "N": config.N}
    report.update(body)
    return code, report


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"not serializable: {type(value)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wfock",
        description="weighted Fock-space toolkit: validation, kernels, lifting, interpolation")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--input", default=None, help="input JSON path")
    parser.add_argument("--output", default=None, help="report JSON path (default stdout)")
    parser.add_argument("--N", type=int, default=8, help="truncation level")
    parser.add_argument("--eps", type=float, default=1e-7, help="target tolerance for solves")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    args = parser.parse_args(argv)
    try:
        config = RunConfig(command=args.command, input_path=args.input,
                           N=args.N, eps=args.eps, seed=args.seed)
    except ValueError as exc:
        print(json.dumps({"schema": 1, "error": str(exc)}), file=sys.stderr)
        return 1
    code, report = run(config)
    blob = json.dumps(report, sort_keys=True, indent=1, default=_json_default)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    return code


if __name__ == "__main__":
    sys.exit(main())
