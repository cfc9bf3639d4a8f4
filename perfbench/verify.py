"""Checks on the CLI reports of one benchmark problem.

A problem passes only when every step returns the exit code fixed by the
construction of its input, every ``{"value", "tol"}`` pair in its reports
holds, the lift conclusions and alpha/beta identities hold at their pinned
tolerances, and the kernel's Cauchy residuals are within their tolerance.
"""

from __future__ import annotations

import math

LIFT_CONCLUSION_TOL = 1e-8
ALPHA_BETA_TOL = 1e-9
REJECTED = "not-completely-positive"


def _pairs(node, path=""):
    """Every {"value", "tol"} pair in a report, with its key path."""
    if isinstance(node, dict):
        if "value" in node and "tol" in node:
            yield path, node["value"], node["tol"]
        for key, val in node.items():
            yield from _pairs(val, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _pairs(val, f"{path}[{i}]")


def _check_pairs(report: dict, code: int) -> list[str]:
    errors = []
    for path, value, tol in _pairs(report):
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{path}: value {value!r} is not a finite number")
        elif path.endswith("choi_min_eig"):
            # a lower bound: it holds on acceptance and is witnessed broken on rejection
            if code == 0 and not value >= tol:
                errors.append(f"{path}: {value:.3e} < {tol:.3e}")
            if code == 2 and not value < tol:
                errors.append(f"{path}: rejected with {value:.3e} >= {tol:.3e}")
        elif not value <= tol:
            errors.append(f"{path}: {value:.3e} > {tol:.3e}")
    return errors


def _check_lift(report: dict) -> list[str]:
    errors = []
    runs = report.get("instances", [])
    if not runs:
        errors.append("lift: no instances")
    for run in runs:
        if "skipped" in run:
            continue
        for key, pair in run["conclusions"].items():
            if not pair["value"] <= LIFT_CONCLUSION_TOL:
                errors.append(f"lift trial {run['trial']}: {key} {pair['value']:.3e}")
        for step in run["steps"]:
            worst = step["alpha_beta_worst"]
            if worst is None or not worst <= ALPHA_BETA_TOL:
                errors.append(f"lift trial {run['trial']} step {step['m']}: "
                              f"alpha_beta_worst {worst!r}")
    return errors


def check_step(command: str, expected: int, code: int, report: dict, points: int) -> list[str]:
    """Errors found in one CLI report; empty when the report verifies."""
    if code != expected:
        return [f"{command}: exit {code}, expected {expected} ({report.get('error', '')})"]
    errors = [f"{command}: {e}" for e in _check_pairs(report, code)]
    if code == 2:
        if report.get("rejected", {}).get("verdict") != REJECTED:
            errors.append(f"{command}: rejection without the {REJECTED} verdict")
        return errors
    if command == "solve":
        if report.get("verdict") != "solved" or len(report["evaluations"]) != points:
            errors.append("solve: no solved verdict with one evaluation per point")
    elif command == "pick":
        if report.get("verdict") != "completely-positive":
            errors.append(f"pick: verdict {report.get('verdict')!r}")
    elif command == "kernel":
        if len(report["kernel"]) != points * points:
            errors.append(f"kernel: {len(report['kernel'])} entries for {points} points")
    elif command == "lift":
        errors.extend(_check_lift(report))
    return errors
