"""Per-module spans recorded from outside the program.

``Tracer.install`` wraps every public function of each wfock module, and the
public methods and ``__init__`` of every class the module defines, in a span
named ``<module>.<qualname>``.  A function is bound into many namespaces by
``from .x import f`` (``operator_norm`` lives in eight modules, ``path_basis``
in most), so each wfock module namespace holding the original object is
patched, not only the defining one.  Properties are not wrapped; their time
counts towards the span that reads them.

Spans stay in memory as parallel arrays (name id, start, end, parent, problem)
and are written out once, when the run ends.  Every problem opens one root
span, so the self times (span time minus the time covered by child spans)
of all spans of a problem add up to its root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "jsonio", "graphs", "weights", "fock", "induced", "duality",
          "lifting", "liftcheck", "interpolation", "linalg")
ROOT = "bench.problem"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.problem = array("i")
        self.problem_ids: list[str] = []
        self.f_clamp_steps = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, on_return=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        nid = self._name_id(name)
        stack, clock = self._stack, time.perf_counter
        name_of, start, end, parent, problem = \
            self.name_of, self.start, self.end, self.parent, self.problem
        problem_ids = self.problem_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            problem.append(len(problem_ids) - 1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            return out if on_return is None else on_return(out)

        return wrapper

    def run_problem(self, pid: str, fn):
        """Run ``fn()`` under the root span of problem ``pid``."""
        self.problem_ids.append(pid)
        return self.span(ROOT, fn)()

    # -- installing the wrappers ---------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _count_f_clamp(self, state):
        if state.ledger and state.ledger[-1].get("f_clamp", 1.0) < 1.0:
            self.f_clamp_steps += 1
        return state

    def _wrap_validator(self, validator):
        return self.span("liftcheck.alphabeta_validator.validator", validator)

    def install(self) -> None:
        """Wrap the wfock modules in place; ``uninstall`` restores them."""
        modules = {layer: importlib.import_module(f"wfock.{layer}") for layer in LAYERS}
        hooks = {"lifting.lift_step": self._count_f_clamp,
                 "liftcheck.alphabeta_validator": self._wrap_validator}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "wfock" or key.startswith("wfock.")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    wrapped = self.span(name, obj, hooks.get(name))
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, key, wrapped)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, (staticmethod, classmethod)):
                self._patch(cls, attr, type(val)(self.span(name, val.__func__)))
            elif inspect.isfunction(val):
                self._patch(cls, attr, self.span(name, val))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def _columns(self):
        """(name ids, parents, problems, durations, self times) as numpy arrays."""
        names = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        problem = np.frombuffer(self.problem, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child])
        return names, parent, problem, dur, own

    def by_name(self, inclusive=()) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds, plus inclusive seconds ``s``
        (outermost spans of the name only) for the names in ``inclusive``."""
        names, parent, _, dur, own = self._columns()
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=own, minlength=len(self.names))
        out = {name: {"calls": int(calls[i]), "self_s": float(self_s[i]), "s": 0.0}
               for i, name in enumerate(self.names) if calls[i]}
        for name in inclusive:
            nid = self._name_ids.get(name)
            if nid is None:
                continue
            for idx in np.flatnonzero(names == nid):
                par = parent[idx]
                while par >= 0 and names[par] != nid:
                    par = parent[par]
                if par < 0:
                    out[name]["s"] += float(dur[idx])
        return out

    def problem_balance(self) -> float:
        """Largest |sum of self times - root duration| over the problems."""
        names, _, problem, dur, own = self._columns()
        inside = problem >= 0
        roots = inside & (names == self._name_ids.get(ROOT, -1))
        n = len(self.problem_ids)
        sums = np.bincount(problem[inside], weights=own[inside], minlength=n)
        walls = np.bincount(problem[roots], weights=dur[roots], minlength=n)
        return float(np.abs(sums - walls).max()) if n else 0.0

    def write(self, path) -> None:
        """All spans as compressed numpy columns, in the order they were opened.

        ``start``/``end`` are ``perf_counter`` seconds, ``parent`` is a row
        index (-1 for a root), ``name`` indexes ``names`` and ``problem``
        indexes ``problem_ids``.
        """
        np.savez_compressed(
            path, names=np.array(self.names), problem_ids=np.array(self.problem_ids),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            problem=np.frombuffer(self.problem, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
