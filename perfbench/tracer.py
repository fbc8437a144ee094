"""Span tracing of llt_lab from outside the package.

``Tracer.install`` wraps every public function and method of the layer
modules and rebinds the wrapper at every place the original is bound:
module globals (so ``from .exact import sum_law`` in ``approx`` is covered),
the package namespace, and module-level registries such as
``suites.SUITES``.  Spans live in memory as tuples and are only summarised or
written after the timed region.  The wrappers pass straight through while
``active`` is false, so oracle checks are not traced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: the package's modules, one layer each
LAYERS = ("lattice", "exact", "approx", "characteristics", "bernoulli_part", "poisson",
          "asllt", "cli", "suites")
PATH_KINDS = ("asllt.asllt_path", "asllt.markov_asllt_path", "asllt.asllt_dickman_path",
              "asllt.chung_erdos_path")
TABLE_MAKERS = ("exact.sum_law", "exact.weighted_sum_law", "exact.convolve_tables")


def _table_work(out) -> dict:
    gap = abs(float(out.probs.sum()) + out.lost_mass + out.beyond_mass - 1.0)
    return {"out_atoms": len(out.probs), "gap": gap, "lost": out.lost_mass,
            "beyond": out.beyond_mass}


def _sum_law_work(a, out) -> dict:
    p = a["p"]
    key = (hashlib.blake2b(p.dense.tobytes(), digest_size=16).hexdigest(), p.offset, p.v0, p.D,
           a["n"], a.get("max_index"), a.get("method", "auto"))
    return {"in_atoms": len(p.dense), "key": key, **_table_work(out)}


def _pool_work(a, out) -> dict:
    from llt_lab.rng import worker_count

    args = a["args"]
    lo, _, hi = (args.seeds or "0:1").partition(":")
    return {"workers": worker_count(int(hi) - int(lo))}


#: work counted at the boundary: name -> (summed keys, fn(bound arguments, result))
HOOKS = {
    "lattice.power_tail": (("atoms",), lambda a, out: {"atoms": len(out.dense)}),
    "exact.sum_law": (("in_atoms", "out_atoms"), _sum_law_work),
    "exact.weighted_sum_law": (("out_atoms",), lambda a, out: _table_work(out)),
    "exact.convolve_tables": (("out_atoms",), lambda a, out: _table_work(out)),
    "cli.cmd_asllt": ((), _pool_work),
    **{kind: (("draws",), lambda a, out: {"draws": a["N"]}) for kind in PATH_KINDS},
}


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.names: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()

    # -- installation ---------------------------------------------------------------

    def install(self, namespaces=()) -> None:
        originals: dict[int, tuple] = {}
        for short in LAYERS:
            mod = importlib.import_module(f"llt_lab.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(short, obj)
                elif callable(obj):
                    originals[id(obj)] = (obj, self._wrapper(f"{short}.{attr}", obj))
        sites = [m for name, m in sys.modules.items()
                 if name == "llt_lab" or name.startswith("llt_lab.")] + list(namespaces)
        for site in sites:
            for attr, obj in list(vars(site).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(site, attr, originals[id(obj)][1])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        if id(val) in originals and originals[id(val)][0] is val:
                            obj[key] = originals[id(val)][1]

    def _wrap_class(self, short: str, cls: type) -> None:
        for attr, val in list(vars(cls).items()):
            if attr in ("__init__", "__post_init__"):
                if attr == "__init__" and dataclasses.is_dataclass(cls):
                    continue
                name = f"{short}.{cls.__name__}"
            elif attr == "__call__" or not attr.startswith("_"):
                name = f"{short}.{cls.__name__}.{attr}"
            else:
                continue
            if isinstance(val, (staticmethod, classmethod)):
                setattr(cls, attr, type(val)(self._wrapper(name, val.__func__)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._wrapper(name, val))

    def _wrapper(self, name: str, fn):
        self.names.add(name)
        keys, hook = HOOKS.get(name, ((), None))
        sig = inspect.signature(fn) if hook else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                work = None
                if ok and hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    work = hook(bound.arguments, out)
                tracer.spans.append((sid, name, t0, t1, time.perf_counter() - t1, parent,
                                     threading.get_ident(), work))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- summaries --------------------------------------------------------------------

    def write(self, path) -> None:
        """One JSON object per span: id, name, start, end, parent, thread."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, _, parent, tid, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "thread": tid}) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics: self times, calls, counted work and ledger figures.

        A span's self time is its duration minus its direct children's
        durations (children run on the same thread, nested inside it) and the
        time spent counting their work.
        """
        covered = defaultdict(float)
        for sid, name, t0, t1, ovh, parent, tid, work in self.spans:
            if parent is not None:
                covered[parent] += (t1 - t0) + ovh
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.s"] = 0.0
            out[f"{name}.calls"] = 0
            for key in HOOKS.get(name, ((),))[0]:
                out[f"{name}.{key}"] = 0
        for layer in LAYERS:
            out[f"{layer}.busy_s"] = 0.0
        keys, gaps, lost, beyond, draws = [], [0.0], 0.0, 0.0, 0
        for sid, name, t0, t1, ovh, parent, tid, work in self.spans:
            self_s = (t1 - t0) - covered[sid]
            out[f"{name}.s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{name.split('.')[0]}.busy_s"] += self_s
            if work is None:
                continue
            for key in HOOKS[name][0]:
                out[f"{name}.{key}"] += work[key]
            if name in TABLE_MAKERS:
                gaps.append(work["gap"])
                lost += work["lost"]
                beyond += work["beyond"]
            if name == "exact.sum_law":
                keys.append(work["key"])
            if name in PATH_KINDS:
                draws += work["draws"]
        out["exact.sum_law.repeat_ratio"] = len(keys) / len(set(keys)) if keys else 0.0
        out["exact.ledger_gap_max"] = max(gaps)
        out["exact.lost_mass_sum"] = lost
        out["exact.beyond_mass_sum"] = beyond
        out["asllt.paths.draws"] = draws
        out.update(self._pool())
        out["trace.spans"] = len(self.spans)
        return out

    def _pool(self) -> dict:
        """Busy share of the path pool: sum of path busy / (pool wall x workers)."""
        busy = capacity = 0.0
        paths = [s for s in self.spans if s[1] in PATH_KINDS]
        for _, name, t0, t1, _, _, tid, work in self.spans:
            if name != "cli.cmd_asllt" or work is None:
                continue
            inside = [s for s in paths if s[6] != tid and s[2] >= t0 and s[3] <= t1]
            if inside:
                wall = max(s[3] for s in inside) - min(s[2] for s in inside)
                busy += sum(s[3] - s[2] for s in inside)
                capacity += wall * work["workers"]
        return {"asllt.pool.efficiency": busy / capacity if capacity else 0.0,
                "asllt.pool.wait_s": capacity - busy}
