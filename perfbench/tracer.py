"""Span tracing and work counters at the boundaries of extlab's layers.

``install()`` wraps the public functions of each layer module (plus a
few methods named in ``METHODS``) and rebinds every ``from .x import
name`` copy inside the package, since those bindings were captured at
import time.  Each wrapped call records a span (name, start, end,
parent span, task id) in flat arrays; ``summary()`` turns them into
per-function self times, where a span's self time is its duration minus
the durations of its child spans.  Counters are exact integers computed
from arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("poly", "groebner", "linalg", "modules", "realize", "resolution", "vanishing", "script")

# Layers whose public module-level functions are all wrapped.  poly is
# left out: monomial arithmetic runs millions of times inside groebner
# and a wrapper there would mostly time itself.
FUNCTION_LAYERS = ("groebner", "linalg", "modules", "realize", "resolution", "vanishing", "script")

# Hot one-line helpers called per vector or per coefficient: wrapping
# them would multiply the tracing overhead without naming a layer cost.
SKIP = {"module_codec", "vec_degree", "vec_poly_submul", "vec_from_entries",
        "entries_from_vec", "reduce_vec_by_ideal", "tp_value_at_one",
        "tp_one_minus_t_valuation", "tp_exact_quotient", "tp_series",
        "lead_exponents_by_comp", "quotient_helpers"}

# (layer, class, method) wrapped on the class
METHODS = (
    ("poly", "PolyRing", "parse"),
    ("poly", "PolyRing", "random_homogeneous"),
    ("modules", "PresentedModule", "minimal_presentation"),
    ("realize", "FiniteLengthRealization", "from_module"),
    ("resolution", "Resolution", "extend_to"),
)

CHECKERS = ("symmetry_check", "tail_equivalence_check", "free_or_nonvanishing_check",
            "tor_duality_check", "lescot_betti_check", "tensor_mcm_check",
            "stable_suite_check", "change_of_rings_check", "external_product_check")


def _res_width(res) -> int:
    return sum(len(t) for t in res._twists)


def _hooks(counts: Counter):
    """name -> (before(args) -> state, after(state, args, result)).

    Every value added to ``counts`` is an int, so two runs of the same
    inputs must agree exactly.
    """

    def buchberger_before(args):
        return len(args[0])

    def buchberger_after(n_in, args, res):
        counts["groebner.buchberger.inputs"] += n_in
        counts["groebner.buchberger.basis_out"] += len(res[0])

    def echelon_before(args):
        rows, cols = np.shape(args[0])
        counts["linalg.echelon_mod.cells"] += int(rows) * int(cols)

    def matmul_before(args):
        (m, k), (_, n) = np.shape(args[0]), np.shape(args[1])
        counts["linalg.matmul_mod.mac"] += int(m) * int(k) * int(n)

    def mingen_after(_, args, res):
        counts["modules.minimal_generator_indices.candidates"] += len(args[1])
        counts["modules.minimal_generator_indices.kept"] += len(res)

    def cache_probe(key, metric):
        def before(args):
            if key in args[0]._cache:
                counts[metric] += 1
        return before

    def resolution_of_before(args):
        return len(args[0].ctx.scratch.get("res", ()))

    def resolution_of_after(size, args, res):
        if len(args[0].ctx.scratch.get("res", ())) == size:
            counts["resolution.resolution_of.cache_hits"] += 1

    def from_module_before(args):  # classmethod: args[0] is the class
        return "real" in args[1]._cache

    def from_module_after(hit, args, res):
        if hit:
            counts["realize.from_module.cache_hits"] += 1
        else:
            counts["realize.from_module.length"] += sum(res.dims.values())

    def extend_before(args):
        res = args[0]
        return len(res._twists), _res_width(res)

    def extend_after(state, args, res):
        counts["resolution.extend_to.steps"] += len(res._twists) - state[0]
        counts["resolution.extend_to.rank_reached"] += _res_width(res) - state[1]

    def scan_after(kind):
        def after(_, args, res):
            counts[f"vanishing.{kind}.indices"] += res.computed_to
        return after

    def verdict_after(name):
        def after(_, args, res):
            counts[f"vanishing.{name}.verdict.{res.verdict.replace(' ', '_')}"] += 1
        return after

    hooks = {
        "buchberger": (buchberger_before, buchberger_after),
        "echelon_mod": (echelon_before, None),
        "matmul_mod": (matmul_before, None),
        "minimal_generator_indices": (None, mingen_after),
        "dual_module": (cache_probe("dual", "modules.dual_module.cache_hits"), None),
        "minimal_presentation": (
            cache_probe("min", "modules.minimal_presentation.cache_hits"), None),
        "resolution_of": (resolution_of_before, resolution_of_after),
        "from_module": (from_module_before, from_module_after),
        "extend_to": (extend_before, extend_after),
        "scan_ext": (None, scan_after("scan_ext")),
        "scan_tor": (None, scan_after("scan_tor")),
    }
    for name in CHECKERS:
        hooks[name] = (None, verdict_after(name))
    return hooks


class Tracer:
    """Spans in flat arrays plus exact counters; one per process."""

    def __init__(self):
        self.ids: dict[str, int] = {}  # span name -> id, in id order
        self.name_of = array("l")
        self.parent = array("l")
        self.task = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.task_id = -1
        self.counts: Counter = Counter()

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self.ids.setdefault(name, len(self.ids))

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.task.append(self.task_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start[i] = perf_counter()
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own work, e.g. ``bench.task``."""
        i = self.open(self._id(name))
        try:
            yield i
        finally:
            self.close(i)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname: str, fn, hook):
        nid = self._id(qualname)
        counts = self.counts
        calls_key = f"{qualname}.calls"
        before, after = hook or (None, None)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls_key] += 1
            state = before(args) if before else None
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after:
                after(state, args, result)
            return result

        return traced

    def install(self):
        hooks = _hooks(self.counts)
        mods = {layer: importlib.import_module(f"extlab.{layer}") for layer in LAYERS}
        importlib.import_module("extlab.cli")
        swaps = {}
        for layer in FUNCTION_LAYERS:
            mod = mods[layer]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                swaps[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj, hooks.get(name)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(f"{layer}.{meth}", raw.__func__, hooks.get(meth)))
            else:
                wrapped = self._wrap(f"{layer}.{meth}", raw, hooks.get(meth))
            setattr(cls, meth, wrapped)
        # rebind the defining module's name and every imported copy
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("extlab"):
                continue
            for name, obj in list(vars(mod).items()):
                hit = swaps.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return self

    # -- results ----------------------------------------------------------

    def summary(self, root: int) -> dict:
        """Self time (ms) per span name, over the task list (the root span
        and every span opened while a task id was set) and over the whole
        process, set-up included."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)[:n]
        end = np.frombuffer(self.end, dtype=np.float64)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        names = np.frombuffer(self.name_of, dtype=np.int64)[:n]
        labels = list(self.ids)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        inside = np.frombuffer(self.task, dtype=np.int64)[:n] >= 0
        inside[root] = True

        def per_name(mask):
            sums = np.bincount(names[mask], weights=self_t[mask], minlength=len(labels))
            return {labels[k]: float(v) * 1e3 for k, v in enumerate(sums) if v}

        return {
            "wall_ms": float(dur[root]) * 1e3,
            "self_ms": per_name(inside),
            "self_ms_all": per_name(np.ones(n, dtype=bool)),
            "spans": int(inside.sum()),
        }

    def dump(self, path):
        """Write the raw spans for later inspection."""
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(list(self.ids)),
            name=np.frombuffer(self.name_of, dtype=np.int64)[:n],
            parent=np.frombuffer(self.parent, dtype=np.int64)[:n],
            task=np.frombuffer(self.task, dtype=np.int64)[:n],
            start=np.frombuffer(self.start, dtype=np.float64)[:n],
            end=np.frombuffer(self.end, dtype=np.float64)[:n],
        )
