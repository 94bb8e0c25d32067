"""Span tracing of elaswave from outside the package.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper at every import site: modules bind names at import (boundary
holds its own `factorize`), so each elaswave module attribute that is one of
the wrapped functions is replaced, and `uninstall` puts the originals back.

A span is (name, start, end, parent).  Spans stay in memory while recording
and are written out by `dump` once the run is over.  Self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "elaswave"
LAYERS = ("materials", "acoustic", "factorization", "impedance", "boundary",
          "scatter", "layered", "cli")

FACTORIZE = "factorization.factorize"
_SCATTER_CALLS = ("scatter.reflect_free_surface", "scatter.transmit_interface")
_SURFACE_SOLVES = ("boundary.rayleigh_speed", "boundary.stoneley_speed")


def _factorize_key(signature, args, kwargs):
    """(A0, A1, A2, direction, tau): what determines one factorization.

    Arguments that factorize itself would reject give None, so that tracing
    never raises where the untraced call would not.
    """
    try:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a, tau = bound.arguments["a"], bound.arguments["tau"]
        if tau is None:
            tau = a.frame.tau
        return (a.a0.tobytes(), a.a1.tobytes(), a.a2.tobytes(),
                bound.arguments["direction"], float(tau))
    except (TypeError, AttributeError, ValueError):
        return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []          # (name index, start, end, parent index or -1)
        self.current = -1
        self.recording = False
        self.factorize_keys: set = set()
        self._patched: list = []       # (module, attribute, original)

    # --- wrapping ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        idx = self._name_id(name)
        signature = inspect.signature(fn) if name == FACTORIZE else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if signature is not None:
                tracer.factorize_keys.add(_factorize_key(signature, args, kwargs))
            return tracer._call(idx, fn, args, kwargs)

        return wrapper

    def _call(self, idx, fn, args, kwargs):
        spans = self.spans
        me = len(spans)
        parent = self.current
        spans.append(None)
        self.current = me
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans[me] = (idx, start, time.perf_counter(), parent)
            self.current = parent

    def span(self, name: str, fn):
        """Run fn() as a root span of its own (one benchmark operation)."""
        return self._call(self._name_id(name), fn, (), {})

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    # --- analysis ---------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer counts and self times, per benchmark operation."""
        names = self.names
        calls = Counter()
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for i, (idx, start, end, parent) in enumerate(self.spans):
            calls[names[idx]] += 1
            if parent >= 0:
                child_s[parent] += end - start
        for i, (idx, start, end, parent) in enumerate(self.spans):
            self_s[names[idx]] += (end - start) - child_s[i]

        under = self._calls_under(
            {FACTORIZE, "factorization.classify_spectrum", *_SCATTER_CALLS},
            {*_SCATTER_CALLS, *_SURFACE_SOLVES, "boundary.tau_limit",
             "layered.trace_plane_wave"})
        scatter_calls = sum(calls[n] for n in _SCATTER_CALLS)
        traced_scatter = sum(under[("layered.trace_plane_wave", n)] for n in _SCATTER_CALLS)
        solves = sum(calls[n] for n in _SURFACE_SOLVES)

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = max(n_ops, 1)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = 1e3 * sum(
                v for k, v in self_s.items() if k.startswith(layer + ".")) / per_op
        for name in sorted(n for n in names if n.split(".")[0] in LAYERS):
            out[f"{name}.calls"] = calls[name] / per_op
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / per_op
        out["factorization.distinct_ratio"] = ratio(len(self.factorize_keys),
                                                    calls[FACTORIZE])
        out["scatter.factorize_per_call"] = ratio(
            sum(under[(n, FACTORIZE)] for n in _SCATTER_CALLS), scatter_calls)
        out["layered.factorize_per_event"] = ratio(
            under[("layered.trace_plane_wave", FACTORIZE)], traced_scatter)
        out["boundary.factorize_per_solve"] = ratio(
            sum(under[(n, FACTORIZE)] for n in _SURFACE_SOLVES), solves)
        out["boundary.classify_per_tau_limit"] = ratio(
            under[("boundary.tau_limit", "factorization.classify_spectrum")],
            calls["boundary.tau_limit"])
        return out

    def _calls_under(self, targets: set, ancestors: set) -> Counter:
        """Counter[(ancestor, name)]: spans named name below a span named ancestor."""
        names = self.names
        result = Counter()
        for idx, _, _, parent in self.spans:
            name = names[idx]
            if name not in targets:
                continue
            seen = set()
            p = parent
            while p >= 0:
                pname = names[self.spans[p][0]]
                if pname in ancestors and pname not in seen:
                    seen.add(pname)
                    result[(pname, name)] += 1
                p = self.spans[p][3]
        return result

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
