"""Per-layer tracing from outside the program.

The tracer rebinds the public functions of each atomarray module to
wrappers that record a span per call: name, parent span, start and end
time, and the execution the span belongs to.  Every module attribute that
holds the original function object is rebound, which covers names imported
by value (``green_tensor`` in lli, observables and quantum;
``integrate_complex`` in quantum; ``sample_positions`` in observables).
No file of the program changes.

A layer's self time is its span's duration minus the time its child spans
cover.  One exception: the ``rhs`` callback handed to
``integrate.integrate_complex`` is the caller's code (the QME generator of
``evolve_qme``, say), so its time counts to the caller's self time and not
to the integrator's.  Its calls and time are also reported on their own as
``integrate.integrate_complex.rhs_evals`` and ``.rhs_s``.

Spans stay in memory; ``dump`` writes them out once, at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

LAYERS = {
    "geometry": ("sample_positions",),
    "kernel": ("green_tensor",),
    "lli": ("assemble", "steady_state", "eigenmodes"),
    "observables": ("transmission_reflection", "farfield_amplitude",
                    "disorder_average", "lorentzian_fit"),
    "quantum": ("build_quantum_system", "source_mode_basis",
                "run_trajectories", "evolve_qme", "steady_state_qme",
                "qme_rhs", "trace_distance"),
    "integrate": ("integrate_complex",),
    "cli": ("write_csv",),
}
RHS = "integrate.integrate_complex.rhs"
# counts computed from call arguments: metric -> (layer, span counter)
COUNTS = {
    "observables.farfield_amplitude.phase_evals":
        ("observables.farfield_amplitude", "phase_evals"),
    "cli.write_csv.bytes": ("cli.write_csv", "bytes"),
}


class Span:
    __slots__ = ("id", "parent", "execution", "name", "owner", "t0", "t1",
                 "child", "counts")

    def __init__(self, id, parent, execution, name, owner):
        self.id, self.parent, self.execution = id, parent, execution
        self.name, self.owner = name, owner
        self.child = 0.0
        self.counts = {}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.execution = 0
        self.installed = []

    def _call(self, name, fn, args, kwargs, owner=None, before=None,
              after=None):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    self.execution, name, owner or name)
        self.spans.append(span)
        if before is not None:
            args, kwargs = before(span, parent, args, kwargs)
        self.stack.append(span)
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent.child += span.t1 - span.t0
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, before=before,
                              after=after)
        return traced

    # -- hooks that compute counts or wrap callbacks ---------------------

    def _hooks(self, name, fn):
        sig = inspect.signature(fn)
        if name == "observables.farfield_amplitude":
            def before(span, parent, args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                rows = np.atleast_2d(a["nhat"]).shape[0]
                span.counts["phase_evals"] = rows * a["geometry"].natoms
                return args, kwargs
            return before, None
        if name == "cli.write_csv":
            def after(span, args, kwargs, result):
                path = sig.bind(*args, **kwargs).arguments["path"]
                span.counts["bytes"] = Path(path).stat().st_size
            return None, after
        if name == "integrate.integrate_complex":
            def before(span, parent, args, kwargs):
                bound = sig.bind(*args, **kwargs)
                rhs = bound.arguments["rhs"]
                owner = parent.name if parent else name

                def traced_rhs(*a, **kw):
                    return self._call(RHS, rhs, a, kw, owner=owner)
                bound.arguments["rhs"] = traced_rhs
                return bound.args, bound.kwargs
            return before, None
        return None, None

    def install(self):
        """Rebind every listed function that exists; return their names.
        A function that no longer exists is skipped, so its metrics are
        absent rather than zero."""
        for mod_name, fns in LAYERS.items():
            try:
                mod = importlib.import_module(f"atomarray.{mod_name}")
            except ImportError:
                continue
            for fn_name in fns:
                orig = getattr(mod, fn_name, None)
                if not callable(orig):
                    continue
                name = f"{mod_name}.{fn_name}"
                wrapper = self.wrap(name, orig, *self._hooks(name, orig))
                for m_name, m in list(sys.modules.items()):
                    if m_name == "atomarray" or m_name.startswith("atomarray."):
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapper)
                self.installed.append(name)
        return self.installed

    # -- results ---------------------------------------------------------

    def execution_metrics(self, execution: int) -> dict:
        """Per-layer metrics of one traced execution."""
        spans = [s for s in self.spans if s.execution == execution]
        self_s = dict.fromkeys(self.installed, 0.0)
        calls = dict.fromkeys(self.installed, 0)
        counts = {}
        rhs_n, rhs_s = 0, 0.0
        for s in spans:
            dur = s.t1 - s.t0
            self_s[s.owner] = self_s.get(s.owner, 0.0) + dur - s.child
            if s.name == RHS:
                rhs_n += 1
                rhs_s += dur
            else:
                calls[s.name] += 1
            for k, v in s.counts.items():
                counts[(s.name, k)] = counts.get((s.name, k), 0) + v
        out = {}
        for name in self.installed:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        for metric, (layer, key) in COUNTS.items():
            if layer in self.installed:
                out[metric] = counts.get((layer, key), 0)
        if "integrate.integrate_complex" in self.installed:
            out["integrate.integrate_complex.rhs_evals"] = rhs_n
            out["integrate.integrate_complex.rhs_s"] = rhs_s
        out["self_total_s"] = sum(self_s.values())
        return out

    def dump(self, path: Path):
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        path.write_text(json.dumps({
            "names": names,
            "fields": ["id", "parent", "execution", "name", "t0", "t1"],
            "spans": [[s.id, s.parent, s.execution, index[s.name], s.t0, s.t1]
                      for s in self.spans],
        }))


def median_metrics(per_execution: list) -> dict:
    keys = per_execution[0].keys()
    return {k: statistics.median(m[k] for m in per_execution) for k in keys}
