"""In-memory spans around the calls into each ranshare module.

The library binds its collaborators with ``from ... import``, so a call from
``ranshare.sim`` to the solver goes through ``ranshare.sim.solve`` and
patching ``ranshare.solver.solve`` would miss it.  The tracer therefore wraps
each function at the module attribute its callers look up.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# (module, attribute its callers look up, span name "<layer module>.<function>")
CALL_SITES = (
    ("sim", "generate_scenario", "sim.generate_scenario"),
    ("sim", "add_hotspot", "sim.add_hotspot"),
    ("sim", "scale_load", "sim.scale_load"),
    ("sim", "build_instance", "sim.build_instance"),
    ("sim", "allocate_app_opt", "sim.allocate_app_opt"),
    ("sim", "second_phase_allocate", "sim.second_phase_allocate"),
    ("sim", "qoe_satisfied_count", "sim.qoe_satisfied_count"),
    ("sim", "flow_utility", "sim.flow_utility"),
    ("sim", "run_experiment", "sim.run_experiment"),
    ("sim", "solve", "solver.solve"),
    ("sim", "water_fill", "fairshare.water_fill"),
    ("sim", "estimate_demand", "utility.estimate_demand"),
    ("sim", "expand_bounds", "model.expand_bounds"),
    ("sim", "net_rsv_allocate", "baselines.net_rsv_allocate"),
    ("sim", "per_bs_rsv_allocate", "baselines.per_bs_rsv_allocate"),
    ("baselines", "water_fill", "fairshare.water_fill"),
)

FLOW_LAYERS = ("sim", "utility", "model", "fairshare", "baselines")


class Tracer:
    """Collects spans (name, start, end, parent, workload, unit) in memory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.unit = None
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.units: list = []
        self.solve_results: list = []
        self._stack: list = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.units.append(self.unit)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        # No context manager per call: with one, traced hotspot-flows ran 32%
        # slower than untraced on unit 0; with this form, 2% (one run each).
        keep = name == "solver.solve"

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.solve_results.append(out)
            return out

        return traced

    @contextmanager
    def installed(self, modules: dict):
        """Patch every call site in CALL_SITES; restore the originals on exit."""
        saved = []
        try:
            for mod_name, attr, span_name in CALL_SITES:
                mod = modules[mod_name]
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self.wrap(span_name, original))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def self_times(self):
        """Per span: duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return dur, own

    def totals(self):
        """{name: (calls, inclusive seconds, self seconds)} summed over spans."""
        dur, own = self.self_times()
        out: dict = {}
        for name, d, o in zip(self.names, dur, own):
            calls, inc, slf = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, inc + d, slf + o)
        return out

    def write(self, path):
        dur, own = self.self_times()
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "self_s": own[i], "parent": self.parents[i],
                    "workload": self.workload, "unit": self.units[i],
                }) + "\n")
