"""Span tracing of pfltank's layers from outside the package.

``Tracer.patch()`` replaces the traced functions, methods and properties with
wrappers that record one span each: name, start, end and parent.  Every
module of the package that binds the same object (the defining module, and
the modules that import the name directly) is patched, so calls made from
inside the package are seen too.  ``Tracer.restore()`` puts every original
back.  Spans are kept in memory in flat integer arrays and reduced to
per-layer figures by ``layer_metrics``; ``write_spans`` stores them after
the run.

Some wrappers also count outcomes at the call boundary (retargets, damper
arming, alpha < 1, deficit cycles, file bytes), so ratios are measured where
the work happens.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter_ns

WRAPPED = "__perfbench_wrapped__"

#: Span names reduced to "outermost only": nested calls of the same layer
#: (load_scenario calling scenario_from_config, v_max calling reduced_mass)
#: are covered by their caller's span.
OUTERMOST = ("cli.load", "iso15066")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        for arr in (self.name_of, self.parent, self.start, self.end):
            del arr[:]
        self.counts = {}

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark's own operation boundary."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str, hook=None):
        name_id = self._id(name)
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        setattr(wrapper, WRAPPED, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name: str, hook=None):
        wrapper = self._wrap(fn, name, hook)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, hook=None):
        self._set(cls, attr, self._wrap(cls.__dict__[attr], name, hook))

    def _patch_property(self, cls, attr: str, name: str):
        prop = cls.__dict__[attr]
        self._set(cls, attr, property(self._wrap(prop.fget, name)))

    def patch(self):
        """Wrap every traced layer boundary; undo with restore()."""
        if self._patched:
            raise RuntimeError("tracer is already patched")
        from pfltank import cli, energy_tank, iso15066, robot_dynamics
        from pfltank import safety_controller, sim_harness

        try:
            self._patch_method(safety_controller.SafetyController, "control_cycle",
                               "safety_controller.control_cycle", _count_deficit)
            self._patch_function(safety_controller.solve_alpha,
                                 "safety_controller.solve_alpha", _count_scaled)
            self._patch_function(safety_controller.supervise,
                                 "safety_controller.supervise", _count_retarget)
            self._patch_function(energy_tank.commit_step, "energy_tank.commit_step")
            self._patch_function(energy_tank.damper_coefficient,
                                 "energy_tank.damper_coefficient", _count_armed)
            self._patch_method(robot_dynamics.CartesianPlant, "step",
                               "robot_dynamics.cartesian_step")
            self._patch_method(robot_dynamics.PlanarArm, "step", "robot_dynamics.arm_step")
            for cls in (robot_dynamics.CartesianPlant, robot_dynamics.PlanarArm):
                for attr in ("pose", "twist", "kinetic_energy"):
                    self._patch_property(cls, attr, "robot_dynamics.observe")
            self._patch_function(sim_harness.run, "sim_harness.run")
            self._patch_function(sim_harness.wrench_at, "sim_harness.wrench_at")
            self._patch_function(sim_harness.summarize, "sim_harness.summarize")
            self._patch_function(sim_harness.write_ticks_csv, "sim_harness.write_ticks_csv",
                                 _count_bytes("sim_harness.write_ticks_csv.bytes"))
            self._patch_function(sim_harness.read_ticks_csv, "sim_harness.read_ticks_csv",
                                 _count_bytes("sim_harness.read_ticks_csv.bytes"))
            self._patch_function(cli.load_scenario, "cli.load")
            self._patch_function(cli.scenario_from_config, "cli.load")
            for fname in iso15066.__all__:
                value = getattr(iso15066, fname)
                if callable(value) and not isinstance(value, type):
                    self._patch_function(value, "iso15066")
        except BaseException:
            self.restore()
            raise

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.patch()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer totals over the recorded spans: calls, busy time and
        self time (duration minus the time child spans cover), in ns."""
        names = self.names
        n = len(self.name_of)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        observe_by_loop = 0
        run_id = self._ids.get("sim_harness.run")
        for i in range(n):
            name = names[self.name_of[i]]
            p = self.parent[i]
            pname = names[self.name_of[p]] if p >= 0 else None
            if name in OUTERMOST and pname == name:
                continue
            dur = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child[i]
            if name == "robot_dynamics.observe" and p >= 0 and self.name_of[p] == run_id:
                observe_by_loop += dur
        return {"calls": calls, "total_ns": total, "self_ns": self_ns,
                "observe_by_loop_ns": observe_by_loop, "counts": dict(self.counts)}

    def write_spans(self, path):
        """One CSV row per span: index, name, start and end in ns, parent index."""
        names = self.names
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i in range(len(self.name_of)):
                fh.write(f"{i},{names[self.name_of[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "pfltank" or name.startswith("pfltank."))]


def find_wrappers() -> list[str]:
    """Every pfltank attribute, class member or property still wrapped."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if hasattr(value, WRAPPED):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("pfltank"):
                for member, inner in vars(value).items():
                    fn = inner.fget if isinstance(inner, property) else inner
                    if hasattr(fn, WRAPPED):
                        found.append(f"{module.__name__}.{attr}.{member}")
    return found


def _bump(counts: dict, key: str, by: int = 1):
    counts[key] = counts.get(key, 0) + by


def _count_deficit(counts, args, result):
    if args[0].in_deficit:
        _bump(counts, "deficit")


def _count_scaled(counts, args, result):
    if result < 1.0:
        _bump(counts, "scaled")


def _count_retarget(counts, args, result):
    # supervise returns its tank argument unchanged unless the floor moved
    if result is not args[2]:
        _bump(counts, "retarget")


def _count_armed(counts, args, result):
    if result > 0.0:
        _bump(counts, "armed")


def _count_bytes(key: str):
    def hook(counts, args, result):
        _bump(counts, key, os.path.getsize(args[0]))
    return hook
