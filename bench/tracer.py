"""Span tracing of covercert from outside its source tree.

Public functions and methods of each module are replaced, in every covercert
module that holds a reference to them, by wrappers that record one span per
call: group, label, start, end, parent span and op index. Spans stay in
memory in flat lists and are handed to the parent once, when the op ends;
the parent writes them all when the run ends.

A call whose innermost open span already belongs to the same group is not
recorded: its time stays inside the enclosing span of that group, so nested
layers of one oracle (a transformed body asking its thickened base, which
asks its halfspace body) count once and self times add up to wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from contextlib import contextmanager
from time import perf_counter

# Layer groups, named <module>.<what>; "op" and "call" spans come from the
# benchmark's own loop.
GROUPS = (
    "geom_core.min_enclosing_ball", "geom_core.sample",
    "bodies.build", "bodies.project",
    "isometry_nets.build_cover_family", "isometry_nets.audit_cover_family",
    "isometry_nets.net_from_json", "isometry_nets.net_to_json",
    "coclique.family_counts", "coclique.build_coclique", "coclique.edge_measure_audit",
    "bounds.verify_cone_inclusion", "bounds.verify_sweep_inequality", "bounds.sweep_rows",
    "cli.render_json", "cli.verify_witness_certificate", "cli.strip_rotations",
    "cli.cert_parse",
)


class Tracer:
    def __init__(self):
        self.groups: list[str] = []
        self.labels: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.call = ""
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()

    # -- recording ---------------------------------------------------------

    def _open(self, group: str, label: str) -> int:
        idx = len(self.starts)
        self.groups.append(group)
        self.labels.append(label)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, group: str, label: str):
        idx = self._open(group, label)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1.0) -> None:
        """Add to a per-op counter, keyed by the CLI call that is running."""
        full = f"{self.call}:{key}"
        self.counters[full] = self.counters.get(full, 0.0) + value

    def wrap(self, fn, group: str, label: str, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.groups[stack[-1]] == group:
                return fn(*args, **kwargs)
            idx = tracer._open(group, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                try:
                    counter(tracer, result)
                except (AttributeError, KeyError, TypeError):
                    # the result changed shape; report it, keep the op going
                    tracer.missing.add(f"counts of {label}")
            return result

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, module, name: str, group: str, counter=None) -> None:
        """Wrap `module.name` and rebind every covercert module attribute
        that refers to the same function object (`from x import f` copies)."""
        orig = getattr(module, name, None)
        if orig is None:
            self.missing.add(f"{module.__name__}.{name}")
            return
        wrapper = self.wrap(orig, group, name, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "covercert" or mod_name.startswith("covercert.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, name: str, group: str) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.add(f"{cls.__qualname__}.{name}")
            return
        label = f"{cls.__name__}.{name}"
        if isinstance(raw, staticmethod):
            setattr(cls, name, staticmethod(self.wrap(raw.__func__, group, label)))
        else:
            setattr(cls, name, self.wrap(raw, group, label))

    # -- summaries ---------------------------------------------------------

    def op_summary(self, first: int) -> dict:
        """Per-layer figures of the op whose spans start at index `first`:
        self seconds and span counts per group and label, call durations and
        the part of each call that layer spans cover, and the counters."""
        last = len(self.starts)
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parents[i]
            if p >= first:
                child[p - first] += self.ends[i] - self.starts[i]
        self_s: dict[str, float] = {}
        spans: dict[str, int] = {}
        calls: dict[str, dict] = {}
        in_audit = [False] * (last - first)
        tests_in_audit = 0
        op_wall = 0.0
        for i in range(first, last):
            group = self.groups[i]
            dur = self.ends[i] - self.starts[i]
            if group == "op":
                op_wall = dur
                continue
            if group == "call":
                calls[self.labels[i]] = {"seconds": dur, "covered": child[i - first]}
                continue
            p = self.parents[i]
            in_audit[i - first] = group == "isometry_nets.audit_cover_family" or (
                p >= first and in_audit[p - first])
            if group == "bodies.project" and in_audit[i - first]:
                tests_in_audit += 1
            self_s[group] = self_s.get(group, 0.0) + dur - child[i - first]
            spans[group] = spans.get(group, 0) + 1
            key = f"{group}/{self.labels[i]}"
            spans[key] = spans.get(key, 0) + 1
        covered = sum(c["covered"] for c in calls.values())
        summary = {
            "self_s": self_s,
            "spans": spans,
            "calls": calls,
            "op_wall": op_wall,
            "untraced_share": 1.0 - covered / op_wall if op_wall > 0 else 0.0,
            "tests_in_audit": tests_in_audit,
            "counters": dict(self.counters),
        }
        self.counters = {}
        return summary

    def columns(self) -> dict:
        """Every span as parallel columns: an index into `names`
        ("group/label"), start and duration in microseconds from the first
        span, parent index and op index."""
        names: dict[str, int] = {}
        name_idx = [names.setdefault(f"{g}/{lb}", len(names))
                    for g, lb in zip(self.groups, self.labels)]
        t0 = self.starts[0] if self.starts else 0.0
        return {"names": list(names), "name": name_idx,
                "start_us": [round((t - t0) * 1e6) for t in self.starts],
                "dur_us": [round((e - t) * 1e6) for t, e in zip(self.starts, self.ends)],
                "parent": self.parents, "op": self.ops,
                "missing": sorted(self.missing)}


def _count_cover_family(tracer: Tracer, net) -> None:
    tracer.count("family_size", len(net))


def _count_coclique(tracer: Tracer, result) -> None:
    edges = list(result.edges_found_per_attempt)
    tracer.count("attempts", len(edges))
    tracer.count("accepted", 1.0 if result.success else 0.0)
    tracer.count("edges", sum(edges))
    tracer.count("survivors", len(result.X))


def _count_audit(tracer: Tracer, report) -> None:
    tracer.count("trials", report["trials"])


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the six covercert modules."""
    import covercert.bodies as bodies
    import covercert.bounds as bounds
    import covercert.cli as cli
    import covercert.coclique as coclique
    import covercert.geom_core as geom_core
    import covercert.isometry_nets as isometry_nets

    functions = [
        (geom_core, "min_enclosing_ball", "geom_core.min_enclosing_ball", None),
        (geom_core, "uniform_ball_points", "geom_core.sample", None),
        (geom_core, "sample_uniform_ball", "geom_core.sample", None),
        (geom_core, "sample_uniform_sphere", "geom_core.sample", None),
        (bodies, "thicken", "bodies.build", None),
        (bodies, "transform", "bodies.build", None),
        (isometry_nets, "build_cover_family", "isometry_nets.build_cover_family",
         _count_cover_family),
        (isometry_nets, "audit_cover_family", "isometry_nets.audit_cover_family",
         _count_audit),
        (coclique, "family_counts", "coclique.family_counts", None),
        (coclique, "build_coclique", "coclique.build_coclique", _count_coclique),
        (coclique, "edge_measure_audit", "coclique.edge_measure_audit", None),
        (bounds, "verify_cone_inclusion", "bounds.verify_cone_inclusion", None),
        (bounds, "verify_sweep_inequality", "bounds.verify_sweep_inequality", None),
        (bounds, "sweep_rows", "bounds.sweep_rows", None),
        (cli, "render_json", "cli.render_json", None),
        (cli, "verify_witness_certificate", "cli.verify_witness_certificate", None),
        (cli, "strip_rotations", "cli.strip_rotations", None),
    ]
    for module, name, group, counter in functions:
        tracer.patch_function(module, name, group, counter)

    tracer.patch_method(isometry_nets.IsometryNet, "from_json_dict",
                        "isometry_nets.net_from_json")
    tracer.patch_method(isometry_nets.IsometryNet, "to_json_dict",
                        "isometry_nets.net_to_json")
    # Membership oracles other than balls: balls take the vectorised path of
    # family_counts and never reach these methods there.
    for value in list(vars(bodies).values()):
        if (isinstance(value, type) and issubclass(value, bodies.Body)
                and value not in (bodies.Body, bodies.BallBody)):
            for name in ("contains_many", "project"):
                if name in value.__dict__:
                    tracer.patch_method(value, name, "bodies.project")

    # Certificates are parsed inside cmd_witness through cli's own `json`
    # global; a copy of the json module bound there times json.load alone.
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(json))
    proxy.load = tracer.wrap(json.load, "cli.cert_parse", "json.load")
    if getattr(cli, "json", None) is json:
        cli.json = proxy
    else:
        tracer.missing.add("covercert.cli.json")
