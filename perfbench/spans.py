"""Spans around the calls into each hardylab layer, recorded from outside.

The tracer replaces module (or class) attributes with timing wrappers at run
time and puts the originals back on ``uninstall``; the package source is
never modified.  Spans stay in memory.  A layer is a module, and its self
time is the sum over its spans of the span's duration minus the durations of
its direct children.  Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("functions", "quadrature", "geometry", "norms", "experiments", "cli")
COMMANDS = ("lemma", "scan", "local", "density-demo", "metric")
METHODS = ("zonal", "real-zonal", "exact-empty", "mc-sphere", "mc-importance",
           "mc-cap", "parametrized", "thin-shell")

# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "functions.zonal_eval.points": "count",
    "functions.zonal_eval.self_s": "s",
    "functions.evaluate.points": "count",
    "functions.evaluate.self_s": "s",
    "quadrature.integrate_zonal.calls": "count",
    "quadrature.integrate_zonal.self_s": "s",
    "quadrature.integrate_real_zonal.self_s": "s",
    "quadrature.integrate_sphere_importance.calls": "count",
    "quadrature.integrate_sphere_importance.self_s": "s",
    "quadrature.SurfaceSampler.integrate.self_s": "s",
    "quadrature.zonal_cache.misses": "count",
    "geometry.level_set_sampler.parametrized.calls": "count",
    "geometry.level_set_sampler.parametrized.self_s": "s",
    "geometry.level_set_sampler.parametrized.nodes": "count",
    "geometry.level_set_sampler.thin-shell.calls": "count",
    "geometry.level_set_sampler.thin-shell.self_s": "s",
    "geometry.level_set_sampler.thin-shell.proposals": "count",
    "geometry.level_set_sampler.thin-shell.accept_frac": "ratio",
    "norms.point_integral.calls": "count",
    "norms.point_integral.self_s": "s",
    "norms.nodes": "count",
    **{f"norms.method.{m}": "count" for m in METHODS},
    "norms.repeat_point_frac": "ratio",
    "norms.classify.calls": "count",
    "norms.classify.self_s": "s",
    "experiments.bisect.verdicts": "count",
    "experiments.density_demo.metric_calls": "count",
    **{f"cli.command_s.{c}": "s" for c in COMMANDS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str                   # "<module>.<function>"
    parent: int | None          # id of the enclosing span
    trace: int                  # index of the CLI command that caused it
    start: float
    end: float = math.nan
    outermost: bool = True      # no enclosing span of the same name
    counts: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


class Tracer:
    """Records a span per call of each wrapped attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.trace = 0
        self._stack = []
        self._patched = []      # (owner, attribute, original)

    def wrap(self, func, name, hook=None):
        """``func`` timed as span ``name``; ``hook(span, bound_args, result)``
        runs after the span closes, to attach counts."""
        signature = inspect.signature(func) if hook else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound.arguments, result)
            return result

        return wrapper

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(id=len(self.spans), name=name,
                    parent=parent.id if parent else None, trace=self.trace,
                    start=self.clock(),
                    outermost=all(s.name != name for s in self._stack))
        self.spans.append(span)
        self._stack.append(span)
        return span

    def install(self, targets):
        """Patch each (owner, attribute, span name, hook) target."""
        for owner, attr, name, hook in targets:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, hook))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def snapshot(targets):
    """(owner, attribute, current object) of each target, to check a restore."""
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in targets]


def unrestored(snap):
    """(owner, attribute) pairs of a snapshot that no longer hold its object."""
    return [(owner, attr) for owner, attr, obj in snap
            if owner.__dict__[attr] is not obj]


# ---------------------------------------------------------------------------
# The hardylab entry points and their counters
# ---------------------------------------------------------------------------

# Sum specs recurse into evaluate / zonal_eval, so points are counted at the
# outermost call only.
def _evaluate_hook(span, args, result):
    if span.outermost:
        span.counts["points"] = math.prod(np.shape(args["Z"])[:-1])


def _zonal_eval_hook(span, args, result):
    if span.outermost:
        span.counts["points"] = int(np.size(args["w"]))


def _point_integral_hook(span, args, result):
    est, _flag = result
    span.counts["nodes"] = int(est.count)
    span.attrs["method"] = est.method
    span.attrs["p"] = float(args["p"])
    span.attrs["key"] = (repr(args["fspec"]), repr(args["surface"]),
                         float(args["xval"]), args["cfg"].seed)


def _sampler_hook(span, args, result):
    span.attrs["method"] = args["method"]
    span.counts["nodes"] = int(result.count)
    span.counts["proposals"] = int(result.proposals or 0)


def _cli_hook(span, args, result):
    argv = args["argv"]
    span.attrs["command"] = argv[0] if argv else ""


def hardylab_targets():
    """Entry points by which each layer is called from the layers above it."""
    from hardylab import (cli, experiments, functions, geometry, norms,
                          quadrature)

    def public(module, names):
        return [(module, n, f"{module.__name__.split('.')[-1]}.{n}",
                 hooks.get(n)) for n in names]

    hooks = {
        "evaluate": _evaluate_hook,
        "zonal_eval": _zonal_eval_hook,
        "point_integral": _point_integral_hook,
        "level_set_sampler": _sampler_hook,
        "run": _cli_hook,
    }
    return (
        public(cli, ["run"])
        + public(experiments, ["verify_lemma_2_2", "verify_local_bound",
                               "verify_lemma_3_1",
                               "bisect_critical_exponent", "verify_lemma_4_2",
                               "verify_lemma_4_3", "verify_lemma_5_1",
                               "totally_unbounded_witness", "density_demo"])
        + public(norms, ["point_integral", "scan", "classify",
                         "membership_verdict", "local_scan_ball",
                         "level_scan_domain", "harmonic_scan",
                         "seminorm_estimate", "hardy_seminorm",
                         "intersection_metric"])
        + public(quadrature, ["integrate_sphere", "integrate_sphere_importance",
                              "integrate_cap", "integrate_zonal",
                              "integrate_real_zonal", "integrate_level_set"])
        + [(quadrature.SurfaceSampler, "integrate",
            "quadrature.SurfaceSampler.integrate", None)]
        + public(geometry, ["level_set_sampler"])
        + public(functions, ["evaluate", "zonal_eval"])
    )


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

def _has_ancestor(span, name, by_id):
    while span.parent is not None:
        span = by_id[span.parent]
        if span.name == name:
            return True
    return False


def repeat_fraction(keyed):
    """Share of (key, p) items whose key appeared earlier at another p."""
    seen = {}
    repeats = 0
    for key, p in keyed:
        if any(q != p for q in seen.get(key, ())):
            repeats += 1
        seen.setdefault(key, set()).add(p)
    return repeats / len(keyed) if keyed else 0.0


def layer_metrics(spans, wall_s, zonal_misses):
    """Per-layer metrics of one traced pass lasting ``wall_s`` seconds.

    ``trace.overhead_s`` needs an untraced pass and is filled in by the caller.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = {name: 0.0 for name in PER_LAYER}

    def add(name, value):
        m[name] += value

    shell_nodes = 0
    keyed = []
    for s in spans:
        add(f"{s.name.partition('.')[0]}.self_s", own[s.id])
        if s.name in ("functions.zonal_eval", "functions.evaluate"):
            add(f"{s.name}.points", s.counts.get("points", 0))
            add(f"{s.name}.self_s", own[s.id])
        elif s.name in ("quadrature.integrate_zonal",
                        "quadrature.integrate_sphere_importance"):
            add(f"{s.name}.calls", 1)
            add(f"{s.name}.self_s", own[s.id])
        elif s.name in ("quadrature.integrate_real_zonal",
                        "quadrature.SurfaceSampler.integrate"):
            add(f"{s.name}.self_s", own[s.id])
        elif s.name == "geometry.level_set_sampler":
            base = f"{s.name}.{s.attrs['method']}"
            add(f"{base}.calls", 1)
            add(f"{base}.self_s", own[s.id])
            if s.attrs["method"] == "thin-shell":
                add(f"{base}.proposals", s.counts["proposals"])
                shell_nodes += s.counts["nodes"]
            else:
                add(f"{base}.nodes", s.counts["nodes"])
        elif s.name == "norms.point_integral":
            add("norms.point_integral.calls", 1)
            add("norms.point_integral.self_s", own[s.id])
            add("norms.nodes", s.counts["nodes"])
            add(f"norms.method.{s.attrs['method']}", 1)
            keyed.append((s.attrs["key"], s.attrs["p"]))
        elif s.name == "norms.classify":
            add("norms.classify.calls", 1)
            add("norms.classify.self_s", own[s.id])
        elif s.name == "norms.membership_verdict":
            if _has_ancestor(s, "experiments.bisect_critical_exponent", by_id):
                add("experiments.bisect.verdicts", 1)
        elif s.name == "norms.intersection_metric":
            if _has_ancestor(s, "experiments.density_demo", by_id):
                add("experiments.density_demo.metric_calls", 1)
        elif s.name == "cli.run":
            add(f"cli.command_s.{s.attrs['command']}", s.duration)

    proposals = m["geometry.level_set_sampler.thin-shell.proposals"]
    m["geometry.level_set_sampler.thin-shell.accept_frac"] = \
        shell_nodes / proposals if proposals else 0.0
    m["norms.repeat_point_frac"] = repeat_fraction(keyed)
    m["quadrature.zonal_cache.misses"] = float(zonal_misses)
    m["other.self_s"] = wall_s - sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.spans"] = float(len(spans))
    m["trace.wall_s"] = wall_s
    return m

