"""Span tracing of gonalift from outside the package.

``Tracer`` wraps the public functions and public methods of the traced
``gonalift`` modules, rebinding each wrapper in every module namespace
that binds the original (``verify.sample_curve_points`` is the same
object as ``pointsearch.sample_curve_points``), and restores every
original on exit.  ``ff`` is not wrapped: its element arithmetic runs
millions of times per curve and is measured by the kernels in
``kernels.py`` instead, so field arithmetic counts toward the self time
of the layer that called it.

A call records a span (name, start, end, parent, input id) when it
crosses from one layer into another, or when its name is in ``TIMED``.
Calls inside one layer are only counted; their time stays in the
enclosing span of the same layer, so per-layer self time (a span's
duration minus the durations of its child spans) is exact either way.
"""

from __future__ import annotations

import collections
import functools
import gzip
import inspect
import time

#: functions whose inclusive time is a metric even when called from
#: inside their own layer
TIMED = frozenset({
    "upoly.roots", "mpoly.resultant", "pointsearch.points_on_variety",
    "pointsearch.sample_curve_points", "verify.plane_curve_is_smooth",
    "verify.replay_mod_p", "verify.check_nondegenerate",
    "verify.sample_birational", "lift3.classify_gonality3",
    "lift3.lift_genus3", "ok.OkRing.for_field",
})

#: pointsearch entry points that return found points
POINT_FUNCS = frozenset({
    "pointsearch.points_on_variety", "pointsearch.points_on_plane_curve",
    "pointsearch.find_point_on_plane_curve", "pointsearch.sample_curve_points",
})


def _targets(modules):
    """(qualified name, owner, attribute, original) for every traced callable."""
    out = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out.append((f"{layer}.{name}", None, name, obj))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or \
                            inspect.isfunction(raw):
                        out.append((f"{layer}.{obj.__name__}.{attr}", obj, attr, raw))
    return out


class Tracer:
    """Context manager: install the wrappers on entry, restore on exit.

    Spans and counters accumulate across entries, so one tracer can
    cover many inputs; ``input_id`` tags the spans of the current one.
    """

    def __init__(self, modules):
        self.modules = dict(modules)
        self._ids = {}           # qualified name -> name id
        self.names = []          # name id -> qualified name
        self.layer_of = []       # name id -> layer
        self.spans = []          # [name id, start, end, parent, input id]
        self._counts = {}        # qualified name -> [calls]
        self.inclusive = collections.Counter()   # TIMED name -> seconds
        self.points_found = 0
        self.sampled = 0
        self.defined = 0
        self.fallbacks = 0
        self.input_id = -1
        self._stack = []         # open span indices
        self._layers = []        # layer of each open span
        self._saved = []
        self._wrapped = self._build()

    @property
    def calls(self):
        return collections.Counter({q: c[0] for q, c in self._counts.items()})

    def _name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _build(self):
        wrapped = []
        for qual, owner, attr, raw in _targets(self.modules):
            layer = qual.split(".", 1)[0]
            nid = self._name_id(qual, layer)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, qual, layer, nid))
            else:
                wrapper = self._wrap(raw, qual, layer, nid)
            wrapped.append((owner, attr, raw, wrapper))
        return wrapped

    def _wrap(self, fn, qual, layer, nid):
        tracer = self
        timed = qual in TIMED
        count = self._counts[qual] = [0]
        depth = [0]              # open calls of this function
        spans = self.spans
        stack = self._stack
        layers = self._layers
        clock = time.perf_counter
        observe = _OBSERVERS.get(qual)
        on_boundary = qual in POINT_FUNCS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[0] += 1
            caller = layers[-1] if layers else None
            if caller == layer and not timed:
                return fn(*args, **kwargs)
            span = [nid, clock(), 0.0, stack[-1] if stack else -1, tracer.input_id]
            stack.append(len(spans))
            layers.append(layer)
            spans.append(span)
            outermost = not depth[0]
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                layers.pop()
                depth[0] -= 1
                if timed and outermost:
                    tracer.inclusive[qual] += span[2] - span[1]
            if observe is not None and (caller != layer if on_boundary else outermost):
                observe(tracer, result)
            return result

        return wrapper

    def __enter__(self):
        mods = list(self.modules.values())
        for owner, attr, raw, wrapper in self._wrapped:
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._saved.append((owner, attr, raw))
                continue
            for mod in mods:
                if vars(mod).get(attr) is raw:
                    setattr(mod, attr, wrapper)
                    self._saved.append((mod, attr, raw))
        return self

    def __exit__(self, *exc):
        for target, attr, raw in reversed(self._saved):
            setattr(target, attr, raw)
        self._saved.clear()
        self._stack.clear()
        self._layers.clear()
        return False

    def span(self, name, layer):
        """A span opened by the benchmark itself around a call into ``layer``."""
        return _ManualSpan(self, self._name_id(name, layer))

    # -- analysis

    def self_times(self):
        """Layer -> seconds not covered by a child span."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _inp in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.Counter()
        for i, (nid, start, end, _parent, _inp) in enumerate(self.spans):
            out[self.layer_of[nid]] += end - start - child[i]
        return out

    def calls_from(self, name, caller_layer):
        """Spans of ``name`` whose parent span belongs to ``caller_layer``."""
        want = self._ids.get(name)
        spans = self.spans
        return sum(1 for nid, _s, _e, parent, _inp in spans
                   if nid == want and parent >= 0
                   and self.layer_of[spans[parent][0]] == caller_layer)

    def top_level_time(self):
        return sum(end - start for _nid, start, end, parent, _inp in self.spans
                   if parent < 0)

    def write(self, path):
        """Gzipped, one span per line: name, start, end, parent index, input id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\tinput\n")
            for nid, start, end, parent, inp in self.spans:
                fh.write(f"{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\t{inp}\n")


class _ManualSpan:
    def __init__(self, tracer, nid):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append([self.nid, time.perf_counter(), 0.0,
                        t._stack[-1] if t._stack else -1, t.input_id])
        t._stack.append(self.idx)
        t._layers.append(t.layer_of[self.nid])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx][2] = time.perf_counter()
        t._stack.pop()
        t._layers.pop()
        return False


def _points_observer(tracer, result):
    if isinstance(result, list):
        tracer.points_found += len(result)
    elif result is not None:
        tracer.points_found += 1


def _sampling_observer(tracer, result):
    tracer.sampled += result.get("sampled", 0)
    tracer.defined += result.get("defined", 0)


def _fallback_observer(tracer, report):
    if any("fell back" in n or "default route" in n for n in report.notes):
        tracer.fallbacks += 1


#: what the tracer reads off a call's result: points returned by a
#: pointsearch entry point called from another layer, samples of the
#: outermost sample_birational, fallbacks of the outermost lift
_OBSERVERS = dict.fromkeys(POINT_FUNCS, _points_observer)
_OBSERVERS["verify.sample_birational"] = _sampling_observer
_OBSERVERS["lift3.lift_genus3"] = _fallback_observer


def per_layer_metrics(tracer, inputs, untraced_s, traced_s):
    """The traced run's metrics, per input: name -> (value, unit).

    ``untraced_s`` and ``traced_s`` are the seconds the same inputs took
    without and with tracing, on the clock the spans use.
    """
    n = max(inputs, 1)
    calls = tracer.calls
    incl = tracer.inclusive
    selfs = tracer.self_times()
    self_sum = sum(selfs.values())
    roots = calls["upoly.roots"]
    lifts = calls["lift3.lift_genus3"]
    out = {f"{layer}.self_s": (selfs[layer] / n, "s/input") for layer in tracer.modules}

    def per_input(name, value, unit):
        out[name] = (value / n, unit)

    for name in ("upoly.roots", "upoly.pow_mod", "mpoly.resultant",
                 "mpoly.substitute", "linalg.det", "linalg.inverse",
                 "pointsearch.points_on_variety", "pointsearch.tangent_contact",
                 "verify.forward_point", "polygon.newton_polygon"):
        per_input(f"{name}.calls", calls[name], "count/input")
    for name in sorted(TIMED):
        metric = "ok.for_field.s" if name == "ok.OkRing.for_field" else f"{name}.s"
        per_input(metric, incl[name], "s/input")
    out["upoly.pow_mod_per_roots"] = (calls["upoly.pow_mod"] / roots if roots else 0.0,
                                      "ratio")
    points = tracer.points_found
    out["pointsearch.roots_per_point"] = (
        tracer.calls_from("upoly.roots", "pointsearch") / points if points else 0.0,
        "ratio")
    out["verify.sample_birational.defined_ratio"] = (
        tracer.defined / tracer.sampled if tracer.sampled else 0.0, "ratio")
    out["lift3.points_tried"] = (
        calls["pointsearch.tangent_contact"] / lifts if lifts else 0.0, "count/lift")
    out["lift3.fallback_ratio"] = (tracer.fallbacks / lifts if lifts else 0.0, "ratio")
    out["trace.overhead"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, "ratio")
    per_input("trace.wall_s", traced_s, "s/input")
    per_input("trace.self_sum_s", self_sum, "s/input")
    per_input("trace.uncovered_s", traced_s - self_sum, "s/input")
    per_input("trace.spans", len(tracer.spans), "count/input")
    return out
