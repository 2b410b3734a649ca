"""Span tracing of lscert from outside the library.

The tracer replaces public functions where each lscert module looks them up
(for example `lscert.ls_bounds.ball_points`, not `lscert.sampling.ball_points`,
because ls_bounds imported the name) with wrappers that time each call. Nothing
in the library changes. Two kinds of wrapper:

* spans, for coarse layer boundaries: name, start, end, parent and optional
  attributes, kept in memory and written out when the run ends;
* counters, for per-point calls (Jacobians, norms, dual evaluation, g): a call
  count and the summed call time per thread, because one span per lattice point
  would hold over a million records per op.

A target that no longer exists is skipped and named in `missing`, and the
metrics that depend only on it are dropped.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute, span name); config.build and imft.M give no metric of
# their own but keep their time out of cli.self_s
SPAN_TARGETS = (
    ("lscert.cli", "load_config", "config.load"),
    ("lscert.cli", "build_system", "config.build"),
    ("lscert.ls_bounds", "compute_decomposition", "subspace.decomp"),
    ("lscert.ls_bounds", "compute_ls_M", "ls_bounds.M"),
    ("lscert.imft", "compute_M", "imft.M"),
    ("lscert.ls_bounds", "ball_points", "sampling.ball_points"),
    ("lscert.imft", "ball_points", "sampling.ball_points"),
    ("lscert.ls_bounds", "max_over", "sampling.max_over"),
    ("lscert.imft", "max_over", "sampling.max_over"),
    ("lscert.reduction", "series_coefficients", "reduction.series"),
    ("lscert.reduction", "trace_branches", "reduction.trace"),
    ("lscert.cli", "_emit_report", "report.write"),
    ("lscert.cli", "_write_text", "report.write"),
)

# (module, attribute, counter name)
COUNTER_TARGETS = (
    ("lscert.system", "ParametricSystem.dphi_dx", "system.jac"),
    ("lscert.expr", "eval_dual", "expr.eval_dual"),
    ("lscert.ls_bounds", "induced_norm", "norms.induced_norm"),
    ("lscert.imft", "induced_norm", "norms.induced_norm"),
    ("lscert.reduction", "ReducedMap.g", "reduction.g"),
    ("lscert.reduction", "solve_phi", "reduction.solve_phi"),
    ("lscert.ls_bounds", "SplitSystem.evaluator", "reduction.resid"),
)

# functions returning a quantities bundle whose L evaluators become spans:
# (module, attribute, {field: span name})
QUANTITY_TARGETS = (
    ("lscert.ls_bounds", "ls_quantities", {"L_par": "ls_bounds.L_par", "L_perp": "ls_bounds.L_perp"}),
    ("lscert.cli", "imft_quantities", {"L_x": "imft.L_x", "L_y": "imft.L_y"}),
)

ROOT = "cli"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _resolve(module: str, attr: str):
    """(owner, name, current value) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.installed: set[str] = set()  # span and counter names with a live target
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: dict[int, dict[str, list]] = {}
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call_in_span(self, name: str, fn, *args, attrs_of=None, **kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
        attrs = None
        if attrs_of is not None:
            try:
                attrs = attrs_of(result)
            except (TypeError, ValueError):
                pass
        self.spans.append(Span(sid, name, start, end, parent, attrs))
        return result

    def _counter(self, name: str) -> list:
        tid = threading.get_ident()
        table = self._counters.get(tid)
        if table is None:
            with self._lock:
                table = self._counters.setdefault(tid, {})
        slot = table.get(name)
        if slot is None:
            slot = table[name] = [0, 0.0]
        return slot

    def counters(self) -> dict[str, tuple[int, float]]:
        total: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for table in self._counters.values():
            for name, (calls, seconds) in table.items():
                total[name][0] += calls
                total[name][1] += seconds
        return {k: (v[0], v[1]) for k, v in total.items()}

    # --- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            return self.call_in_span(name, fn, *args, attrs_of=attrs_of, **kwargs)
        return wrapped

    def _counter_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self._counter(name)
                slot[0] += 1
                slot[1] += perf_counter() - start
        return wrapped

    def _quantities_wrapper(self, target: str, fields: dict, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            bundle = fn(*args, **kwargs)
            try:
                return dataclasses.replace(bundle, **{
                    field: self._span_wrapper(span, getattr(bundle, field))
                    for field, span in fields.items()})
            except (TypeError, AttributeError):
                note = f"{target} (result has no fields {', '.join(fields)})"
                if note not in self.missing:
                    self.missing.append(note)
                self.installed.difference_update(fields.values())
                return bundle
        return wrapped

    def _patch(self, module: str, attr: str, make) -> bool:
        found = _resolve(module, attr)
        if found is None:
            self.missing.append(f"{module}.{attr}")
            return False
        owner, name, value = found
        self._undo.append((owner, name, vars(owner).get(name, value)))
        setattr(owner, name, make(value))
        return True

    def install(self) -> None:
        for module, attr, name in SPAN_TARGETS:
            attrs_of = _ball_attrs if name == "sampling.ball_points" else None
            if self._patch(module, attr, lambda fn, n=name, a=attrs_of: self._span_wrapper(n, fn, a)):
                self.installed.add(name)
        for module, attr, name in COUNTER_TARGETS:
            if self._patch(module, attr, lambda fn, n=name: self._counter_wrapper(n, fn)):
                self.installed.add(name)
        for module, attr, fields in QUANTITY_TARGETS:
            target = f"{module}.{attr}"
            if self._patch(module, attr, lambda fn, t=target, f=fields: self._quantities_wrapper(t, f, fn)):
                self.installed.update(fields.values())

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def dump(self) -> dict:
        return {
            "spans": [dataclasses.astuple(s) for s in self.spans],
            "counters": self.counters(),
            "missing": self.missing,
        }


def _ball_attrs(points) -> dict:
    # distinct points, computed in the traced run only
    pts = np.asarray(points)
    return {"n": int(pts.shape[0]), "unique": int(np.unique(pts, axis=0).shape[0])}


# --- metrics -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class _Index:
    def __init__(self, spans: list[Span]):
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int | None, list[Span]] = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def descendants(self, span: Span):
        todo = list(self.children[span.id])
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children[s.id])

    def outermost(self, name: str) -> list[Span]:
        """Spans of a name that are not nested in a span of the same name."""
        out = []
        for s in self.by_id.values():
            if s.name != name:
                continue
            p = s.parent
            while p is not None and self.by_id[p].name != name:
                p = self.by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.outermost(name))


def _lattice_work(index: _Index, l_spans: list[Span]):
    """(calls, sampled calls, evaluated points, distinct points, seconds)."""
    sampled = evaluated = distinct = 0
    for s in l_spans:
        balls = [d.attrs for d in index.descendants(s)
                 if d.name == "sampling.ball_points" and d.attrs is not None]
        if not balls:
            continue  # served from the cache
        sampled += 1
        evaluated += int(np.prod([b["n"] for b in balls]))
        distinct += int(np.prod([b["unique"] for b in balls]))
    return len(l_spans), sampled, evaluated, distinct, sum(s.seconds for s in l_spans)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics per traced op. Keys depend on which targets exist."""
    index = _Index(tracer.spans)
    have = tracer.installed
    counters = tracer.counters()
    per_op = 1.0 / n_ops
    out: dict[str, float] = {}

    def span_s(name: str) -> None:
        if name in have:
            out[name + "_s"] = index.total(name) * per_op

    def counter(name: str) -> None:
        if name in have:
            calls, seconds = counters.get(name, (0, 0.0))
            out[name + "_calls"] = calls * per_op
            out[name + "_us"] = _ratio(seconds, calls) * 1e6

    engines = {}
    for prefix, names in (("ls_bounds", ("ls_bounds.L_par", "ls_bounds.L_perp")),
                          ("imft", ("imft.L_x", "imft.L_y"))):
        if all(n in have for n in names):
            spans = [s for n in names for s in index.outermost(n)]
            engines[prefix] = _lattice_work(index, spans)
            for n in names:
                span_s(n)

    if "sampling.ball_points" in have and engines:
        evaluated = sum(e[2] for e in engines.values())
        out["sampling.points"] = evaluated * per_op
        out["sampling.unique_ratio"] = _ratio(sum(e[3] for e in engines.values()), evaluated)
        for prefix, (calls, sampled, ev, _, seconds) in engines.items():
            out[f"{prefix}.pairs_per_s"] = _ratio(ev, seconds)
            out[f"{prefix}.cache_hit_ratio"] = _ratio(calls - sampled, calls)
    span_s("sampling.ball_points")
    span_s("sampling.max_over")
    span_s("ls_bounds.M")

    counter("system.jac")
    counter("expr.eval_dual")
    if "expr.eval_dual" in have and "sampling.points" in out:
        calls = counters.get("expr.eval_dual", (0, 0.0))[0]
        out["expr.eval_dual_per_point"] = _ratio(calls * per_op, out["sampling.points"])
    counter("norms.induced_norm")

    span_s("subspace.decomp")
    span_s("config.load")

    counter("reduction.g")
    if "reduction.solve_phi" in have:
        solves = counters.get("reduction.solve_phi", (0, 0.0))[0]
        out["reduction.solve_phi_calls"] = solves * per_op
        if "reduction.resid" in have:
            resid = counters.get("reduction.resid", (0, 0.0))[0]
            out["reduction.resid_evals_per_solve"] = _ratio(resid, solves)
    span_s("reduction.series")
    span_s("reduction.trace")

    span_s("report.write")
    roots = [s for s in tracer.spans if s.name == ROOT and s.parent is None]
    self_s = sum(r.seconds - _covered([(c.start, c.end) for c in index.children[r.id]])
                 for r in roots)
    out["cli.self_s"] = self_s * per_op
    return out
