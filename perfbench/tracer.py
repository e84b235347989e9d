"""Outside-in tracing of patcol: spans around calls into each module's public functions.

Nothing inside patcol changes.  ``Tracer.install`` replaces every public
module-level function of the traced modules by a wrapper, at every module
binding that refers to it (``analysis.sigma_spectrum`` as well as
``sigma_engine.sigma_spectrum``), so calls between modules and within a
module are both seen.  Spans stay in memory, each with its parent's id, and
are written out once at the end.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("partitions", "hypergraph", "colouring", "sigma_engine", "clique", "analysis", "catalog", "cli")

# Helpers run once per edge inside is_valid and the constructors; wrapping
# them would multiply the cost of their callers, so their time stays there.
UNWRAPPED = {"partitions.as_partition", "colouring.pat"}

DECISIONS = {"colouring.exists_k_colouring", "sigma_engine.sigma_exists_k"}
BUILDERS = {"make_hypergraph", "build_complete", "build_sigma_explicit", "build_grid", "build_ramsey"}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "busy", "outcome", "overshoot", "count", "probe_open", "probe_close")

    def __init__(self, span_id: int, parent: int | None, layer: str, name: str, probe_mark: int):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = time.perf_counter()
        self.busy = 0.0  # seconds spent inside the call (a generator's suspensions excluded)
        self.outcome = "ok"  # ok | feasible | infeasible | unknown | raised
        self.overshoot = 0.0  # seconds past the deadline, for unknown outcomes
        self.count = 0  # edges built, items yielded or catalogue bytes scanned
        self.probe_open = self.probe_close = probe_mark  # speed-probe samples taken so far

    def to_json_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self, probe=None) -> None:
        """Time the speed probe (``speed.Probe``) spends is left out of every span."""
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.active = True
        self.excluded = (lambda: probe.spent) if probe else (lambda: 0.0)
        self.probe_mark = (lambda: len(probe.samples)) if probe else (lambda: 0)

    def _elapsed(self, started: float, excluded: float) -> float:
        return time.perf_counter() - started - (self.excluded() - excluded)

    def _open(self, layer: str, name: str) -> Span:
        span = Span(len(self.spans), self.stack[-1].id if self.stack else None, layer, name, self.probe_mark())
        self.spans.append(span)
        return span

    def install(self, package: str = "patcol") -> None:
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or f"{layer}.{attr}" in UNWRAPPED
                ):
                    continue
                wrappers[fn] = self._wrap(layer, attr, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        qualified = f"{layer}.{name}"
        takes_deadline = "deadline" in signature.parameters

        def finish(span: Span, result, exc: BaseException | None, args, kwargs) -> None:
            span.probe_close = self.probe_mark()
            if exc is not None:
                unknown = type(exc).__name__ == "BudgetExceeded"
                span.outcome = "unknown" if unknown else "raised"
                if unknown and takes_deadline:
                    deadline = signature.bind_partial(*args, **kwargs).arguments.get("deadline")
                    if deadline is not None and deadline.expires_at is not None:
                        span.overshoot = max(0.0, time.monotonic() - deadline.expires_at)
            elif qualified in DECISIONS:
                span.outcome = "infeasible" if result is None else "feasible"
            elif name in BUILDERS:
                span.count = len(result.edges)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                span = self._open(layer, name)
                it = fn(*args, **kwargs)
                exc = None
                try:
                    while True:
                        self.stack.append(span)
                        resumed, excluded = time.perf_counter(), self.excluded()
                        try:
                            item = next(it)
                        except StopIteration:
                            break
                        except BaseException as raised:
                            exc = raised
                            raise
                        finally:
                            span.busy += self._elapsed(resumed, excluded)
                            self.stack.pop()
                        span.count += 1
                        yield item
                finally:
                    it.close()
                    finish(span, None, exc, args, kwargs)

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(layer, name)
            if qualified == "catalog.catalog_append":
                path = signature.bind_partial(*args, **kwargs).arguments["path"]
                span.count = os.path.getsize(path) if os.path.exists(path) else 0
            self.stack.append(span)
            started, excluded = time.perf_counter(), self.excluded()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.busy = self._elapsed(started, excluded)
                self.stack.pop()
                finish(span, None, exc, args, kwargs)
                raise
            span.busy = self._elapsed(started, excluded)
            self.stack.pop()
            finish(span, result, None, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        write_spans(path, [span.to_json_dict() for span in self.spans])


def write_spans(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def rescale(spans: list[dict], factor) -> None:
    """Scale each span's busy time by ``factor(span)`` to the reference machine speed.

    Time inside budget-bound ("unknown") spans runs on the wall clock and is
    not scaled, also where it sits inside an outer span.  Spans must be in
    opening order, so children follow their parents.
    """
    fixed: dict[int, float] = {}
    for s in reversed(spans):
        inside = s["busy"] if s["outcome"] == "unknown" else fixed.get(s["id"], 0.0)
        if s["parent"] is not None:
            fixed[s["parent"]] = fixed.get(s["parent"], 0.0) + inside
        s["busy"] = (s["busy"] - inside) * factor(s) + inside


def read_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


PER_LAYER = (
    ("sigma_engine.decisions", "count"),
    ("sigma_engine.feasible_s", "s"),
    ("sigma_engine.infeasible_s", "s"),
    ("sigma_engine.unknown_s", "s"),
    ("sigma_engine.overshoot_s", "s"),
    ("sigma_engine.enumerate_s", "s"),
    ("sigma_engine.enumerated", "count"),
    ("sigma_engine.self_s", "s"),
    ("analysis.calls", "count"),
    ("analysis.self_s", "s"),
    ("analysis.decisions_per_call", "ratio"),
    ("colouring.decisions", "count"),
    ("colouring.feasible_s", "s"),
    ("colouring.infeasible_s", "s"),
    ("colouring.unknown_s", "s"),
    ("colouring.overshoot_s", "s"),
    ("colouring.validate_s", "s"),
    ("colouring.self_s", "s"),
    ("hypergraph.build_s", "s"),
    ("hypergraph.edges_built", "count"),
    ("hypergraph.io_s", "s"),
    ("partitions.calls", "count"),
    ("partitions.self_s", "s"),
    ("clique.calls", "count"),
    ("clique.self_s", "s"),
    ("catalog.appends", "count"),
    ("catalog.append_s", "s"),
    ("catalog.bytes_scanned", "bytes"),
    ("cli.startup_s", "s"),
    ("cli.main_s", "s"),
    ("trace.spans", "count"),
)


def layer_metrics(spans: list[dict], process_s: float = 0.0) -> dict[str, float]:
    """Per-layer totals over one repetition's spans.

    A span's self time is its busy time minus that of its child spans.
    ``process_s`` is the summed wall time of CLI processes, when the spans
    come from them; startup is that minus the time spent inside ``main``.
    """
    by_id = {s["id"]: s for s in spans}
    child_busy: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_busy[s["parent"]] = child_busy.get(s["parent"], 0.0) + s["busy"]

    def under(s: dict, layer: str) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["layer"] == layer:
                return True
            parent = by_id[parent]["parent"]
        return False

    m = {name: 0.0 for name, _ in PER_LAYER}
    analysis_decisions = 0
    for s in spans:
        layer, name, busy = s["layer"], s["name"], s["busy"]
        qualified = f"{layer}.{name}"
        if f"{layer}.self_s" in m:
            m[f"{layer}.self_s"] += busy - child_busy.get(s["id"], 0.0)
        if layer in ("partitions", "clique", "analysis"):
            m[f"{layer}.calls"] += 1
        if qualified in DECISIONS:
            m[f"{layer}.decisions"] += 1
            if f"{layer}.{s['outcome']}_s" in m:
                m[f"{layer}.{s['outcome']}_s"] += busy
            m[f"{layer}.overshoot_s"] += s["overshoot"]
            analysis_decisions += under(s, "analysis")
        elif qualified == "sigma_engine.enumerate_valid_distributions":
            m["sigma_engine.enumerate_s"] += busy
            m["sigma_engine.enumerated"] += s["count"]
            m["sigma_engine.overshoot_s"] += s["overshoot"]
        elif qualified in ("colouring.is_valid", "colouring.is_valid_L"):
            m["colouring.validate_s"] += busy
        elif layer == "hypergraph" and name in BUILDERS and not under(s, "hypergraph"):
            m["hypergraph.build_s"] += busy
            m["hypergraph.edges_built"] += s["count"]
        elif qualified in ("hypergraph.read_hypergraph", "hypergraph.write_hypergraph"):
            m["hypergraph.io_s"] += busy
        elif qualified == "catalog.catalog_append":
            m["catalog.appends"] += 1
            m["catalog.append_s"] += busy
            m["catalog.bytes_scanned"] += s["count"]
        elif qualified == "cli.main":
            m["cli.main_s"] += busy
    if m["analysis.calls"]:
        m["analysis.decisions_per_call"] = analysis_decisions / m["analysis.calls"]
    if process_s:
        m["cli.startup_s"] = process_s - m["cli.main_s"]
    m["trace.spans"] = len(spans)
    return m
