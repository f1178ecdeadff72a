"""In-memory span tracer for the traced benchmark run.

Spans are recorded only from the benchmark's own files: the benchmark
opens spans around its calls into each layer, and :func:`instrument`
wraps the program's public entry points *where their callers look
them up* (module attributes and class methods), restoring every
original on exit.  Nothing in ``src/`` knows it is being traced.

The load is one client with one compile worker, so at most one thread
runs program code at a time and every span nests on one stack; a span
opened by the session's worker thread gets the main thread's open span
as its parent.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List


class Tracer:
    """Records spans (name, start, end, parent) and counters in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields its index."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def rename(self, index: int, name: str) -> None:
        """Rename a span once its outcome is known (e.g. the tier)."""
        self.spans[index][0] = name

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``name``."""
        self.counts[name] += value

    def self_times(self) -> Dict[str, float]:
        """Return summed self time per span name (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome trace-event JSON (``ph: X``)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = []
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"id": index, "parent": parent},
                }
            )
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


class NullTracer:
    """The untraced run's tracer: every span is a no-op context."""

    def span(self, name: str):
        """Return a context that records nothing."""
        return nullcontext(-1)


def _patch(undo: List[Callable[[], None]], owner, attr: str, wrapper_factory):
    """Replace ``owner.attr`` with a wrapper; remember how to restore it."""
    original = vars(owner)[attr]
    setattr(owner, attr, wrapper_factory(original))
    undo.append(lambda: setattr(owner, attr, original))


def _spanned(tracer: Tracer, name: str):
    """Return a factory wrapping a function in one fixed-name span."""

    def factory(original):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return factory


def _all_subclasses(cls) -> List[type]:
    """Return every (transitive) subclass of ``cls``."""
    found, frontier = [], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                frontier.append(sub)
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's layer entry points in spans while active.

    Layers and the spans they produce (``<module>.<what>``):

    * ``compiler.frontend`` — ``repro.compiler.session.detect_workload``;
    * ``compiler.facade`` — ``repro.compiler.session.compile`` as the
      session's sweep jobs look it up (direct calls are spanned by the
      benchmark at its call sites);
    * ``pipeline.run`` — ``Pipeline.run`` (self time: runner overhead);
    * ``pipeline.<pass name>`` — ``run`` of every ``Pass`` subclass,
      plus the counters ``pipeline.rptm_gates_out`` and
      ``pipeline.tpar_t_count_out``;
    * ``pipeline.cache_get`` / ``pipeline.cache_put`` — ``PassCache``
      lookups and stores, counting lookups and useful hits;
    * ``verify.<tier>`` — ``Pass.check`` (and overrides), named after
      the tier of the returned verdict, counting checks and skips;
    * ``simulator.fuse`` — ``kernels.compile_circuit`` (gates in, ops
      out), ``simulator.apply`` — ``kernels.apply_ops`` (amplitudes
      swept), ``simulator.sample`` — ``StatevectorSimulator.run``
      (self time: everything in a statevector run but fuse/apply);
    * ``engines.density_matrix`` / ``engines.monte_carlo`` — the two
      noisy engines' ``run``.
    """
    from repro.compiler import session
    from repro.engines.density_matrix import DensityMatrixEngine
    from repro.engines.monte_carlo import MonteCarloEngine
    from repro.pipeline.cache import PassCache
    from repro.pipeline.passes import Pass
    from repro.pipeline.runner import Pipeline
    from repro.simulator import kernels
    from repro.simulator.statevector import StatevectorSimulator

    undo: List[Callable[[], None]] = []
    _patch(undo, session, "detect_workload", _spanned(tracer, "compiler.frontend"))
    _patch(undo, session, "compile", _spanned(tracer, "compiler.facade"))
    _patch(undo, Pipeline, "run", _spanned(tracer, "pipeline.run"))
    _patch(undo, StatevectorSimulator, "run", _spanned(tracer, "simulator.sample"))
    _patch(undo, DensityMatrixEngine, "run", _spanned(tracer, "engines.density_matrix"))
    _patch(undo, MonteCarloEngine, "run", _spanned(tracer, "engines.monte_carlo"))

    def pass_run(original):
        def run(self, state):
            with tracer.span(f"pipeline.{self.name}"):
                out = original(self, state)
            if out.quantum is not None and self.name == "rptm":
                tracer.count("pipeline.rptm_gates_out", len(out.quantum.gates))
            if out.quantum is not None and self.name == "tpar":
                tracer.count("pipeline.tpar_t_count_out", out.quantum.t_count())
            return out

        return run

    def pass_check(original):
        def check(self, checker, before, after):
            with tracer.span("verify") as index:
                verdict = original(self, checker, before, after)
            tracer.rename(index, f"verify.{verdict.tier}")
            tracer.count("verify.checks")
            if verdict.skipped:
                tracer.count("verify.skipped")
            return verdict

        return check

    for cls in [Pass] + _all_subclasses(Pass):
        if "run" in cls.__dict__:
            _patch(undo, cls, "run", pass_run)
        if "check" in cls.__dict__:
            _patch(undo, cls, "check", pass_check)

    def cache_get(original):
        def get(self, key, *args, **kwargs):
            with tracer.span("pipeline.cache_get"):
                entry = original(self, key, *args, **kwargs)
            tracer.count("pipeline.cache_lookups")
            if entry is not None:
                tracer.count("pipeline.cache_hits")
            return entry

        return get

    def compile_circuit(original):
        def fuse(gates, *args, **kwargs):
            gates = list(gates)
            with tracer.span("simulator.fuse"):
                ops = original(gates, *args, **kwargs)
            tracer.count("simulator.fuse_gates_in", len(gates))
            tracer.count("simulator.fuse_ops_out", len(ops))
            return ops

        return fuse

    def apply_ops(original):
        def apply(state, ops, *args, **kwargs):
            with tracer.span("simulator.apply"):
                original(state, ops, *args, **kwargs)
            tracer.count("simulator.amplitudes_swept", len(ops) * state.size)

        return apply

    _patch(undo, PassCache, "get", cache_get)
    _patch(undo, PassCache, "put", _spanned(tracer, "pipeline.cache_put"))
    _patch(undo, kernels, "compile_circuit", compile_circuit)
    _patch(undo, kernels, "apply_ops", apply_ops)
    try:
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Return per-pass self times and counters under metric names.

    Self times become ``<span>_s``; the derived ratios
    ``pipeline.cache_hit_rate`` (useful hits / lookups) and
    ``simulator.fuse_ops_per_gate`` (fused ops / gates in) are computed
    from the counters.  Everything is divided by ``passes`` so values
    are per pass over the corpus.
    """
    out: Dict[str, float] = {}
    for name, seconds in tracer.self_times().items():
        out[f"{name}_s"] = seconds / passes
    counts = tracer.counts
    for name, value in counts.items():
        out[name] = value / passes
    lookups = counts.get("pipeline.cache_lookups", 0)
    out["pipeline.cache_hit_rate"] = (
        counts.get("pipeline.cache_hits", 0) / lookups if lookups else 0.0
    )
    gates_in = counts.get("simulator.fuse_gates_in", 0)
    out["simulator.fuse_ops_per_gate"] = (
        counts.get("simulator.fuse_ops_out", 0) / gates_in if gates_in else 0.0
    )
    return out
