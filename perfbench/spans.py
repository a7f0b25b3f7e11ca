"""Span tracer that wraps mainspec's layer boundaries from the outside.

Each wrapped call records a span (name, start, end, parent).  With about
1.5 M wrapped calls in one ``verify all --exhaustive 6`` run, keeping every
span would cost more memory than the run itself, so spans are aggregated by
layer as they close: call count and self time (the span's
duration minus that of its child spans).  The parent link is the tracer's
stack of open spans.

Names are wrapped where callers look them up: module attributes for
``module.func`` lookups, each importer's own binding for ``from ... import``
names, the entries of the shared checker dicts, and the ``Graph`` class
attributes.  ``Tracer.remove`` puts every original object back.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from mainspec import analysis, cli, exact, graph6, spectra, sweeps, theorems
from mainspec.graphs import Graph

# (owner, attribute, layer).  Every layer's self time becomes "<layer>_s".
_ATTRIBUTE_SITES: tuple[tuple[Any, str, str], ...] = (
    (spectra, "eigen_decompose_batch", "spectra.batch"),
    (spectra, "eigen_decompose", "spectra.scalar"),
    (spectra, "build_groups", "spectra.grouping"),
    (spectra, "group_eigenvalues", "spectra.grouping"),
    (spectra, "classify_flags", "spectra.classify"),
    (spectra, "resolve_with_rank", "spectra.classify"),
    (analysis, "resolve_spectrum", "spectra.classify"),
    (sweeps, "resolve_spectrum", "spectra.classify"),
    (Graph, "from_edge_mask", "graphs.build"),
    (Graph, "complement", "graphs.build"),
    (exact, "walk_matrix", "exact.walk"),
    (exact, "exact_rank", "exact.rank"),
    (exact, "harmonic_ell", "exact.harmonic"),
    (analysis, "analyze_graph", "analysis.analyze"),
    (theorems, "analyze_graph", "analysis.analyze"),
    (cli, "analyze_graph", "analysis.analyze"),
    (sweeps, "all_masks", "sweeps.masks"),
    (sweeps, "sample_masks", "sweeps.masks"),
    (sweeps, "adjacency_stack", "sweeps.stack"),
    (sweeps, "sweep", "sweeps.loop"),
    (graph6, "serialize_graph6", "graph6.io"),
    (graph6, "parse_graph6", "graph6.io"),
    (theorems, "serialize_graph6", "graph6.io"),
    (cli, "serialize_graph6", "graph6.io"),
    (cli, "parse_graph6", "graph6.io"),
    (theorems, "check_double_star_profile", "theorems.check"),
    (theorems, "check_complement_second_eigenvalue", "theorems.check"),
    (cli, "check_double_star_profile", "theorems.check"),
    (cli, "check_complement_second_eigenvalue", "theorems.check"),
)
_CHECKER_DICTS = (theorems.GRAPH_CHECKERS, theorems.PATH_CHECKERS)
LAYERS = tuple(dict.fromkeys(layer for _, _, layer in _ATTRIBUTE_SITES))


def binding_snapshot() -> list[Any]:
    """Every object the tracer may replace, in a fixed order (for tests)."""
    objs = [owner.__dict__[attr] for owner, attr, _ in _ATTRIBUTE_SITES]
    for table in _CHECKER_DICTS:
        objs += [table[k] for k in sorted(table)]
    return objs


@dataclass
class LayerTotals:
    calls: int = 0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Aggregated spans plus the counters measured at the same boundaries."""

    layers: dict[str, LayerTotals] = field(
        default_factory=lambda: {name: LayerTotals() for name in LAYERS})
    spans: int = 0
    batch_graphs: int = 0
    sweep_batch_graphs: int = 0
    sweep_pairs: int = 0
    analyses: int = 0
    fallbacks: int = 0
    disagreements: int = 0
    analyze_calls: int = 0
    analyze_repeats: int = 0
    _seen: set = field(default_factory=set)
    # Open spans, innermost last: [layer, start, child seconds].
    _stack: list[list[Any]] = field(default_factory=list)
    _restore: list[Callable[[], None]] = field(default_factory=list)

    # -- span bookkeeping ------------------------------------------------

    def _open(self, layer: str) -> list[Any]:
        frame = [layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _close(self, frame: list[Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[1]
        totals = self.layers[frame[0]]
        totals.calls += 1
        totals.self_time += dur - frame[2]
        self.spans += 1
        if self._stack:
            self._stack[-1][2] += dur

    def _in_sweep(self) -> bool:
        return any(frame[0] == "sweeps.loop" for frame in self._stack)

    # -- counters taken at the boundaries --------------------------------

    def _observe(self, layer: str, args: tuple) -> None:
        if layer == "spectra.batch":
            graphs = len(args[0])
            self.batch_graphs += graphs
            if self._in_sweep():
                self.sweep_batch_graphs += graphs
        elif layer == "analysis.analyze":
            self.analyze_calls += 1
            g = args[0]
            if g in self._seen:
                self.analyze_repeats += 1
            self._seen.add(g)

    def _observe_resolution(self, args: tuple, result: Any) -> None:
        _, s_float, used_fallback = result
        rank = args[3]
        self.analyses += 1
        self.fallbacks += bool(used_fallback)
        self.disagreements += s_float is not None and s_float != rank

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, resolution: bool) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._observe(layer, args)  # before the call, so calls that raise count too
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if resolution:
                self._observe_resolution(args, result)
            return result
        return traced

    def _wrap_generator(self, fn: Callable, layer: str) -> Callable:
        """Each resumption is its own span, so consumer time stays outside."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                self.sweep_pairs += 1
                yield item
        return traced

    def install(self) -> None:
        for owner, attr, layer in _ATTRIBUTE_SITES:
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(fn, layer)
            else:
                wrapped = self._wrap(fn, layer, attr == "resolve_spectrum")
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            setattr(owner, attr, wrapped)
            self._restore.append(functools.partial(setattr, owner, attr, raw))
        for table in _CHECKER_DICTS:
            for key, fn in list(table.items()):
                table[key] = self._wrap(fn, "theorems.check", False)
                self._restore.append(functools.partial(table.__setitem__, key, fn))

    def remove(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.remove()

    # -- report ------------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass; self times plus cli.other_s sum to trace.wall_s."""
        lay = self.layers
        out: dict[str, float] = {}
        for name in LAYERS:
            out[f"{name}_s"] = lay[name].self_time
        batch = lay["spectra.batch"]
        out["spectra.batch_calls"] = batch.calls
        out["spectra.batch_graphs"] = self.batch_graphs
        out["spectra.batch_us_per_graph"] = (
            1e6 * batch.self_time / self.batch_graphs if self.batch_graphs else 0.0)
        out["spectra.scalar_calls"] = lay["spectra.scalar"].calls
        out["exact.rank_calls"] = lay["exact.rank"].calls
        out["analysis.analyze_graph_calls"] = self.analyze_calls
        out["analysis.repeat_ratio"] = (
            self.analyze_repeats / self.analyze_calls if self.analyze_calls else 0.0)
        out["analysis.fallback_ratio"] = self.fallbacks / self.analyses if self.analyses else 0.0
        out["analysis.disagreements"] = self.disagreements
        out["sweeps.analyses_per_pair"] = (
            self.sweep_batch_graphs / self.sweep_pairs if self.sweep_pairs else 0.0)
        out["theorems.reports"] = lay["theorems.check"].calls
        accounted = sum(t.self_time for t in lay.values())
        out["cli.other_s"] = traced_wall - accounted
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_s"] = traced_wall - untraced_wall
        out["trace.spans"] = self.spans
        return out
