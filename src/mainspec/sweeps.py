"""Chunked exhaustive sweeps over all labeled graphs of a fixed order.

The enumeration is an edge-bitmask counter, streamed chunk by chunk: each
chunk of masks becomes a (B, n, n) adjacency stack, its graphs' neighbor
bitmasks are read off that stack in one step and checked as one array
(``graphs.stack_graphs``), and it goes to ``analyze_stack``,
which runs the batched eigensolver once and then ``analysis.finish_analyses``, the
finish ``analyze_graph`` uses, in row blocks of ``_FINISH_BLOCK`` graphs:
grouping, the certified walk ranks and the harmonic test each run once per
block, and only the records are built per graph.  Blocks bound the finish's
temporaries: one block of a whole order-6 chunk took a bare sweep's peak RSS
from 104 to 142 MB, 2,048-row blocks leave it at 105 MB.
Once a chunk is analysed and its float stack dropped, ``graphs.fill_stack_facts``
stores every graph's degrees, connectivity, bipartition and pseudo-regular
ratio, computed from its rows in the same blocks, so the claim checkers read
them and compute none.  Filled in one 32,768-graph block instead, they left
an order-6 chunk's RSS about 5 MB higher, and holding the chunk's rows array
through the analysis raised ``verify all --exhaustive 6``'s peak by 1.5 MB.
Nearly every complement claim needs both spectra, and the complement of mask
``m`` is mask ``full ^ m``: complements already in the chunk are looked up,
and only the missing ones go through a second batch.  A chunk of an order
n <= 6 holds the whole population, so every graph is analysed once.
``analyze_with_complements`` sends ``verify``'s named-family graphs the same
way and returns the (analysis, complement analysis) pair the sweep yields.

A chunk is built with automatic cyclic collection paused
(``_collection_paused``).  It makes about 11 tracked objects per graph (the
``Graph`` and its dict, degrees, analysis, spectrum, groups), and all of them
stay alive until the chunk's pairs are yielded, so a collection during the
build can reclaim none of them; each one walks every live record.  Unpaused,
``verify all --exhaustive 6`` started 898 generation-0, 82 generation-1 and 7
full collections inside its chunk builds, 0.48 s of a 4.1 s run that
reclaimed 384 objects in all (2-core x86_64, Python 3.11); paused, none start
there and the 7 that run after the builds take 0.07 s.  The pause never spans
a ``yield``: the consumer's claim checkers run with the collector as the
caller left it.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import spectra
from .analysis import GraphAnalysis, finish_analyses
from .analysis import resolve_spectrum  # noqa: F401  (bound here for perfbench's span tracer)
from .graphs import Graph, fill_stack_facts, stack_graphs, triangle_pairs

DEFAULT_CHUNK = 1 << 15
_FINISH_BLOCK = 1 << 11
SAMPLE_SEED = 24049  # fixed so sampled sweeps are reproducible run to run
# Largest sample ``verify --sample`` takes: about 3 minutes of sweep at some
# 6,000 pairs/s (``verify all --exhaustive 8 --sample 131072`` takes 22 s on a
# 2-core x86_64 box).  Past a fiftieth of the population numpy's sampler
# without replacement builds the whole population as int64, 2 GiB at order 8.
MAX_SAMPLE = 1 << 20


@dataclass
class HygieneTracker:
    """Worst numerical-hygiene values seen across a sweep."""

    orthonormality: float = 0.0
    residual: float = 0.0
    trace_drift: float = 0.0
    graphs: int = 0
    fallbacks: int = 0

    def update(self, batch_hygiene: dict[str, float], count: int) -> None:
        self.orthonormality = max(self.orthonormality, batch_hygiene["orthonormality"])
        self.residual = max(self.residual, batch_hygiene["residual"])
        self.trace_drift = max(self.trace_drift, batch_hygiene["trace_drift"])
        self.graphs += count


def mask_population(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def all_masks(n: int) -> np.ndarray:
    return np.arange(mask_population(n), dtype=np.int64)


def sample_masks(n: int, size: int, seed: int = SAMPLE_SEED) -> np.ndarray:
    """Deterministic sample of distinct edge masks (sorted, fixed seed)."""
    pop = mask_population(n)
    if size >= pop:
        return all_masks(n)
    rng = np.random.default_rng(seed)
    picks = rng.choice(pop, size=size, replace=False)
    picks.sort()
    return picks.astype(np.int64)


def adjacency_stack(n: int, masks: np.ndarray) -> np.ndarray:
    pairs = triangle_pairs(n)
    ii = np.fromiter((p[0] for p in pairs), dtype=np.int64, count=len(pairs))
    jj = np.fromiter((p[1] for p in pairs), dtype=np.int64, count=len(pairs))
    bits = (masks[:, None] >> np.arange(len(pairs), dtype=np.int64)) & 1
    a = np.zeros((len(masks), n, n), dtype=np.float64)
    a[:, ii, jj] = bits
    a[:, jj, ii] = bits
    return a


@contextmanager
def _collection_paused() -> Iterator[None]:
    """Automatic cyclic collection off for the block, then back as it was.

    Process-wide, so it is only held over code that yields nothing: a
    generator's consumer would run with collection off, and an abandoned
    generator would leave it off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collection_paused()
def _analyses_for_chunk(
    n: int, masks: np.ndarray, hygiene: HygieneTracker | None
) -> dict[int, GraphAnalysis]:
    adj = adjacency_stack(n, masks)
    # Vertex i's neighbor bitmask is sum_j a_ij 2^j, exact in float64 for n <= 52.
    graphs = stack_graphs((adj @ 2.0 ** np.arange(n)).astype(np.int64))
    analyses = analyze_stack(graphs, adj, hygiene)
    del adj  # the float stack goes before the facts come, so they add nothing to the peak
    for lo in range(0, len(graphs), _FINISH_BLOCK):
        fill_stack_facts(graphs[lo:lo + _FINISH_BLOCK])
    return dict(zip(masks.tolist(), analyses))


def analyze_stack(graphs: Sequence[Graph], adj: np.ndarray,
                  hygiene: HygieneTracker | None = None) -> list[GraphAnalysis]:
    """Analyse equally-sized ``graphs`` from their (B, n, n) adjacency stack:
    one batched eigendecomposition, then the finish in ``_FINISH_BLOCK``-row blocks."""
    evals, evecs, batch_hyg = spectra.eigen_decompose_batch(adj)
    if hygiene is not None:
        hygiene.update(batch_hyg, len(graphs))
    proj_sq = evecs.sum(axis=1) ** 2
    del evecs
    adj = adj.astype(np.int8)  # 0/1: an eighth of the float stack, kept through the finish
    out: list[GraphAnalysis] = []
    for lo in range(0, len(graphs), _FINISH_BLOCK):
        block = slice(lo, lo + _FINISH_BLOCK)
        out += finish_analyses(graphs[block], adj[block], evals[block], proj_sq[block])
    if hygiene is not None:
        hygiene.fallbacks += sum(a.used_fallback for a in out)
    return out


def analyze_with_complements(
    graphs: Iterable[Graph],
) -> dict[Graph, tuple[GraphAnalysis, GraphAnalysis]]:
    """``{g: (analysis, complement analysis)}`` for each distinct graph of ``graphs``:
    each complement built once, each distinct graph analysed once, one stack per order."""
    complements = {g: g.complement() for g in dict.fromkeys(graphs)}
    distinct = dict.fromkeys(h for pair in complements.items() for h in pair)
    found: dict[Graph, GraphAnalysis] = {}
    for n in sorted({h.n for h in distinct}):
        stack = [h for h in distinct if h.n == n]
        adj = np.stack([h.adjacency_matrix() for h in stack])
        found.update(zip(stack, analyze_stack(stack, adj)))
    return {g: (found[g], found[c]) for g, c in complements.items()}


def sweep(
    n: int,
    *,
    masks: np.ndarray | None = None,
    hygiene: HygieneTracker | None = None,
) -> Iterator[tuple[GraphAnalysis, GraphAnalysis]]:
    """Yield (analysis, complement analysis) for every selected labeled graph.

    ``masks=None`` streams the full population in mask order, one chunk of
    ``DEFAULT_CHUNK`` masks at a time; otherwise pairs follow ``masks``.
    """
    pop = mask_population(n)
    full = pop - 1
    total = pop if masks is None else len(masks)
    for lo in range(0, total, DEFAULT_CHUNK):
        hi = min(lo + DEFAULT_CHUNK, total)
        part = np.arange(lo, hi, dtype=np.int64) if masks is None else masks[lo:hi]
        found = _analyses_for_chunk(n, part, hygiene)
        missing = np.setdiff1d(full ^ part, part)
        if len(missing):
            found |= _analyses_for_chunk(n, missing, hygiene)
        for mask in part.tolist():
            yield found[mask], found[full ^ mask]
