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
stores every graph's ``graphs.facts`` record (degrees, connectivity,
two-coloring, pseudo-regular ratio), computed from its rows in the same
blocks, so the claim checkers read it and compute none.  Filled in one
32,768-graph block instead, the facts left an order-6 chunk's RSS about 5 MB
higher, and holding the chunk's rows array through the analysis raised
``verify all --exhaustive 6``'s peak by 1.5 MB.
Nearly every complement claim needs both spectra, and the complement of mask
``m`` is mask ``full ^ m``.  The full population is swept in complement-closed
chunks, masks with the top edge bit clear and their complements, so every
graph is analysed once at every order; only a sample's missing complements go
through a second batch, whose graphs only ever serve as a complement: no
checker or filter reads their facts, so those are left to the lazy per-graph
route.  A chunk is dropped before the next one is built, so a sweep holds one
at a time.  ``shares`` cuts every selection into chunks, and splits it for
``verify``'s processes, one share per usable CPU: a sample into contiguous
slices, the full population into ranges of those representative masks; a
sweep is one share.
Every decomposition either passes ``spectra``'s orthonormality, residual and
trace bounds or raises, so a sweep keeps no hygiene record of its own; the
per-batch maxima are read where ``spectra.eigen_decompose_batch`` returns them.
``analyze_with_complements`` sends ``verify``'s named-family graphs the same
way and returns the (analysis, complement analysis) pair the sweep yields.

A chunk is built with automatic cyclic collection paused
(``_collection_paused``).  It makes 14.7 tracked objects per graph at order 6
(the ``Graph`` and its dict, its ``graphs.Facts``, ``GraphAnalysis`` and
spectrum, 5.5 ``EigenGroup`` records on average, and plain tuples), and all of
them stay alive until the chunk's pairs are yielded, so a collection during
the build can reclaim none of them; each one walks every live record.  A
collection untracks 3 of them per graph, plain tuples of atomic values only:
CPython keeps every tuple subclass tracked, the records' named tuples
included.  Measured with a ``gc.callbacks`` hook (2-core x86_64, Python
3.11), ``verify all --exhaustive 6`` in one process, unpaused, started 865
generation-0, 78 generation-1 and 7 full collections inside its chunk
builds, 0.42 s of a 3.5 s run; paused, none start there and the 7 that run
after the builds take 0.07 s.  A ``sweep-sampled-o8`` pass runs 13-17
generation-0 collections and 1 generation-1, 0.05-0.07 s in all.  The pause
never spans a ``yield``: the consumer's claim checkers run with the collector
as the caller left it.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
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
# 5,000-6,000 pairs/s in one process, half that split over two CPUs
# (``verify all --exhaustive 8 --sample 131072`` takes 22-27 s in one process
# and 14.5 s in two on a 2-core x86_64 box).  Past a fiftieth of the population numpy's sampler
# without replacement builds the whole population as int64, 2 GiB at order 8.
MAX_SAMPLE = 1 << 20


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


def shares(n: int, count: int, masks: np.ndarray | None = None) -> list[Iterator[np.ndarray]]:
    """Split a sweep's selection into at most ``count`` shares, one per process.

    A share is an iterator of mask arrays, each to be swept by
    ``sweep(n, masks=...)`` and none longer than ``DEFAULT_CHUNK``: this is
    where every sweep's chunks are cut.  A sample ``masks`` is cut into
    contiguous slices of its sorted order, each in chunks.  The full
    population is cut into ranges of representative masks, those with the
    top edge bit clear, and each comes with its complements ``full ^ m``:
    every chunk is closed under complement, so no graph goes through a
    complement batch.  Chunks are built as the share is swept, so order 8
    never holds its 2^28 masks at once.
    """
    if masks is not None:
        count = max(1, min(count, len(masks)))
        return [_slices(part) for part in np.array_split(masks, count)]
    reps = max(mask_population(n) // 2, 1)  # order 1's one mask is its own complement
    count = max(1, min(count, reps))
    return [_closed_chunks(n, reps * i // count, reps * (i + 1) // count) for i in range(count)]


def _slices(masks: np.ndarray) -> Iterator[np.ndarray]:
    """``masks`` ``DEFAULT_CHUNK`` at a time, in their order."""
    for lo in range(0, len(masks), DEFAULT_CHUNK):
        yield masks[lo:lo + DEFAULT_CHUNK]


def _closed_chunks(n: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Representative masks ``lo..hi-1`` and their complements, ``DEFAULT_CHUNK``
    at a time, each chunk in mask order: below order 7 the one chunk is ``all_masks``."""
    full = mask_population(n) - 1
    step = max(DEFAULT_CHUNK // 2, 1)
    for start in range(lo, hi, step):
        reps = np.arange(start, min(start + step, hi), dtype=np.int64)
        yield reps if full == 0 else np.concatenate([reps, full ^ reps[::-1]])


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
def _analyses_for_chunk(n: int, masks: np.ndarray, *,
                        facts: bool = True) -> dict[int, GraphAnalysis]:
    adj = adjacency_stack(n, masks)
    # Vertex i's neighbor bitmask is sum_j a_ij 2^j, exact in float64 for n <= 52.
    graphs = stack_graphs((adj @ 2.0 ** np.arange(n)).astype(np.int64))
    analyses = analyze_stack(graphs, adj)
    del adj  # the float stack goes before the facts come, so they add nothing to the peak
    if facts:
        for lo in range(0, len(graphs), _FINISH_BLOCK):
            fill_stack_facts(graphs[lo:lo + _FINISH_BLOCK])
    return dict(zip(masks.tolist(), analyses))


def analyze_stack(graphs: Sequence[Graph], adj: np.ndarray) -> list[GraphAnalysis]:
    """Analyse equally-sized ``graphs`` from their (B, n, n) adjacency stack:
    one batched eigendecomposition, which raises on any graph that misses a
    hygiene bound, then the finish in ``_FINISH_BLOCK``-row blocks."""
    evals, evecs, _ = spectra.eigen_decompose_batch(adj)
    proj_sq = evecs.sum(axis=1) ** 2
    del evecs
    adj = adj.astype(np.int8)  # 0/1: an eighth of the float stack, kept through the finish
    out: list[GraphAnalysis] = []
    for lo in range(0, len(graphs), _FINISH_BLOCK):
        block = slice(lo, lo + _FINISH_BLOCK)
        out += finish_analyses(graphs[block], adj[block], evals[block], proj_sq[block])
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


def sweep(n: int, *,
          masks: np.ndarray | None = None) -> Iterator[tuple[GraphAnalysis, GraphAnalysis]]:
    """Yield (analysis, complement analysis) for every selected labeled graph,
    chunk by chunk of ``shares(n, 1, masks)``'s one share.

    ``masks=None`` streams the full population in complement-closed chunks,
    each in mask order; otherwise pairs follow ``masks`` in chunks of
    ``DEFAULT_CHUNK``, each with a batch of its missing complements.  Every
    decomposition passes ``spectra``'s hygiene bounds or raises.
    """
    full = mask_population(n) - 1
    for part in shares(n, 1, masks)[0]:
        found = _analyses_for_chunk(n, part)
        missing = np.setdiff1d(full ^ part, part)
        if len(missing):
            # Only ever yielded as the complement, whose facts nothing reads.
            found |= _analyses_for_chunk(n, missing, facts=False)
        for mask in part.tolist():
            yield found[mask], found[full ^ mask]
        del found  # the next chunk's build must not find this one alive
