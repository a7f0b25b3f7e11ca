"""Chunked exhaustive sweeps over all labeled graphs of a fixed order.

The enumeration is an edge-bitmask counter, streamed chunk by chunk, and
each chunk is cut and built in blocks of ``_BLOCK`` graphs.  A block of masks becomes
a (B, n, n) adjacency stack, its graphs' neighbor bitmasks are read off that
stack in one step and checked as one array (``graphs.stack_graphs``), and it
goes to ``analyze_stack``: one batched eigensolve, then
``analysis.finish_analyses``, the finish ``analyze_graph`` uses, so grouping,
the certified walk ranks and the harmonic test each run once per block and
only the records are built per graph.  ``graphs.fill_stack_facts`` then
stores every graph's ``graphs.facts`` record (degrees, connectivity,
two-coloring, pseudo-regular ratio), computed from the block's rows, so the
claim checkers read it and compute none.  The block rule: no array a sweep
builds holds more than one block of graphs; a cut outlives its blocks only
as its records, until its pairs are yielded, and as the carry's.
Nearly every complement claim needs both spectra, and the complement of mask
``m`` is mask ``full ^ m``.  ``cuts`` takes one selection, checks it and
yields each cut's pairs as one list, which table-mode ``verify`` checks as
one block (``theorems.check_block``); ``sweep`` is the same pairs one at a
time.  ``shares`` splits a selection into chunks, one share per ``verify``
process, and ``verify`` sweeps each chunk alone.  The population is cut into closed
chunks of one block, ``_BLOCK // 2`` masks with the top edge bit clear and
their complements, so every graph is analysed once and no sweep holds more
than one block of records at any order.  A sample is one chunk, and
``cuts`` cuts every chunk ``_BLOCK`` masks at a time, in their order.  Each
cut is analysed in one block, with stacked facts, then its missing
complements in a second block, whose facts no checker or filter reads, so
those are left to the lazy per-graph route.  Where a cut's mask ``m`` and its
complement both lie in the chunk, but the complement in a later cut, the
carry keeps both analyses until that cut takes them, and the complement's
facts are stacked with its block: each selected graph is decomposed once.
The carry is empty for closed chunks, holds a few pairs for a random sample
at order 7 or 8, and never more than ``_CARRY`` blocks of analyses; past
that, a pair is decomposed again in its later cut.  Each cut is dropped,
apart from its carry, before the next one is built, and so must the
consumer's list of its pairs be.
Every decomposition either passes ``spectra``'s orthonormality, residual and
trace bounds or raises, so a sweep keeps no hygiene record of its own; the
per-batch maxima are read where ``spectra.eigen_decompose_batch`` returns them.
``analyze_with_complements`` sends ``verify``'s named-family graphs the same
way and returns the (analysis, complement analysis) pair the sweep yields.

A block is built with automatic cyclic collection paused
(``_collection_paused``).  Its records, 14.7 tracked objects per graph at
order 6 (CPython keeps every tuple subclass tracked, the records' named
tuples included), all stay alive until the cut's pairs are yielded, so a
collection during the build reclaims none of them and walks them all.
Measured with a ``gc.callbacks`` hook (2-core x86_64, Python 3.11),
``verify all --exhaustive 6`` in one process, unpaused, started 885
collections inside its 16 chunk builds, 0.21 s of a 3.3 s run; paused, none
start there and the 40 between the builds take 0.09 s.  A
``sweep-sampled-o8`` pass, cut at the block, runs 14-19 generation-0
collections and 1-2 generation-1, 0.03-0.05 s in all.  The pause never spans a ``yield``: the
consumer's claim checkers run with the collector as the caller left it.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import spectra
from .analysis import GraphAnalysis, finish_analyses
from .analysis import resolve_spectrum  # noqa: F401  (bound here for perfbench's span tracer)
from .graphs import Graph, ParameterError, fill_stack_facts, stack_graphs, triangle_pairs

_BLOCK = 1 << 11
_CARRY = 8  # blocks of analyses a sweep's carry may hold
SAMPLE_SEED = 24049  # fixed so sampled sweeps are reproducible run to run
# Largest sample ``verify --sample`` takes: about 1.5-2 minutes of sweep at
# some 10,000-13,000 pairs/s in one process, less split over two CPUs
# (``verify all --exhaustive 8 --sample 131072`` takes 10-13 s in one process
# and 6-9 s in two on a shared 2-core x86_64 box).  Past a fiftieth of the
# population numpy's sampler without replacement builds the whole population
# as int64, 2 GiB at order 8.
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

    A share is an iterator of chunks, each of which ``verify`` passes to
    ``cuts`` as one selection, so ``cuts`` checks its masks.  A sample
    ``masks`` is split into contiguous slices of its order, and each share is
    one chunk, its slice: so ``cuts`` sees the whole slice and finds every
    complement it holds.  The full population is cut into ranges of
    representative masks, those with the top edge bit clear, each expanded
    one block at a time with its complements ``full ^ m``: every chunk holds
    at most ``_BLOCK`` graphs and is closed under complement, so no graph
    goes through a complement batch.  Chunks are built as the share is
    swept, so order 8 never holds its 2^28 masks at once.
    """
    if masks is not None:
        count = max(1, min(count, len(masks)))
        return [iter([part]) for part in np.array_split(masks, count)]
    reps = max(mask_population(n) // 2, 1)  # order 1's one mask is its own complement
    count = max(1, min(count, reps))
    return [_closed_chunks(n, reps * i // count, reps * (i + 1) // count) for i in range(count)]


def _pair_cuts(masks: np.ndarray, full: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each mask's pair ``{m, full ^ m}`` also lies in an earlier cut of
    ``masks``, and whether in a later one."""
    cuts = np.arange(len(masks)) // _BLOCK
    pairs, which = np.unique(np.minimum(masks, full ^ masks), return_inverse=True)
    first = np.full(len(pairs), len(masks))
    last = np.zeros(len(pairs), dtype=np.int64)
    np.minimum.at(first, which, cuts)
    np.maximum.at(last, which, cuts)
    return first[which] < cuts, last[which] > cuts


def _closed_chunks(n: int, lo: int, hi: int) -> Iterator[np.ndarray]:
    """Representative masks ``lo..hi-1`` ``_BLOCK // 2`` at a time, each chunk
    with its complements after it: one sorted block (below order 6, ``all_masks``)."""
    full = mask_population(n) - 1
    step = max(_BLOCK // 2, 1)
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
def _analyses_for_block(n: int, masks: np.ndarray,
                        facts: np.ndarray | None = None) -> dict[int, GraphAnalysis]:
    """``{m: analysis}`` for at most ``_BLOCK`` ``masks``, built as one block;
    the facts of the graphs ``facts`` picks, by default all, are stacked."""
    adj = adjacency_stack(n, masks)
    # Vertex i's neighbor bitmask is sum_j a_ij 2^j, exact in float64 for n <= 52.
    graphs = stack_graphs((adj @ 2.0 ** np.arange(n)).astype(np.int64))
    analyses = analyze_stack(graphs, adj)
    if facts is not None:
        graphs = [g for g, pick in zip(graphs, facts.tolist()) if pick]
    if graphs:
        fill_stack_facts(graphs)
    return dict(zip(masks.tolist(), analyses))


def analyze_stack(graphs: Sequence[Graph], adj: np.ndarray) -> list[GraphAnalysis]:
    """Analyse equally-sized ``graphs`` from their (B, n, n) adjacency stack:
    one batched eigendecomposition, which raises on any graph that misses a
    hygiene bound, then one finish."""
    evals, evecs, _ = spectra.eigen_decompose_batch(adj)
    return finish_analyses(graphs, adj, evals, evecs.sum(axis=1) ** 2)


def analyze_with_complements(
    graphs: Iterable[Graph],
) -> dict[Graph, tuple[GraphAnalysis, GraphAnalysis]]:
    """``{g: (analysis, complement analysis)}`` for each distinct graph of ``graphs``:
    each complement built once, each distinct graph analysed once, in stacks of
    at most ``_BLOCK`` graphs of one order."""
    complements = {g: g.complement() for g in dict.fromkeys(graphs)}
    distinct = dict.fromkeys(h for pair in complements.items() for h in pair)
    found: dict[Graph, GraphAnalysis] = {}
    for n in sorted({h.n for h in distinct}):
        stack = [h for h in distinct if h.n == n]
        for lo in range(0, len(stack), _BLOCK):
            block = stack[lo:lo + _BLOCK]
            adj = np.stack([h.adjacency_matrix() for h in block])
            found.update(zip(block, analyze_stack(block, adj)))
    return {g: (found[g], found[c]) for g, c in complements.items()}


def sweep(n: int, *, masks: Sequence[int] | np.ndarray | None = None,
          ) -> Iterator[tuple[GraphAnalysis, GraphAnalysis]]:
    """Yield (analysis, complement analysis) for every selected labeled graph
    of order ``n``, one pair at a time: ``cuts``, flattened."""
    for pairs in cuts(n, masks=masks):
        yield from pairs
        del pairs  # the next cut's build must not find this one alive


def cuts(n: int, *, masks: Sequence[int] | np.ndarray | None = None,
         ) -> Iterator[list[tuple[GraphAnalysis, GraphAnalysis]]]:
    """Yield the (analysis, complement analysis) pairs of every selected
    labeled graph of order ``n`` in 1..11, one list per cut: by default all,
    in ``shares(n, 1)``'s closed chunks of one block, each in mask order; else
    the one chunk ``masks``, any 1-D integer array or list of edge masks of
    order ``n``, in its order.  A bad order or selection raises
    ParameterError.  Each chunk is cut ``_BLOCK`` masks at a time: a cut's
    masks the carry lacks are analysed in one block, then the complements
    neither the cut nor the carry holds in one more, and the carry takes the
    pairs a later cut still needs, so no selected graph is decomposed twice
    while the carry has room.  Every decomposition passes ``spectra``'s
    hygiene bounds or raises.  The consumer must drop a cut's list before it
    asks for the next one.
    """
    if not 1 <= n <= 11:  # order 12's 66 edge bits overflow an int64 mask
        raise ParameterError(f"a sweep's order lies in 1..11, got {n}")
    full = mask_population(n) - 1
    if masks is not None:
        masks = np.asarray(masks)
        if masks.ndim != 1 or (masks.size and masks.dtype.kind not in "iu"):
            raise ParameterError(f"edge masks of order {n} are a 1-D integer selection, "
                                 f"got {masks.dtype} of shape {masks.shape}")
        masks = masks.astype(np.int64, copy=False)
        if len(masks) and not 0 <= masks.min() <= masks.max() <= full:
            raise ParameterError(f"edge masks of order {n} lie in [0, {full + 1:,}), "
                                 f"got {masks.min()}..{masks.max()}")
    for chunk in shares(n, 1, masks)[0]:
        carry: dict[int, GraphAnalysis] = {}
        earlier, later = _pair_cuts(chunk, full)
        for lo in range(0, len(chunk), _BLOCK):
            part, before, after = (a[lo:lo + _BLOCK] for a in (chunk, earlier, later))
            found = {m: carry.pop(m) for m in np.union1d(part, full ^ part).tolist()
                     if m in carry}
            held = np.fromiter(found, dtype=np.int64, count=len(found))
            if len(fresh := np.setdiff1d(part, held)):  # else the carry holds the whole cut
                found |= _analyses_for_block(n, fresh)
            # A complement another cut selects is yielded there as a selected
            # graph, which needs its facts, and the carry keeps the pairs a
            # later cut needs, as far as it has room.
            missing = np.setdiff1d(full ^ part, np.union1d(part, held))
            if len(missing):
                found |= _analyses_for_block(
                    n, missing, facts=np.isin(missing, full ^ part[before | after]))
            yield [(found[mask], found[full ^ mask]) for mask in part.tolist()]
            keep = part[after][:(_CARRY * _BLOCK - len(carry)) // 2]
            carry.update((m, found[m]) for m in np.union1d(keep, full ^ keep).tolist())
            del found  # the next cut's build must not find this one alive
