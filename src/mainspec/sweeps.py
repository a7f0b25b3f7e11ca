"""Chunked exhaustive sweeps over all labeled graphs of a fixed order.

The enumeration is an edge-bitmask counter, streamed chunk by chunk, and
each chunk is cut and built in blocks of at most ``_BLOCK`` graphs.  A block
of masks becomes a (B, n, n) adjacency stack, its neighbor bitmasks are read
off it in one step and checked as one array (``graphs.check_stack``), and
``analyze_stack`` makes it one ``analysis.Block`` of columns: one batched
eigensolve, then ``analysis.finish_block``, the finish ``analyze_graph``
uses, so grouping, the certified walk ranks, the harmonic test and the
structural facts each run once per block, and no record is built.
The complement of mask ``m`` is mask ``full ^ m``.  ``cuts`` takes one
selection, checks it and yields each cut as a ``Cut``: a block of its graphs
and their complements, with each graph's row and its complement's, which
table-mode ``verify`` decides as columns (``theorems.check_block``).
``pairs`` builds the records of a cut's pairs (``analysis.records``) for
``sweep``, which ``verify --json`` reads, and for the failures ``verify``
prints.  ``shares`` splits a selection into chunks, one share per table-mode
``verify`` process.  The
population is cut into closed chunks of one block, ``_BLOCK // 2`` masks
with the top edge bit clear and their complements.  A sample is one chunk,
cut ``_BLOCK`` masks at a time in its order: each cut's masks are analysed
in one block, then the complements it lacks in a second, and the carry
takes a pair whose masks lie in different cuts to the later one, so each
selected graph is decomposed once while the carry's ``_CARRY`` blocks have
room.  No array a sweep builds holds more than one block of graphs, and each
cut is dropped, apart from its carry, before the next is built.  Every
decomposition passes ``spectra``'s hygiene bounds or raises.
``analyze_with_complements`` sends ``verify``'s named-family graphs the same
way and returns the records of each graph and its complement.

Both CPUs: a sweep of more than one cut, from ``_MIN_SPLIT`` selected graphs
on Linux with two or more usable CPUs (``usable_cpus``), forks one producer
(a ``Worker``) that runs ``cuts`` and pipes each cut back pickled, while this
process builds the records of the cut before it and its caller checks them.
A full pipe blocks the producer, so it is at most one cut ahead and each
process holds about one cut.  A sweep of one cut has nothing to overlap, so
it stays in one process: through the 16 graph checkers, an order-8 sample of
2,048 masks took 0.32 s with a producer against 0.25 s without, of 3,072
masks 0.39 against 0.38 s and of 4,096 masks 0.53 against 0.57 s (medians
of 8 alternating runs, 2-core x86_64).
An error the producer raises comes back in order, after the pairs before
it: a ``ParameterError`` or a numerical-hygiene error as itself, anything
else, and a producer that dies, as ``WorkerLost``.  The producer is killed
and reaped however the sweep ends: exhausted, closed early, or left by an
exception or Ctrl-C in its consumer.  Table-mode ``verify`` forks its
shares' workers with the same ``Worker``, each sending one result.

Records are built with automatic cyclic collection paused
(``_collection_paused``): a cut's records, about 12.4 tracked objects per
graph (CPython tracks every tuple subclass), all live until its pairs are
yielded, so a collection during the build walks them and frees none.  A
block's columns are about 0.0015 tracked objects per graph and need no
pause.  Measured with a ``gc.callbacks`` hook (2-core x86_64, Python 3.11):
one-process ``verify all --exhaustive 6``, which builds no record, starts 8
generation-0 collections, 0.001 s in all; a ``sweep-sampled-o8`` pass, which
builds a record of every graph, starts 9, 0.02 s, paused, and 498, 45 of
them of generation 1 or 2, 0.08 s, unpaused.  The pause never spans a
``yield``: the consumer runs with the collector as the caller left it.
"""
from __future__ import annotations

import functools
import gc
import os
import pickle
import signal
import sys
import warnings
from contextlib import contextmanager, suppress
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import spectra
from .analysis import Block, GraphAnalysis, finish_block, records
from .analysis import resolve_spectrum  # noqa: F401  (bound here for perfbench's span tracer)
from .graphs import Graph, ParameterError, StackFacts, check_stack, triangle_pairs

_BLOCK = 1 << 11
_CARRY = 8  # blocks of analyses a sweep's carry may hold
SAMPLE_SEED = 24049  # fixed so sampled sweeps are reproducible run to run
# Largest sample ``verify --sample`` takes: ``verify all --exhaustive 8
# --sample 1048576`` took 61 s in one process, some 17,000 pairs/s, and 32 s
# split over two CPUs; ``--sample 131072`` took 8-10 s and 5 s in table mode,
# and 58 s in one process and 45 s with the sweep's producer under ``--json``
# (raw seconds on a shared 2-core x86_64 box, whose speed drifts by 20-30%).
# Past a fiftieth of the population numpy's sampler without replacement
# builds the whole population as int64, 2 GiB at order 8.
MAX_SAMPLE = 1 << 20
# Smallest selection a sweep splits across processes, into ``verify``'s table
# shares or, past one cut, with ``sweep``'s producer.  A split costs about 20 ms of CPU (the
# fork, copy-on-write faults, pickling, reaping) and a graph swept and checked
# in one process 15-35 us (order 6 to an order-7 sample with its complement
# batch, 2-core x86_64): a 2,048-mask sample of order 6 or 7 still ends sooner
# split, 0.26 s against 0.27-0.28 s with start-up; the default --exhaustive 4
# (64 graphs) and order 5 (1,024) stay in one process.
_MIN_SPLIT = 2048
# What a sweep process sends back as itself; any other error is WorkerLost.
_FORWARDED = (ParameterError, *spectra.NUMERICAL_ERRORS)


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
    """Automatic cyclic collection off while records are built, then back as it
    was; process-wide, so only over code that yields nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Cut(NamedTuple):
    """One cut of a sweep as columns: ``own`` is each selected graph's row of
    ``block``, in the selection's order, ``co`` its complement's, and
    ``selected`` marks the rows the chunk selects, whose records get facts."""

    block: Block
    own: np.ndarray
    co: np.ndarray
    selected: np.ndarray


def _take(block: Block, index: np.ndarray) -> Block:
    """Rows ``index`` of a sweep block, every column with them."""
    return Block(*(c[index] for c in block[:-1]), StackFacts(*(c[index] for c in block.facts)))


def _join(blocks: Sequence[Block]) -> Block:
    """Sweep blocks of one order, one after the other."""
    return Block(*map(np.concatenate, zip(*(b[:-1] for b in blocks))),
                 StackFacts(*map(np.concatenate, zip(*(b.facts for b in blocks)))))


def _block(n: int, masks: np.ndarray) -> Block:
    """The analyses of at most ``_BLOCK`` ``masks`` as one block, their rows checked."""
    adj = adjacency_stack(n, masks)
    # Vertex i's neighbor bitmask is sum_j a_ij 2^j, exact in float64 for n <= 52.
    rows = (adj @ 2.0 ** np.arange(n)).astype(np.int64)
    check_stack(rows)
    return analyze_stack(adj, rows)


def analyze_stack(adj: np.ndarray, rows: np.ndarray | None = None) -> Block:
    """Analyse a (B, n, n) adjacency stack, with neighbor bitmasks ``rows``
    for a sweep block: one batched eigendecomposition, which raises on any
    graph that misses a hygiene bound, then one finish."""
    evals, evecs, _ = spectra.eigen_decompose_batch(adj)
    return finish_block(adj, evals, evecs.sum(axis=1) ** 2, rows)


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
            found.update(zip(block, records(analyze_stack(adj), np.arange(len(block)), block)))
    return {g: (found[g], found[c]) for g, c in complements.items()}


@_collection_paused()
def pairs(cut: Cut, which: np.ndarray | None = None,
          ) -> list[tuple[GraphAnalysis, GraphAnalysis]]:
    """The (analysis, complement analysis) records of the pairs ``which`` of
    ``cut``, by default all, in its order: each row's record built once, a
    selected graph's with its facts."""
    own, co = (cut.own, cut.co) if which is None else (cut.own[which], cut.co[which])
    rows = np.union1d(own, co)
    built = dict(zip(rows.tolist(), records(cut.block, rows, facts=cut.selected[rows])))
    return [(built[g], built[c]) for g, c in zip(own.tolist(), co.tolist())]


def sweep(n: int, *, masks: Sequence[int] | np.ndarray | None = None,
          ) -> Iterator[tuple[GraphAnalysis, GraphAnalysis]]:
    """Yield (analysis, complement analysis) for every selected labeled graph
    of order ``n``, one pair at a time: each of ``cuts``' cuts as records,
    the cuts built by a forked producer where the selection is more than one
    cut and ``usable_cpus`` gives two or more processes."""
    size = mask_population(n) if masks is None else np.size(masks)
    producer = None
    if size > _BLOCK and usable_cpus(size) > 1:  # one cut leaves nothing to overlap
        producer = Worker(functools.partial(cuts, n, masks=masks))
    try:
        for cut in cuts(n, masks=masks) if producer is None else producer.results():
            yield from pairs(cut)
            del cut  # the next cut's build or read must not find this one alive
    finally:
        if producer is not None:
            producer.stop()


def cuts(n: int, *, masks: Sequence[int] | np.ndarray | None = None) -> Iterator[Cut]:
    """Yield every selected labeled graph of order ``n`` in 1..11 with its
    complement, one ``Cut`` per ``_BLOCK`` masks: by default all, in
    ``shares(n, 1)``'s closed chunks, each in mask order; else the one chunk
    ``masks``, any 1-D integer array or list of edge masks of order ``n``, in
    its order.  A bad order or selection raises ParameterError.  The consumer
    must drop a cut before it asks for the next one."""
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
        carry, carried = None, np.zeros(0, dtype=np.int64)  # the carry's rows, their masks
        earlier, later = _pair_cuts(chunk, full)
        for lo in range(0, len(chunk), _BLOCK):
            part, before, after = (a[lo:lo + _BLOCK] for a in (chunk, earlier, later))
            held = np.isin(carried, np.union1d(part, full ^ part))
            taken, carried = carried[held], carried[~held]
            fresh = np.setdiff1d(part, taken)  # empty where the carry holds the whole cut
            missing = np.setdiff1d(full ^ part, np.union1d(part, taken))
            parts = [_block(n, m) for m in (fresh, missing) if len(m)]
            if len(taken):
                parts.insert(0, _take(carry, held))
                carry = _take(carry, ~held)
            block = _join(parts)
            del parts  # the cut's parts live on only as its block
            found = np.concatenate([taken, fresh, missing])
            order = np.argsort(found)
            own, co = (order[np.searchsorted(found, x, sorter=order)] for x in (part, full ^ part))
            # A complement another cut selects is a selected graph there, so
            # its record carries its facts here too.
            selected = np.zeros(len(found), dtype=bool)
            selected[own] = selected[co[before | after]] = True
            yield Cut(block, own, co, selected)
            # The carry keeps the pairs a later cut needs, as far as it has room.
            if len(keep := part[after][:(_CARRY * _BLOCK - len(carried)) // 2]):
                kept = order[np.searchsorted(found, np.union1d(keep, full ^ keep), sorter=order)]
                carry = _take(block, kept) if carry is None else _join([carry, _take(block, kept)])
                carried = np.concatenate([carried, found[kept]])
            del block  # the next cut's build must not find this one alive


class WorkerLost(Exception):
    """A forked sweep process could not be started, or ended before it sent
    all of its results."""


def usable_cpus(size: int) -> int:
    """How many processes a sweep of ``size`` selected graphs takes: one per
    usable CPU on Linux from ``_MIN_SPLIT`` graphs on, else one."""
    if sys.platform == "linux" and size >= _MIN_SPLIT:
        return len(os.sched_getaffinity(0))
    return 1


class Worker:
    """A forked process that runs ``job`` and pipes back each result of the
    iterable it returns, in order, none of them None or an exception."""

    def __init__(self, job: Callable[[], Iterable[Any]]) -> None:
        parent = os.getpid()
        fds: tuple[int, ...] = ()
        try:
            fds = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns when a process with more than one thread forks;
                # the others here are OpenBLAS's pool, which stops around a fork.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError as err:  # out of processes, memory or file descriptors
            for fd in fds:
                os.close(fd)
            raise WorkerLost(f"a sweep worker could not be started "
                             f"({type(err).__name__}: {err})") from None
        read, write = fds
        if self.pid == 0:
            os.close(read)
            _serve(write, job, parent)
        os.close(write)
        self.pipe = open(read, "rb")

    def results(self) -> Iterator[Any]:
        """Yield each result as the worker sends it; after the last the worker
        is reaped, and an error it sent instead is raised here."""
        while True:
            try:  # the pipe may close before the end, or mid-result
                result = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                raise WorkerLost(f"a sweep worker ended without a result ({self._reap()})"
                                 ) from None
            if result is None or isinstance(result, Exception):
                self._reap()
                if result is None:
                    return
                raise result
            yield result
            del result  # freed before the next one is read

    def _reap(self) -> str:
        """Close the pipe, reap the worker and say how it ended."""
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        code = os.waitstatus_to_exitcode(status)
        return f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"

    def stop(self) -> None:
        """Kill and reap the worker, unless ``results`` already has."""
        self.pipe.close()
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = 0


def _serve(write: int, job: Callable[[], Iterable[Any]], parent: int) -> None:
    """The forked worker's whole life: send each of ``job``'s results, then
    None, or the error that cut them short, and exit.

    It never returns, prints or flushes the buffers it shares with its parent,
    whatever ``job`` raises, Ctrl-C included.  It asks the kernel to kill it
    when ``parent`` dies, and exits if ``parent`` already has; should the kernel
    refuse, ``parent`` still reaps it on every path it controls."""
    status = 1
    try:
        with suppress(ImportError):  # a Python built without ctypes
            import ctypes  # here, so that only the workers load it
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
            prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
        if os.getppid() != parent:  # the parent died before the request
            return
        with open(write, "wb") as pipe:
            try:
                for result in job():
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()  # all of it, before the next result is made
                    del result  # a cut is dropped before the next is built
                end = None
            except Exception as err:
                end = err if isinstance(err, _FORWARDED) else WorkerLost(
                    f"a sweep worker ended without a result ({type(err).__name__}: {err})")
            pickle.dump(end, pipe)
        status = 0
    finally:
        os._exit(status)
