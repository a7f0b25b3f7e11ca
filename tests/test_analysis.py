"""The two-route reconciliation layer."""
import contextlib
import gc
import inspect
import io
import itertools
import os
import re
import sys
import weakref
from collections import Counter, deque

import numpy as np
import pytest

from mainspec import cli, exact, spectra, sweeps, theorems
from mainspec.analysis import (
    GraphAnalysis,
    RouteDisagreementError,
    analyze_graph,
    records,
    resolve_spectrum,
)
from mainspec.graph6 import parse_graph6
from mainspec.graphs import (
    Facts,
    Graph,
    ParameterError,
    complete,
    cycle,
    double_star,
    facts,
    harmonic_tree,
    path,
    pendant_decorated,
    star,
)
from mainspec.spectra import EigenGroup, MainSpectrum, SpectralInvariantError
from mainspec.sweeps import mask_population, sweep


def test_routes_agree_exhaustively_n4():
    for mask in range(mask_population(4)):
        a = analyze_graph(Graph.from_edge_mask(4, mask))  # strict: would raise on disagreement
        assert a.s_float == a.rank
        assert not a.used_fallback


@pytest.mark.parametrize(
    "g,count",
    [
        (path(6), 3),
        (cycle(6), 1),
        (star(6), 2),
        (double_star(2, 3), 4),
        (double_star(3, 3), 2),
        (harmonic_tree(2), 2),
        (pendant_decorated(cycle(5), 2), 2),
    ],
    ids=["P6", "C6", "K_1_5", "T23", "T33", "HT2", "H2_2"],
)
def test_family_main_counts(g, count):
    a = analyze_graph(g)
    assert a.main_count == count
    assert a.rank == count


def test_path6_main_values():
    a = analyze_graph(path(6))
    expected = [1.801937735804838, 0.445041867912629, -1.246979603717467]
    got = a.spectrum.main_values()
    assert len(got) == 3
    for v, e in zip(got, expected):
        assert abs(v - e) < 1e-10


def test_pendant_cycle_mains():
    # two-main family: values 1 +- sqrt(1+q) for q pendants on a 2-regular base
    a = analyze_graph(pendant_decorated(cycle(5), 2))
    v1, v2 = a.spectrum.main_values()
    assert abs(v1 - 2.732050807568877) < 1e-10
    assert abs(v2 + 0.732050807568877) < 1e-10


def test_harmonic_levels():
    assert analyze_graph(harmonic_tree(3)).harmonic_level == 3
    assert analyze_graph(cycle(5)).harmonic_level == 2
    assert analyze_graph(path(4)).harmonic_level is None
    assert analyze_graph(path(4)).is_harmonic is False


def test_eigenvalue_by_position():
    a = analyze_graph(cycle(4))  # spectrum 2, 0, 0, -2
    assert a.eigenvalue(0) == a.lambda_max
    assert abs(a.eigenvalue(1)) < 1e-12
    assert abs(a.eigenvalue(2)) < 1e-12
    assert a.eigenvalue(3) == a.lambda_min
    with pytest.raises(IndexError):
        a.eigenvalue(4)


@pytest.mark.parametrize("label,rank", [(b"GvO\\eG", 6), (b"GiRIOc", 8), (b"GAayG[", 8)])
def test_small_main_projections_count_as_main(label, rank):
    # Main projections near 7e-7: a 1e-6 * n threshold called them non-main
    # and the confident float count fell one short of the rank.
    a = analyze_graph(parse_graph6(label))
    assert a.s_float == a.rank == a.main_count == rank
    assert not a.used_fallback


def test_gray_zone_uses_fallback(monkeypatch):
    # P_39 with the band pinned at 1e-6 * n: one projection sits inside the
    # gray band, so the float route abstains and the exact rank decides.
    # Still strict-safe.
    monkeypatch.setattr(spectra, "MAIN_TOL", 1e-6)
    a = analyze_graph(path(39))
    assert a.used_fallback
    assert a.s_float is None
    assert a.main_count == a.rank == 20


def test_fallback_keeps_path_parity(monkeypatch):
    monkeypatch.setattr(spectra, "MAIN_TOL", 1e-6)
    a = analyze_graph(path(39))
    assert a.used_fallback
    # mains must still be exactly the odd-index eigenvalues
    for idx, grp in enumerate(a.spectrum.groups):
        assert grp.is_main == ((idx + 1) % 2 == 1)


def test_double_star_14_15_fallback_consistent():
    a = analyze_graph(double_star(14, 15))
    assert a.main_count == a.rank == 4


def test_analyze_pair_orders():
    g = path(4)
    a, c = analyze_graph(g), analyze_graph(g.complement())
    assert a.graph.m + c.graph.m == 6
    assert a.main_count == c.main_count  # complement preserves the count


def test_resolve_spectrum_disagreement_surfaces():
    spectrum = MainSpectrum((
        EigenGroup(2.0, 1, 4.0, True),
        EigenGroup(-1.0, 1, 1e-30, False),
    ))
    final, s_float, used_fallback = resolve_spectrum(spectrum, [True, False], [], 2)
    # the resolver reports the float count as-is; strict analyze_graph would
    # turn this mismatch into RouteDisagreementError
    assert s_float == 1
    assert not used_fallback
    assert final == spectrum


def test_resolve_spectrum_unreachable_rank_is_a_disagreement():
    # One confident main and one gray group cannot make three mains: the gray
    # group takes its threshold flag and the threshold count stands against
    # the rank, instead of the confident non-main group being flipped.
    spectrum = MainSpectrum((
        EigenGroup(2.0, 1, 4.0, True),
        EigenGroup(0.5, 1, 1e-3, False),
        EigenGroup(-1.0, 1, 1e-12, None),
    ))
    final, s_float, used_fallback = resolve_spectrum(spectrum, [True, False, True], [2], 3)
    assert (s_float, used_fallback) == (2, False)
    assert [g.is_main for g in final.groups] == [True, False, True]


# P_39 under these thresholds has 17 confident mains and one gray group
# (projection 7.0e-4 against MAIN_TOL * n = 3.9e-3) for a walk rank of 20.
UNREACHABLE_GRAY = {"MAIN_TOL": 1e-4, "GRAY_LO": 0.1, "GRAY_HI": 0.2}


def test_unreachable_rank_raises_disagreement(monkeypatch):
    for name, value in UNREACHABLE_GRAY.items():
        monkeypatch.setattr(spectra, name, value)
    with pytest.raises(RouteDisagreementError) as info:
        analyze_graph(path(39))
    assert (info.value.s_float, info.value.rank) == (17, 20)
    assert "walk-matrix rank is 20" in str(info.value)
    # The stacked route returns the same analysis as data, for a sweep to report.
    g = path(39)
    a, _ = sweeps.analyze_with_complements([g])[g]
    assert a.disagrees and not a.used_fallback
    assert a.s_float == a.main_count == 17
    assert None not in [g.is_main for g in a.spectrum.groups]


def _per_graph_reference(g):
    """``g``'s analysis by the per-graph rule, away from any stack: its groups
    with the float route's flags, gray groups settled by ``resolve_with_rank``
    on its walk rank, or given their threshold flags where that rank is out
    of reach."""
    spectrum = spectra.group_eigenvalues(spectra.eigen_decompose(g))
    adj = g.adjacency_matrix().astype(np.int64)[None]
    rank, level = exact.walk_ranks(adj)[0], exact.harmonic_levels(adj)[0]
    if None not in [grp.is_main for grp in spectrum.groups]:
        return GraphAnalysis(g, spectrum, rank, spectrum.main_count, level)
    try:
        return GraphAnalysis(g, spectra.resolve_with_rank(spectrum, rank), rank, None, level)
    except ValueError:
        flags, _ = spectra.classify_flags(spectrum.groups, g.n)
        spectrum = MainSpectrum(tuple(grp._replace(is_main=flag)
                                      for grp, flag in zip(spectrum.groups, flags)))
        return GraphAnalysis(g, spectrum, rank, spectrum.main_count, level)


@pytest.mark.parametrize("band", [{"MAIN_TOL": 1e-6}, UNREACHABLE_GRAY],
                         ids=["settled", "unreachable"])
def test_a_gray_band_stack_gives_the_per_graph_records(monkeypatch, band):
    # One order-39 stack in which P_39's rows take the gray-zone fallback
    # (or, out of the rank's reach, the threshold flags) and the other rows
    # do not: each row is settled alone, and every record built from the
    # columns, through a family stack or a stack of rows, is the per-graph one.
    for name, value in band.items():
        monkeypatch.setattr(spectra, name, value)
    stack = [path(39), cycle(39), star(39), double_star(18, 19), complete(39)]
    want = {h: _per_graph_reference(h) for g in stack for h in (g, g.complement())}
    gray = [h for h, a in want.items() if a.used_fallback or a.disagrees]
    assert path(39) in gray and len(gray) < len(want)
    found = sweeps.analyze_with_complements(stack)
    assert {h: a for pair in found.values() for a in pair for h in [a.graph]} == want
    graphs = list(want)
    rows = np.array([h.rows for h in graphs], dtype=np.int64)
    block = sweeps.analyze_stack(np.stack([h.adjacency_matrix() for h in graphs]), rows)
    assert records(block, np.arange(len(graphs)), facts=np.ones(len(graphs), bool)) == [
        want[h] for h in graphs]


@pytest.mark.parametrize("sweep_block", [False, True], ids=["family", "sweep"])
def test_an_empty_stack_is_an_empty_block(sweep_block):
    # The same columns as a block of graphs, with no row in them.
    adj = np.stack([path(6).adjacency_matrix(), cycle(6).adjacency_matrix()])
    rows = np.array([path(6).rows, cycle(6).rows], dtype=np.int64) if sweep_block else None

    def columns(block):
        return [(c.shape, c.dtype) for field in block if field is not None
                for c in (field if isinstance(field, tuple) else [field])]

    full = sweeps.analyze_stack(adj, rows)
    empty = sweeps.analyze_stack(adj[:0], None if rows is None else rows[:0])
    assert columns(empty) == [((0,) + shape[1:], dtype) for shape, dtype in columns(full)]
    assert records(empty, [], None if sweep_block else []) == []


def test_strict_flag_difference():
    # analyze_graph is always strict now: it raises on a route disagreement and
    # returns a plain analysis when the routes agree; the stacked route returns
    # a disagreement as data instead (test_unreachable_rank_raises_disagreement).
    err = RouteDisagreementError(1, 2)
    assert err.s_float == 1 and err.rank == 2
    assert "walk-matrix rank" in str(err)
    a = analyze_graph(path(5))
    assert isinstance(a, GraphAnalysis)
    assert not a.disagrees and a.s_float == a.rank


def test_sweep_matches_analyze_graph():
    # both go through analysis.finish_block; only the batch size differs
    for ga, _ in sweep(5, masks=np.arange(0, mask_population(5), 5)):
        a = analyze_graph(ga.graph)
        assert (ga.rank, ga.s_float, ga.used_fallback, ga.harmonic_level) == (
            a.rank, a.s_float, a.used_fallback, a.harmonic_level)
        assert [g.is_main for g in ga.spectrum.groups] == [g.is_main for g in a.spectrum.groups]


def test_exhaustive_sweep_analyses_each_graph_once(monkeypatch):
    # the complement of mask m is mask full ^ m, already in the order-5 chunk
    stacks = []
    batch = spectra.eigen_decompose_batch

    def recording(mats):
        stacks.append(mats)
        return batch(mats)

    monkeypatch.setattr(spectra, "eigen_decompose_batch", recording)
    pairs = list(sweep(5))
    masks = np.arange(mask_population(5), dtype=np.int64)
    assert np.array_equal(np.concatenate(stacks), sweeps.adjacency_stack(5, masks))
    assert [a.graph for a, _ in pairs] == [Graph.from_edge_mask(5, m) for m in masks.tolist()]
    assert all(co.graph == a.graph.complement() for a, co in pairs)


def _verify_json_pairs(n):
    """The (analysis, complement analysis) pairs ``verify all --exhaustive n
    --json`` checks, as its sweep yields them."""
    pairs = []
    real = sweeps.pairs

    def recording(cut, which=None):
        found = real(cut, which)
        pairs.extend(found)
        return found

    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()):
        mp.setattr(sweeps, "pairs", recording)
        assert cli.main(["verify", "all", "--exhaustive", str(n), "--json"]) == 0
    return pairs


def _chunk_build_stacks(monkeypatch):
    """The stacks the sweep's block builds send to the eigensolver, as they come."""
    stacks = []
    building = []
    chunk = sweeps._block
    batch = spectra.eigen_decompose_batch

    def build(*args, **kwargs):
        building.append(True)
        try:
            return chunk(*args, **kwargs)
        finally:
            building.pop()

    def recording(mats):
        if building:
            stacks.append(mats)
        return batch(mats)

    monkeypatch.setattr(sweeps, "_block", build)
    monkeypatch.setattr(spectra, "eigen_decompose_batch", recording)
    return stacks


@pytest.mark.parametrize("route", [lambda n: list(sweep(n)), _verify_json_pairs],
                         ids=["sweep", "verify-json"])
def test_a_multi_chunk_population_sweep_analyses_each_graph_once(monkeypatch, route):
    # Every chunk of a population sweep holds its complements, so no graph
    # goes through a second, complement batch, whatever the chunk size.
    monkeypatch.setattr(sweeps, "_BLOCK", 256)
    stacks = _chunk_build_stacks(monkeypatch)
    pairs = route(5)
    swept = [len(mats) for mats in stacks]  # graphs sent by the sweep's chunk builds
    assert sum(swept) == mask_population(5) == 1024
    assert Counter(a.graph for a, _ in pairs) == Counter(
        Graph.from_edge_mask(5, m) for m in range(mask_population(5)))
    assert all(co.graph == a.graph.complement() for a, co in pairs)


def test_a_closed_chunk_is_never_cut_again(monkeypatch):
    # ``sweep`` cuts every chunk at ``_BLOCK``, the size of a closed chunk:
    # each of the order-5 population's four closed chunks of 256 graphs goes
    # to the eigensolver whole, closed under complement, with no second batch.
    monkeypatch.setattr(sweeps, "_BLOCK", 256)
    stacks = _chunk_build_stacks(monkeypatch)
    assert len(_verify_json_pairs(5)) == mask_population(5)
    assert [len(mats) for mats in stacks] == [256] * 4
    for mats in stacks:
        complements = 1 - np.eye(5) - mats
        assert {m.tobytes() for m in complements} == {m.tobytes() for m in mats}
    decomposed = Counter(m.tobytes() for mats in stacks for m in mats)
    assert len(decomposed) == mask_population(5) and set(decomposed.values()) == {1}


@pytest.mark.parametrize("n", range(1, 6))
def test_a_small_population_is_one_chunk_in_mask_order(n):
    assert np.array_equal(np.concatenate(list(sweeps.shares(n, 1)[0])),
                          np.arange(mask_population(n)))


def test_order_6_chunks_are_sorted_closed_and_partition_the_population():
    # 32,768 graphs in 16 chunks of one block: each in mask order, the
    # stream as a whole is not.
    full = mask_population(6) - 1
    chunks = list(sweeps.shares(6, 1)[0])
    assert [len(c) for c in chunks] == [sweeps._BLOCK] * 16
    for c in chunks:
        assert np.all(np.diff(c) > 0)
        assert np.array_equal(np.sort(full ^ c), c)
    assert np.array_equal(np.sort(np.concatenate(chunks)), np.arange(mask_population(6)))


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("count", range(1, 4))
def test_every_population_chunk_is_one_closed_block(n, count):
    # Orders 7 and 8 are streamed: only each share's first chunks are taken.
    full = mask_population(n) - 1
    for share in sweeps.shares(n, count):
        for c in itertools.islice(share, 3):
            assert 0 < len(c) <= sweeps._BLOCK
            assert np.all(np.diff(c) > 0)
            assert np.array_equal(np.sort(full ^ c), c)


def test_closed_chunks_are_sorted_and_partition_the_population():
    full = mask_population(7) - 1
    for count in (1, 3):
        chunks = [c for share in sweeps.shares(7, count) for c in share]
        for c in chunks:
            assert np.all(np.diff(c) > 0)
            assert np.array_equal(np.sort(full ^ c), c)
        assert np.array_equal(np.sort(np.concatenate(chunks)),
                              np.arange(mask_population(7)))


def test_sweep_streams_masks_chunk_by_chunk(monkeypatch):
    def no_population(n):
        raise AssertionError("the whole mask population was materialised")

    monkeypatch.setattr(sweeps, "_BLOCK", 4)
    monkeypatch.setattr(sweeps, "all_masks", no_population)
    a, co = next(sweep(8))
    assert a.graph == Graph.from_edge_mask(8, 0)
    assert co.graph == complete(8)


def _alive_at_each_build(monkeypatch, first):
    """Cut order 5 into four closed chunks of 256 graphs, and record, as each
    chunk's build starts, whether each weak reference in ``first`` is alive."""
    monkeypatch.setattr(sweeps, "_BLOCK", 256)
    real = sweeps._block
    alive = []

    def build(*args, **kwargs):
        alive.append([ref() is not None for ref in first] if first else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweeps, "_block", build)
    return alive


def test_a_chunk_is_freed_before_the_next_is_built(monkeypatch):
    # A multi-chunk sweep holds one chunk of records at a time: the first
    # chunk's graphs are gone when the second chunk's build starts.
    first = []
    alive = _alive_at_each_build(monkeypatch, first)
    pairs = sweep(5)
    a, _ = next(pairs)
    first.append(weakref.ref(a.graph))
    del a, _
    # Each pair is dropped as it comes: a chunk's last pair is the complement
    # of its first, so a consumer holding it would keep mask 0's graph alive.
    deque(pairs, maxlen=0)
    # four complement-closed order-5 chunks, each built once
    assert alive == [None] + [[False]] * 3


def test_a_verify_cut_is_freed_before_the_next_is_built(monkeypatch):
    # Table-mode verify drops each cut's columns, and the verdicts
    # ``check_block`` made of them, before it asks for the next cut.
    first = []
    alive = _alive_at_each_build(monkeypatch, first)
    check_block = theorems.check_block

    def watched(cut):
        block = check_block(cut)
        if not first:
            first.extend(map(weakref.ref, (cut.block.value, block.verdicts)))
        return block

    monkeypatch.setattr(theorems, "check_block", watched)
    with contextlib.redirect_stdout(io.StringIO()):  # order 5 never forks
        assert cli.main(["verify", "all", "--exhaustive", "5"]) == 0
    assert alive == [None] + [[False, False]] * 3


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_no_collection_starts_inside_a_chunk_build(collector_state):
    # Every record a cut's pairs are built of stays alive until they are
    # yielded, so a collection started while they are built could reclaim
    # none of them.  A block's columns hold no record.
    chunk_code = inspect.unwrap(sweeps.pairs).__code__
    started = []

    def hook(phase, info):
        if phase != "start":
            return
        frame = sys._getframe()
        while frame is not None and frame.f_code is not chunk_code:
            frame = frame.f_back
        if frame is not None:
            started.append(info["generation"])

    gc.enable()
    gc.callbacks.append(hook)
    try:
        assert len(list(sweep(5))) == mask_population(5)
    finally:
        gc.callbacks.remove(hook)
    assert started == []


@pytest.mark.parametrize("enabled", [True, False])
def test_a_sweep_leaves_the_collector_as_it_found_it(collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    assert len(list(sweep(4))) == mask_population(4)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_a_chunk_that_raises_restores_the_collector(collector_state, monkeypatch, enabled):
    def fail(mats):
        raise SpectralInvariantError("injected")

    monkeypatch.setattr(spectra, "eigen_decompose_batch", fail)
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(SpectralInvariantError, match="injected"):
        next(sweep(4))
    assert gc.isenabled() is enabled


def test_the_collector_runs_between_chunks(collector_state, monkeypatch):
    # The sweep's consumer runs the claim checkers; it must do so with the
    # collector on, before, between and after the chunk builds.
    monkeypatch.setattr(sweeps, "_BLOCK", 256)
    gc.enable()
    pairs = sweep(5)
    next(pairs)
    assert gc.isenabled()
    for _ in range(256):
        a, _ = next(pairs)
    # the second closed chunk's first mask: the first chunk is masks 0..127
    # and their complements
    assert a.graph == Graph.from_edge_mask(5, 128)
    assert gc.isenabled()
    pairs.close()
    assert gc.isenabled()


def _block_route(kind, monkeypatch):
    if kind == "population":  # closed chunks of one block each
        return lambda: list(sweep(6)), mask_population(6)
    if kind == "sample":  # ten cuts, each with its complement batch
        masks = sweeps.sample_masks(7, 1000)
        full = mask_population(7) - 1
        return (lambda: list(sweep(7, masks=masks)),
                len(np.union1d(masks, full ^ masks)))
    graphs = [Graph.from_edge_mask(7, m) for m in sweeps.sample_masks(7, 150).tolist()]
    graphs += [path(5), cycle(5)]  # a second, smaller order
    distinct = {h for g in graphs for h in (g, g.complement())}
    return lambda: sweeps.analyze_with_complements(graphs), len(distinct)


def _one_cpu(monkeypatch):
    """Sweep in this process, where a test's spies record, not in a forked producer."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.mark.parametrize("kind", ["population", "sample", "families"])
def test_no_stack_holds_more_than_one_block(monkeypatch, kind):
    # Every eigensolve and finish takes at most ``_BLOCK`` graphs, in a
    # population sweep, a multi-chunk sample with its complement batches and
    # a family stack alike, and each graph is decomposed exactly once.
    _one_cpu(monkeypatch)
    monkeypatch.setattr(sweeps, "_BLOCK", 100)
    decomposed = Counter()
    sizes = {"eigensolve": [], "finish": []}
    batch, finish = spectra.eigen_decompose_batch, sweeps.finish_block

    def recording_batch(mats):
        sizes["eigensolve"].append(len(mats))
        decomposed.update(m.tobytes() for m in mats)
        return batch(mats)

    def recording_finish(adj, *args):
        sizes["finish"].append(len(adj))
        return finish(adj, *args)

    monkeypatch.setattr(spectra, "eigen_decompose_batch", recording_batch)
    monkeypatch.setattr(sweeps, "finish_block", recording_finish)
    route, distinct = _block_route(kind, monkeypatch)
    route()
    assert max(sizes["eigensolve"]) == max(sizes["finish"]) == 100
    assert sum(sizes["eigensolve"]) == sum(sizes["finish"]) == distinct
    assert len(decomposed) == distinct and set(decomposed.values()) == {1}


def test_a_multi_chunk_sample_is_swept_in_mask_order(monkeypatch):
    # ``sweep(n, masks=m)`` yields its pairs in the order of ``m``, across
    # the edges of its cuts and of their complement batches (every 100 graphs).
    monkeypatch.setattr(sweeps, "_BLOCK", 100)
    masks = sweeps.sample_masks(7, 1000)
    want = [Graph.from_edge_mask(7, m) for m in masks.tolist()]
    assert [(a.graph, co.graph) for a, co in sweep(7, masks=masks)] == [
        (g, g.complement()) for g in want]


def _stored_facts(g):
    return any(isinstance(v, Facts) for v in g.__dict__.values())


def _swept_sample(route, n, size):
    """The pairs of order ``n``'s ``size``-mask sample, as ``sweep(n, masks=...)``
    or ``verify all --sample size --json`` sweeps them; whether each pair's two
    graphs had stacked facts when it was yielded; and ``verify``'s output, its
    timestamp cut."""
    pairs, stored = [], []
    real = sweeps.pairs

    def recording(cut, which=None):
        found = real(cut, which)
        pairs.extend(found)
        stored.extend((_stored_facts(a.graph), _stored_facts(co.graph)) for a, co in found)
        return found

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(sweeps, "pairs", recording)
        if route == "sweep":
            deque(sweeps.sweep(n, masks=sweeps.sample_masks(n, size)), maxlen=0)
        else:
            argv = ["verify", "all", "--exhaustive", str(n), "--sample", str(size), "--json"]
            assert cli.main(argv) == 0
    return pairs, stored, re.sub(r'"generated_at": "[^"]*"', "", out.getvalue())


@pytest.mark.parametrize("route", ["sweep", "verify-json"])
def test_a_sample_cut_at_the_block_decomposes_each_graph_once(monkeypatch, route):
    # Under one block, order 5's 600-mask sample is one cut.  Cut 64 masks at
    # a time, over 300 of its masks have their complement selected in another
    # cut, and the carry takes each such pair's two analyses to the later one.
    n, size, block = 5, 600, 64
    whole, _, whole_out = _swept_sample(route, n, size)
    masks = sweeps.sample_masks(n, size)
    full = mask_population(n) - 1
    cut = {m: i // block for i, m in enumerate(masks.tolist())}
    assert sum(cut.get(full ^ m, i) != i for m, i in cut.items()) > 300
    monkeypatch.setattr(sweeps, "_BLOCK", block)
    stacks = _chunk_build_stacks(monkeypatch)
    pairs, stored, out = _swept_sample(route, n, size)
    decomposed = Counter(m.tobytes() for mats in stacks for m in mats)
    assert len(decomposed) == len(np.union1d(masks, full ^ masks))
    assert set(decomposed.values()) == {1}
    want = [Graph.from_edge_mask(n, m) for m in masks.tolist()]
    assert [(a.graph, co.graph) for a, co in pairs] == [(g, g.complement()) for g in want]
    # A complement's facts are stacked where its mask is selected, only there.
    assert stored == [(True, full ^ m in cut) for m in masks.tolist()]
    assert pairs == whole and out == whole_out


def test_the_carry_is_bounded(monkeypatch):
    # All of order 5's masks as a sample, cut 16 at a time: each of the 512
    # masks below 512 has its complement in a later cut, more pairs than the
    # carry's blocks hold.  The pairs it has no room for are decomposed again
    # in their later cut, and no more rows of analysis columns than the
    # cut's, its complement batch's and the carry's are alive at once.
    monkeypatch.setattr(sweeps, "_BLOCK", 16)
    built, decomposed = [], []
    for name in ("analyze_stack", "_take", "_join"):
        def recording(*args, _real=getattr(sweeps, name), _name=name):
            block = _real(*args)
            built.append(weakref.ref(block.rank))
            if _name == "analyze_stack":
                decomposed.append(len(block.rank))
            return block

        monkeypatch.setattr(sweeps, name, recording)
    masks = np.arange(mask_population(5))
    alive = []
    for (a, co), m in zip(sweep(5, masks=masks), masks.tolist()):
        assert a.graph == Graph.from_edge_mask(5, m) and co.graph == a.graph.complement()
        alive.append(sum(len(rank) for ref in built if (rank := ref()) is not None))
    assert max(alive) == (2 + sweeps._CARRY) * 16
    assert mask_population(5) < sum(decomposed) <= 2 * mask_population(5)


@pytest.mark.parametrize("masks", [np.array([0, 1 << 15], dtype=np.int64),
                                   np.array([0, -1], dtype=np.int64),
                                   np.array([1.0, 2.0]), np.array([[0, 1]])],
                         ids=["32768", "-1", "float", "2-D"])
def test_sweep_refuses_a_mask_outside_the_order(masks):
    # 1 << 15 would be read as the empty graph of order 6, and -1 as K_6; a
    # float or 2-D selection holds no edge masks.
    with pytest.raises(ParameterError, match="edge masks of order 6"):
        next(sweep(6, masks=masks))


def test_sweep_takes_any_integer_selection_as_int64():
    want = list(sweep(6, masks=np.array([1, 2])))
    assert len(want) == 2
    for masks in ([1, 2], np.array([1, 2], dtype=np.int8), np.array([1, 2], dtype=np.uint64)):
        assert list(sweep(6, masks=masks)) == want
    assert list(sweep(6, masks=[])) == list(sweep(6, masks=np.array([], dtype=np.int64))) == []


@pytest.mark.parametrize("n", [0, -1, 12])
def test_sweep_refuses_an_order_outside_1_to_11(n):
    # Order 12's 66 edge bits overflow an int64 mask.
    with pytest.raises(ParameterError, match=r"order lies in 1\.\.11, got"):
        next(sweep(n))


def test_sweeping_each_chunk_of_three_shares_alone_decomposes_each_graph_once(monkeypatch):
    # ``verify`` sweeps each chunk of each share as one selection: together
    # they yield the pairs of the one-share sweep, each graph decomposed once.
    _one_cpu(monkeypatch)
    keys = np.concatenate(list(sweeps.shares(6, 1)[0])).tolist()
    want = dict(zip(keys, sweep(6)))
    decomposed = Counter()
    batch = spectra.eigen_decompose_batch

    def recording(mats):
        decomposed.update(m.tobytes() for m in mats)
        return batch(mats)

    monkeypatch.setattr(spectra, "eigen_decompose_batch", recording)
    got, swept = {}, 0
    for share in sweeps.shares(6, 3):
        for chunk in share:
            got.update(zip(chunk.tolist(), sweep(6, masks=chunk)))
            swept += len(chunk)
    assert swept == len(got) == mask_population(6)
    assert got == want
    assert len(decomposed) == mask_population(6) and set(decomposed.values()) == {1}


@pytest.fixture
def producer(monkeypatch):
    """Two usable CPUs, so that a sweep of more than one cut forks its
    producer; returns the list of forked pids."""
    if sys.platform != "linux":
        pytest.skip("the producer is forked on Linux only")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forked


def _no_child_and_no_pipe_left(fds):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def _swept(n, masks=None):
    """Each pair ``sweep`` yields, with whether its two graphs had stacked facts."""
    return [(a, co, _stored_facts(a.graph), _stored_facts(co.graph))
            for a, co in sweep(n, masks=masks)]


def _inline(n, masks=None):
    with pytest.MonkeyPatch.context() as mp:
        _one_cpu(mp)
        return _swept(n, masks)


@pytest.mark.parametrize("n, size", [(6, None), (7, 8192), (8, 8192)],
                         ids=["order6", "order7-sample", "order8-sample"])
def test_the_forked_producer_yields_the_inline_records(producer, n, size):
    # The cuts are built in a forked producer and pickled back; the records
    # built from them, and the facts stacked on their graphs, are the ones
    # one process builds.
    masks = None if size is None else sweeps.sample_masks(n, size)
    want = _inline(n, masks)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert _swept(n, masks) == want
    assert len(producer) == 1
    _no_child_and_no_pipe_left(fds)


def test_a_sweep_of_one_cut_forks_no_producer(producer):
    # A producer would only build the one cut while this process waited; one
    # mask more is a second cut, and the producer is forked.
    masks = sweeps.sample_masks(8, sweeps._BLOCK + 1)
    for selection, forks in ((masks[:-1], 0), (masks, 1)):
        assert _swept(8, selection) == _inline(8, selection)
        assert len(producer) == forks


@pytest.mark.parametrize("masks, match", [
    (np.full(4096, 1 << 40), r"edge masks of order 8 lie in \[0, 268,435,456\)"),
    (np.ones(4096), "edge masks of order 8 are a 1-D integer selection"),
], ids=["out-of-range", "float"])
def test_a_bad_selection_raises_through_the_producer(producer, masks, match):
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(ParameterError, match=match):
        next(sweep(8, masks=masks))
    assert len(producer) == 1
    _no_child_and_no_pipe_left(fds)


def _failing_third_block(monkeypatch, error):
    """Make the third block a sweep builds raise ``error``."""
    real, built = sweeps._block, []

    def build(*args):
        built.append(True)
        if len(built) == 3:
            raise error
        return real(*args)

    monkeypatch.setattr(sweeps, "_block", build)


def test_a_numerical_error_in_the_producer_follows_the_pairs_before_it(producer, monkeypatch):
    # Order 6 is 16 closed chunks of one block: the first two chunks' pairs
    # come through, then the third chunk's error, as in one process.
    want = _inline(6)[:2 * sweeps._BLOCK]
    _failing_third_block(monkeypatch, SpectralInvariantError("injected"))
    fds = sorted(os.listdir("/proc/self/fd"))
    got = []
    with pytest.raises(SpectralInvariantError, match="injected"):
        for a, co in sweep(6):
            got.append((a, co, _stored_facts(a.graph), _stored_facts(co.graph)))
    assert len(producer) == 1
    assert got == want
    _no_child_and_no_pipe_left(fds)
    inline = 0  # the blocks above were counted in the producer: this count starts at 0
    with pytest.MonkeyPatch.context() as mp, pytest.raises(SpectralInvariantError):
        _one_cpu(mp)
        for _ in sweep(6):
            inline += 1
    assert inline == len(got)


@pytest.mark.parametrize("failure", ["error", "exit"])
def test_a_producer_that_fails_outside_the_checks_is_lost(producer, monkeypatch, failure):
    if failure == "error":
        _failing_third_block(monkeypatch, KeyError("injected"))
        message = r"ended without a result \(KeyError: 'injected'\)"
    else:
        monkeypatch.setattr(sweeps, "_block", lambda *args: os._exit(3))
        message = r"ended without a result \(exit status 3\)"
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(sweeps.WorkerLost, match=message):
        deque(sweep(6), maxlen=0)
    _no_child_and_no_pipe_left(fds)


@pytest.mark.parametrize("end", ["close", "raise", "interrupt"])
def test_the_producer_is_reaped_however_the_consumer_stops(producer, end):
    # Closed after one pair, or left by an exception raised in the consumer's
    # loop (Ctrl-C is KeyboardInterrupt), the sweep kills and reaps its
    # producer, and closes its pipe.
    fds = sorted(os.listdir("/proc/self/fd"))
    masks = sweeps.sample_masks(8, 8192)
    if end == "close":
        pairs = sweep(8, masks=masks)
        a, _ = next(pairs)
        assert a.graph == Graph.from_edge_mask(8, int(masks[0]))
        pairs.close()
    else:
        error = ValueError if end == "raise" else KeyboardInterrupt
        with pytest.raises(error):
            for _ in sweep(8, masks=masks):
                raise error
    assert len(producer) == 1
    _no_child_and_no_pipe_left(fds)


def test_pipeline_never_reaches_bareiss(monkeypatch):
    calls = []
    for name in ("walk_matrix", "exact_rank"):
        monkeypatch.setattr(exact, name, lambda *args, _name=name: calls.append(_name))
    rng = np.random.default_rng(10)
    g200 = Graph.from_edges(200, [(i, j) for i in range(200) for j in range(i + 1, 200)
                                  if rng.random() < 0.3])
    for g in (path(10), harmonic_tree(3), double_star(60, 70),
              pendant_decorated(cycle(50), 3), path(200), g200):
        for h in (g, g.complement()):
            assert analyze_graph(h).rank <= h.n
    masks = sweeps.sample_masks(8, 512, 8)
    assert len(sweeps.analyze_stack(sweeps.adjacency_stack(8, masks)).rank) == 512
    assert calls == []


# ---------------------------------------------------------------------------
# The per-graph records are immutable, hashable named tuples.
# ---------------------------------------------------------------------------


def _records():
    g = path(3)
    spectrum = MainSpectrum((EigenGroup(2 ** 0.5, 1, 2.9, True), EigenGroup(0.0, 1, 0.0, False),
                             EigenGroup(-(2 ** 0.5), 1, 0.1, True)))
    return [spectrum.groups[0], GraphAnalysis(g, spectrum, 2, 2, None), facts(g)]


@pytest.mark.parametrize("index", range(3), ids=["EigenGroup", "GraphAnalysis", "Facts"])
def test_a_record_field_cannot_be_assigned(index):
    record = _records()[index]
    hash(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("index, name", [(0, "value"), (1, "rank"), (2, "m")],
                         ids=["EigenGroup", "GraphAnalysis", "Facts"])
def test_replace_leaves_the_record_unchanged(index, name):
    record, same = _records()[index], _records()[index]
    changed = record._replace(**{name: getattr(record, name) + 1})
    assert type(changed) is type(record)
    assert changed is not record and changed != record
    assert getattr(changed, name) == getattr(record, name) + 1
    assert record == same


def _eigen_group_by_keyword(grp):
    return EigenGroup(value=grp.value, multiplicity=grp.multiplicity,
                      projection_norm_sq=grp.projection_norm_sq, is_main=grp.is_main)


def test_build_groups_makes_exact_eigen_groups():
    rng = np.random.default_rng(5)
    adj = sweeps.adjacency_stack(6, rng.choice(mask_population(6), 64, replace=False))
    evals, evecs, _ = spectra.eigen_decompose_batch(adj)
    cols = spectra.build_groups(evals, evecs.sum(axis=1) ** 2)
    rows = spectra.group_rows(*cols)
    assert len(rows) == 64
    for row in rows:
        assert type(row) is tuple
        for grp in row:
            assert type(grp) is EigenGroup
            assert grp == _eigen_group_by_keyword(grp)


def test_sweep_records_have_exact_types_and_equal_keyword_builds():
    for a, co in sweep(4):
        for x in (a, co):
            assert type(x) is GraphAnalysis
            assert x == GraphAnalysis(graph=x.graph, spectrum=x.spectrum, rank=x.rank,
                                      s_float=x.s_float, harmonic_level=x.harmonic_level)
            for grp in x.spectrum.groups:
                assert type(grp) is EigenGroup
                assert grp == _eigen_group_by_keyword(grp)
        f = facts(a.graph)
        assert type(f) is Facts
        assert f == Facts(degrees=f.degrees, m=f.m, sum_squares=f.sum_squares,
                          connected=f.connected, sides=f.sides, ratio=f.ratio)
