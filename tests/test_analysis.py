"""The two-route reconciliation layer."""
import gc
import inspect
import sys
import weakref

import numpy as np
import pytest

from mainspec import exact, spectra, sweeps
from mainspec.analysis import (
    GraphAnalysis,
    RouteDisagreementError,
    analyze_graph,
    resolve_spectrum,
)
from mainspec.graph6 import parse_graph6
from mainspec.graphs import (
    Graph,
    complete,
    cycle,
    double_star,
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
    # both go through analysis.finish_analyses; only the batch size differs
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


def test_sweep_streams_masks_chunk_by_chunk(monkeypatch):
    def no_population(n):
        raise AssertionError("the whole mask population was materialised")

    monkeypatch.setattr(sweeps, "DEFAULT_CHUNK", 4)
    monkeypatch.setattr(sweeps, "all_masks", no_population)
    a, co = next(sweep(8))
    assert a.graph == Graph.from_edge_mask(8, 0)
    assert co.graph == complete(8)


def test_a_chunk_is_freed_before_the_next_is_built(monkeypatch):
    # A multi-chunk sweep holds one chunk of records at a time: the first
    # chunk's graphs are gone when the second chunk's build starts.
    monkeypatch.setattr(sweeps, "DEFAULT_CHUNK", 256)
    real = sweeps._analyses_for_chunk
    first = []
    alive = []

    def build(*args, **kwargs):
        alive.append(first[0]() is not None if first else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweeps, "_analyses_for_chunk", build)
    pairs = sweep(5)
    a, _ = next(pairs)
    first.append(weakref.ref(a.graph))
    del a
    for _ in pairs:
        pass
    # each order-5 chunk is built with its complement batch: 4 chunks, 8 builds
    assert alive == [None, None] + [False] * 6


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_no_collection_starts_inside_a_chunk_build(collector_state):
    # Every record a chunk builds stays alive until its pairs are yielded,
    # so a collection started while one is built could reclaim none of them.
    chunk_code = inspect.unwrap(sweeps._analyses_for_chunk).__code__
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
    monkeypatch.setattr(sweeps, "DEFAULT_CHUNK", 256)
    gc.enable()
    pairs = sweep(5)
    next(pairs)
    assert gc.isenabled()
    for _ in range(256):
        a, _ = next(pairs)
    assert a.graph == Graph.from_edge_mask(5, 256)
    assert gc.isenabled()
    pairs.close()
    assert gc.isenabled()


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
    graphs = [Graph.from_edge_mask(8, m) for m in masks.tolist()]
    assert len(sweeps.analyze_stack(graphs, sweeps.adjacency_stack(8, masks))) == 512
    assert calls == []
