import itertools
import random
import sys
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspec import cli
from mainspec.graph6 import parse_graph6, serialize_graph6
from mainspec.graphs import (
    MAX_ENUM_ORDER,
    FamilySpec,
    Graph,
    ParameterError,
    Facts,
    build_family,
    check_stack,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    empty_graph,
    facts,
    family_of,
    harmonic_tree,
    is_bipartite,
    is_connected,
    path,
    pendant_decorated,
    stack_facts,
    stack_graphs,
    store_facts,
    star,
    triangle_pairs,
)
from mainspec.sweeps import mask_population, sample_masks, sweep

# Frozen labeled-graph counts (total, connected) up to n = 5.
ENUM_COUNTS = {1: (1, 1), 2: (2, 1), 3: (8, 4), 4: (64, 38), 5: (1024, 728)}


def mask_strategy(max_n=7):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1),
        )
    )


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ParameterError):
            Graph(0, ())

    def test_row_check_is_linear_in_the_order(self):
        # Each row is tested by shifting it right by n, not by masking it
        # with an n-bit complement, so an edgeless order-200,000 graph builds
        # at once; bit n is still refused.
        n = 200_000
        start = time.perf_counter()
        Graph(n, (0,) * n)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(ParameterError, match="row 1 references"):
            Graph(n, (0, 1 << n) + (0,) * (n - 2))

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ParameterError):
            Graph(2, (0b10, 0b00))

    def test_numpy_endpoints_build_the_same_graph(self):
        # 1 << np.int64(70) wraps; each endpoint is taken as a Python int.
        g = Graph.from_edges(100, [(np.int64(0), np.int64(70)), (np.int32(70), np.uint8(99))])
        assert g == Graph.from_edges(100, [(0, 70), (70, 99)])
        assert g.rows[0] == 1 << 70 and g.rows[70] == 1 | 1 << 99
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T) and a.sum() == 4

    @pytest.mark.parametrize("edge", [(0.0, 1), (0, np.float64(1)), ("0", 1)])
    def test_rejects_non_integer_endpoints(self, edge):
        with pytest.raises(ParameterError, match="non-integer endpoint"):
            Graph.from_edges(3, [edge])

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1

    def test_neighbors_and_degree(self):
        g = star(4)
        assert sorted(g.neighbors(0)) == [1, 2, 3]
        assert g.degrees() == (3, 1, 1, 1)

    def test_adjacency_matrix_symmetric(self):
        a = double_star(2, 3).adjacency_matrix()
        assert (a == a.T).all()
        assert a.trace() == 0

    @pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17, 63, 64, 65, 200])
    def test_adjacency_matrix_matches_the_double_loop(self, n):
        # orders on both sides of each byte boundary of the packed rows
        def by_loops(g):
            a = np.zeros((g.n, g.n))
            for i in range(g.n):
                for j in range(g.n):
                    if g.rows[i] >> j & 1:
                        a[i, j] = 1.0
            return a

        rng = random.Random(n)
        for p in (0.0, 0.3, 0.7, 1.0):
            g = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)
                                     if rng.random() < p])
            a = g.adjacency_matrix()
            assert a.dtype == np.float64
            assert np.array_equal(a, by_loops(g))

    def test_triangle_pairs_column_major(self):
        # (0,1), (0,2), (1,2), (0,3), ... — the graph6 bit order.
        assert triangle_pairs(4) == ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))


class TestEnumeration:
    """The edge-mask population that exhaustive sweeps walk."""

    @pytest.mark.parametrize("n", sorted(ENUM_COUNTS))
    def test_total_counts(self, n):
        total, _ = ENUM_COUNTS[n]
        graphs = {Graph.from_edge_mask(n, m) for m in range(mask_population(n))}
        assert len(graphs) == mask_population(n) == total

    @pytest.mark.parametrize("n", sorted(ENUM_COUNTS))
    def test_connected_counts(self, n):
        _, conn = ENUM_COUNTS[n]
        masks = range(mask_population(n))
        assert sum(is_connected(Graph.from_edge_mask(n, m)) for m in masks) == conn

    def test_order_cap(self, capsys):
        assert cli.main(["verify", "T45", "--exhaustive", str(MAX_ENUM_ORDER + 1)]) == 2
        assert f"between 1 and {MAX_ENUM_ORDER}" in capsys.readouterr().err

    def test_masks_are_distinct(self):
        # bit k of a mask is the k-th triangle pair, so each mask names its own graph
        pairs = triangle_pairs(4)
        seen = set()
        for m in range(mask_population(4)):
            g = Graph.from_edge_mask(4, m)
            assert g == Graph.from_edges(4, [pairs[k] for k in range(len(pairs)) if m >> k & 1])
            seen.add(g)
        assert len(seen) == 64

    @pytest.mark.parametrize("n", range(1, 7))
    def test_edge_masks_build_valid_rows(self, n):
        # ``from_edge_mask`` walks the mask column by column and skips the
        # constructor's checks: a per-pair reference gives the same rows, the
        # constructor accepts them, ``edge_mask`` gives the mask back, and
        # graph6 round-trips through the mask.
        pairs = triangle_pairs(n)
        for mask in range(mask_population(n)):
            rows = [0] * n
            for bit, (i, j) in enumerate(pairs):
                if mask >> bit & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            g = Graph.from_edge_mask(n, mask)
            assert g.rows == tuple(rows)
            assert g.edge_mask() == mask
            assert Graph(n, g.rows) == g
            assert parse_graph6(serialize_graph6(g)) == g

    @pytest.mark.parametrize("n", [0, -1])
    def test_unchecked_builders_keep_the_order_check(self, n):
        # An empty row tuple is valid rows but not a graph.
        with pytest.raises(ParameterError) as want:
            Graph(n, ())
        with pytest.raises(ParameterError) as by_mask:
            Graph.from_edge_mask(n, 0)
        with pytest.raises(ParameterError) as by_edges:
            Graph.from_edges(n, [])
        assert str(by_mask.value) == str(by_edges.value) == str(want.value)
        assert str(want.value) == f"graph order must be >= 1, got {n}"


@settings(max_examples=300)
@given(mask_strategy())
def test_complement_involution(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    assert g.complement().complement() == g


@settings(max_examples=300)
@given(mask_strategy())
def test_complement_edge_count(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    assert g.m + g.complement().m == n * (n - 1) // 2


@settings(max_examples=300)
@given(mask_strategy())
def test_handshake(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    assert sum(g.degrees()) == 2 * g.m


@settings(max_examples=200)
@given(mask_strategy(6))
def test_degree_data_consistent(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    gf = facts(g)
    assert gf.degrees == g.degrees()
    assert gf.m == g.m
    assert gf.sum_squares == sum(d * d for d in g.degrees())


class TestPredicates:
    def test_connected_path(self):
        assert is_connected(path(6))

    def test_disconnected(self):
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))

    def test_single_vertex_connected(self):
        assert is_connected(empty_graph(1))

    def test_bipartite_even_cycle(self):
        assert is_bipartite(cycle(6))
        assert not is_bipartite(cycle(5))

    def test_bipartition_is_valid(self):
        g = double_star(2, 3)
        parts = facts(g).sides
        assert parts is not None
        left, right = parts
        assert set(left) | set(right) == set(range(g.n))
        for u, v in g.edges():
            assert (u in left) != (v in left)

    def test_bipartition_matches_dfs_two_coloring(self):
        # Reference: depth-first two-coloring, each component from its
        # smallest vertex with color 0.
        def dfs_bipartition(g):
            color = [-1] * g.n
            for start in range(g.n):
                if color[start] != -1:
                    continue
                color[start] = 0
                stack = [start]
                while stack:
                    u = stack.pop()
                    for w in g.neighbors(u):
                        if color[w] == -1:
                            color[w] = 1 - color[u]
                            stack.append(w)
                        elif color[w] == color[u]:
                            return None
            return (tuple(v for v in range(g.n) if color[v] == 0),
                    tuple(v for v in range(g.n) if color[v] == 1))

        for n in range(1, 7):
            for mask in range(mask_population(n)):
                g = Graph.from_edge_mask(n, mask)
                assert facts(g).sides == dfs_bipartition(g), (n, mask)

    def test_facts_are_kept_on_the_graph(self):
        g = path(5)
        assert facts(g) is facts(g)
        assert facts(path(5)) is not facts(g)  # equal graph, own object
        assert path(5) == g and hash(path(5)) == hash(g)


def _gnp(n, p, seed):
    return nx.gnp_random_graph(n, p, seed=seed)


def _nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


# Above order 62 the lazy route is the only one.  The seeds give a connected
# graph with odd cycles, disconnected graphs with and without odd cycles, and
# forests of 22 to 104 components; the families add two-colorings with a
# constant ratio (K_{100,100}, harmonic_tree(5), two disjoint harmonic_tree(4))
# and without one.
_LARGE = {
    "G(63,.5)": _gnp(63, 0.5, 1), "G(63,.02)": _gnp(63, 0.02, 0),
    "G(100,.02)": _gnp(100, 0.02, 2), "G(100,.012)": _gnp(100, 0.012, 2),
    "G(200,.3)": _gnp(200, 0.3, 4), "G(200,.004)": _gnp(200, 0.004, 3),
    "K100,100": _nx(complete_bipartite(100, 100)), "P200": _nx(path(200)),
    "T5": _nx(harmonic_tree(5)), "C40+4": _nx(pendant_decorated(cycle(40), 4)),
    "2T4": nx.disjoint_union(_nx(harmonic_tree(4)), _nx(harmonic_tree(4))),
}


@pytest.mark.parametrize("G", _LARGE.values(), ids=_LARGE.keys())
def test_lazy_facts_above_the_stack_order_match_networkx(G):
    n = G.number_of_nodes()
    assert n >= 63
    f = facts(Graph.from_edges(n, list(G.edges())))
    degrees = tuple(d for _, d in sorted(G.degree()))
    assert (f.degrees, f.m, f.sum_squares) == (degrees, G.number_of_edges(),
                                               sum(d * d for d in degrees))
    assert f.connected == nx.is_connected(G)
    if not nx.is_bipartite(G):
        assert f.sides is None
    else:
        side0, side1 = f.sides
        assert list(side0) == sorted(side0) and list(side1) == sorted(side1)
        assert sorted(side0 + side1) == list(range(n))
        assert all((u in side0) != (v in side0) for u, v in G.edges())
        assert all(min(comp) in side0 for comp in nx.connected_components(G))
    ratios = {Fraction(sum(G.degree(w) for w in G[v]), G.degree(v)) if G.degree(v) else None
              for v in G}
    ratio = ratios.pop() if len(ratios) == 1 else None
    assert f.ratio == (None if ratio is None else (ratio.numerator, ratio.denominator))


class TestConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_symmetry_check_rejects_what_a_pair_walk_rejects(self, n):
        # Every loop-free row tuple of order n: the set-bit walk in
        # __post_init__ rejects exactly the tuples with an asymmetric pair.
        others = [[row for row in range(1 << n) if not row >> i & 1] for i in range(n)]
        for rows in itertools.product(*others):
            asymmetric = any((rows[i] >> j & 1) != (rows[j] >> i & 1)
                             for i, j in triangle_pairs(n))
            try:
                Graph(n, rows)
            except ParameterError as err:
                assert asymmetric and "not symmetric" in str(err), rows
            else:
                assert not asymmetric, rows


class TestStacks:
    @pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None), (4, None),
                                           (5, None), (6, None), (8, 8192)])
    def test_sweep_facts_match_the_per_graph_functions(self, n, sample):
        # Every graph a sweep yields, its complement included (a second batch
        # for the order-8 sample), is the graph of its mask and has the facts
        # record the lazy route computes on a fresh copy of it.  The selected
        # masks' graphs carry it, so the record's body runs for none of them;
        # the complement batch's graphs compute theirs when asked.
        masks = np.arange(mask_population(n)) if sample is None else sample_masks(n, sample)
        selected = set(masks.tolist())
        full = mask_population(n) - 1
        swept = {id(h): (h, mask)  # an exhaustive sweep yields each graph twice
                 for (a, co), m in zip(sweep(n, masks=masks), masks.tolist())
                 for h, mask in ((a.graph, m), (co.graph, full ^ m))}
        body = facts.__wrapped__.__code__
        ran = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is body:
                ran.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            stacked = [(h, mask, facts(h)) for h, mask in swept.values() if mask in selected]
        finally:
            sys.setprofile(None)
        assert ran == []
        lazy = [(h, mask, facts(h)) for h, mask in swept.values() if mask not in selected]
        assert (lazy == []) is (sample is None)
        for h, mask, record in stacked + lazy:
            ref = Graph.from_edge_mask(n, mask)
            assert h == ref and hash(h) == hash(ref) and h.rows == ref.rows
            assert record == facts(ref), (n, mask)

    def test_complement_batch_graphs_have_no_stored_facts(self):
        # A sampled sweep's complement batch only ever serves as ``co``, whose
        # facts no checker or filter reads: none are stored, and one read
        # lazily is what the stack path gives for the same graph.
        n = 7
        masks = sample_masks(n, 256)
        selected = set(masks.tolist())
        full = mask_population(n) - 1

        def stored(h):
            return [v for v in h.__dict__.values() if isinstance(v, Facts)]

        batch = [(co.graph, full ^ m) for (_, co), m in zip(sweep(n, masks=masks), masks.tolist())
                 if full ^ m not in selected]
        assert len(batch) > 200
        for h, mask in batch:
            assert stored(h) == [], mask
        refs = [Graph.from_edge_mask(n, mask) for _, mask in batch]
        store_facts(refs, stack_facts(np.array([g.rows for g in refs], dtype=np.int64)))
        for (h, mask), ref in zip(batch, refs):
            assert stored(ref) == [facts(ref)]
            assert facts(h) == facts(ref), mask

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_check_accepts_what_the_constructor_accepts(self, n):
        others = [[row for row in range(1 << n) if not row >> i & 1] for i in range(n)]
        valid = []
        for rows in itertools.product(*others):
            try:
                valid.append(Graph(n, rows))
            except ParameterError:
                with pytest.raises(ParameterError):
                    check_stack(np.array([rows], dtype=np.int64))
        rows = np.array([g.rows for g in valid], dtype=np.int64)
        check_stack(rows)
        assert stack_graphs(rows) == valid

    @pytest.mark.parametrize("vertex, flip, message", [
        (3, 1 << 3, "stack graph 5: loop at vertex 3"),
        (1, 1 << 4, "stack graph 5: adjacency not symmetric at (1, 4)"),
        (2, 1 << 6, "stack graph 5: row 2 references vertices >= n"),
    ], ids=["loop", "asymmetric", "bit-past-n"])
    def test_stack_check_rejects_a_bad_row(self, vertex, flip, message):
        rows = np.array([Graph.from_edge_mask(6, m).rows for m in range(0, 32768, 997)],
                        dtype=np.int64)
        rows[5, vertex] ^= flip
        with pytest.raises(ParameterError) as err:
            check_stack(rows)
        assert str(err.value) == message

    def test_complement_rows_pass_the_constructor(self):
        # ``complement`` skips the checks; the constructor accepts its rows.
        for n in range(1, 6):
            for mask in range(mask_population(n)):
                c = Graph.from_edge_mask(n, mask).complement()
                assert Graph(n, c.rows) == c == Graph.from_edge_mask(n, mask_population(n) - 1 ^ mask)


class TestFamilies:
    @pytest.mark.parametrize("n,expected_m", [(1, 0), (2, 1), (5, 4)])
    def test_path_edges(self, n, expected_m):
        assert path(n).m == expected_m

    def test_cycle(self):
        g = cycle(5)
        assert g.m == 5 and set(g.degrees()) == {2}

    def test_cycle_min_order(self):
        with pytest.raises(ParameterError):
            cycle(2)

    def test_complete(self):
        g = complete(5)
        assert g.m == 10 and set(g.degrees()) == {4}

    def test_star_is_complete_bipartite(self):
        assert star(5) == complete_bipartite(1, 4)

    def test_double_star_counts(self):
        for k, s in [(1, 1), (2, 3), (5, 2)]:
            g = double_star(k, s)
            assert g.n == k + s + 2
            assert g.m == k + s + 1
            assert is_connected(g) and is_bipartite(g)

    def test_double_star_degrees(self):
        g = double_star(2, 3)
        assert sorted(g.degrees(), reverse=True) == [4, 3, 1, 1, 1, 1, 1]

    def test_family_of_names_exactly_the_builders_layout(self):
        assert path(4).edges() == [(0, 1), (1, 2), (2, 3)]
        assert double_star(2, 3).edges() == [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)]
        specs = [FamilySpec("path", (n,)) for n in range(1, 9)]
        specs += [FamilySpec("doublestar", (k, s)) for k in range(1, 5) for s in range(1, 5)]
        for spec in specs:
            assert family_of(build_family(spec)) == spec
        relabelled = [Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3)]),
                      Graph.from_edges(5, [(2, 3), (2, 0), (3, 1), (3, 4)])]
        for g in [cycle(5), star(5), complete(3), empty_graph(4), *relabelled]:
            assert family_of(g) is None

    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_harmonic_tree_degree_multiset(self, ell):
        g = harmonic_tree(ell)
        h = ell * ell - ell + 1
        expected = sorted([h] + [ell] * h + [1] * (h * (ell - 1)), reverse=True)
        assert sorted(g.degrees(), reverse=True) == expected
        assert g.n == ell**3 - ell**2 + ell + 1
        assert is_connected(g)
        assert g.m == g.n - 1  # a tree

    def test_builders_rows_are_their_documented_edges(self):
        # The builders write rows in closed form and skip the constructor's
        # checks; each must equal ``Graph.from_edges`` of the edges it documents.
        def tree_edges(ell):
            h = ell * ell - ell + 1
            return 1 + h * ell, [(0, v) for v in range(1, h + 1)] + [
                (v, h + 1 + (v - 1) * (ell - 1) + t) for v in range(1, h + 1) for t in range(ell - 1)]

        cases = [(path(n), n, [(i, i + 1) for i in range(n - 1)]) for n in range(1, 30)]
        cases += [(cycle(n), n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 30)]
        cases += [(complete(n), n, triangle_pairs(n)) for n in range(1, 30)]
        cases += [(empty_graph(n), n, []) for n in range(1, 30)]
        cases += [(star(n), n, [(0, v) for v in range(1, n)]) for n in range(1, 30)]
        cases += [(complete_bipartite(r, s), r + s, [(a, r + b) for a in range(r) for b in range(s)])
                  for r in range(1, 12) for s in range(1, 12)]
        cases += [(double_star(k, s), 2 + k + s, [(0, 1)] + [(0, 2 + t) for t in range(k)]
                   + [(1, 2 + k + t) for t in range(s)]) for k in range(1, 12) for s in range(1, 12)]
        cases += [(harmonic_tree(ell), *tree_edges(ell)) for ell in range(2, 7)]
        bases = [cycle(3), cycle(8), complete(1), complete(2), complete(6), complete_bipartite(3, 3)]
        cases += [(pendant_decorated(base, q), base.n * (q + 1), base.edges() + [
                   (v, base.n + v * q + t) for v in range(base.n) for t in range(q)])
                  for base in bases for q in range(1, 6)]
        for g, n, edges in cases:
            want = Graph.from_edges(n, edges)
            assert (g.n, g.rows) == (want.n, want.rows), (g, want)

    def test_pendant_order(self):
        g = pendant_decorated(cycle(5), 2)
        assert g.n == 15
        assert sorted(set(g.degrees())) == [1, 4]

    def test_pendant_requires_regular(self):
        with pytest.raises(ParameterError):
            pendant_decorated(path(4), 1)

    def test_pendant_requires_connected(self):
        with pytest.raises(ParameterError):
            pendant_decorated(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
