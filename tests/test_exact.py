"""Exact integer route: walk matrices, Bareiss elimination, divisors,
double-star polynomials.  Rank and determinant are cross-checked against a
plain Fraction-based Gaussian elimination oracle."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspec import exact
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
from mainspec.sweeps import mask_population, sample_masks


def fraction_rank(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col] ** -1
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def fraction_det(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = mat[col][col] ** -1
        for r in range(col + 1, n):
            if mat[r][col] != 0:
                factor = mat[r][col] * inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
    return det


int_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-30, max_value=30), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=300)
@given(int_matrix)
def test_rank_matches_fraction_oracle(rows):
    assert exact.exact_rank([list(r) for r in rows]) == fraction_rank(rows)


@settings(max_examples=300)
@given(int_matrix)
def test_det_matches_fraction_oracle(rows):
    det = fraction_det(rows)
    assert det.denominator == 1
    assert exact.exact_det([list(r) for r in rows]) == det.numerator


def _factor(rows, cols):
    return st.lists(st.lists(st.integers(min_value=-5, max_value=5), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


# An r x k times k x c product has rank at most k, so shapes up to 7 x 7 come
# out rectangular and often rank deficient: whole columns are left without a
# pivot once the rows below the current one have been cleared.
low_rank_matrix = st.tuples(*[st.integers(min_value=1, max_value=7)] * 3).flatmap(
    lambda rkc: st.tuples(_factor(rkc[0], rkc[1]), _factor(rkc[1], rkc[2]))
).map(lambda ab: [[sum(x * y for x, y in zip(row, col)) for col in zip(*ab[1])]
                  for row in ab[0]])


@settings(max_examples=300)
@given(low_rank_matrix)
def test_low_rank_products_match_fraction_oracle(rows):
    assert exact.exact_rank(rows) == fraction_rank(rows)
    if len(rows) == len(rows[0]):
        assert exact.exact_det(rows) == fraction_det(rows)


def _gnp(n, p, seed):
    rng = np.random.default_rng(seed)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                if rng.random() < p])


@pytest.mark.parametrize("g", [
    path(10), path(17), path(24),
    pendant_decorated(cycle(5), 1), pendant_decorated(cycle(4), 2),
    pendant_decorated(cycle(8), 2),
    double_star(4, 4), double_star(5, 9), double_star(11, 11),
    _gnp(12, 0.3, 1), _gnp(18, 0.3, 2), _gnp(24, 0.5, 3),
], ids=["P10", "P17", "P24", "C5q1", "C4q2", "C8q2", "T4_4", "T5_9", "T11_11",
        "G12", "G18", "G24"])
def test_walk_rank_matches_fraction_oracle(g):
    for h in (g, g.complement()):
        w = exact.walk_matrix(h)
        assert w.rank == fraction_rank(w.entries)


def test_rank_rectangular():
    assert exact.exact_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert exact.exact_rank([[1, 0], [0, 1], [1, 1]]) == 2


def test_det_identity_and_singular():
    assert exact.exact_det([[1, 0], [0, 1]]) == 1
    assert exact.exact_det([[2, 4], [1, 2]]) == 0


class TestWalkMatrix:
    def test_path4_entries(self):
        w = exact.walk_matrix(path(4))
        assert w.entries == (
            (1, 1, 2, 3),
            (1, 2, 3, 5),
            (1, 2, 3, 5),
            (1, 1, 2, 3),
        )
        assert w.rank == 2

    def test_entries_are_walk_counts(self):
        # column c counts walks of length c from each vertex
        g = double_star(2, 3)
        w = exact.walk_matrix(g)
        a = g.adjacency_matrix().astype(object)
        acc = np.ones(g.n, dtype=object)
        for c in range(g.n):
            assert tuple(int(x) for x in acc) == tuple(row[c] for row in w.entries)
            acc = a @ acc

    @pytest.mark.parametrize("n", range(2, 11))
    def test_path_rank_is_ceil_half(self, n):
        assert exact.walk_matrix(path(n)).rank == (n + 1) // 2

    def test_cycle_rank_one(self):
        assert exact.walk_matrix(cycle(6)).rank == 1

    def test_complete_rank_one(self):
        assert exact.walk_matrix(complete(5)).rank == 1

    def test_double_star_ranks(self):
        assert exact.walk_matrix(double_star(2, 3)).rank == 4
        assert exact.walk_matrix(double_star(3, 3)).rank == 2
        assert exact.walk_matrix(double_star(1, 2)).rank == 4

    def test_rank_bounded_by_order(self):
        for mask in range(mask_population(5)):
            g = Graph.from_edge_mask(5, mask)
            assert 1 <= exact.walk_matrix(g).rank <= g.n


# Orbit cells of the automorphism group, which are always equitable.
T23_ORBITS = ((0,), (1,), (2, 3), (4, 5, 6))


class TestEquitable:
    def test_orbit_partition_of_double_star(self):
        part = exact.verify_equitable(double_star(2, 3), T23_ORBITS)
        assert part.cells == T23_ORBITS
        assert part.quotient == (
            (0, 1, 2, 0),
            (1, 0, 0, 3),
            (1, 0, 0, 0),
            (0, 1, 0, 0),
        )

    def test_verify_accepts_orbits(self):
        # T(3, 3): the two centers swap, so centers and leaves are the orbits;
        # cells may come unsorted and as sets
        part = exact.verify_equitable(double_star(3, 3), ({1, 0}, {7, 6, 5, 4, 3, 2}))
        assert part.cells == ((0, 1), (2, 3, 4, 5, 6, 7))
        assert part.quotient == ((1, 3), (1, 0))

    def test_verify_rejects_uneven_cells(self):
        g = path(4)
        with pytest.raises(exact.NotEquitableError) as exc:
            exact.verify_equitable(g, ({0, 1, 2, 3},))
        assert exc.value.vertex in range(4)

    def test_verify_rejects_bad_partition(self):
        g = path(3)
        with pytest.raises(ValueError):
            exact.verify_equitable(g, ({0, 1}, {1, 2}))
        with pytest.raises(ValueError):
            exact.verify_equitable(g, ({0},))

    def test_singleton_partition_always_equitable(self):
        g = Graph.from_edge_mask(5, 0b1011011)
        cells = tuple({v} for v in range(g.n))
        part = exact.verify_equitable(g, cells)
        assert part.quotient == tuple(
            tuple(g.adjacency_matrix()[i]) for i in range(g.n)
        )

    def test_regular_graph_has_trivial_orbit(self):
        part = exact.verify_equitable(cycle(7), (range(7),))
        assert part.cells == (tuple(range(7)),)
        assert part.quotient == ((2,),)

    def test_divisor_walk_matrix_double_star(self):
        part = exact.verify_equitable(double_star(2, 3), T23_ORBITS)
        w = exact.divisor_walk_matrix(part)
        assert w == (
            (1, 3, 6, 12),
            (1, 4, 6, 18),
            (1, 1, 3, 6),
            (1, 1, 4, 6),
        )
        assert exact.exact_det([list(r) for r in w]) == -6

    def test_divisor_rank_equals_walk_rank(self):
        # the walk matrix is the cell indicator matrix (full column rank)
        # times the divisor's walk matrix, so the ranks agree
        cases = [
            (double_star(2, 3), T23_ORBITS),
            (double_star(3, 3), ((0,), (1,), (2, 3, 4), (5, 6, 7))),
            (star(5), ((0,), (1, 2, 3, 4))),
            (harmonic_tree(2), ((0,), (1, 2, 3), (4, 5, 6))),
            (pendant_decorated(cycle(4), 2), (range(4), range(4, 12))),
        ]
        for g, cells in cases:
            part = exact.verify_equitable(g, cells)
            assert exact.exact_rank(exact.divisor_walk_matrix(part)) == exact.walk_matrix(g).rank


class TestDoubleStarPolynomials:
    @pytest.mark.parametrize("k,s", [(1, 1), (2, 3), (3, 3), (5, 2), (15, 14)])
    def test_det_closed_form(self, k, s):
        assert exact.det_walk_divisor(k, s) == -k * s * (s - k) ** 2

    def test_quartic_coefficients(self):
        q = exact.double_star_quartic(2, 3)
        assert q.coeffs == (6, 0, -6, 0, 1)
        assert q.degree == 4

    def test_quartic_evaluates(self):
        q = exact.double_star_quartic(2, 3)
        assert q(0) == 6
        assert q(1) == 1

    @pytest.mark.parametrize("k,s", [(1, 1), (2, 3), (4, 7), (15, 15)])
    def test_quartic_roots_against_numpy(self, k, s):
        roots = exact.double_star_quartic_roots(k, s)
        coeffs = exact.double_star_quartic(k, s).coeffs
        npr = sorted(np.roots(list(reversed(coeffs))).real)
        assert np.allclose(roots, npr, atol=1e-9)
        assert list(roots) == sorted(roots)

    def test_charpoly_matches_numpy_eigenvalues(self):
        # The characteristic polynomial of T(2, 3) is x^3 times the quartic,
        # so every eigenvalue is 0 or a root of the quartic.
        g = double_star(2, 3)
        q = exact.double_star_quartic(2, 3)
        for lam in np.linalg.eigvalsh(g.adjacency_matrix().astype(float)):
            assert abs(lam * q(lam)) < 1e-8

    def test_polynomial_str(self):
        q = exact.double_star_quartic(2, 3)
        assert str(q) == "x^4 - 6x^2 + 6"


class TestPathEigenpair:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_residual_tiny(self, n):
        g = path(n)
        a = g.adjacency_matrix()
        for j in range(1, n + 1):
            lam, x = exact.path_eigenpair(n, j)
            assert abs(lam - 2 * math.cos(j * math.pi / (n + 1))) < 1e-15
            assert np.abs(a @ x - lam * x).max() < 1e-12

    def test_bad_index(self):
        with pytest.raises(ValueError):
            exact.path_eigenpair(4, 0)
        with pytest.raises(ValueError):
            exact.path_eigenpair(4, 5)


class TestHarmonicDetector:
    @pytest.mark.parametrize("ell", [2, 3, 4])
    def test_harmonic_trees(self, ell):
        assert exact.harmonic_ell(harmonic_tree(ell)) == ell

    def test_regular_graphs_are_harmonic(self):
        assert exact.harmonic_ell(cycle(6)) == 2
        assert exact.harmonic_ell(complete(4)) == 3

    def test_path_not_harmonic(self):
        assert exact.harmonic_ell(path(4)) is None

    def test_edgeless_level_zero(self):
        assert exact.harmonic_ell(Graph.from_edge_mask(3, 0)) == 0

    def test_star_not_harmonic(self):
        # A d at the hub is the leaf count, at a leaf the hub degree: no ratio.
        assert exact.harmonic_ell(star(4)) is None

    def test_c4_plus_isolated_vertex_harmonic(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert exact.harmonic_ell(g) == 2


class TestPseudoRegular:
    def test_none_with_isolated_vertex(self):
        assert exact.pseudo_regular_ratio(Graph.from_edge_mask(3, 1)) is None

    def test_regular(self):
        assert exact.pseudo_regular_ratio(cycle(5)) == (2, 1)

    def test_star_has_no_constant_ratio(self):
        assert exact.pseudo_regular_ratio(star(4)) is None

    def test_fractional_ratio(self):
        # K_{1,2} with an extra edge: triangle — regular, ratio 2
        assert exact.pseudo_regular_ratio(complete(3)) == (2, 1)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_harmonic_tree_ratio_is_level(self, ell):
        assert exact.pseudo_regular_ratio(harmonic_tree(ell)) == (ell, 1)



_BAREISS_WALK = exact.walk_matrix  # the per-graph route, kept before any monkeypatch


def _stack(graphs):
    return np.array([g.adjacency_matrix() for g in graphs], dtype=np.int64)


def _bareiss_ranks(graphs):
    return [_BAREISS_WALK(g).rank for g in graphs]


class TestWalkRanks:
    """Batched walk ranks: mod-p Krylov certificate, Bareiss where it cannot apply."""

    @pytest.fixture
    def bareiss_calls(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return _BAREISS_WALK(g)

        monkeypatch.setattr(exact, "walk_matrix", counting)
        return calls

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_graph_of_small_order(self, n, bareiss_calls):
        graphs = [Graph.from_edge_mask(n, m) for m in range(mask_population(n))]
        ranks = exact.walk_ranks(graphs, _stack(graphs))
        assert bareiss_calls == []  # every rank certified, none from Bareiss
        assert ranks == _bareiss_ranks(graphs)

    @pytest.mark.parametrize("n,seed", [(7, 71), (8, 81), (8, 82)])
    def test_seeded_samples(self, n, seed, bareiss_calls):
        masks = sample_masks(n, 600, seed).tolist()
        graphs = [Graph.from_edge_mask(n, m) for m in masks]
        ranks = exact.walk_ranks(graphs, _stack(graphs))
        assert bareiss_calls == []
        assert ranks == _bareiss_ranks(graphs)

    def test_failed_certificates_fall_back_to_bareiss(self, monkeypatch, bareiss_calls):
        # Mod 5 many Krylov minors vanish, so rank_p undercounts and the lifted
        # identity fails its exact check; those graphs must go to Bareiss.
        monkeypatch.setattr(exact, "_PRIME", 5)
        graphs = [Graph.from_edge_mask(6, m) for m in range(0, mask_population(6), 7)]
        ranks = exact.walk_ranks(graphs, _stack(graphs))
        assert 0 < len(bareiss_calls) < len(graphs)
        assert ranks == _bareiss_ranks(graphs)

    @pytest.mark.parametrize("g", [path(12), harmonic_tree(3)], ids=["P12", "T3"])
    def test_large_orders_skip_the_certificate(self, g, bareiss_calls):
        assert not exact._certifiable(g.n)
        assert exact.walk_ranks([g], _stack([g])) == [_BAREISS_WALK(g).rank]
        assert bareiss_calls == [g]

    def test_certificate_bound_is_order_9(self):
        assert [n for n in range(1, 20) if exact._certifiable(n)] == list(range(1, 10))


def test_harmonic_levels_match_harmonic_ell():
    for n in range(1, 7):
        graphs = [Graph.from_edge_mask(n, m) for m in range(mask_population(n))]
        assert exact.harmonic_levels(_stack(graphs)) == [exact.harmonic_ell(g) for g in graphs]
    for g in [harmonic_tree(2), harmonic_tree(3), star(4), cycle(7), path(9)]:
        assert exact.harmonic_levels(_stack([g])) == [exact.harmonic_ell(g)]
