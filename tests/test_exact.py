"""Exact integer route: walk matrices, Bareiss elimination, divisors,
double-star polynomials.  Rank and determinant are cross-checked against a
plain Fraction-based Gaussian elimination oracle."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspec import exact
from mainspec.graphs import (
    MAX_ORDER,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    facts,
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
        assert exact.det_walk_divisor(double_star(k, s), k, s) == -k * s * (s - k) ** 2

    @pytest.mark.parametrize("k,s", [(1, 1), (2, 3), (4, 7), (15, 15)])
    def test_quartic_roots_against_numpy(self, k, s):
        roots = exact.double_star_quartic_roots(k, s)
        coeffs = (k * s, 0, -(k + s + 1), 0, 1)  # x^4 - (k+s+1) x^2 + k s, ascending
        npr = sorted(np.roots(list(reversed(coeffs))).real)
        assert np.allclose(roots, npr, atol=1e-9)
        assert list(roots) == sorted(roots)

    def test_charpoly_matches_numpy_eigenvalues(self):
        # The characteristic polynomial of T(2, 3) is x^3 times the quartic
        # x^4 - 6x^2 + 6, so every eigenvalue is 0 or a root of the quartic.
        g = double_star(2, 3)
        for lam in np.linalg.eigvalsh(g.adjacency_matrix().astype(float)):
            assert abs(lam * np.polyval([1, 0, -6, 0, 6], lam)) < 1e-8


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
        assert facts(Graph.from_edge_mask(3, 1)).ratio is None

    def test_regular(self):
        assert facts(cycle(5)).ratio == (2, 1)

    def test_star_has_no_constant_ratio(self):
        assert facts(star(4)).ratio is None

    def test_fractional_ratio(self):
        # K_{1,2} with an extra edge: triangle — regular, ratio 2
        assert facts(complete(3)).ratio == (2, 1)

    @pytest.mark.parametrize("ell", [2, 3])
    def test_harmonic_tree_ratio_is_level(self, ell):
        assert facts(harmonic_tree(ell)).ratio == (ell, 1)



_BAREISS_WALK = exact.walk_matrix  # the Bareiss oracle, kept before any monkeypatch


def _stack(graphs):
    return np.array([g.adjacency_matrix() for g in graphs], dtype=np.int64)


def _bareiss_ranks(graphs):
    return [_BAREISS_WALK(g).rank for g in graphs]


def _twin_blowup(g):
    """Each vertex doubled by a non-adjacent twin: walk rows repeat, so the
    walk rank is that of ``g``."""
    n = g.n
    return Graph.from_edges(2 * n, [(u + s * n, v + t * n) for u, v in g.edges()
                                    for s in (0, 1) for t in (0, 1)])


def _certified_dependency(monkeypatch, g):
    """The dependency walk_ranks certifies for ``g`` (rank below the order)."""
    passed = []
    holds = exact._dependency_holds

    def keep(adj, krylov, m):
        ok = holds(adj, krylov, m)
        if ok:
            passed.append(list(m))
        return ok

    monkeypatch.setattr(exact, "_dependency_holds", keep)
    monkeypatch.setattr(exact, "_fits_int64_check",
                        lambda coeffs, krylov, delta: np.zeros(len(coeffs), dtype=bool))
    (rank,) = exact.walk_ranks(_stack([g]))
    monkeypatch.undo()
    assert len(passed) == 1 and len(passed[0]) == rank + 1
    return passed[0]


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Names of the Bareiss-route functions called while the fixture is live."""
    calls = []
    for name in ("walk_matrix", "exact_rank"):
        def spy(*args, _name=name, _original=getattr(exact, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(exact, name, spy)
    return calls


@pytest.fixture
def dependency_lengths(monkeypatch):
    """Krylov vectors per graph that each ``_krylov_dependency`` call receives."""
    lengths = []
    dependency = exact._krylov_dependency

    def spy(krylov, p):
        lengths.append(krylov.shape[1])
        return dependency(krylov, p)

    monkeypatch.setattr(exact, "_krylov_dependency", spy)
    return lengths


class TestWalkRanks:
    """Batched walk ranks: mod-p Krylov lower bound, CRT-lifted certified dependency."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_graph_of_small_order(self, n, bareiss_calls):
        graphs = [Graph.from_edge_mask(n, m) for m in range(mask_population(n))]
        ranks = exact.walk_ranks(_stack(graphs))
        assert bareiss_calls == []  # every rank certified, none from Bareiss
        assert ranks == _bareiss_ranks(graphs)

    @pytest.mark.parametrize("n,seed", [(7, 71), (8, 81), (8, 82)])
    def test_seeded_samples(self, n, seed, bareiss_calls):
        masks = sample_masks(n, 600, seed).tolist()
        graphs = [Graph.from_edge_mask(n, m) for m in masks]
        ranks = exact.walk_ranks(_stack(graphs))
        assert bareiss_calls == []
        assert ranks == _bareiss_ranks(graphs)

    def test_later_primes_settle_what_a_bad_first_prime_cannot(self, monkeypatch,
                                                               bareiss_calls):
        # Mod 5 many Krylov minors vanish, so rank_p undercounts, and the
        # dependency mod 5 rarely lifts to the integer one; those graphs must
        # be settled by the primes after it.
        primes = exact._primes
        monkeypatch.setattr(exact, "_primes", lambda: itertools.chain([5], primes()))
        moduli = []
        dependency = exact._krylov_dependency

        def counting(krylov, p):
            moduli.append(p)
            return dependency(krylov, p)

        monkeypatch.setattr(exact, "_krylov_dependency", counting)
        graphs = [Graph.from_edge_mask(6, m) for m in range(0, mask_population(6), 7)]
        ranks = exact.walk_ranks(_stack(graphs))
        assert bareiss_calls == []
        assert moduli[0] == 5 and len(moduli) > 1
        assert ranks == _bareiss_ranks(graphs)

    def test_a_prime_above_the_lift_is_redone_over_all_vectors(self, monkeypatch,
                                                                dependency_lengths):
        # K_1,3 plus two isolated vertices: A j = (3, 1, 1, 1, 0, 0) is dependent
        # on j mod 3 only, so the lift starts at k = 2 and the next prime, given
        # k + 1 = 3 vectors, finds them independent and must redo all six.
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3)])
        primes = exact._primes
        monkeypatch.setattr(exact, "_primes", lambda: itertools.chain([3], primes()))
        assert exact.walk_ranks(_stack([g])) == [3] == _bareiss_ranks([g])
        assert dependency_lengths == [6, 3, 6]

    def test_lifting_primes_get_k_plus_one_vectors(self, dependency_lengths):
        assert exact.walk_ranks(_stack([path(200)])) == [100]
        assert dependency_lengths[0] == 200 and len(dependency_lengths) > 1
        assert dependency_lengths[1:] == [101] * (len(dependency_lengths) - 1)

    def test_overflowing_stack_of_full_and_short_ranks(self):
        base = _gnp(10, 0.5, 10)
        graphs = [_gnp(20, 0.5, seed) for seed in range(4)]
        graphs += [complete_bipartite(10, 10), _twin_blowup(base)]
        adj = _stack(graphs)
        assert int(adj.sum(axis=2).max()) ** 19 >= 1 << 63  # walk counts overflow int64
        want = [fraction_rank(_BAREISS_WALK(h).entries) for h in graphs]
        assert want[:4] == [20] * 4 and want[4] == 1 and want[5] < 20
        assert exact.walk_ranks(adj) == want

    def test_full_rank_overflowing_stack_skips_the_wrapping_sequence(self, monkeypatch):
        moduli, checks = [], []
        krylov, fits = exact._krylov, exact._fits_int64_check

        def krylov_spy(adj, p=None, length=None):
            moduli.append(p)
            return krylov(adj, p, length)

        def fits_spy(*args):
            checks.append(args)
            return fits(*args)

        monkeypatch.setattr(exact, "_krylov", krylov_spy)
        monkeypatch.setattr(exact, "_fits_int64_check", fits_spy)
        assert exact.walk_ranks(_stack([_gnp(20, 0.5, seed) for seed in range(4)])) == [20] * 4
        assert moduli == [exact._FIRST_PRIME] and checks == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=10, max_value=24), st.floats(min_value=0.05, max_value=0.95),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_random_graphs_past_order_9(self, n, p, seed):
        g = _gnp(n, p, seed)
        graphs = [g, g.complement()]
        ranks = exact.walk_ranks(_stack(graphs))
        assert ranks == [fraction_rank(_BAREISS_WALK(h).entries) for h in graphs]

    @pytest.mark.parametrize("g,rank", [
        (complete_bipartite(7, 7), 1), (complete_bipartite(100, 100), 1),
        (double_star(6, 6), 2), (double_star(99, 99), 2),
        (path(12), 6), (path(64), 32), (path(199), 100), (path(200), 100),
        (pendant_decorated(cycle(12), 2), 2), (pendant_decorated(cycle(50), 3), 2),
        (harmonic_tree(3), 2),
    ], ids=["K7_7", "K100_100", "T6_6", "T99_99", "P12", "P64", "P199", "P200",
            "C12q2", "C50q3", "T3"])
    def test_known_deficient_ranks(self, g, rank, bareiss_calls):
        assert exact.walk_ranks(_stack([g])) == [rank]
        assert bareiss_calls == []

    @pytest.mark.parametrize("order", [20, 60, 200])
    def test_twin_blowups(self, order, bareiss_calls):
        base = _gnp(order // 2, 0.3, order)
        (want,) = exact.walk_ranks(_stack([base]))
        assert exact.walk_ranks(_stack([_twin_blowup(base)])) == [want]
        assert bareiss_calls == []
        if order <= 60:
            assert want == _bareiss_ranks([base])[0]
        else:
            assert want == order // 2  # G(100, 0.3) here is of full rank

    @pytest.mark.parametrize("g", [path(12), double_star(20, 20), path(200)],
                             ids=["P12", "T20_20", "P200"])
    def test_tampered_lift_is_not_certified(self, monkeypatch, g):
        m = _certified_dependency(monkeypatch, g)
        adj = g.adjacency_matrix().astype(np.int64)
        krylov = exact._krylov(adj[None])[0]
        assert exact._dependency_holds(adj, krylov, m)
        for i in {0, len(m) // 2, len(m) - 2}:
            tampered = list(m)
            tampered[i] += 1
            assert not exact._dependency_holds(adj, krylov, tampered)

    def test_path_200_needs_check_primes(self, monkeypatch):
        # its dependency is too large for the 2^64 check to cover alone
        m = _certified_dependency(monkeypatch, path(200))
        assert 2 * sum(abs(c) * 2 ** i for i, c in enumerate(m)) >= 1 << 64

    def test_mod_p_matvec_at_max_order_fits_int64(self):
        # The worst matvec sums MAX_ORDER - 1 residues just below p, so every
        # column of K_n's Krylov sequence mod p must be exact.
        n, p = MAX_ORDER, exact._FIRST_PRIME
        assert n * (p - 1) < 1 << 63 and 2 * (p - 1) ** 2 < 1 << 63
        krylov = exact._krylov(_stack([complete(n)]), p)[0]
        for i, col in enumerate(krylov[: 8]):
            assert (col == pow(n - 1, i, p)).all()
        assert (krylov[-1] == pow(n - 1, n - 1, p)).all()

    def test_wrapping_krylov_is_exact_mod_2_64(self):
        g = _gnp(60, 0.5, 6)
        krylov = exact._krylov(_stack([g]))[0]
        walks = _BAREISS_WALK(g).entries
        for i in (0, 1, 20, 59):
            assert [int(x) % (1 << 64) for x in krylov[i]] == [row[i] % (1 << 64) for row in walks]

    def test_primes_descend_from_2_31_minus_1(self):
        def trial(q):
            return q > 1 and all(q % d for d in range(2, math.isqrt(q) + 1))

        assert list(itertools.islice(exact._primes(), 5)) == [
            q for q in range(2 ** 31 - 1, 2 ** 31 - 200, -1) if trial(q)][:5]
        assert [q for q in range(3000) if exact._is_prime(q)] == list(filter(trial, range(3000)))


def test_harmonic_levels_match_harmonic_ell():
    for n in range(1, 7):
        graphs = [Graph.from_edge_mask(n, m) for m in range(mask_population(n))]
        assert exact.harmonic_levels(_stack(graphs)) == [exact.harmonic_ell(g) for g in graphs]
    for g in [harmonic_tree(2), harmonic_tree(3), star(4), cycle(7), path(9)]:
        assert exact.harmonic_levels(_stack([g])) == [exact.harmonic_ell(g)]
