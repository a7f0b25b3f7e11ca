"""Eigendecomposition, grouping, and main-eigenvalue classification.

The library takes its spectra from LAPACK (numpy.linalg.eigh).  The oracle
that does not use LAPACK is exact: the eigenvalue power sums must equal the
integer closed-walk counts tr(A^k).  The numpy.linalg.eigvalsh comparisons pin
the order and sign conventions of the decomposition.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspec import spectra, sweeps
from mainspec.analysis import analyze_graph
from mainspec.graphs import (
    Graph,
    complete,
    cycle,
    double_star,
    path,
    star,
)
from mainspec.spectra import (
    AmbiguousGroupingError,
    EigenGroup,
    MainSpectrum,
    build_groups,
    classify_flags,
    eigen_decompose,
    eigen_decompose_batch,
    group_eigenvalues,
    group_rows,
    resolve_with_rank,
)
from mainspec.sweeps import mask_population

mask_graphs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
    )
)


@settings(max_examples=250, deadline=None)
@given(mask_graphs)
def test_eigenvalues_match_lapack(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    ours = eigen_decompose(g).eigenvalues
    lapack = np.linalg.eigvalsh(g.adjacency_matrix())[::-1]
    assert np.abs(ours - lapack).max() < 1e-10


@settings(max_examples=250, deadline=None)
@given(mask_graphs)
def test_decomposition_reconstructs_matrix(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    d = eigen_decompose(g)
    rebuilt = (d.eigenvectors * d.eigenvalues) @ d.eigenvectors.T
    assert np.abs(rebuilt - g.adjacency_matrix()).max() < 1e-11


def _power_sums_match_walk_counts(g: Graph, evals: np.ndarray) -> None:
    """sum(lambda^k) == tr(A^k), the number of closed k-walks, for k = 1..n."""
    a = g.adjacency_matrix().astype(np.int64)  # exact: entries of A^8 stay below 8^8
    walks = np.eye(g.n, dtype=np.int64)
    scale = max(1.0, float(np.abs(evals).max()))
    for k in range(1, g.n + 1):
        walks = walks @ a
        closed = int(np.trace(walks))
        assert abs(float(np.sum(evals ** k)) - closed) <= 1e-12 * g.n * k * scale ** k, (k, g)


def test_power_sums_exhaustive_small():
    for n in range(1, 6):
        masks = np.arange(mask_population(n))
        evals, _, _ = eigen_decompose_batch(sweeps.adjacency_stack(n, masks))
        for mask, row in zip(masks.tolist(), evals):
            _power_sums_match_walk_counts(Graph.from_edge_mask(n, mask), row)


@settings(max_examples=250, deadline=None)
@given(mask_graphs)
def test_power_sums_match_walk_counts(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    _power_sums_match_walk_counts(g, eigen_decompose(g).eigenvalues)


def test_eigenvalues_sorted_descending():
    for mask in range(mask_population(5)):
        g = Graph.from_edge_mask(5, mask)
        evals = eigen_decompose(g).eigenvalues
        assert (np.diff(evals) <= 1e-12).all()


def test_exhaustive_small_against_lapack():
    for n in range(1, 5):
        for mask in range(mask_population(n)):
            g = Graph.from_edge_mask(n, mask)
            ours = eigen_decompose(g).eigenvalues
            lapack = np.linalg.eigvalsh(g.adjacency_matrix())[::-1]
            assert np.abs(ours - lapack).max() < 1e-11


def test_known_path4_spectrum():
    evals = eigen_decompose(path(4)).eigenvalues
    phi = (1 + math.sqrt(5)) / 2
    expected = [phi, phi - 1, 1 - phi, -phi]
    assert np.abs(evals - expected).max() < 1e-12


def test_dense_cycle_complement_converges():
    # A dense graph with lambda_1 = 41 passes the bounds, which scale with
    # lambda_max, and matches the closed form: the complement of C_n has
    # n - 3 and -1 - 2 cos(2 pi j / n) for j = 1..n-1.
    n = 44
    ours = eigen_decompose(cycle(n).complement()).eigenvalues
    closed = [n - 3.0] + [-1.0 - 2.0 * math.cos(2.0 * math.pi * j / n) for j in range(1, n)]
    assert np.abs(ours - np.sort(closed)[::-1]).max() < 1e-10


def test_single_vertex():
    d = eigen_decompose(Graph.from_edge_mask(1, 0))
    assert d.eigenvalues.tolist() == [0.0]
    assert d.eigenvectors.tolist() == [[1.0]]


class TestBatch:
    def test_batch_agrees_with_scalar(self):
        graphs = [Graph.from_edge_mask(5, m) for m in range(0, mask_population(5), 7)]
        mats = np.stack([g.adjacency_matrix() for g in graphs])
        bvals, bvecs, hygiene = eigen_decompose_batch(mats)
        lapack = np.linalg.eigvalsh(mats)[:, ::-1]
        assert np.abs(bvals - lapack).max() < 1e-11
        for i, g in enumerate(graphs):
            # the same graph alone (a batch of one) and inside the stack:
            # the same floats, bit for bit
            alone = eigen_decompose(g)
            assert np.array_equal(bvals[i], alone.eigenvalues)
            assert np.array_equal(bvecs[i], alone.eigenvectors)

    def test_bound_violation_names_worst_value_and_order(self, monkeypatch):
        monkeypatch.setattr(spectra, "RESIDUAL_TOL", 0.0)
        with pytest.raises(spectra.SpectralInvariantError, match=r"eigen residual .* \(n=5\)"):
            eigen_decompose(path(5))

    def test_nan_from_the_solver_misses_the_bounds(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def nan_eigh(mats):
            evals, evecs = real_eigh(mats)
            return np.full_like(evals, np.nan), evecs

        monkeypatch.setattr(np.linalg, "eigh", nan_eigh)
        with pytest.raises(spectra.SpectralInvariantError, match=r"eigen residual nan"):
            eigen_decompose(path(5))

    def test_hygiene_keys(self):
        mats = np.stack([cycle(4).adjacency_matrix().astype(float)])
        _, _, hygiene = eigen_decompose_batch(mats)
        assert set(hygiene) == {"orthonormality", "residual", "trace_drift"}
        assert hygiene["residual"] < spectra.RESIDUAL_TOL * (1 + 2.0) * 4


class TestGrouping:
    def test_cycle4_groups(self):
        ms = group_eigenvalues(eigen_decompose(cycle(4)))
        assert [(round(g.value, 9), g.multiplicity) for g in ms.groups] == [
            (2.0, 1), (0.0, 2), (-2.0, 1),
        ]

    def test_star_projections_frozen(self):
        ms = group_eigenvalues(eigen_decompose(star(4)))
        projections = [g.projection_norm_sq for g in ms.groups]
        assert abs(projections[0] - 3.732050807568877) < 1e-9
        assert projections[1] < 1e-20
        assert abs(projections[2] - 0.2679491924311228) < 1e-9

    def test_projections_sum_to_n(self):
        for mask in range(mask_population(5)):
            g = Graph.from_edge_mask(5, mask)
            ms = group_eigenvalues(eigen_decompose(g))
            assert abs(sum(grp.projection_norm_sq for grp in ms.groups) - g.n) < 1e-9

    def test_multiplicities_sum_to_n(self):
        for mask in range(mask_population(4)):
            g = Graph.from_edge_mask(4, mask)
            ms = group_eigenvalues(eigen_decompose(g))
            assert sum(grp.multiplicity for grp in ms.groups) == g.n

    def test_ambiguous_grouping_raises(self):
        evals = np.array([[1.0, 1.0 - 2e-7, -1.0]])
        with pytest.raises(AmbiguousGroupingError) as err:
            build_groups(evals, np.ones((1, 3)))
        assert repr(1.0) in str(err.value) and repr(1.0 - 2e-7) in str(err.value)

    @staticmethod
    def rows(cols):
        """``build_groups``' columns as one tuple of groups per row."""
        return group_rows(*cols)

    def test_clean_split(self):
        evals = np.array([[1.0, 1.0 - 1e-12, 0.0]])
        (groups,) = self.rows(build_groups(evals, np.array([[1.0, 2.0, 3.0]])))
        assert [g.multiplicity for g in groups] == [2, 1]
        assert groups[0].projection_norm_sq == 3.0

    def test_batched_groups_match_per_row_numpy(self):
        # Oracle: the per-row grouping written out with np.mean / np.sum.
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(300):
            n = int(rng.integers(1, 12))
            distinct = np.sort(rng.choice(np.arange(-6, 7), size=n))[::-1]
            jitter = rng.uniform(-1e-9, 1e-9, size=n)  # inside one group tolerance
            rows.append(distinct + distinct * np.pi / 7 + jitter)
        rows.append(np.zeros(10))  # one run of 10: numpy's pairwise sum
        rows.append(np.array([5.0] + [1.0 + k * 1e-10 for k in range(9)]))
        for evals in rows:
            evals = np.sort(evals)[::-1]
            proj_sq = rng.uniform(0.0, 1.0, size=len(evals)) ** 3
            tau = spectra.GROUP_TOL * max(1.0, float(np.abs(evals).max()))
            cuts = [0] + [i for i in range(1, len(evals)) if evals[i - 1] - evals[i] > tau]
            bounds = list(zip(cuts, cuts[1:] + [len(evals)]))
            want = [(float(np.mean(evals[a:b])), b - a, float(np.sum(proj_sq[a:b])))
                    for a, b in bounds]
            (got,) = self.rows(build_groups(evals[None], proj_sq[None]))
            assert [(g.value.hex(), g.multiplicity, g.projection_norm_sq.hex()) for g in got] == [
                (v.hex(), m, p.hex()) for v, m, p in want]

    def test_batched_groups_equal_each_row_alone(self):
        masks = np.arange(0, mask_population(5), 3)
        evals, evecs, _ = eigen_decompose_batch(sweeps.adjacency_stack(5, masks))
        proj_sq = evecs.sum(axis=1) ** 2
        together = self.rows(build_groups(evals, proj_sq))
        for row, groups in enumerate(together):
            assert self.rows(build_groups(evals[row:row + 1], proj_sq[row:row + 1])) == [groups]

    def test_group_columns_are_padded(self):
        # One column per group and at least one past the last: -inf, 0, 0.0,
        # False, False there; the top group is main, never gray.
        masks = np.arange(0, mask_population(5), 7)
        evals, evecs, _ = eigen_decompose_batch(sweeps.adjacency_stack(5, masks))
        cols = build_groups(evals, evecs.sum(axis=1) ** 2)
        for c in (cols.value, cols.mult, cols.proj, cols.main, cols.gray):
            assert c.shape == (len(masks), 6)
        past = np.arange(6) >= cols.count[:, None]
        assert past[:, -1].all() and (cols.count >= 1).all()
        assert (cols.value[past] == -np.inf).all() and (cols.value[~past] > -np.inf).all()
        assert (cols.mult[past] == 0).all() and (cols.mult[~past] >= 1).all()
        assert (cols.proj[past] == 0.0).all()
        assert not (cols.main[past].any() or cols.gray[past].any() or cols.gray[:, 0].any())
        assert cols.main[:, 0].all()
        assert (cols.mult.sum(axis=1) == 5).all()

    def test_ambiguous_row_in_a_stack_is_named(self):
        evals = np.array([[2.0, 0.0, -2.0], [1.0, 1.0 - 2e-7, -1.0]])
        with pytest.raises(AmbiguousGroupingError) as err:
            build_groups(evals, np.ones((2, 3)))
        assert repr(1.0) in str(err.value) and repr(1.0 - 2e-7) in str(err.value)


class TestClassification:
    def test_path4_mains(self):
        ms = analyze_graph(path(4)).spectrum
        assert ms.main_count == 2
        v1, v2 = ms.main_values()
        assert abs(v1 - 1.618033988749895) < 1e-12
        assert abs(v2 + 0.6180339887498949) < 1e-12

    def test_regular_graphs_single_main(self):
        for g in [cycle(5), cycle(6), complete(4)]:
            ms = analyze_graph(g).spectrum
            assert ms.main_count == 1
            assert ms.groups[0].is_main

    def test_double_star_balanced(self):
        ms = analyze_graph(double_star(3, 3)).spectrum
        assert ms.main_count == 2
        assert abs(ms.main_values()[0] - 2.302775637731995) < 1e-10
        assert abs(ms.main_values()[1] + 1.302775637731995) < 1e-10
        assert ms.groups[-1].is_main is False  # least eigenvalue non-main

    def test_top_group_always_main(self):
        for mask in range(mask_population(5)):
            g = Graph.from_edge_mask(5, mask)
            flags, _ = classify_flags(group_eigenvalues(eigen_decompose(g)).groups, g.n)
            assert flags[0]

    def test_gray_zone_abstains_on_long_path(self, monkeypatch):
        # With the band pinned at 1e-6 * n, P_39's smallest main projection
        # (about 7.7e-5) sits inside it.
        monkeypatch.setattr(spectra, "MAIN_TOL", 1e-6)
        g = path(39)
        groups = group_eigenvalues(eigen_decompose(g)).groups
        flags, gray = classify_flags(groups, g.n)
        assert gray == [len(groups) - 1]

    def test_classify_flags_gray_band(self):
        tau = spectra.MAIN_TOL * 4
        groups = [
            EigenGroup(2.0, 1, 4.0),
            EigenGroup(0.5, 1, 0.25 * tau),  # inside [0.1, 10] x tau, below tau
            EigenGroup(-1.0, 1, 1e-30),
        ]
        flags, gray = classify_flags(groups, 4)
        assert flags == [True, False, False]
        assert gray == [1]

    def test_classify_flags_top_group_exempt(self):
        tau = spectra.MAIN_TOL * 2
        groups = [EigenGroup(1.0, 1, 0.5 * tau), EigenGroup(-1.0, 1, 5.0)]
        flags, gray = classify_flags(groups, 2)
        assert flags[0] is True
        assert gray == []


class TestResolveWithRank:
    def _spectrum(self):
        return MainSpectrum((
            EigenGroup(3.0, 1, 5.0),
            EigenGroup(1.0, 1, 1e-6),
            EigenGroup(0.0, 2, 1e-9),
            EigenGroup(-2.0, 1, 0.9),
        ))

    def test_rank_picks_largest_projections(self):
        ms = resolve_with_rank(self._spectrum(), 2)
        assert [g.is_main for g in ms.groups] == [True, False, False, True]

    def test_rank_full(self):
        ms = resolve_with_rank(self._spectrum(), 4)
        assert all(g.is_main for g in ms.groups)

    def test_rank_one(self):
        ms = resolve_with_rank(self._spectrum(), 1)
        assert [g.is_main for g in ms.groups] == [True, False, False, False]

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            resolve_with_rank(self._spectrum(), 0)
        with pytest.raises(ValueError):
            resolve_with_rank(self._spectrum(), 5)

    def test_flagged_groups_never_flip(self):
        # The confident non-main group has the largest projection and the
        # confident main one the smallest; only the gray group is settled.
        ms = MainSpectrum((
            EigenGroup(3.0, 1, 1e-3, True),
            EigenGroup(1.0, 1, 5.0, False),
            EigenGroup(-2.0, 1, 0.5, None),
        ))
        assert [g.is_main for g in resolve_with_rank(ms, 1).groups] == [True, False, False]
        assert [g.is_main for g in resolve_with_rank(ms, 2).groups] == [True, False, True]
        with pytest.raises(ValueError):
            resolve_with_rank(ms, 3)


class TestMainDecomposition:
    """The all-ones vector over the main eigenspaces: its squared projections
    reproduce the walk counts n, 2m and the degree-square sum."""

    @pytest.mark.parametrize("g", [path(4), star(5), double_star(2, 3), cycle(6)],
                             ids=["P4", "K_1_4", "T23", "C6"])
    def test_moment_identities(self, g):
        mains = [(grp.value, grp.projection_norm_sq)
                 for grp in analyze_graph(g).spectrum.groups if grp.is_main]
        n = g.n
        m = g.m
        sum_sq = sum(d * d for d in g.degrees())
        assert abs(sum(c for _, c in mains) - n) < 1e-9
        assert abs(sum(v * c for v, c in mains) - 2 * m) < 1e-9
        assert abs(sum(v * v * c for v, c in mains) - sum_sq) < 1e-8
