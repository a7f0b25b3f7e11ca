"""Per-claim checker verdicts on known instances.

The claims themselves are theorems, so genuine "fails" verdicts cannot be
produced by real graphs; the failure paths are exercised with doctored
analyses where that is meaningful (T45) and otherwise by verdict gating.
Every analysis a checker reads here comes from the route ``verify`` uses,
``sweeps.analyze_with_complements`` (see ``checked``).
"""
import dataclasses
import json
import sys
from typing import Any, Callable

import pytest

from mainspec import exact, graphs, spectra, theorems
from mainspec.analysis import GraphAnalysis
from mainspec.graph6 import parse_graph6
from mainspec.graphs import (
    FamilySpec,
    Graph,
    build_family,
    complete,
    complete_bipartite,
    cycle,
    double_star,
    harmonic_tree,
    path,
    pendant_decorated,
    star,
)
from mainspec.spectra import EigenGroup, MainSpectrum
from mainspec.sweeps import analyze_with_complements, sweep
from mainspec.theorems import (
    ALL_IDS,
    CLAIMS,
    FAILS,
    GRAPH_CHECKERS,
    HOLDS,
    NOT_APPLICABLE,
    PATH_CHECKERS,
    TheoremReport,
    check_balanced_complete_bipartite_shift,
    check_bipartite_harmonic_nonmain,
    check_complement_bounds,
    check_complement_count,
    check_complement_gap,
    check_complement_membership,
    check_complement_second_eigenvalue,
    check_double_star_profile,
    check_harmonic_index_count,
    check_harmonic_main_membership,
    check_path_count,
    check_path_eigenpairs,
    check_path_parity,
    check_pseudo_regular,
    check_rank_count,
    check_second_shift_equality,
    check_semiregular_main_pair,
    check_simple_shifted_nonmain,
    check_top_shift_equality,
    check_two_main_relation,
    check_zero_main_index,
)


def checked(check: Callable[..., TheoremReport], g: Graph, *params: Any) -> TheoremReport:
    """``check`` on ``g`` (a family checker on its ``params`` instead) with the
    analyses of ``g`` and its complement that ``verify`` would hand it."""
    found = analyze_with_complements([g])
    return check(*(params or (g,)), analysis=found[g], co=found[g.complement()])


def test_registry_covers_all_ids():
    assert set(CLAIMS) == set(ALL_IDS)
    covered = set(GRAPH_CHECKERS) | set(PATH_CHECKERS) | {"T46", "COR47"}
    assert covered == set(ALL_IDS)


def test_report_json_shape():
    rep = checked(check_path_count, path(5), 5)
    blob = rep.to_json()
    assert blob["theorem_id"] == "C43"
    assert blob["verdict"] == HOLDS
    json.dumps(blob)  # serializable


def test_json_clean_rounds_floats():
    cleaned = theorems.json_clean({"x": 0.1234567890123456789, "t": (1, 2.0)})
    assert cleaned == {"x": 0.123456789012, "t": [1, 2.0]}


class TestTwoMainRelation:
    def test_star_holds(self):
        assert checked(check_two_main_relation, star(5)).verdict == HOLDS

    def test_pendant_cycle_holds(self):
        g = pendant_decorated(cycle(6), 3)
        rep = checked(check_two_main_relation, g)
        assert rep.verdict == HOLDS
        assert rep.witnesses["form"] == "ratio"

    def test_single_main_not_applicable(self):
        assert checked(check_two_main_relation, cycle(6)).verdict == NOT_APPLICABLE

    def test_three_mains_not_applicable(self):
        assert checked(check_two_main_relation, path(6)).verdict == NOT_APPLICABLE

    def test_degenerate_denominator_branch(self):
        # No graph with two main groups has 2m = n*lambda1 (that forces
        # regularity); drive the branch with a doctored analysis on K_{3,3}.
        g = complete_bipartite(3, 3)
        real = analyze_with_complements([g])[g]
        fake = GraphAnalysis(
            graph=g,
            spectrum=MainSpectrum((
                EigenGroup(3.0, 1, 6.0, True),
                EigenGroup(-3.0, 1, 0.0, True),
            )),
            rank=real.rank,
            s_float=2,
            harmonic_level=3,
        )
        rep = check_two_main_relation(g, analysis=fake)
        assert rep.witnesses["form"] == "lambda1_squared"
        assert rep.verdict == HOLDS  # lambda1^2 = 54/6 = 9


class TestZeroMainIndex:
    @pytest.mark.parametrize("ell", [2, 3])
    def test_harmonic_tree_holds(self, ell):
        rep = checked(check_zero_main_index, harmonic_tree(ell))
        assert rep.verdict == HOLDS
        assert abs(rep.witnesses["expected"] - ell) < 1e-9

    def test_nonzero_second_main_na(self):
        assert checked(check_zero_main_index, star(4)).verdict == NOT_APPLICABLE

    def test_regular_na(self):
        assert checked(check_zero_main_index, cycle(6)).verdict == NOT_APPLICABLE


class TestBipartiteHarmonic:
    def test_harmonic_tree_holds(self):
        assert checked(check_bipartite_harmonic_nonmain, harmonic_tree(2)).verdict == HOLDS

    def test_even_cycle_holds(self):
        assert checked(check_bipartite_harmonic_nonmain, cycle(6)).verdict == HOLDS

    def test_odd_cycle_na(self):
        assert checked(check_bipartite_harmonic_nonmain, cycle(5)).verdict == NOT_APPLICABLE

    def test_non_harmonic_na(self):
        assert checked(check_bipartite_harmonic_nonmain, path(4)).verdict == NOT_APPLICABLE

    def test_edgeless_na(self):
        g = Graph.from_edge_mask(3, 0)
        assert checked(check_bipartite_harmonic_nonmain, g).verdict == NOT_APPLICABLE


class TestHarmonicCharacterizations:
    @pytest.mark.parametrize("g", [harmonic_tree(2), harmonic_tree(3), cycle(5),
                                   path(4), star(6), double_star(2, 3)],
                             ids=["HT2", "HT3", "C5", "P4", "K_1_5", "T23"])
    def test_main_membership_biconditional(self, g):
        assert checked(check_harmonic_main_membership, g).verdict == HOLDS

    def test_index_count_holds(self):
        assert checked(check_harmonic_index_count, harmonic_tree(2)).verdict == HOLDS
        assert checked(check_harmonic_index_count, path(4)).verdict == HOLDS

    def test_index_count_edgeless_na(self):
        g = Graph.from_edge_mask(4, 0)
        assert checked(check_harmonic_index_count, g).verdict == NOT_APPLICABLE

    def test_pseudo_regular_holds(self):
        assert checked(check_pseudo_regular, cycle(6)).verdict == HOLDS
        assert checked(check_pseudo_regular, star(4)).verdict == HOLDS  # both sides false
        assert checked(check_pseudo_regular, harmonic_tree(3)).verdict == HOLDS

    def test_pseudo_regular_isolated_na(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert checked(check_pseudo_regular, g).verdict == NOT_APPLICABLE


class TestComplementClaims:
    def test_count_pairing(self):
        rep = checked(check_complement_count, path(4))
        assert rep.verdict == HOLDS
        assert rep.witnesses["min_pair_distance"] > 1e-6

    def test_membership_three_way(self):
        for g in [path(4), complete(4), cycle(4), double_star(2, 3)]:
            assert checked(check_complement_membership, g).verdict == HOLDS

    def test_simple_shift_nonmain(self):
        rep = checked(check_simple_shifted_nonmain, path(4))
        assert rep.verdict == HOLDS  # P4 is self-complementary with simple shifts

    @pytest.mark.parametrize("g6", ["GM\\aE?", "GsaMJ?"])
    def test_near_pair_is_not_a_pair(self, g6):
        # lambda(G) + mu(comp) + 1 = 4.05e-7 here: the closest any order-8
        # non-pair comes, and still no eigenvalue pairing
        g = parse_graph6(g6)
        assert checked(check_complement_count, g).verdict == HOLDS
        assert checked(check_complement_membership, g).verdict == HOLDS
        assert checked(check_simple_shifted_nonmain, g).verdict == NOT_APPLICABLE

    def test_simple_shift_na_when_all_repeated(self):
        assert checked(check_simple_shifted_nonmain, cycle(4)).verdict == NOT_APPLICABLE

    def test_bounds(self):
        assert checked(check_complement_bounds, path(5)).verdict == HOLDS
        k1 = Graph.from_edge_mask(1, 0)
        assert checked(check_complement_bounds, k1).verdict == NOT_APPLICABLE

    def test_gap(self):
        assert checked(check_complement_gap, path(5)).verdict == HOLDS
        assert checked(check_complement_gap, complete(4)).verdict == HOLDS

    def test_top_shift(self):
        # K_{2,2}: lambda1(comp) = 1 = -1 - (-2), least non-main, comp top repeated
        rep = checked(check_top_shift_equality, cycle(4))
        assert rep.verdict == HOLDS
        assert rep.witnesses["co_top_multiplicity"] > 1

    def test_second_shift(self):
        assert checked(check_second_shift_equality, path(4)).verdict == HOLDS
        assert checked(check_second_shift_equality, double_star(3, 3)).verdict == HOLDS

    def test_balanced_complete_bipartite(self):
        check = check_balanced_complete_bipartite_shift
        assert checked(check, cycle(4)).verdict == HOLDS
        assert checked(check, star(4)).verdict == HOLDS
        assert checked(check, cycle(5)).verdict == NOT_APPLICABLE
        disconnected = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert checked(check, disconnected).verdict == NOT_APPLICABLE


class TestPathChecks:
    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_eigenpairs(self, n):
        assert checked(check_path_eigenpairs, path(n), n).verdict == HOLDS

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_parity(self, n):
        assert checked(check_path_parity, path(n), n).verdict == HOLDS

    @pytest.mark.parametrize("n", [2, 3, 8, 39])
    def test_count(self, n):
        assert checked(check_path_count, path(n), n).verdict == HOLDS

    def test_eigenpairs_read_the_group_values(self):
        g = path(4)
        a = analyze_with_complements([g])[g]
        groups = list(a.spectrum.groups)
        off = groups[1]
        groups[1] = EigenGroup(off.value + 1e-6, 1, off.projection_norm_sq, off.is_main)
        doctored = dataclasses.replace(a, spectrum=MainSpectrum(tuple(groups)))
        rep = check_path_eigenpairs(4, analysis=doctored)
        assert rep.verdict == FAILS
        assert rep.witnesses["j"] == 2


class TestSemiregular:
    def test_star_holds(self):
        rep = checked(check_semiregular_main_pair, star(6))
        assert rep.verdict == HOLDS
        assert rep.witnesses["semiregular"] is True

    def test_unbalanced_complete_bipartite_holds(self):
        assert checked(check_semiregular_main_pair, complete_bipartite(2, 5)).verdict == HOLDS

    def test_double_star_holds_negative_side(self):
        rep = checked(check_semiregular_main_pair, double_star(2, 3))
        assert rep.verdict == HOLDS
        assert rep.witnesses["semiregular"] is False

    def test_regular_bipartite_boundary_na(self):
        rep = checked(check_semiregular_main_pair, cycle(6))
        assert rep.verdict == NOT_APPLICABLE
        assert rep.witnesses.get("regular_bipartite") is True

    def test_k2_boundary_na(self):
        assert checked(check_semiregular_main_pair, complete(2)).verdict == NOT_APPLICABLE

    def test_k4_holds(self):
        # regular non-bipartite: Hofmeister equality but one main eigenvalue;
        # the biconditional still holds (both sides false)
        assert checked(check_semiregular_main_pair, complete(4)).verdict == HOLDS

    def test_disconnected_na(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert checked(check_semiregular_main_pair, g).verdict == NOT_APPLICABLE

    # T44 decides semi-regularity itself; these pin its witness.
    def test_semiregular_star(self):
        assert checked(check_semiregular_main_pair, star(4)).witnesses["semiregular"] is True

    def test_semiregular_double_star_false(self):
        # centers land in the same part with degrees 3 and 4
        rep = checked(check_semiregular_main_pair, double_star(2, 3))
        assert rep.witnesses["semiregular"] is False

    def test_semiregular_needs_connected(self):
        rep = checked(check_semiregular_main_pair, Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert rep.verdict == NOT_APPLICABLE
        assert rep.witnesses == {"n": 4, "connected": False}

    def test_semiregular_odd_cycle_false(self):
        assert checked(check_semiregular_main_pair, cycle(5)).witnesses["semiregular"] is False

    def test_semiregular_unbalanced_complete_bipartite(self):
        rep = checked(check_semiregular_main_pair, complete_bipartite(2, 5))
        assert rep.witnesses["semiregular"] is True


class TestRankCount:
    def test_holds_on_paths(self):
        rep = checked(check_rank_count, path(10))
        assert rep.verdict == HOLDS
        assert rep.witnesses["rank"] == 5

    def test_gray_instances_hold_via_fallback(self, monkeypatch):
        # the band pinned at 1e-6 * n puts one of P_39's projections in it
        monkeypatch.setattr(spectra, "MAIN_TOL", 1e-6)
        rep = checked(check_rank_count, path(39))
        assert rep.verdict == HOLDS
        assert rep.witnesses["used_fallback"] is True
        assert rep.witnesses["s_float"] is None

    def test_doctored_disagreement_fails(self):
        g = path(4)
        real = analyze_with_complements([g])[g]
        fake = GraphAnalysis(
            graph=g,
            spectrum=real.spectrum,
            rank=real.rank,
            s_float=real.rank + 1,
            harmonic_level=None,
        )
        assert check_rank_count(g, analysis=fake).verdict == FAILS


class TestDoubleStar:
    def test_unbalanced(self):
        rep = checked(check_double_star_profile, double_star(2, 3), 2, 3)
        assert rep.verdict == HOLDS
        assert rep.witnesses["main_count"] == 4
        assert rep.witnesses["low_main"] is True
        assert rep.witnesses["det"] == -6  # -2*3*(3-2)^2

    def test_balanced(self):
        rep = checked(check_double_star_profile, double_star(3, 3), 3, 3)
        assert rep.verdict == HOLDS
        assert rep.witnesses["main_count"] == 2
        assert rep.witnesses["low_main"] is False
        assert rep.witnesses["det"] == 0

    def test_smallest(self):
        assert checked(check_double_star_profile, double_star(1, 1), 1, 1).verdict == HOLDS
        assert checked(check_double_star_profile, double_star(1, 2), 1, 2).verdict == HOLDS


class TestClosingCorollary:
    def test_even_path_checks_equality(self):
        spec = FamilySpec("path", (4,))
        rep = checked(check_complement_second_eigenvalue, build_family(spec), spec)
        assert rep.verdict == HOLDS
        assert rep.witnesses["equality_checked"] is True

    def test_odd_path_skips_equality(self):
        # least eigenvalue of an odd path is main, the equality clause has no
        # backing there (P_3 is a genuine counterexample to it)
        spec = FamilySpec("path", (3,))
        rep = checked(check_complement_second_eigenvalue, build_family(spec), spec)
        assert rep.verdict == HOLDS
        assert rep.witnesses["equality_checked"] is False

    def test_balanced_double_star(self):
        spec = FamilySpec("doublestar", (2, 2))
        rep = checked(check_complement_second_eigenvalue, build_family(spec), spec)
        assert rep.verdict == HOLDS
        assert rep.witnesses["expected"] == 2

    def test_unbalanced_double_star_na(self):
        spec = FamilySpec("doublestar", (2, 3))
        rep = checked(check_complement_second_eigenvalue, build_family(spec), spec)
        assert rep.verdict == NOT_APPLICABLE

    def test_other_family_na(self):
        spec = FamilySpec("cycle", (5,))
        rep = checked(check_complement_second_eigenvalue, build_family(spec), spec)
        assert rep.verdict == NOT_APPLICABLE


@pytest.mark.parametrize("check, args, g", [
    (check_path_eigenpairs, (6,), path(6)),
    (check_path_parity, (6,), path(6)),
    (check_path_count, (5,), path(5)),
    (check_double_star_profile, (2, 3), double_star(2, 3)),
    (check_complement_second_eigenvalue, (FamilySpec("path", (4,)),), path(4)),
], ids=["L41", "T42", "C43", "T46", "COR47"])
def test_family_checkers_use_given_analyses(monkeypatch, check, args, g):
    # analysis= and co= mean what they mean for the graph checkers: the
    # checker reads its graph from them and neither builds nor analyses one
    with pytest.raises(TypeError):
        check(*args)
    found = analyze_with_complements([g])
    expected = checked(check, g, *args)

    def forbidden(*args, **kwargs):
        raise AssertionError("a family checker built or analysed a graph")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(forbidden))
    monkeypatch.setattr(theorems, "analyze_graph", forbidden)
    assert check(*args, analysis=found[g], co=found[g.complement()]) == expected


def test_every_graph_checker_on_small_sweep():
    # no checker may crash or fail on any real graph of order 4
    for a, co in sweep(4):
        for tid, fn in GRAPH_CHECKERS.items():
            rep = fn(a.graph, analysis=a, co=co)
            assert rep.verdict in (HOLDS, NOT_APPLICABLE), (tid, rep)
            assert isinstance(rep, TheoremReport)


_FACTS = (graphs.degree_data, graphs.is_connected, graphs.bipartition,
          exact.pseudo_regular_ratio)


@pytest.mark.parametrize("check", [check_bipartite_harmonic_nonmain,
                                   check_balanced_complete_bipartite_shift,
                                   check_semiregular_main_pair])
@pytest.mark.parametrize("g", [complete_bipartite(2, 2), complete_bipartite(2, 3), cycle(5),
                               path(4), Graph.from_edge_mask(4, 0b000011), harmonic_tree(2),
                               star(1)],
                         ids=["K22", "K23", "C5", "P4", "P3+K1", "T2", "K1"])
def test_structural_predicates_run_once_per_check(check, g):
    # Each fact's body runs at most once per graph object, whichever checker
    # reads it first (``check``, then verify's filters and all 16 graph
    # checkers); counted by code object with a profile hook, so no binding
    # needs patching.
    g = Graph(g.n, g.rows)  # a fresh object: the parameters are shared by every case
    bodies = {fact.__wrapped__.__code__: fact.__name__ for fact in _FACTS}
    found = analyze_with_complements([g])
    a, co = found[g], found[g.complement()]
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in bodies:
            assert frame.f_locals["g"] is g
            runs.append(bodies[frame.f_code])

    sys.setprofile(profile)
    try:
        first = check(g, analysis=a, co=co)
        graphs.is_connected(g)
        graphs.is_bipartite(g)
        reports = [other(g, analysis=a, co=co) for other in GRAPH_CHECKERS.values()]
    finally:
        sys.setprofile(None)
    assert len(runs) == len(set(runs)), runs
    assert {"degree_data", "is_connected", "bipartition"} <= set(runs)
    assert first in reports
    assert first.verdict in (HOLDS, NOT_APPLICABLE)


def test_labels_are_cached_per_graph(monkeypatch):
    # No report serialises its graph until its label is read; then the 16
    # reports of one graph share one serialisation.
    calls = []
    real = theorems.serialize_graph6
    monkeypatch.setattr(theorems, "serialize_graph6", lambda g: calls.append(g) or real(g))
    g = path(6)
    found = analyze_with_complements([g])
    a, co = found[g], found[g.complement()]
    reports = [check(g, analysis=a, co=co) for check in GRAPH_CHECKERS.values()]
    assert calls == []
    assert {r.instance for r in reports} == {"EhCG"}
    assert calls == [g]
    assert reports[0] == TheoremReport(reports[0].theorem_id, "EhCG", reports[0].verdict,
                                       reports[0].witnesses, reports[0].tolerance)
