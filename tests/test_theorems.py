"""Per-claim checker verdicts on known instances.

The claims themselves are theorems, so genuine "fails" verdicts cannot be
produced by real graphs; the failure paths are exercised with doctored
analyses where that is meaningful (T45, and one group moved off an equality
a claim tests) and otherwise by verdict gating.
Every analysis a checker reads here comes from the route ``verify`` uses,
``sweeps.analyze_with_complements`` (see ``checked``).
"""
import json
import math
import sys
from typing import Callable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mainspec import graphs, spectra, theorems
from mainspec.analysis import GraphAnalysis
from mainspec.graph6 import parse_graph6, serialize_graph6
from mainspec.graphs import (
    Graph,
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
from mainspec.sweeps import analyze_with_complements, sample_masks, sweep
from mainspec.theorems import (
    ALL_IDS,
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
    complement_window,
    locate,
)


def checked(check: Callable[..., TheoremReport], g: Graph) -> TheoremReport:
    """``check`` on ``g`` with the analyses of ``g`` and its complement that
    ``verify`` would hand it."""
    a, co = analyze_with_complements([g])[g]
    return check(g, analysis=a, co=co)


def test_registry_covers_all_ids():
    covered = set(GRAPH_CHECKERS) | set(PATH_CHECKERS) | {"T46", "COR47"}
    assert covered == set(ALL_IDS)


def test_report_json_shape():
    rep = checked(check_path_count, path(5))
    blob = rep.to_json()
    assert blob["theorem_id"] == "C43"
    assert blob["verdict"] == HOLDS
    json.dumps(blob)  # serializable


def test_json_clean_rounds_floats():
    cleaned = theorems.json_clean({"x": 0.1234567890123456789, "t": (1, 2.0)})
    assert cleaned == {"x": 0.123456789012, "t": [1, 2.0]}


def scan_all_groups(a: GraphAnalysis, x: float) -> tuple[int, EigenGroup | None]:
    """``locate``'s answer from every group: the multiplicity above
    x + TOL_EQ, and the one group within TOL_EQ of x."""
    tol = theorems.TOL_EQ
    above = sum(grp.multiplicity for grp in a.spectrum.groups if grp.value > x + tol)
    equal = [grp for grp in a.spectrum.groups if abs(grp.value - x) <= tol]
    assert len(equal) <= 1
    return above, (equal[0] if equal else None)


def test_locate_matches_a_scan_of_every_group():
    pairs = [pair for n in range(1, 6) for pair in sweep(n)]
    pairs += sweep(8, masks=sample_masks(8, 2048))
    g = parse_graph6("HvG[upG")
    pairs.append(analyze_with_complements([g])[g])
    for a, co in pairs:
        for own, other in ((a, co), (co, a)):
            lam1 = own.lambda_max
            for x in (0.0, lam1, -lam1, *(-1.0 - grp.value for grp in other.spectrum.groups)):
                above, grp = locate(own, x)
                want_above, want = scan_all_groups(own, x)
                assert above == want_above and grp is want, (own.graph, x)


def test_locate_k1_shift_is_interior():
    # The order-1 complement has no lambda_2: -1 - 0 lies below its only eigenvalue.
    g = Graph.from_edge_mask(1, 0)
    a, co = analyze_with_complements([g])[g]
    assert locate(co, -1.0 - a.lambda_min) == (1, None)
    assert complement_window(a, co) == "interior"


def test_locate_k33_shift_is_the_repeated_top():
    # comp(K_{3,3}) = 2 K_3: lambda_1 = lambda_2 = 2 = -1 - (-3).
    g = complete_bipartite(3, 3)
    a, co = analyze_with_complements([g])[g]
    above, grp = locate(co, -1.0 - a.lambda_min)
    assert above == 0 and grp.multiplicity == 2
    assert complement_window(a, co) == "equals-lambda1"
    # COR47's lambda_2 equality: the located group covers eigenvalue index 1.
    assert above <= 1 < above + grp.multiplicity
    assert grp.value == co.eigenvalue(1)


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
        real, _ = analyze_with_complements([g])[g]
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


def all_pairs_distance(values, co_values):
    """T31's distance by brute force: min |v + w + 1| over every main pair."""
    return min((abs(v + w + 1.0) for v in values for w in co_values), default=math.inf)


# Non-increasing main values, up to 9 a side; the sampled ones make exact -1
# pairs and ties likely.
_MAIN_VALUES = st.lists(
    st.one_of(st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
              st.floats(-10.0, 10.0, allow_nan=False)),
    max_size=9,
).map(lambda vs: tuple(sorted(vs, reverse=True)))


class TestComplementClaims:
    def test_count_pairing(self):
        rep = checked(check_complement_count, path(4))
        assert rep.verdict == HOLDS
        assert rep.witnesses["min_pair_distance"] > 1e-6

    @given(_MAIN_VALUES, _MAIN_VALUES)
    @example((), ())
    @example((), (1.0,))
    @example((2.0, 0.0), (-1.0, -3.0))  # an exact -1 pair: 0 + (-1) + 1 == 0
    @example((1.0, 0.0), (-1.0, -2.0))  # two pairs tie at 0
    @example((1.0, 1.0, -1.0), (0.5, 0.5, -0.5))  # repeated values
    def test_pair_distance_walk_matches_all_pairs(self, values, co_values):
        got = theorems._min_pair_distance(values, co_values)
        assert got == all_pairs_distance(values, co_values)

    def test_pair_distance_of_every_order_5_pair(self):
        for a, co in sweep(5):
            rep = check_complement_count(a.graph, analysis=a, co=co)
            want = all_pairs_distance(a.spectrum.main_values(), co.spectrum.main_values())
            assert rep.witnesses["min_pair_distance"] == want

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
        assert checked(check_path_eigenpairs, path(n)).verdict == HOLDS

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_parity(self, n):
        assert checked(check_path_parity, path(n)).verdict == HOLDS

    @pytest.mark.parametrize("n", [2, 3, 8, 39])
    def test_count(self, n):
        assert checked(check_path_count, path(n)).verdict == HOLDS

    def test_eigenpairs_read_the_group_values(self):
        g = path(4)
        a, _ = analyze_with_complements([g])[g]
        rep = check_path_eigenpairs(g, analysis=moved(a, 1))
        assert rep.verdict == FAILS
        assert rep.witnesses["j"] == 2


def moved(a: GraphAnalysis, index: int) -> GraphAnalysis:
    """``a`` with group ``index`` moved up by 1e-6: off every equality at
    TOL_EQ, yet well inside the grouping gap."""
    groups = list(a.spectrum.groups)
    groups[index] = groups[index]._replace(value=groups[index].value + 1e-6)
    return a._replace(spectrum=MainSpectrum(tuple(groups)))


@pytest.mark.parametrize("check, g, side, index, witness", [
    # harmonic_tree(2): 2, 1 (x2), 0, -1 (x2), -2
    (check_bipartite_harmonic_nonmain, harmonic_tree(2), "analysis", 4,
     {"missing": pytest.approx(-2.0)}),
    (check_harmonic_main_membership, harmonic_tree(2), "analysis", 2,
     {"mains_in_zero_lambda1": False}),
    # star(6): sqrt(5), 0 (x4), -sqrt(5)
    (check_semiregular_main_pair, star(6), "analysis", 2, {"semiregular": True}),
    # doublestar(2,3): the four quartic roots around a triple 0; move the least
    (check_double_star_profile, double_star(2, 3), "analysis", 4, {"clause": "quartic_roots"}),
    # path(4) is self-complementary: its complement's lambda_2 is group 1
    (check_complement_second_eigenvalue, path(4), "co", 1, {"equality_checked": True}),
], ids=["L23", "P24", "T44", "T46", "COR47"])
def test_moved_equalities_fail(check, g, side, index, witness):
    # A group moved off the value a claim equates it with fails the claim.
    a, co = analyze_with_complements([g])[g]
    pair = {"analysis": a, "co": co}
    pair[side] = moved(pair[side], index)
    rep = check(g, **pair)
    assert rep.verdict == FAILS
    assert {key: rep.witnesses[key] for key in witness} == witness


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
        real, _ = analyze_with_complements([g])[g]
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
        rep = checked(check_double_star_profile, double_star(2, 3))
        assert rep.verdict == HOLDS
        assert rep.witnesses["main_count"] == 4
        assert rep.witnesses["low_main"] is True
        assert rep.witnesses["det"] == -6  # -2*3*(3-2)^2

    def test_balanced(self):
        rep = checked(check_double_star_profile, double_star(3, 3))
        assert rep.verdict == HOLDS
        assert rep.witnesses["main_count"] == 2
        assert rep.witnesses["low_main"] is False
        assert rep.witnesses["det"] == 0

    def test_smallest(self):
        assert checked(check_double_star_profile, double_star(1, 1)).verdict == HOLDS
        assert checked(check_double_star_profile, double_star(1, 2)).verdict == HOLDS


class TestClosingCorollary:
    def test_even_path_checks_equality(self):
        rep = checked(check_complement_second_eigenvalue, path(4))
        assert rep.verdict == HOLDS
        assert rep.witnesses["equality_checked"] is True

    def test_odd_path_skips_equality(self):
        # least eigenvalue of an odd path is main, the equality clause has no
        # backing there (P_3 is a genuine counterexample to it)
        rep = checked(check_complement_second_eigenvalue, path(3))
        assert rep.verdict == HOLDS
        assert rep.witnesses["equality_checked"] is False

    def test_balanced_double_star(self):
        rep = checked(check_complement_second_eigenvalue, double_star(2, 2))
        assert rep.verdict == HOLDS
        assert rep.witnesses["expected"] == 2

    def test_unbalanced_double_star_na(self):
        rep = checked(check_complement_second_eigenvalue, double_star(2, 3))
        assert rep.verdict == NOT_APPLICABLE

    def test_other_family_na(self):
        rep = checked(check_complement_second_eigenvalue, cycle(5))
        assert rep.verdict == NOT_APPLICABLE


# P_5 as 0-2-4-1-3, and T(2, 3) with its centers at 5 and 6: the same graphs
# up to isomorphism, but not the layout ``path`` and ``double_star`` build.
P5_RELABELLED = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3)])
T23_RELABELLED = Graph.from_edges(7, [(5, 6), (5, 0), (5, 1), (6, 2), (6, 3), (6, 4)])


@pytest.mark.parametrize("check, g, label, verdict", [
    (check_path_eigenpairs, path(6), "path(6)", HOLDS),
    (check_path_parity, path(6), "path(6)", HOLDS),
    (check_path_count, path(5), "path(5)", HOLDS),
    (check_double_star_profile, double_star(2, 3), "doublestar(2,3)", HOLDS),
    (check_complement_second_eigenvalue, path(4), "path(4)", HOLDS),
    # Graphs that are not the checker's instance: not-applicable under their
    # own graph6 label (None here), never under another instance's.
    *[(check, g, None, NOT_APPLICABLE)
      for check in PATH_CHECKERS.values() for g in (cycle(6), P5_RELABELLED)],
    (check_double_star_profile, path(6), None, NOT_APPLICABLE),
    (check_double_star_profile, T23_RELABELLED, None, NOT_APPLICABLE),
    (check_complement_second_eigenvalue, double_star(2, 3), "doublestar(2,3)", NOT_APPLICABLE),
    (check_complement_second_eigenvalue, cycle(5), None, NOT_APPLICABLE),
], ids=["L41", "T42", "C43", "T46", "COR47",
        *[f"{tid}-{g}" for tid in PATH_CHECKERS for g in ("C6", "P5-relabelled")],
        "T46-P6", "T46-T23-relabelled", "COR47-T23", "COR47-C5"])
def test_family_checkers_use_given_analyses(monkeypatch, check, g, label, verdict):
    # Family checkers take the call shape of the graph checkers: the instance
    # is ``g`` itself, read from its rows, and they neither build nor analyse
    # a graph.  A fresh copy of ``g`` keeps earlier calls' cached facts out.
    with pytest.raises(TypeError):
        check(g)
    a, co = analyze_with_complements([g])[g]
    expected = checked(check, g)
    g = Graph(g.n, g.rows)

    def forbidden(*args, **kwargs):
        raise AssertionError("a family checker built or analysed a graph")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(forbidden))
    monkeypatch.setattr(theorems, "analyze_graph", forbidden)
    report = check(g, analysis=a, co=co)
    assert report == expected
    assert report.verdict == verdict
    assert report.instance == (label or serialize_graph6(g).decode("ascii"))


@pytest.mark.xfail(strict=True, reason=(
    "TOL_EQ = 1e-8 takes a main non-pair 9.8e-9 apart for a pair at order 9; "
    "ROADMAP item 1 (exact pairing from M_G) must turn this green"))
@pytest.mark.parametrize("check", [check_complement_count, check_complement_membership,
                                   check_simple_shifted_nonmain], ids=["T31", "P32", "C33"])
def test_order_9_near_pair(check):
    # gcd(P_G(x), P_comp(-1-x)) = x: the only true pair is at lambda = 0.
    assert checked(check, parse_graph6("HvG[upG")).verdict != FAILS


def test_every_graph_checker_on_small_sweep():
    # no checker may crash or fail on any real graph of order 4
    for a, co in sweep(4):
        for tid, fn in GRAPH_CHECKERS.items():
            rep = fn(a.graph, analysis=a, co=co)
            assert rep.verdict in (HOLDS, NOT_APPLICABLE), (tid, rep)
            assert isinstance(rep, TheoremReport)


@pytest.mark.parametrize("check", [check_bipartite_harmonic_nonmain,
                                   check_balanced_complete_bipartite_shift,
                                   check_semiregular_main_pair])
@pytest.mark.parametrize("g", [complete_bipartite(2, 2), complete_bipartite(2, 3), cycle(5),
                               path(4), Graph.from_edge_mask(4, 0b000011), harmonic_tree(2),
                               star(1)],
                         ids=["K22", "K23", "C5", "P4", "P3+K1", "T2", "K1"])
def test_structural_predicates_run_once_per_check(check, g):
    # The facts record's body runs once per graph object, whichever checker
    # reads it first (``check``, then verify's filters and all 16 graph
    # checkers); counted by code object with a profile hook, so no binding
    # needs patching.
    g = Graph(g.n, g.rows)  # a fresh object: the parameters are shared by every case
    body = graphs.facts.__wrapped__.__code__
    a, co = analyze_with_complements([g])[g]
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            assert frame.f_locals["g"] is g
            runs.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        first = check(g, analysis=a, co=co)
        graphs.is_connected(g)
        graphs.is_bipartite(g)
        reports = [other(g, analysis=a, co=co) for other in GRAPH_CHECKERS.values()]
    finally:
        sys.setprofile(None)
    assert runs == ["facts"], runs
    assert first in reports
    assert first.verdict in (HOLDS, NOT_APPLICABLE)


@pytest.mark.parametrize("n, masks", [(5, None), (7, sample_masks(7, 256))],
                         ids=["exhaustive-5", "sampled-7"])
def test_checking_a_sweep_pair_runs_no_fact_body(n, masks):
    # A sweep stores every graph's facts record from its chunk's stack, so
    # neither verify's filters nor any of the 16 graph checkers computes one.
    body = graphs.facts.__wrapped__.__code__
    pairs = list(sweep(n, masks=masks))
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is body:
            runs.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for a, co in pairs:
            graphs.is_connected(a.graph)
            graphs.is_bipartite(a.graph)
            for check in GRAPH_CHECKERS.values():
                check(a.graph, analysis=a, co=co)
    finally:
        sys.setprofile(None)
    assert runs == []


def test_labels_are_cached_per_graph(monkeypatch):
    # No report serialises its graph until its label is read; then the 16
    # reports of one graph share one serialisation.
    calls = []
    real = theorems.serialize_graph6
    monkeypatch.setattr(theorems, "serialize_graph6", lambda g: calls.append(g) or real(g))
    g = path(6)
    a, co = analyze_with_complements([g])[g]
    reports = [check(g, analysis=a, co=co) for check in GRAPH_CHECKERS.values()]
    assert calls == []
    assert {r.instance for r in reports} == {"EhCG"}
    assert calls == [g]
    assert reports[0] == TheoremReport(reports[0].theorem_id, "EhCG", reports[0].verdict,
                                       reports[0].witnesses, reports[0].tolerance)
