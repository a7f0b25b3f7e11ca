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
import re
import sys
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mainspec import graphs, spectra, sweeps, theorems
from mainspec.analysis import Block, GraphAnalysis
from mainspec.graph6 import parse_graph6, serialize_graph6
from mainspec.graphs import (
    Graph,
    StackFacts,
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


def test_readme_claim_table_matches_claims():
    # The README's "Claim ids" table is the only other copy of the claim texts.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Claim ids", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, flags=re.MULTILINE)
    assert len(rows) == len(theorems.CLAIMS)
    assert dict(rows) == theorems.CLAIMS


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


def scan_shifts(a: GraphAnalysis, co: GraphAnalysis) -> tuple:
    """``shifted``'s answer made afresh: each group of a, largest first,
    looked up at -1 - lambda in co by a scan of every group."""
    return tuple(scan_all_groups(co, -1.0 - grp.value) for grp in a.spectrum.groups)


def test_shifted_matches_a_scan_per_group():
    for a, co in sweep(5):
        for own, other in ((a, co), (co, a)):
            got = theorems.shifted(own, other)
            want = scan_shifts(own, other)
            assert len(got) == len(want)
            assert all(above == w_above and grp is w_grp
                       for (above, grp), (w_above, w_grp) in zip(got, want)), own.graph
            assert theorems.shifted(own, other) is got  # the kept answer


def test_shifted_answers_each_pair_not_the_last_one():
    # The kept answer is keyed on both analyses: a change of either alone is
    # a new pair.  Each call below differs from the one before on one side.
    k33, p5 = complete_bipartite(3, 3), path(5)
    found = analyze_with_complements([k33, p5])
    (a, co), (a2, co2) = found[k33], found[p5]
    calls = [(a, co), (a, co2), (a2, co2), (a2, co), (a, co)]
    for (x, y), (x_last, y_last) in zip(calls[1:], calls):
        assert scan_shifts(x, y) != scan_shifts(x_last, y_last)
    for x, y in calls:
        assert theorems.shifted(x, y) == scan_shifts(x, y)


def test_a_pairs_checkers_look_up_each_shift_once(monkeypatch):
    # All 16 graph checkers of one pair make one complement lookup per group
    # of G, shared through ``shifted``.
    real = theorems.locate
    seen: list[GraphAnalysis] = []

    def counting(a, x):
        seen.append(a)
        return real(a, x)

    monkeypatch.setattr(theorems, "locate", counting)
    pairs = list(sweep(5)) + [analyze_with_complements([g])[g]
                              for g in (complete_bipartite(3, 3), path(9), double_star(2, 3))]
    for a, co in pairs:
        seen.clear()
        for check in GRAPH_CHECKERS.values():
            check(a.graph, analysis=a, co=co)
        assert sum(x is co for x in seen) == len(a.spectrum.groups), a.graph


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


@pytest.mark.xfail(strict=True, reason=(
    "TOL_EQ = 1e-8 takes a main non-pair less than 1e-8 apart for a pair on these trees; "
    "ROADMAP item 1 (exact pairing from M_G) must turn this green"))
@pytest.mark.parametrize("check", [check_complement_count, check_complement_membership,
                                   check_simple_shifted_nonmain], ids=["T31", "P32", "C33"])
@pytest.mark.parametrize("tree", ["MhCH@A??G?_@?A_??", "MhCK?C@?G@?C?_??_",
                                  "MhCS?C@?GA?O?@??_", "MhD?GI??G?_A?G_??",
                                  "MhGaAA??G?_A?C_??", "NhCGK?@?G?_@?O??_G?"])
def test_tree_near_pair(check, tree):
    # Five order-14 trees and one of order 15 on which gcd(P_G(x), P_comp(-1-x))
    # is a power of x (gcd 1 at order 15).  The complements of MhCS... and
    # MhD?... take the gray-band fallback.
    assert checked(check, parse_graph6(tree)).verdict != FAILS


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
    assert reports[0] == TheoremReport(reports[0].theorem_id, g, reports[0].verdict,
                                       reports[0].witnesses, reports[0].tolerance)
    assert reports[0].instance == "EhCG"


# The seven pinned false-FAIL graphs: T31, P32 and C33 FAIL on each.
NEAR_PAIRS = ["HvG[upG", "MhCH@A??G?_@?A_??", "MhCK?C@?G@?C?_??_", "MhCS?C@?GA?O?@??_",
              "MhD?GI??G?_A?G_??", "MhGaAA??G?_A?C_??", "NhCGK?@?G?_@?O??_G?"]


def _cut_of(graphs):
    """One cut of ``graphs``, all of one order, and their complements, as
    ``sweeps.cuts`` gives one: the graphs' rows first, then their complements'."""
    stack = [*graphs, *(g.complement() for g in graphs)]
    block = sweeps.analyze_stack(np.stack([h.adjacency_matrix() for h in stack]),
                                 np.array([h.rows for h in stack], dtype=np.int64))
    k = len(graphs)
    return sweeps.Cut(block, np.arange(k), np.arange(k, 2 * k))


def _cuts(source):
    """The cuts of one source, as columns."""
    if source == "near-pairs":  # one cut per order: 9, 14 and 15
        near = [parse_graph6(g6) for g6 in NEAR_PAIRS]
        return [_cut_of([g for g in near if g.n == n]) for n in sorted({g.n for g in near})]
    n, size = source
    masks = None if size is None else sample_masks(n, size, seed=7)
    return list(sweeps.cuts(n, masks=masks))


def _compare_block(cut, pairs, fails):
    """Assert that ``check_block(cut)`` gives the per-graph checkers' verdicts
    on ``pairs``, the records of the cut's pairs, and its columns their facts
    and disagreements; add the claims that fail to ``fails``."""
    codes = {verdict: code for code, verdict in enumerate(theorems.VERDICTS)}
    checks = list(GRAPH_CHECKERS.values())
    block = theorems.check_block(cut)
    want = np.array([[codes[check(a.graph, analysis=a, co=co).verdict] for check in checks]
                     for a, co in pairs]).reshape(len(pairs), len(checks))
    assert block.verdicts.shape == want.shape
    assert [tid for column, tid in enumerate(GRAPH_CHECKERS)
            if not np.array_equal(block.verdicts[:, column], want[:, column])] == []
    fails |= {tid for tid, failed in zip(GRAPH_CHECKERS, (want == codes[FAILS]).any(axis=0))
              if failed}
    facts = cut.block.facts
    assert facts.connected[cut.own].tolist() == [graphs.is_connected(a.graph) for a, _ in pairs]
    assert facts.bipartite[cut.own].tolist() == [graphs.is_bipartite(a.graph) for a, _ in pairs]
    assert block.disagrees.tolist() == [a.disagrees or co.disagrees for a, co in pairs]


@pytest.mark.parametrize("source, tol", [((n, None), theorems.TOL_EQ) for n in range(1, 7)] + [
    ((7, 4096), theorems.TOL_EQ), ((8, 2048), theorems.TOL_EQ), ("near-pairs", theorems.TOL_EQ),
    ((5, None), 0.05)], ids=[f"exhaustive-{n}" for n in range(1, 7)] + [
    "sampled-7", "sampled-8", "near-pairs", "exhaustive-5-wide"])
def test_block_verdicts_equal_the_per_graph_checkers(monkeypatch, source, tol):
    # ``check_block`` decides all 16 graph claims for a cut at once; every
    # verdict must be the one its per-graph checker reports on the records
    # built from the cut's columns.  The near pairs make T31, P32 and C33
    # FAIL; a TOL_EQ widened to 0.05, read by both paths when called, adds
    # P25 and P36 FAILs.
    wide = tol != theorems.TOL_EQ
    monkeypatch.setattr(theorems, "TOL_EQ", tol)
    fails = set()
    for cut in _cuts(source):
        _compare_block(cut, sweeps.pairs(cut), fails)
    if source == "near-pairs":
        assert fails == {"T31", "P32", "C33"}
    elif wide:
        assert fails == {"P25", "T31", "P32", "C33", "P36"}
    else:
        assert fails == set()


def test_block_verdicts_of_a_selection_split_across_cuts(monkeypatch):
    # An order-7 selection of 2,500 masks: 1,000 pairs with both masks
    # selected, each mask below half the population and its complement
    # above, and 500 masks, half below and half above, whose complement is
    # not selected.  In paired order the selection is two cuts of at most
    # 2,048 graphs, each pair lies in one cut, each cut's complement block
    # holds the rest, and each graph is decomposed once.  Sorted it is three
    # cuts, and a pair whose masks lie in different cuts is decomposed in
    # each.  Either way the verdicts equal the per-graph checkers' on
    # ``sweep``'s records.
    full = sweeps.mask_population(7) - 1
    low = np.random.default_rng(3).choice(full // 2 + 1, 1500, replace=False)
    ascending = np.sort(np.concatenate([low[:1250], full ^ low[:1000], full ^ low[1250:]]))
    co = full ^ ascending
    key = np.where(np.isin(co, ascending), np.minimum(ascending, co), ascending)
    decomposed = []
    batch = spectra.eigen_decompose_batch
    monkeypatch.setattr(spectra, "eigen_decompose_batch",
                        lambda mats: decomposed.append(len(mats)) or batch(mats))
    for masks in (ascending[np.argsort(key, kind="stable")], ascending):
        paired = masks is not ascending
        decomposed.clear()
        cuts = list(sweeps.cuts(7, masks=masks))
        assert len(cuts) == (2 if paired else 3)
        assert all(len(cut.block.rank) <= 2048 for cut in cuts)
        parts = np.split(masks, np.cumsum([len(cut.own) for cut in cuts])[:-1])
        assert sum(decomposed) == sum(len(np.union1d(p, full ^ p)) for p in parts)
        assert (sum(decomposed) == len(np.union1d(masks, full ^ masks)) == 3000) is paired
        assert all(len(cut.block.rank) > len(cut.own) for cut in cuts)  # a complement block each
        pairs = list(sweep(7, masks=masks))
        fails = set()
        start = 0
        for cut in cuts:
            _compare_block(cut, pairs[start:start + len(cut.own)], fails)
            start += len(cut.own)
        assert fails == set()


def _take(block, index):
    """Rows ``index`` of a sweep block, every column with them."""
    return Block(*(c[index] for c in block[:-1]), StackFacts(*(c[index] for c in block.facts)))


def _doctored(a_row, co_row, **changes):
    """Rows ``a_row`` and ``co_row`` of one block as a pair of one-row blocks;
    ``changes`` maps "a" or "co" to a function that edits that row in place."""
    out = []
    for side, row in (("a", a_row), ("co", co_row)):
        block, index = row
        one = _take(block, np.array([index]))
        if side in changes:
            changes[side](one)
        out.append(one)
    return out


def _moved(i):
    """Move group ``i`` of a one-row block up by 1e-6, as ``moved`` does."""
    def move(block):
        block.value[0, i] += 1e-6
    return move


def test_block_verdicts_of_moved_and_disagreeing_analyses():
    # The FAIL branches real graphs never reach, one cut per graph and order:
    # each group of G, then of its complement, moved off every equality in
    # turn (``moved``), either route made to disagree, and the harmonic level
    # taken away or made up.
    fails = set()
    for g in (harmonic_tree(2), star(6), path(4), cycle(6), complete_bipartite(3, 3),
              double_star(2, 3), pendant_decorated(cycle(5), 1), complete(1)):
        block = _cut_of([g]).block
        a, co = (block, 0), (block, 1)

        def disagree(one):
            one.s_float[0] = one.rank[0] + 1

        def level(one):
            one.level[0] = np.nan if one.level[0] == one.level[0] else 3

        rows = [_doctored(a, co), _doctored(a, co, a=disagree), _doctored(a, co, co=disagree),
                _doctored(a, co, a=level)]
        rows += [_doctored(a, co, a=_moved(i)) for i in range(block.count[0])]
        rows += [_doctored(a, co, co=_moved(i)) for i in range(block.count[1])]
        k = len(rows)
        cut = sweeps.Cut(sweeps._join([one for pair in rows for one in pair]),
                         np.arange(0, 2 * k, 2), np.arange(1, 2 * k, 2))
        _compare_block(cut, sweeps.pairs(cut), fails)
    assert fails == set(GRAPH_CHECKERS) - {"T31", "C33"}  # the near pairs fail those
    cut = _cut_of([path(3)])
    empty = theorems.check_block(cut._replace(own=cut.own[:0], co=cut.co[:0]))
    assert empty.verdicts.shape == (0, len(GRAPH_CHECKERS))
