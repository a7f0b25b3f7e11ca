"""Checkers: one verdict per claim per instance, with witnesses.

Every checker returns a TheoremReport with verdict "holds", "fails" or
"not-applicable" (hypotheses unmet).  Checkers never assert; failures are
data, so sweeps can keep going and report totals.  Claim ids are the stable
tokens used by the CLI; CLAIMS maps them to plain-language statements.

Every checker has one call shape, ``check(g, *, analysis, co)``, and makes no
analyses of its own: it takes the analysis of its graph as ``analysis=`` and,
where it reads the complement's, that one as ``co=`` (checkers that do not
read it ignore it).  Both come from the pipeline ``verify`` uses::

    a, co = sweeps.analyze_with_complements([g])[g]
    check_complement_count(g, analysis=a, co=co)

The family checkers (L41, T42, C43, T46, COR47) read their instance, labelled
``path(n)`` or ``doublestar(k,s)``, from ``graphs.family_of(g)``; any other
graph, a relabelled one included, is not-applicable under its own label.

Table-mode ``verify`` decides a sweep's graphs with ``check_block``, each of
the 16 graph claims one array predicate over a ``sweeps.Cut``'s columns, and
runs a checker only for a report it prints; ``--json`` and the family
instances run ``GRAPH_CHECKERS``.  A checker reads its graph's structural
facts from its one ``graphs.facts`` record and its main values from the
spectrum, collected once.  A report serialises its graph6 label only when
``instance`` is first read, once per graph.

Every eigenvalue equality a claim tests, whether against its own spectrum
(0, -lambda_1, sum d^2 / 2m, a closed form) or against the complement's
(-1-lambda, looked up once per pair and group by ``shifted``), is decided by
one function, ``locate`` (``_locate`` over a block).  Three comparisons
follow other rules: T31's distance over all main pairs, T44's relative slack
and index bound, and P21's ``TOL_REL``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

import numpy as np

from . import exact
from .analysis import GraphAnalysis
from .analysis import analyze_graph  # noqa: F401  (bound here for perfbench's span tracer)
from .graph6 import serialize_graph6
from .graphs import Graph, facts, family_of, per_graph
from .spectra import EigenGroup

if TYPE_CHECKING:
    from .sweeps import Cut

# Every eigenvalue equality is decided by ``locate`` to 1e-8 absolute, whether
# both values come from one spectrum or from G and its complement; T31's main
# pair distance and T44's slack and index bound scale the same 1e-8, and the
# two-main relation (P21) takes 1e-6 relative.  A scan of all 268,435,456
# labeled order-8 graphs against their complements (LAPACK eigvalsh) backs
# the pairing lambda(G) = -1 - mu: exact pairs sit within 9.6e-15 and the
# closest non-pair is 4.05e-7 (80,640 graphs, e.g. GM\aE?), so no distance
# lies in [1e-11, 1e-7].  Non-pairs sit farther apart at lower orders (1.6e-5
# at 7, 1.4e-3 at 6).  No scan backs it past order 8, yet it also decides the
# complement claims on verify's family graphs (up to order 200) and
# ``analyze``'s window.  Order 9 already defeats it: HvG[upG's only true pair
# is at 0 (gcd(P_G(x), P_comp(-1-x)) = x), but a main non-pair 9.8e-9 apart
# makes T31, P32 and C33 report FAILS on it.
TOL_EQ = 1e-8
TOL_REL = 1e-6

HOLDS = "holds"
FAILS = "fails"
NOT_APPLICABLE = "not-applicable"


@dataclass(slots=True)
class TheoremReport:
    """One verdict on one instance.

    ``subject`` is the graph checked, or a family description such as
    ``path(6)``; ``instance`` is its label, for a graph its graph6 string.
    """

    theorem_id: str
    subject: Graph | str
    verdict: str
    witnesses: dict[str, Any] = field(default_factory=dict)
    tolerance: float | None = None

    @property
    def instance(self) -> str:
        subject = self.subject
        return subject if isinstance(subject, str) else _graph6(subject)

    def to_json(self) -> dict[str, Any]:
        return {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "witnesses": json_clean(self.witnesses),
            "tolerance": self.tolerance,
        }


def json_clean(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: json_clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_clean(v) for v in value]
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


@per_graph
def _graph6(g: Graph) -> str:
    return serialize_graph6(g).decode("ascii")


def locate(a: GraphAnalysis, x: float) -> tuple[int, EigenGroup | None]:
    """Where x sits in a's spectrum, to TOL_EQ: how many eigenvalues, counted
    with multiplicity, lie above x + TOL_EQ, and the group equal to x, or None.
    One scan from the top, stopping at the first group at or below x + TOL_EQ;
    at most one group can equal x, since ``build_groups`` keeps values
    3 * GROUP_TOL apart."""
    above = 0
    for grp in a.spectrum.groups:
        if grp.value <= x + TOL_EQ:
            return above, grp if abs(grp.value - x) <= TOL_EQ else None
        above += grp.multiplicity
    return above, None


_last_shifted: tuple[Any, Any, tuple] = (None, None, ())  # (a, co, shifted(a, co))


def shifted(a: GraphAnalysis, co: GraphAnalysis) -> tuple[tuple[int, EigenGroup | None], ...]:
    """``locate(co, -1 - lambda)`` for each group of a, largest first, so the
    last is -1-lambda_min's.  The last pair's answer is kept, keyed on both
    analyses by identity: all the checkers of one pair share its lookups."""
    global _last_shifted
    last_a, last_co, found = _last_shifted
    if last_a is not a or last_co is not co:
        found = tuple(locate(co, -1.0 - grp.value) for grp in a.spectrum.groups)
        _last_shifted = (a, co, found)
    return found


def complement_window(a: GraphAnalysis, c: GraphAnalysis) -> str:
    """Where -1-lambda_min(G) sits against the complement's lambda_1 and
    lambda_2 (none at order 1): "violated" outside [lambda_2, lambda_1], else
    "equals-lambda1", "equals-lambda2" or "interior"."""
    above, grp = shifted(a, c)[-1]
    if above >= 2 or (above == 0 and grp is None):
        return "violated"
    if grp is None:
        return "interior"
    return "equals-lambda1" if above == 0 else "equals-lambda2"


# ---------------------------------------------------------------------------
# Two-main-eigenvalue relations.
# ---------------------------------------------------------------------------


def check_two_main_relation(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """P21: with exactly two main groups, the second is a closed form of n, m, sum d^2."""
    if analysis.main_count != 2:
        return TheoremReport("P21", g, NOT_APPLICABLE,
                             {"main_count": analysis.main_count})
    lam1, lami = analysis.spectrum.main_values()
    gf = facts(g)
    denom = 2.0 * gf.m - g.n * lam1
    wit: dict[str, Any] = {"lambda1": lam1, "lambda_i": lami, "m": gf.m,
                           "sum_squares": gf.sum_squares}
    if abs(denom) <= 1e-9 * g.n * (1.0 + abs(lam1)):
        # Degenerate denominator: the relation collapses to lam1^2 = sum d^2 / n.
        ok = abs(lam1 * lam1 - gf.sum_squares / g.n) <= TOL_REL * max(1.0, lam1 * lam1)
        wit["form"] = "lambda1_squared"
    else:
        rhs = (gf.sum_squares - 2.0 * gf.m * lam1) / denom
        ok = abs(lami - rhs) <= TOL_REL * max(1.0, abs(lami))
        wit["rhs"] = rhs
        wit["form"] = "ratio"
    return TheoremReport("P21", g, HOLDS if ok else FAILS, wit, TOL_REL)


def check_zero_main_index(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """C22: if the second of exactly two main eigenvalues is 0, lambda_1 = sum d^2 / 2m."""
    if analysis.main_count != 2:
        return TheoremReport("C22", g, NOT_APPLICABLE, {"main_count": analysis.main_count})
    lam1, lami = analysis.spectrum.main_values()
    _, zero = locate(analysis, 0.0)
    if zero is None or not zero.is_main:
        # With two main groups, lambda_1 > 0 is the other one.
        return TheoremReport("C22", g, NOT_APPLICABLE, {"lambda_i": lami})
    gf = facts(g)
    expected = gf.sum_squares / (2.0 * gf.m)
    ok = locate(analysis, expected)[1] is analysis.spectrum.groups[0]
    return TheoremReport("C22", g, HOLDS if ok else FAILS,
                         {"lambda1": lam1, "expected": expected}, TOL_EQ)


# ---------------------------------------------------------------------------
# Harmonic graphs.
# ---------------------------------------------------------------------------


def check_bipartite_harmonic_nonmain(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """L23: bipartite harmonic with an edge puts -lambda_1 in the spectrum, non-main."""
    gf = facts(g)
    m, bipartite = gf.m, gf.sides is not None
    if not (analysis.is_harmonic and m >= 1 and bipartite):
        return TheoremReport("L23", g, NOT_APPLICABLE,
                             {"harmonic": analysis.is_harmonic, "m": m, "bipartite": bipartite})
    lam1 = analysis.lambda_max
    _, grp = locate(analysis, -lam1)
    if grp is None:
        return TheoremReport("L23", g, FAILS,
                             {"lambda1": lam1, "missing": -lam1}, TOL_EQ)
    ok = grp.is_main is False
    return TheoremReport("L23", g, HOLDS if ok else FAILS,
                         {"lambda1": lam1, "neg_group_main": grp.is_main,
                          "neg_group_projection": grp.projection_norm_sq}, TOL_EQ)


def check_harmonic_main_membership(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """P24: harmonic exactly when every main eigenvalue is 0 or lambda_1."""
    top = analysis.spectrum.groups[0]
    _, zero = locate(analysis, 0.0)
    membership = all(grp is top or grp is zero
                     for grp in analysis.spectrum.groups if grp.is_main)
    ok = membership == analysis.is_harmonic
    return TheoremReport("P24", g, HOLDS if ok else FAILS,
                         {"harmonic": analysis.is_harmonic, "level": analysis.harmonic_level,
                          "mains_in_zero_lambda1": membership,
                          "mains": list(analysis.spectrum.main_values())}, TOL_EQ)


def check_harmonic_index_count(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """P25: with an edge, harmonic exactly when lambda_1 = sum d^2/2m and <= 2 mains."""
    gf = facts(g)
    if gf.m < 1:
        return TheoremReport("P25", g, NOT_APPLICABLE, {"m": 0})
    expected = gf.sum_squares / (2.0 * gf.m)
    index_match = locate(analysis, expected)[1] is analysis.spectrum.groups[0]
    condition = index_match and analysis.main_count <= 2
    ok = condition == analysis.is_harmonic
    return TheoremReport("P25", g, HOLDS if ok else FAILS,
                         {"harmonic": analysis.is_harmonic, "lambda1": analysis.lambda_max,
                          "sum_sq_over_2m": expected, "main_count": analysis.main_count},
                         TOL_EQ)


def check_pseudo_regular(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """P26: without isolated vertices, constant average-neighbor-degree == harmonic."""
    gf = facts(g)
    if 0 in gf.degrees:
        return TheoremReport("P26", g, NOT_APPLICABLE, {"isolated_vertex": True})
    ratio = gf.ratio
    ok = (ratio is not None) == analysis.is_harmonic
    if ok and ratio is not None:
        # The constant ratio of a harmonic graph must be the integer level itself.
        ok = ratio == (analysis.harmonic_level, 1)
    return TheoremReport("P26", g, HOLDS if ok else FAILS,
                         {"ratio": None if ratio is None else f"{ratio[0]}/{ratio[1]}",
                          "harmonic": analysis.is_harmonic, "level": analysis.harmonic_level})


# ---------------------------------------------------------------------------
# Complement claims.
# ---------------------------------------------------------------------------


def _min_pair_distance(values: tuple[float, ...], co_values: tuple[float, ...]) -> float:
    """min |v + w + 1| over v in ``values`` and w in ``co_values``, both
    non-increasing; inf if either is empty.

    One merge walk from the smallest v and the largest w: while v + w + 1 > 0
    it steps to the next smaller w, else to the next larger v.  Rounded float
    addition is monotone in each operand, so a w left behind sums above 0 with
    every v still ahead, and a v left behind sums at or below 0 with every w
    still ahead, each no closer than the pair it left; the walk meets the
    all-pairs minimum, bit for bit.
    """
    best = math.inf
    i, j, last = len(values) - 1, 0, len(co_values)
    while i >= 0 and j < last:
        d = values[i] + co_values[j] + 1.0
        if abs(d) < best:
            best = abs(d)
        if d > 0:
            j += 1
        else:
            i -= 1
    return best


def check_complement_count(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """T31: equal main counts, and no main pair of G x comp sums to -1."""
    sep = _min_pair_distance(analysis.spectrum.main_values(), co.spectrum.main_values())
    ok = analysis.main_count == co.main_count and sep > TOL_EQ
    return TheoremReport("T31", g, HOLDS if ok else FAILS,
                         {"main_count": analysis.main_count, "co_main_count": co.main_count,
                          "min_pair_distance": sep}, TOL_EQ)


def check_complement_membership(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """P32: non-main-or-repeated == eigenspace meets the all-ones hyperplane
    == -1-lambda is an eigenvalue of the complement, for every eigenvalue.
    A repeated eigenspace always meets the hyperplane and a simple one exactly
    when it is non-main, so the first two are one resolved flag."""
    for grp, (_, match) in zip(analysis.spectrum.groups, shifted(analysis, co)):
        meets = (not grp.is_main) or grp.multiplicity > 1
        paired = match is not None
        if meets != paired:
            return TheoremReport("P32", g, FAILS,
                                 {"value": grp.value, "non_main_or_repeated": meets,
                                  "orthogonal_vector": meets, "shift_in_complement": paired},
                                 TOL_EQ)
    return TheoremReport("P32", g, HOLDS, {"groups": len(analysis.spectrum.groups)}, TOL_EQ)


def check_simple_shifted_nonmain(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """C33: a simple complement eigenvalue of the form -1-lambda is non-main there."""
    applicable = False
    for grp, (_, match) in zip(analysis.spectrum.groups, shifted(analysis, co)):
        if match is not None and match.multiplicity == 1:
            applicable = True
            if match.is_main:
                return TheoremReport("C33", g, FAILS,
                                     {"value": grp.value, "shift": match.value,
                                      "shift_projection": match.projection_norm_sq},
                                     TOL_EQ)
    if not applicable:
        return TheoremReport("C33", g, NOT_APPLICABLE, {}, TOL_EQ)
    return TheoremReport("C33", g, HOLDS, {}, TOL_EQ)


def check_complement_bounds(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """INEQ2: lambda_2(comp) <= -1-lambda_min(G) <= lambda_1(comp)."""
    if g.n < 2:
        return TheoremReport("INEQ2", g, NOT_APPLICABLE, {"n": g.n})
    ok = complement_window(analysis, co) != "violated"
    return TheoremReport("INEQ2", g, HOLDS if ok else FAILS,
                         {"lambda2_co": co.eigenvalue(1), "shift": -1.0 - analysis.lambda_min,
                          "lambda1_co": co.lambda_max},
                         TOL_EQ)


def check_complement_gap(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """P34: the complement has no eigenvalue strictly inside (-1-lambda_min, lambda_1(comp))."""
    lo = -1.0 - analysis.lambda_min
    groups = co.spectrum.groups
    # Any eigenvalue above lo outside the top group intrudes; the largest
    # intruder is the second group.
    ok = shifted(analysis, co)[-1][0] <= groups[0].multiplicity
    return TheoremReport("P34", g, HOLDS if ok else FAILS,
                         {"window": [lo, co.lambda_max],
                          "intruder": None if ok else groups[1].value}, TOL_EQ)


def check_top_shift_equality(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """P35: lambda_1(comp) = -1-lambda_min(G) iff lambda_min non-main and
    lambda_1(comp) repeated."""
    equal = complement_window(analysis, co) == "equals-lambda1"
    low = analysis.spectrum.groups[-1]
    structural = (low.is_main is False) and co.spectrum.groups[0].multiplicity > 1
    ok = equal == structural
    return TheoremReport("P35", g, HOLDS if ok else FAILS,
                         {"lambda1_co": co.lambda_max, "shift": -1.0 - analysis.lambda_min,
                          "low_main": low.is_main,
                          "co_top_multiplicity": co.spectrum.groups[0].multiplicity},
                         TOL_EQ)


def check_second_shift_equality(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """P36: lambda_2(comp) = -1-lambda_min < lambda_1(comp) iff lambda_min is main
    and repeated, or non-main with lambda_1(comp) simple."""
    if g.n < 2:
        return TheoremReport("P36", g, NOT_APPLICABLE, {"n": g.n})
    numeric = complement_window(analysis, co) == "equals-lambda2"
    low = analysis.spectrum.groups[-1]
    structural = (bool(low.is_main) and low.multiplicity > 1) or (
        low.is_main is False and co.spectrum.groups[0].multiplicity == 1
    )
    ok = numeric == structural
    return TheoremReport("P36", g, HOLDS if ok else FAILS,
                         {"lambda2_co": co.eigenvalue(1), "shift": -1.0 - analysis.lambda_min,
                          "low_main": low.is_main, "low_multiplicity": low.multiplicity,
                          "co_top_multiplicity": co.spectrum.groups[0].multiplicity},
                         TOL_EQ)


def check_balanced_complete_bipartite_shift(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis
) -> TheoremReport:
    """T37: for connected bipartite G, lambda_1(comp) = -1-lambda_min(G) iff G is
    complete bipartite and balanced."""
    gf = facts(g)
    if not (gf.connected and gf.sides is not None):
        return TheoremReport("T37", g, NOT_APPLICABLE,
                             {"connected": gf.connected, "bipartite": gf.sides is not None})
    r, s = len(gf.sides[0]), len(gf.sides[1])
    structural = gf.m == r * s and r == s
    equal = complement_window(analysis, co) == "equals-lambda1"
    ok = equal == structural
    return TheoremReport("T37", g, HOLDS if ok else FAILS,
                         {"parts": [r, s], "m": gf.m, "lambda1_co": co.lambda_max,
                          "shift": -1.0 - analysis.lambda_min}, TOL_EQ)


# ---------------------------------------------------------------------------
# Paths.
# ---------------------------------------------------------------------------


def check_path_eigenpairs(g: Graph, *, analysis: GraphAnalysis,
                          co: GraphAnalysis | None = None) -> TheoremReport:
    """L41: closed-form eigenpairs of the path verify, match the computed spectrum, all simple."""
    if (spec := family_of(g)) is None or spec.kind != "path":
        return TheoremReport("L41", g, NOT_APPLICABLE, {"reason": "not path(n)"})
    inst, (n,) = spec.describe(), spec.params
    adj = g.adjacency_matrix()
    resid_bound = 1e-10 * n
    if len(analysis.spectrum.groups) != n:
        return TheoremReport("L41", inst, FAILS,
                             {"distinct_groups": len(analysis.spectrum.groups)}, resid_bound)
    # n simple groups: their values are the sorted eigenvalues themselves.
    for j, grp in enumerate(analysis.spectrum.groups, start=1):
        lam, x = exact.path_eigenpair(n, j)
        resid = float(abs(adj @ x - lam * x).max())
        if resid > resid_bound:
            return TheoremReport("L41", inst, FAILS,
                                 {"j": j, "residual": resid}, resid_bound)
        if locate(analysis, lam)[1] is not grp:
            return TheoremReport("L41", inst, FAILS,
                                 {"j": j, "closed_form": lam, "computed": grp.value}, TOL_EQ)
    return TheoremReport("L41", inst, HOLDS, {"n": n}, resid_bound)


def check_path_parity(g: Graph, *, analysis: GraphAnalysis,
                      co: GraphAnalysis | None = None) -> TheoremReport:
    """T42: path eigenvalue j (1-based, descending) is main exactly for odd j."""
    if (spec := family_of(g)) is None or spec.kind != "path":
        return TheoremReport("T42", g, NOT_APPLICABLE, {"reason": "not path(n)"})
    inst, (n,) = spec.describe(), spec.params
    if len(analysis.spectrum.groups) != n:
        return TheoremReport("T42", inst, FAILS,
                             {"distinct_groups": len(analysis.spectrum.groups)})
    for idx, grp in enumerate(analysis.spectrum.groups):
        j = idx + 1
        if grp.is_main != (j % 2 == 1):
            return TheoremReport("T42", inst, FAILS,
                                 {"j": j, "value": grp.value, "is_main": grp.is_main,
                                  "projection": grp.projection_norm_sq})
    return TheoremReport("T42", inst, HOLDS,
                         {"n": n, "used_fallback": analysis.used_fallback})


def check_path_count(g: Graph, *, analysis: GraphAnalysis,
                     co: GraphAnalysis | None = None) -> TheoremReport:
    """C43: paths have ceil(n/2) main eigenvalues; the least is main iff n is odd."""
    if (spec := family_of(g)) is None or spec.kind != "path":
        return TheoremReport("C43", g, NOT_APPLICABLE, {"reason": "not path(n)"})
    inst, (n,) = spec.describe(), spec.params
    expected = (n + 1) // 2
    low_main = analysis.spectrum.groups[-1].is_main
    ok = analysis.main_count == expected and low_main == (n % 2 == 1)
    return TheoremReport("C43", inst, HOLDS if ok else FAILS,
                         {"main_count": analysis.main_count, "expected": expected,
                          "low_main": low_main})


# ---------------------------------------------------------------------------
# Degree structure: semi-regular bipartite, rank, double stars.
# ---------------------------------------------------------------------------


def check_semiregular_main_pair(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """T44: connected G is semi-regular bipartite iff its main eigenvalues are
    exactly {lambda_1, -lambda_1}; plus the degree-square bound with its
    equality case.  Connected regular bipartite graphs sit on the definitional
    boundary and are reported not-applicable."""
    gf = facts(g)
    if g.n < 2 or not gf.connected:
        return TheoremReport("T44", g, NOT_APPLICABLE, {"n": g.n, "connected": gf.connected})
    lam1 = analysis.lambda_max
    bound = lam1 * lam1 * g.n
    slack = TOL_EQ * g.n * (1.0 + lam1 * lam1)
    bound_ok = gf.sum_squares <= bound + slack
    semireg = gf.sides is not None and all(
        len({gf.degrees[v] for v in side}) == 1 for side in gf.sides)
    wit: dict[str, Any] = {"sum_squares": gf.sum_squares, "lambda1_sq_n": bound,
                           "semiregular": semireg}
    if not bound_ok:
        return TheoremReport("T44", g, FAILS, wit | {"clause": "bound"}, TOL_EQ)
    if semireg:
        # In the semi-regular case the index has the closed form sqrt(sum d^2 / n).
        expected = math.sqrt(gf.sum_squares / g.n)
        if abs(lam1 - expected) > TOL_EQ * (1.0 + lam1):
            return TheoremReport("T44", g, FAILS,
                                 wit | {"clause": "index_form", "lambda1": lam1,
                                        "expected": expected}, TOL_EQ)
    regular = len(set(gf.degrees)) == 1
    if semireg and regular:
        # Degree-wise this is semi-regular, but a regular bipartite graph has
        # {lambda_1} alone as main spectrum; the biconditional is out of scope.
        return TheoremReport("T44", g, NOT_APPLICABLE,
                             wit | {"regular_bipartite": True})
    mains = analysis.spectrum.main_values()
    _, neg = locate(analysis, -lam1)
    pair = neg is not None and mains == (lam1, neg.value)
    ok = pair == semireg
    return TheoremReport("T44", g, HOLDS if ok else FAILS,
                         wit | {"mains": list(mains)}, TOL_EQ)


def check_rank_count(
    g: Graph, *, analysis: GraphAnalysis, co: GraphAnalysis | None = None
) -> TheoremReport:
    """T45: the float route's main count equals the exact walk-matrix rank."""
    # A gray-zone instance the exact rank settled holds, with the fallback on
    # record rather than pretending the float route confirmed anything.
    wit = {"rank": analysis.rank, "s_float": analysis.s_float,
           "used_fallback": analysis.used_fallback}
    return TheoremReport("T45", g, FAILS if analysis.disagrees else HOLDS, wit)


def check_double_star_profile(g: Graph, *, analysis: GraphAnalysis,
                              co: GraphAnalysis | None = None) -> TheoremReport:
    """T46: divisor determinant -ks(s-k)^2, quartic spectrum, and the main
    profile: four main eigenvalues when k != s (least included), two when k = s
    (least excluded)."""
    if (spec := family_of(g)) is None or spec.kind != "doublestar":
        return TheoremReport("T46", g, NOT_APPLICABLE, {"reason": "not doublestar(k,s)"})
    inst, (k, s) = spec.describe(), spec.params
    det = exact.det_walk_divisor(g, k, s)
    expected_det = -k * s * (s - k) ** 2
    wit: dict[str, Any] = {"det": det, "expected_det": expected_det}
    if det != expected_det:
        return TheoremReport("T46", inst, FAILS, wit | {"clause": "determinant"})

    # The nonzero eigenvalues must be exactly the quartic's four roots, and the
    # zero eigenspace must absorb the remaining k+s-2 dimensions.
    roots = exact.double_star_quartic_roots(k, s)
    _, zero = locate(analysis, 0.0)
    nonzero = [grp for grp in reversed(analysis.spectrum.groups) if grp is not zero]
    zero_dim = 0 if zero is None else zero.multiplicity
    wit["nonzero"] = [grp.value for grp in nonzero]
    if len(nonzero) != 4 or any(grp.multiplicity != 1 for grp in nonzero):
        return TheoremReport("T46", inst, FAILS, wit | {"clause": "nonzero_count"})
    if any(locate(analysis, r)[1] is not grp for grp, r in zip(nonzero, roots)):
        return TheoremReport("T46", inst, FAILS,
                             wit | {"clause": "quartic_roots", "roots": list(roots)},
                             TOL_EQ)
    if zero_dim != k + s - 2:
        return TheoremReport("T46", inst, FAILS, wit | {"clause": "zero_multiplicity",
                                                        "zero_dim": zero_dim})

    low_main = analysis.spectrum.groups[-1].is_main
    wit |= {"main_count": analysis.main_count, "low_main": low_main,
            "mains": list(analysis.spectrum.main_values())}
    if k != s:
        # The least eigenvalue is nonzero[0], the least root.
        ok = analysis.main_count == 4 and all(grp.is_main for grp in nonzero)
    else:
        ok = analysis.main_count == 2 and low_main is False
    return TheoremReport("T46", inst, HOLDS if ok else FAILS, wit, TOL_EQ)


def check_complement_second_eigenvalue(g: Graph, *, analysis: GraphAnalysis,
                                       co: GraphAnalysis) -> TheoremReport:
    """COR47: complements of paths carry ceil(n/2) main eigenvalues (balanced
    double stars: two); when the least eigenvalue of G is non-main, also
    lambda_2(comp) = -1 - lambda_min(G)."""
    spec = family_of(g)
    inst = g if spec is None else spec.describe()
    if spec is None or (spec.kind == "doublestar" and spec.params[0] != spec.params[1]):
        return TheoremReport("COR47", inst, NOT_APPLICABLE,
                             {"reason": "only paths and balanced double stars"})
    expected = (g.n + 1) // 2 if spec.kind == "path" else 2
    wit: dict[str, Any] = {"co_main_count": co.main_count, "expected": expected}
    if co.main_count != expected:
        return TheoremReport("COR47", inst, FAILS, wit)
    if analysis.spectrum.groups[-1].is_main or g.n < 2:
        # Least eigenvalue main and simple: the second-eigenvalue clause has no
        # derivation here (and indeed fails on odd paths), so it is skipped;
        # at order 1 there is no second eigenvalue to compare.
        return TheoremReport("COR47", inst, HOLDS, wit | {"equality_checked": False})
    shift = -1.0 - analysis.lambda_min
    above, grp = shifted(analysis, co)[-1]
    # lambda_2(comp) is eigenvalue index 1: the located group must cover it.
    ok = grp is not None and above <= 1 < above + grp.multiplicity
    return TheoremReport("COR47", inst, HOLDS if ok else FAILS,
                         wit | {"equality_checked": True, "lambda2_co": co.eigenvalue(1),
                                "shift": shift},
                         TOL_EQ)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

GRAPH_CHECKERS: dict[str, Callable[..., TheoremReport]] = {
    "P21": check_two_main_relation,
    "C22": check_zero_main_index,
    "L23": check_bipartite_harmonic_nonmain,
    "P24": check_harmonic_main_membership,
    "P25": check_harmonic_index_count,
    "P26": check_pseudo_regular,
    "T31": check_complement_count,
    "P32": check_complement_membership,
    "C33": check_simple_shifted_nonmain,
    "INEQ2": check_complement_bounds,
    "P34": check_complement_gap,
    "P35": check_top_shift_equality,
    "P36": check_second_shift_equality,
    "T37": check_balanced_complete_bipartite_shift,
    "T44": check_semiregular_main_pair,
    "T45": check_rank_count,
}

PATH_CHECKERS: dict[str, Callable[..., TheoremReport]] = {
    "L41": check_path_eigenpairs,
    "T42": check_path_parity,
    "C43": check_path_count,
}

CLAIMS: dict[str, str] = {
    "P21": "With exactly two main eigenvalues, the second equals "
           "(sum d^2 - 2m*lam1) / (2m - n*lam1) (or lam1^2 = sum d^2 / n when the "
           "denominator vanishes).",
    "C22": "If one of exactly two main eigenvalues is zero, lam1 = sum d^2 / (2m).",
    "L23": "A bipartite harmonic graph with an edge has -lam1 in its spectrum, "
           "and it is non-main.",
    "P24": "A graph is harmonic exactly when every main eigenvalue is 0 or lam1.",
    "P25": "A graph with an edge is harmonic exactly when lam1 = sum d^2 / (2m) "
           "and at most two eigenvalues are main.",
    "P26": "Without isolated vertices, a constant average-neighbor-degree ratio "
           "is equivalent to being harmonic (and the ratio is the integer level).",
    "T31": "A graph and its complement have equally many main eigenvalues, and "
           "no main pair sums to -1.",
    "P32": "lambda is non-main or repeated iff its eigenspace meets the all-ones "
           "hyperplane iff -1-lambda is an eigenvalue of the complement.",
    "C33": "If -1-lambda is a simple eigenvalue of the complement, it is non-main "
           "in the complement.",
    "INEQ2": "lam2(comp) <= -1 - lam_min(G) <= lam1(comp).",
    "P34": "The complement has no eigenvalue strictly between -1-lam_min(G) and "
           "lam1(comp).",
    "P35": "lam1(comp) = -1-lam_min(G) iff lam_min is non-main and lam1(comp) is "
           "repeated.",
    "P36": "lam2(comp) = -1-lam_min(G) < lam1(comp) iff lam_min is main and "
           "repeated, or non-main with lam1(comp) simple.",
    "T37": "For connected bipartite G: lam1(comp) = -1-lam_min(G) iff G is a "
           "balanced complete bipartite graph.",
    "L41": "Paths have eigenvalues 2cos(j pi/(n+1)) with sine-pattern "
           "eigenvectors, all simple.",
    "T42": "A path eigenvalue (descending, 1-based index j) is non-main exactly "
           "for even j.",
    "C43": "A path on n vertices has ceil(n/2) main eigenvalues; the least is "
           "main exactly when n is odd.",
    "T44": "A connected graph is semi-regular bipartite iff its main eigenvalues "
           "are exactly lam1 and -lam1; sum d^2 <= lam1^2 n always, and the "
           "semi-regular index is sqrt(sum d^2 / n).",
    "T45": "The number of main eigenvalues equals the exact rank of the integer "
           "walk matrix.",
    "T46": "Double star T(k,s): divisor walk determinant is -ks(s-k)^2; the "
           "nonzero eigenvalues are the quartic roots of x^4-(k+s+1)x^2+ks; the "
           "least eigenvalue is main iff k != s; four mains when k != s, two "
           "when k = s.",
    "COR47": "Complements of paths (balanced double stars) have ceil(n/2) (two) "
             "main eigenvalues, and lam2(comp) = -1-lam_min(G) whenever the "
             "least eigenvalue is non-main.",
}

ALL_IDS = tuple(CLAIMS)


# ---------------------------------------------------------------------------
# The graph claims over a block of pairs.
# ---------------------------------------------------------------------------

VERDICTS = (HOLDS, FAILS, NOT_APPLICABLE)  # a block verdict code indexes this


class BlockVerdicts(NamedTuple):
    """``check_block``'s answer for B pairs: (B, 16) ``verdicts``, one column
    per ``GRAPH_CHECKERS`` entry, each code an index into ``VERDICTS``, and
    ``disagrees`` where either analysis disagrees with its walk rank."""

    verdicts: np.ndarray
    disagrees: np.ndarray


def _locate(value: np.ndarray, mult: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """``locate`` for every row of a padded block: x is (B,) or (B, J), one
    lookup per entry; returns (above, index of the first group at or below
    x + TOL_EQ, whether that group equals x), each of x's shape.  The values
    fall along a row and the padding is -inf, so the groups above x + TOL_EQ
    are the first ones, and the index is never past the padding column."""
    wide = x.ndim == 2
    over = (value[:, None, :] if wide else value) > (x + TOL_EQ)[..., None]
    index = over.sum(axis=-1)
    above = np.zeros((len(mult), mult.shape[1] + 1))
    np.cumsum(mult, axis=1, out=above[:, 1:])
    flat = index if wide else index[:, None]
    above = np.take_along_axis(above, flat, axis=1)
    at = np.take_along_axis(value, flat, axis=1)
    if not wide:
        above, at = above[:, 0], at[:, 0]
    return above, index, np.abs(at - x) <= TOL_EQ


def _codes(applicable: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """Verdict codes: holds where ``ok``, fails where not, not-applicable
    outside ``applicable``."""
    return np.where(applicable, np.where(ok, 0, 1), 2).astype(np.int8)


def check_block(cut: Cut) -> BlockVerdicts:
    """The verdicts of every ``GRAPH_CHECKERS`` entry on each pair of a
    ``sweeps.Cut``, decided at once from its columns.  Every float expression
    repeats its checker's step for step, so each code is the verdict it
    reports on the records of the same rows, bit for bit: ``locate`` is a
    count of the groups above x + TOL_EQ, then |v - x| <= TOL_EQ at the first
    group left; ``shifted`` is one (B, K, K) comparison; T31's pair distance
    is the all-pairs minimum, which the merge walk meets.  TOL_EQ is read
    when called."""
    block, own, co, f = cut.block, cut.own, cut.co, cut.block.facts
    count = len(own)
    if not count:
        return BlockVerdicts(np.zeros((0, len(GRAPH_CHECKERS)), np.int8), np.zeros(0, bool))
    rows = np.arange(count)
    # s_float and the harmonic level are nan where the records hold None.
    s_float, co_s_float, level = block.s_float[own], block.s_float[co], block.level[own]
    own_disagrees = ~np.isnan(s_float) & (s_float != block.rank[own])
    disagrees = own_disagrees | (~np.isnan(co_s_float) & (co_s_float != block.rank[co]))
    harmonic = ~np.isnan(level)
    value, mult, main, groups = block.value[own], block.mult[own], block.main[own], block.count[own]
    co_value, co_mult, co_main = block.value[co], block.mult[co], block.main[co]
    degrees, connected, bipartite = f.degrees[own], f.connected[own], f.bipartite[own]
    n, ratio = float(degrees.shape[1]), f.ratio[own]
    m, sum_squares = f.m[own].astype(float), f.sum_squares[own].astype(float)
    # The two-coloring as G's vertices on side 1 (none where it has no coloring).
    ones = (f.side1[own, None] >> np.arange(degrees.shape[1]) & 1).astype(bool) & bipartite[:, None]

    columns = np.arange(value.shape[1])
    main_count = main.sum(axis=1)
    co_main_count = co_main.sum(axis=1)
    # Main values first, in group order, as ``MainSpectrum.main_values``.
    mains = np.take_along_axis(value, np.argsort(~main, axis=1, kind="stable"), axis=1)
    co_mains = np.take_along_axis(co_value, np.argsort(~co_main, axis=1, kind="stable"), axis=1)
    lam1 = value[:, 0]
    low = groups - 1
    low_main, low_mult = main[rows, low], mult[rows, low]
    co_top_mult = co_mult[:, 0]
    verdicts: dict[str, np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        # P21
        lami = mains[:, 1]
        denom = 2.0 * m - n * lam1
        degenerate = np.abs(denom) <= 1e-9 * n * (1.0 + np.abs(lam1))
        square = lam1 * lam1
        squared_ok = np.abs(square - sum_squares / n) <= TOL_REL * np.maximum(1.0, square)
        rhs = (sum_squares - 2.0 * m * lam1) / denom
        ratio_ok = np.abs(lami - rhs) <= TOL_REL * np.maximum(1.0, np.abs(lami))
        verdicts["P21"] = _codes(main_count == 2, np.where(degenerate, squared_ok, ratio_ok))
        # C22, P24, P25: the groups at 0 and at sum d^2 / 2m
        _, zero, zero_found = _locate(value, mult, np.zeros(count))
        zero_main = zero_found & main[rows, zero]
        _, index, index_found = _locate(value, mult, sum_squares / (2.0 * m))
        index_match = index_found & (index == 0)
        verdicts["C22"] = _codes((main_count == 2) & zero_main, index_match)
        # L23
        _, neg, neg_found = _locate(value, mult, -lam1)
        verdicts["L23"] = _codes(harmonic & (m >= 1) & bipartite,
                                 neg_found & ~main[rows, neg])
        membership = ~main | (columns == 0) | (zero_found[:, None] & (columns == zero[:, None]))
        verdicts["P24"] = _codes(True, membership.all(axis=1) == harmonic)
        verdicts["P25"] = _codes(m >= 1, (index_match & (main_count <= 2)) == harmonic)
        # P26
        isolated = (degrees == 0).any(axis=1)
        has_ratio = ratio[:, 1] != 0
        verdicts["P26"] = _codes(~isolated, (has_ratio == harmonic) & (
            ~has_ratio | ((ratio[:, 0] == level) & (ratio[:, 1] == 1))))
        # T31
        most, co_most = int(main_count.max()), int(co_main_count.max())
        distance = np.abs(mains[:, :most, None] + co_mains[:, None, :co_most] + 1.0)
        paired = ((columns[:most] < main_count[:, None])[:, :, None]
                  & (np.arange(co_most) < co_main_count[:, None])[:, None, :])
        separation = np.where(paired, distance, np.inf).min(axis=(1, 2))
        verdicts["T31"] = _codes(True, (main_count == co_main_count) & (separation > TOL_EQ))
        # The complement claims: where -1-lambda sits in the complement's spectrum.
        above, match, found = _locate(co_value, co_mult, -1.0 - value)
        real = columns < groups[:, None]
        meets = ~main | (mult > 1)
        verdicts["P32"] = _codes(True, ~(real & (meets != found)).any(axis=1))
        simple = real & found & (np.take_along_axis(co_mult, match, axis=1) == 1)
        shift_main = np.take_along_axis(co_main, match, axis=1)
        verdicts["C33"] = _codes(simple.any(axis=1), ~(simple & shift_main).any(axis=1))
        low_above, low_found = above[rows, low], found[rows, low]
        equals1 = low_found & (low_above == 0)
        equals2 = low_found & (low_above == 1)
        violated = (low_above >= 2) | ((low_above == 0) & ~low_found)
        verdicts["INEQ2"] = _codes(n >= 2, ~violated)
        verdicts["P34"] = _codes(True, low_above <= co_top_mult)
        verdicts["P35"] = _codes(True, equals1 == (~low_main & (co_top_mult > 1)))
        verdicts["P36"] = _codes(n >= 2, equals2 == ((low_main & (low_mult > 1))
                                                     | (~low_main & (co_top_mult == 1))))
        s = ones.sum(axis=1)
        r = n - s
        verdicts["T37"] = _codes(connected & bipartite, equals1 == ((m == r * s) & (r == s)))
        # T44: its checker's returns, the last first, each earlier one overriding.
        semiregular = bipartite.copy()
        for side in (~ones, ones):  # each side non-empty, of one degree
            semiregular &= (np.where(side, degrees, -1).max(axis=1)
                            == np.where(side, degrees, np.inf).min(axis=1))
        pair = (main_count == 2) & (mains[:, 0] == lam1) & neg_found & (
            mains[:, 1] == value[rows, neg])
        t44 = _codes(True, pair == semiregular)
        t44[semiregular & (degrees == degrees[:, :1]).all(axis=1)] = 2
        t44[semiregular & (np.abs(lam1 - np.sqrt(sum_squares / n)) > TOL_EQ * (1.0 + lam1))] = 1
        t44[~(sum_squares <= lam1 * lam1 * n + TOL_EQ * n * (1.0 + lam1 * lam1))] = 1
        t44[(n < 2) | ~connected] = 2
        verdicts["T44"] = t44
        verdicts["T45"] = _codes(True, ~own_disagrees)
    return BlockVerdicts(np.stack([verdicts[tid] for tid in GRAPH_CHECKERS], axis=1), disagrees)
