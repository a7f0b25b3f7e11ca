"""Acceptance gate: one test per shipped criterion, one pass/fail line each.

The graph sweeps share a module fixture.  By default orders 1..6 run
exhaustively and order 7 is covered by a fixed deterministic sample of
8192 edge masks (seed baked into ``sweeps.sample_masks``).  The fixture
records numerical hygiene where it is made: it wraps
``spectra.eigen_decompose_batch`` for each batch's worst values and the
graphs decomposed, and ``sweeps.analyze_stack`` for the gray-zone fallbacks
among the analyses it returns.  Setting
``MAINSPEC_EXHAUSTIVE=7`` replaces the sample with the full 2**21 order-7
population; that run takes several minutes and is meant for one-off full
verification, not the regular suite.

Each passing test prints ``ACCEPT <k>: PASS`` with a short summary (visible
under ``pytest -s`` / ``-rA``); the assert carries the failing instances.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import pytest

from mainspec import analysis, exact, graphs, spectra, sweeps, theorems
from mainspec.graph6 import serialize_graph6
from mainspec.theorems import FAILS, HOLDS

N7_SAMPLE = 8192
N6_POPULATION = sum(sweeps.mask_population(n) for n in range(1, 7))  # 33867
N7_MISSING_COMPLEMENTS = 8152  # complements of the order-7 sample that it lacks


def _announce(num: int, detail: str) -> None:
    print(f"ACCEPT {num}: PASS - {detail}")


def _full_order7() -> bool:
    raw = os.environ.get("MAINSPEC_EXHAUSTIVE", "0")
    try:
        return int(raw) >= 7
    except ValueError:
        return False


@dataclass
class SweepDigest:
    """Everything the criteria need from one pass over the population."""

    mode: str
    pairs: int = 0
    pairs_n6: int = 0
    pairing_checked: int = 0
    eq1_holds: int = 0
    seconds_n6: float = 0.0
    seconds_n7: float = 0.0
    decompositions: int = 0
    worst: dict[str, float] = field(default_factory=dict)  # hygiene maxima by name
    fallbacks: int = 0
    disagreements: list[str] = field(default_factory=list)
    failures: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, bucket: str, instance: str) -> None:
        self.failures.setdefault(bucket, []).append(instance)

    def bucket(self, name: str) -> list[str]:
        return self.failures.get(name, [])


# (checker, failure bucket) applied once per (graph, complement) pair.
_PAIR_CHECKS = (
    (theorems.check_complement_bounds, "window"),
    (theorems.check_complement_gap, "gap"),
    (theorems.check_top_shift_equality, "top_equality"),
    (theorems.check_second_shift_equality, "second_equality"),
    (theorems.check_balanced_complete_bipartite_shift, "bipartite_shift"),
)


def _consume(d: SweepDigest, n: int, masks) -> None:
    for a, co in sweeps.sweep(n, masks=masks):
        d.pairs += 1
        if n <= 6:
            d.pairs_n6 += 1
        for side in (a, co):
            if side.s_float is not None and side.s_float != side.rank:
                d.disagreements.append(
                    f"n={n} graph6={serialize_graph6(side.graph).decode()} "
                    f"float={side.s_float} rank={side.rank}"
                )
            rep = theorems.check_two_main_relation(side.graph, analysis=side)
            if rep.verdict == HOLDS:
                d.eq1_holds += 1
            elif rep.verdict == FAILS:
                d.fail("index_relation", rep.instance)
            rep = theorems.check_harmonic_main_membership(side.graph, analysis=side)
            if rep.verdict == FAILS:
                d.fail("harmonic_membership", rep.instance)
        for fn, bucket in _PAIR_CHECKS:
            rep = fn(a.graph, analysis=a, co=co)
            if rep.verdict == FAILS:
                d.fail(bucket, rep.instance)
        if n <= 6:
            d.pairing_checked += 1
            rep = theorems.check_complement_count(a.graph, analysis=a, co=co)
            if rep.verdict == FAILS:
                d.fail("pairing", rep.instance)


def _record_hygiene(d: SweepDigest, mp: pytest.MonkeyPatch) -> None:
    """Record every batch's hygiene maxima and graph count, and the analyses'
    gray-zone fallbacks, into ``d``; both names are looked up at call time."""
    decompose, analyze_stack = spectra.eigen_decompose_batch, sweeps.analyze_stack

    def recording_decompose(mats):
        evals, evecs, worst = decompose(mats)
        d.decompositions += len(mats)
        for name, value in worst.items():
            d.worst[name] = max(d.worst.get(name, 0.0), value)
        return evals, evecs, worst

    def recording_analyze_stack(graphs, adj):
        out = analyze_stack(graphs, adj)
        d.fallbacks += sum(a.used_fallback for a in out)
        return out

    mp.setattr(spectra, "eigen_decompose_batch", recording_decompose)
    mp.setattr(sweeps, "analyze_stack", recording_analyze_stack)


@pytest.fixture(scope="module")
def digest() -> SweepDigest:
    full7 = _full_order7()
    mode = (
        "orders 1-6 exhaustive + order 7 exhaustive"
        if full7
        else f"orders 1-6 exhaustive + {N7_SAMPLE} sampled order-7 graphs"
    )
    d = SweepDigest(mode=mode)
    with pytest.MonkeyPatch.context() as mp:
        _record_hygiene(d, mp)
        t0 = time.perf_counter()
        for n in range(1, 7):
            _consume(d, n, None)
        d.seconds_n6 = time.perf_counter() - t0
        t0 = time.perf_counter()
        _consume(d, 7, None if full7 else sweeps.sample_masks(7, N7_SAMPLE))
        d.seconds_n7 = time.perf_counter() - t0
    return d


def test_criterion_1_route_agreement(digest: SweepDigest) -> None:
    """Float and exact main-eigenvalue counts agree on every swept graph."""
    assert digest.pairs_n6 == N6_POPULATION
    assert not digest.disagreements, digest.disagreements[:10]
    assert digest.seconds_n6 < 60.0, f"order<=6 block took {digest.seconds_n6:.1f}s"
    _announce(
        1,
        f"{digest.decompositions} analyses ({digest.mode}), 0 route disagreements, "
        f"{digest.fallbacks} gray-zone fallbacks, "
        f"order<=6 block {digest.seconds_n6:.1f}s",
    )


def test_criterion_2_path_main_structure() -> None:
    """Paths n=2..40: closed-form eigenpairs, odd-index mains, ceil(n/2) count."""
    bad = []
    paths = [graphs.path(n) for n in range(2, 41)]
    found = sweeps.analyze_with_complements(paths)
    for g in paths:
        for fn in (
            theorems.check_path_eigenpairs,
            theorems.check_path_parity,
            theorems.check_path_count,
        ):
            rep = fn(g, analysis=found[g][0])
            if rep.verdict != HOLDS:
                bad.append((rep.theorem_id, rep.instance, rep.witnesses))
    assert not bad, bad
    _announce(2, "paths n=2..40: eigenpairs within 1e-8, mains at odd j, ceil(n/2) mains")


def test_criterion_3_double_star_profiles() -> None:
    """Double stars 1<=k,s<=15: exact determinant, quartic mains, counts 4 / 2."""
    bad = []
    stars = [graphs.double_star(k, s) for k in range(1, 16) for s in range(1, 16)]
    found = sweeps.analyze_with_complements(stars)
    for g in stars:
        rep = theorems.check_double_star_profile(g, analysis=found[g][0])
        if rep.verdict != HOLDS:
            bad.append((rep.instance, rep.witnesses))
    assert not bad, bad
    _announce(
        3,
        "double stars 1<=k,s<=15: det W(M) = -ks(s-k)^2 exactly, "
        "mains among quartic roots within 1e-8, |MS|=4 (2 when k=s)",
    )


def test_criterion_4_two_main_index_relation(digest: SweepDigest) -> None:
    """Eq-form lambda_2 on every swept two-main graph; pendant cycles hit 1 +- sqrt(1+q)."""
    assert not digest.bucket("index_relation"), digest.bucket("index_relation")[:10]
    assert digest.eq1_holds > 0
    bad = []
    for p in range(3, 13):
        for q in range(1, 6):
            a = analysis.analyze_graph(graphs.pendant_decorated(graphs.cycle(p), q))
            mains = [grp.value for grp in a.spectrum.groups if grp.is_main]
            root = math.sqrt(1.0 + q)
            if (
                len(mains) != 2
                or abs(mains[0] - (1.0 + root)) > 1e-8
                or abs(mains[1] - (1.0 - root)) > 1e-8
            ):
                bad.append((p, q, mains))
    assert not bad, bad
    _announce(
        4,
        f"two-main index relation on {digest.eq1_holds} swept instances; "
        "pendant cycles p<=12, q<=5 have mains exactly 1 +- sqrt(1+q)",
    )


def test_criterion_5_complement_window(digest: SweepDigest) -> None:
    """-1 - lambda_1 <= all complement mains' window facts across the sweep."""
    for bucket in ("window", "gap", "top_equality", "second_equality"):
        assert not digest.bucket(bucket), (bucket, digest.bucket(bucket)[:10])
    _announce(
        5,
        f"window bounds, open-interval exclusion and both equality "
        f"characterizations on {digest.pairs} complement pairs",
    )


def test_criterion_6_balanced_bipartite_shift(digest: SweepDigest) -> None:
    """K(r,r) complements peak at r-1; equality only for balanced complete bipartite."""
    bad = []
    for r in range(1, 11):
        g = graphs.complete_bipartite(r, r)
        a, co = analysis.analyze_graph(g), analysis.analyze_graph(g.complement())
        want = float(r - 1)
        if abs(co.lambda_max - want) > 1e-8 or abs(-1.0 - a.lambda_min - want) > 1e-8:
            bad.append((r, co.lambda_max, a.lambda_min))
    assert not bad, bad
    assert not digest.bucket("bipartite_shift"), digest.bucket("bipartite_shift")[:10]
    _announce(
        6,
        "K(r,r) r<=10: lambda_1 of complement = -1 - lambda_n = r - 1 within 1e-8; "
        "equality case only on balanced complete bipartite graphs in the sweep",
    )


def test_criterion_7_harmonic_characterization(digest: SweepDigest) -> None:
    """Harmonic <=> mains within {0, lambda_1} across sweep; harmonic trees check out."""
    assert not digest.bucket("harmonic_membership"), digest.bucket("harmonic_membership")[:10]
    for ell in range(2, 5):
        g = graphs.harmonic_tree(ell)
        assert exact.harmonic_ell(g) == ell, f"T({ell}) level"
        lam1 = float(spectra.eigen_decompose(g).eigenvalues[0])
        dd = graphs.facts(g)
        assert abs(lam1 - dd.sum_squares / (2.0 * dd.m)) <= 1e-8, (ell, lam1)
    _announce(
        7,
        "harmonic membership biconditional across the sweep; harmonic trees "
        "ell=2..4 report level ell with lambda_1 = sum(d^2)/2m within 1e-8",
    )


def test_criterion_8_complement_main_count_pairing(digest: SweepDigest) -> None:
    """|MS(G)| = |MS(complement)| with well-separated pair sums, all graphs n<=6."""
    assert digest.pairing_checked == N6_POPULATION
    assert not digest.bucket("pairing"), digest.bucket("pairing")[:10]
    _announce(
        8,
        f"main-count pairing and pair-sum separation > 1e-6 on all "
        f"{digest.pairing_checked} graphs of order <= 6",
    )


def test_criterion_9_numerical_hygiene(digest: SweepDigest) -> None:
    """Worst orthonormality / residual / trace drift stay inside declared bounds."""
    # Every graph the sweep made was decomposed, and recorded, exactly once.
    n7 = sweeps.mask_population(7) if _full_order7() else N7_SAMPLE + N7_MISSING_COMPLEMENTS
    assert digest.decompositions == N6_POPULATION + n7  # 50211 with the sample
    worst = digest.worst
    n_max, lam_cap = 7, 6.0
    assert worst["orthonormality"] <= spectra.ORTHONORMALITY_TOL * n_max
    assert worst["residual"] <= spectra.RESIDUAL_TOL * (1.0 + lam_cap) * n_max
    assert worst["trace_drift"] <= spectra.TRACE_TOL * n_max * lam_cap
    _announce(
        9,
        f"worst hygiene over {digest.decompositions} decompositions: "
        f"orthonormality {worst['orthonormality']:.2e}, residual {worst['residual']:.2e}, "
        f"trace drift {worst['trace_drift']:.2e}",
    )
