"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

A pass is a fixed amount of user work, issued as a closed loop by one
caller: the next call starts when the previous one returns.  Inputs are
made from (seed, pass index) before the pass and handed to the program's
public entry points only: ``cli.main``, ``sweeps.sample_masks``,
``sweeps.sweep`` and ``theorems.GRAPH_CHECKERS``.  Checks and reference
timings run after the pass, outside its timed region.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import oracle
from mainspec import cli, sweeps, theorems


@dataclass
class PassResult:
    seconds: float = 0.0
    calls: list[tuple[float, float]] = field(default_factory=list)  # (start, end) on the pass clock
    speed_factor: float = 1.0  # seconds -> seconds at reference speed (speed.py)
    call_factors: list[float] = field(default_factory=list)  # the same, per call
    graphs: int = 0  # labeled graphs analysed with their complement (analyze: calls made)
    attempted: int = 0
    failed: int = 0
    outputs: list[Any] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def digest(self) -> str:
        return hashlib.sha256(repr(self.outputs).encode()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main with captured streams; an escaping exception gives rc None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # counted as a failed call, never hidden
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def _eigh_seconds(stacks: list[np.ndarray]) -> float:
    t0 = time.perf_counter()
    for stack in stacks:
        np.linalg.eigh(stack)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# verify-exhaustive
# ---------------------------------------------------------------------------

# Per-claim (instances, holds, fails, not-applicable) of
# `mainspec verify all --exhaustive 6` at the commit the benchmark was
# defined on: 524,484 instances, 0 failures.
VERIFY_TOTALS = {
    "P21": (32788, 1716, 0, 31072), "C22": (32788, 220, 0, 32568),
    "L23": (32770, 192, 0, 32578), "P24": (32770, 32770, 0, 0),
    "P25": (32770, 32769, 0, 1), "P26": (32770, 27451, 0, 5319),
    "T31": (32768, 32768, 0, 0), "P32": (32768, 32768, 0, 0),
    "C33": (32768, 19630, 0, 13138), "INEQ2": (32773, 32773, 0, 0),
    "P34": (32773, 32773, 0, 0), "P35": (32773, 32773, 0, 0),
    "P36": (32768, 32768, 0, 0), "T37": (32773, 3036, 0, 29737),
    "L41": (11, 11, 0, 0), "T42": (11, 11, 0, 0), "C43": (11, 11, 0, 0),
    "T44": (32773, 26634, 0, 6139), "T45": (32820, 32820, 0, 0),
    "T46": (21, 21, 0, 0), "COR47": (17, 17, 0, 0),
}
_TALLY = re.compile(r"^(\w+): (\d+) instances — (\d+) holds, (\d+) fails, "
                    r"(\d+) not-applicable$", re.M)


@dataclass
class VerifyExhaustive:
    name = "verify-exhaustive"
    order: int = 6
    totals: dict[str, tuple[int, int, int, int]] = field(default_factory=lambda: VERIFY_TOTALS)

    def inputs(self, seed: int, index: int) -> list[str]:
        # The input is the whole labeled population, so the seed selects nothing.
        return ["verify", "all", "--exhaustive", str(self.order)]

    def run(self, argv: list[str], clock: Callable[[], float] = time.perf_counter) -> PassResult:
        res = PassResult()
        t0 = clock()
        rc, out, err = _run_cli(argv)
        t1 = clock()
        res.seconds = t1 - t0
        res.calls.append((t0, t1))
        tallies = {m[0]: tuple(map(int, m[1:])) for m in _TALLY.findall(out)}
        instances = sum(t[0] for t in tallies.values())
        fails = sum(t[2] for t in tallies.values())
        res.attempted = instances or sum(t[0] for t in self.totals.values())
        res.failed = res.attempted if rc not in (0, 1) else fails
        if rc is not None:
            res.graphs = sweeps.mask_population(self.order)
        res.outputs = [rc, out, tallies]
        if err:
            res.errors.append(err.strip())
        return res

    def check(self, seed: int, index: int, argv: list[str], res: PassResult) -> dict[str, Any]:
        rc, _, tallies = res.outputs
        problems = []
        if rc != 0:
            problems.append(f"verify exited {rc}")
        if tallies != self.totals:
            diff = {k: (tallies.get(k), v) for k, v in self.totals.items()
                    if tallies.get(k) != v}
            problems.append(f"verdict totals differ (got, expected): {diff}")
        return {"checked": len(self.totals), "problems": problems}

    def reference(self, argv: list[str], res: PassResult) -> dict[str, Any]:
        masks = np.arange(sweeps.mask_population(self.order), dtype=np.int64)
        full = len(masks) - 1
        stacks = [sweeps.adjacency_stack(self.order, masks),
                  sweeps.adjacency_stack(self.order, full ^ masks)]
        return {"eigh_s": _eigh_seconds(stacks), "graphs": 2 * len(masks),
                "stack": f"2 x ({len(masks)}, 6, 6)"}


# ---------------------------------------------------------------------------
# sweep-sampled-o8
# ---------------------------------------------------------------------------


def _disagrees(a: Any) -> bool:
    return a.s_float is not None and a.s_float != a.rank


@dataclass
class SweepSampledO8:
    name = "sweep-sampled-o8"
    order = 8
    # One seeded sample swept in one chunk, as `mainspec verify --sample K`
    # does, at the 8,192 order-8 pairs the ROADMAP measured.
    sample: int = 8192
    rank_checks: int = 16  # sampled graphs per pass whose ranks the Fraction oracle checks

    def inputs(self, seed: int, index: int) -> int:
        return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])

    def run(self, sample_seed: int, clock: Callable[[], float] = time.perf_counter) -> PassResult:
        res = PassResult()
        fails = theorems.FAILS
        t0 = clock()
        try:
            masks = sweeps.sample_masks(self.order, self.sample, sample_seed)
            checkers = list(theorems.GRAPH_CHECKERS.values())
            for (a, co), mask in zip(sweeps.sweep(self.order, masks=masks), masks.tolist()):
                reports = [check(a.graph, analysis=a, co=co) for check in checkers]
                verdicts = "".join(r.verdict[0] for r in reports)
                res.failed += (_disagrees(a) or _disagrees(co)
                               or any(r.verdict == fails for r in reports))
                res.outputs.append((mask, a.rank, co.rank, a.s_float, co.s_float,
                                    a.used_fallback, co.used_fallback,
                                    a.spectrum.main_values(), verdicts))
                res.graphs += 1
        except Exception as exc:  # the undelivered pairs count as failed
            res.failed += self.sample - res.graphs
            res.errors.append(f"{type(exc).__name__}: {exc}")
        t1 = clock()
        res.seconds = t1 - t0
        res.calls.append((t0, t1))  # one sweep call per pass
        res.attempted = self.sample
        return res

    def check(self, seed: int, index: int, sample_seed: int, res: PassResult) -> dict[str, Any]:
        problems = []
        if len(res.outputs) != self.sample:
            problems.append(f"{len(res.outputs)} pairs delivered, expected {self.sample}")
        full = sweeps.mask_population(self.order) - 1
        rng = random.Random(f"o8-check:{seed}:{index}")
        picks = rng.sample(res.outputs, min(self.rank_checks, len(res.outputs)))
        for mask, rank, co_rank, *_ in picks:
            for m, got in ((mask, rank), (full ^ mask, co_rank)):
                want = oracle.walk_rank(self.order, oracle.mask_edges(self.order, m))
                if got != want:
                    problems.append(f"mask {m}: walk rank {got}, Fraction oracle {want}")
        return {"checked": 2 * len(picks), "problems": problems}

    def reference(self, sample_seed: int, res: PassResult) -> dict[str, Any]:
        masks = np.array([out[0] for out in res.outputs], dtype=np.int64)
        full = sweeps.mask_population(self.order) - 1
        stacks = [sweeps.adjacency_stack(self.order, masks),
                  sweeps.adjacency_stack(self.order, full ^ masks)]
        return {"eigh_s": _eigh_seconds(stacks), "graphs": 2 * len(masks),
                "stack": f"2 x ({len(masks)}, 8, 8)"}


# ---------------------------------------------------------------------------
# analyze-large
# ---------------------------------------------------------------------------

# Orders 16-56.  The replicate counts weight the mix toward n = 32 and 40,
# whose calls take 0.1-0.7 s, so that the median call (28th of 55) and the
# tail (45th, ten calls beyond) fall among many calls of similar cost, not
# on one of the few large graphs.
REPLICATES = {16: 2, 24: 3, 32: 6, 40: 4}
RANDOM_MIX = [(n, p) for n, k in REPLICATES.items() for _ in range(k) for p in (0.1, 0.3, 0.5)]
RANDOM_MIX += [(48, 0.3), (56, 0.3)]
STRUCTURED_MIX = [
    ("T_4", oracle.harmonic_tree(4)),
    ("C_12+3 pendants", oracle.pendant_cycle(12, 3)),
    ("C_10+4 pendants", oracle.pendant_cycle(10, 4)),
    ("T(10,20)", oracle.double_star(10, 20)),
    ("T(15,15)", oracle.double_star(15, 15)),
    ("T(20,30)", oracle.double_star(20, 30)),
    ("K_16,16", oracle.complete_bipartite(16, 16)),
    ("K_26,26", oracle.complete_bipartite(26, 26)),
]


@dataclass(frozen=True)
class AnalyzeInput:
    label: str
    n: int
    edges: list[tuple[int, int]]
    graph6: str


@dataclass
class AnalyzeLarge:
    name = "analyze-large"
    random_mix: list[tuple[int, float]] = field(default_factory=lambda: RANDOM_MIX)
    structured_mix: list[tuple[str, tuple[int, oracle.Edges]]] = field(
        default_factory=lambda: STRUCTURED_MIX)
    rank_checks: int = 4  # calls per pass whose ranks the Fraction oracle checks

    def inputs(self, seed: int, index: int) -> list[AnalyzeInput]:
        rng = random.Random(f"analyze:{seed}:{index}")
        out = []
        for n, p in self.random_mix:
            edges = oracle.gnp(n, p, rng)
            out.append(AnalyzeInput(f"G({n},{p})", n, edges, oracle.graph6(n, edges)))
        for label, (n, edges) in self.structured_mix:
            edges = oracle.relabel(n, edges, rng)
            out.append(AnalyzeInput(label, n, edges, oracle.graph6(n, edges)))
        # Spread each cost group over the pass, so that its order statistics
        # see the machine's average speed, which is what the pass is scaled by.
        rng.shuffle(out)
        return out

    def run(self, inputs: list[AnalyzeInput], clock: Callable[[], float] = time.perf_counter) -> PassResult:
        res = PassResult()
        t_pass = clock()
        for item in inputs:
            t0 = clock()
            rc, out, err = _run_cli(["analyze", item.graph6, "--json"])
            res.calls.append((t0, clock()))
            res.attempted += 1
            # Every call analyses G and its complement, so graphs_per_s stays
            # a throughput figure whatever the exit code.
            res.graphs += 1
            if rc != 0:
                res.failed += 1
                res.errors.append(f"{item.label} {item.graph6}: exit {rc}: {err.strip()}")
            res.outputs.append([item.label, rc, out])
        res.seconds = clock() - t_pass
        for entry in res.outputs:  # the timestamp is the one field allowed to differ
            if entry[1] == 0:
                entry[2] = json.loads(entry[2])
                entry[2].pop("generated_at", None)
        return res

    def check(self, seed: int, index: int, inputs: list[AnalyzeInput], res: PassResult) -> dict[str, Any]:
        problems = []
        delivered = []
        for item, (_, rc, rec) in zip(inputs, res.outputs):
            if rc != 0:
                # Exit 3 is the known route-disagreement defect, counted in
                # `failed`; any other exit or an exception is a wrong output.
                if rc != 3:
                    problems.append(f"{item.label} {item.graph6}: exit {rc}")
                continue
            delivered.append((item, rec))
            g = rec["graph"]
            if (g["n"], g["m"], g["graph6"]) != (item.n, len(item.edges), item.graph6):
                problems.append(f"{item.label}: record names another graph: {g['graph6']}")
        if len(delivered) < self.rank_checks:
            problems.append(f"{len(delivered)} calls exited 0, fewer than the "
                            f"{self.rank_checks} rank checks need")
        rng = random.Random(f"analyze-check:{seed}:{index}")
        picks = rng.sample(delivered, min(self.rank_checks, len(delivered)))
        for item, rec in picks:
            for edges, got in ((item.edges, rec["main_count"]["walk_rank"]),
                               (oracle.complement_edges(item.n, item.edges),
                                rec["complement"]["main_count"])):
                want = oracle.walk_rank(item.n, edges)
                if got != want:
                    problems.append(f"{item.label} {item.graph6}: walk rank {got}, "
                                    f"Fraction oracle {want}")
        return {"checked": len(delivered) + 2 * len(picks), "problems": problems}

    def reference(self, inputs: list[AnalyzeInput], res: PassResult) -> dict[str, Any]:
        mats = []
        for item in inputs:
            a = np.zeros((item.n, item.n))
            for u, v in item.edges:
                a[u, v] = a[v, u] = 1.0
            mats += [a, 1.0 - np.eye(item.n) - a]
        return {"eigh_s": _eigh_seconds(mats), "graphs": len(mats), "stack": "one matrix per call"}


WORKLOADS = {w.name: w for w in (VerifyExhaustive(), SweepSampledO8(), AnalyzeLarge())}
