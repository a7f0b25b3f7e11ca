"""Command-line front-end: analyze | generate | verify.

Exit codes: 0 success, 1 at least one claim failed, 2 usage or parse error,
3 the floating and exact main-eigenvalue counts disagreed (confidently, or
through gray-band groups the exact rank cannot settle),
4 a numerical-hygiene check failed (the eigensolver did not converge, a
decomposition missed its bounds, or eigenvalue groups were too close to
separate), 5 stdout was closed before all output was written (for example
by ``| head``; the rest of the output is dropped, nothing is printed),
6 a forked sweep process (a table-mode share's worker, or the producer that
builds a ``--json`` sweep's cuts) could not be started, or ended without
sending back its results (it was killed, or failed outside the checks),
130 interrupted (SIGINT, as by Ctrl-C; every worker is reaped first).
The commands raise; ``main`` alone maps each failure to its code and its one
``error:`` line.  A worker dies with its parent: a killed ``verify`` leaves none.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import sweeps, theorems
from .analysis import GraphAnalysis, RouteDisagreementError, analyze_graph
from .graph6 import EdgeListError, Graph6Error, parse_edgelist, parse_graph6, serialize_graph6
from .graphs import (
    MAX_ENUM_ORDER,
    MAX_ORDER,
    FamilySpec,
    Graph,
    ParameterError,
    build_family,
    is_bipartite,
    is_connected,
    require_capped,
)
from .spectra import NUMERICAL_ERRORS
from .theorems import (
    ALL_IDS,
    FAILS,
    GRAPH_CHECKERS,
    PATH_CHECKERS,
    TheoremReport,
    check_complement_second_eigenvalue,
    check_double_star_profile,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DISAGREE = 3
EXIT_NUMERICAL = 4
EXIT_CLOSED_STDOUT = 5
EXIT_WORKER_LOST = 6
EXIT_INTERRUPTED = 130

_MAX_FAIL_DETAIL = 20  # failing witnesses printed per claim in table mode

# Most characters ``analyze`` reads from stdin or a file.  The longest
# well-formed input at MAX_ORDER is K_200 as an edge list: 137,320 characters
# as ``serialize_edgelist`` writes it, 157,221 with CRLF line ends (its graph6
# line is 3,322); 2^18 leaves room for padding, and a longer or endless stream
# is refused after one read of this size.
MAX_INPUT = 1 << 18

# How long a full sweep of these orders runs: order 6 (32,768 graphs) takes
# under a second, order 7 has 64 times as many graphs (21 s over two CPUs, 2-core
# x86_64) and order 8 8,192 times, so verify says so before it starts.
_LONG_SWEEPS = {7: "half a minute", 8: "an hour or more"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _read_input(raw: str) -> tuple[str, str]:
    """Resolve the INPUT argument: '-' reads stdin, an existing path reads the
    file, anything else is taken literally.  Returns (text, source); raises
    ParameterError on a file or stream that cannot be read or decoded (a file
    must be ASCII) or is longer than MAX_INPUT, read to one character more."""
    try:
        if raw == "-":
            text, source = sys.stdin.read(MAX_INPUT + 1), "stdin"
        elif os.path.isfile(raw):
            with open(raw, "r", encoding="ascii") as fh:
                text, source = fh.read(MAX_INPUT + 1), raw
        else:
            return raw, "literal"
    except (OSError, UnicodeDecodeError) as err:
        raise ParameterError(str(err)) from None
    if len(text) > MAX_INPUT:
        raise ParameterError(f"{source} holds more than {MAX_INPUT:,} characters, "
                             f"more than any graph of order <= {MAX_ORDER} needs")
    return text, source


def _parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "edgelist":
        return parse_edgelist(text)
    return parse_graph6(text.strip())


def _analysis_record(g: Graph, a: GraphAnalysis, co: GraphAnalysis,
                     source: str, fmt: str) -> dict[str, Any]:
    return {
        "input": {"source": source, "format": fmt},
        "graph": {
            "n": g.n,
            "m": g.m,
            "graph6": serialize_graph6(g).decode("ascii"),
            "degrees": list(g.degrees()),
        },
        "groups": [
            {
                "value": grp.value,
                "multiplicity": grp.multiplicity,
                "projection": grp.projection_norm_sq,
                "main": bool(grp.is_main),
            }
            for grp in a.spectrum.groups
        ],
        "main_count": {
            "float_route": a.s_float if a.s_float is not None else a.rank,
            "walk_rank": a.rank,
            "used_fallback": a.used_fallback,
        },
        "harmonic": {"is_harmonic": a.is_harmonic, "level": a.harmonic_level},
        "complement": {
            "lambda1": co.lambda_max,
            "lambda2": co.eigenvalue(1) if g.n >= 2 else None,
            "shift": -1.0 - a.lambda_min,
            "main_count": co.main_count,
            "window": theorems.complement_window(a, co) if g.n >= 2 else None,
        },
    }


def _print_analysis_table(record: dict[str, Any]) -> None:
    g = record["graph"]
    print(f"graph: n={g['n']} m={g['m']} graph6={g['graph6']}")
    print(f"degrees: {' '.join(str(d) for d in g['degrees'])}")
    print(f"{'eigenvalue':>18}  {'mult':>4}  {'projection':>14}  main")
    for grp in record["groups"]:
        flag = "yes" if grp["main"] else "no"
        print(f"{_fmt(grp['value']):>18}  {grp['multiplicity']:>4}  "
              f"{_fmt(grp['projection']):>14}  {flag}")
    mc = record["main_count"]
    fallback = " (gray zone, exact rank decided)" if mc["used_fallback"] else ""
    print(f"main count: {mc['float_route']} (float route) / "
          f"{mc['walk_rank']} (walk-matrix rank){fallback}")
    h = record["harmonic"]
    if h["is_harmonic"]:
        print(f"harmonic: yes (level {h['level']})")
    else:
        print("harmonic: no")
    c = record["complement"]
    lam2 = "n/a" if c["lambda2"] is None else _fmt(c["lambda2"])
    print(f"complement: lambda1={_fmt(c['lambda1'])} lambda2={lam2} "
          f"-1-lambda_min={_fmt(c['shift'])} mains={c['main_count']} "
          f"[{c['window'] or 'n/a'}]")


def cmd_analyze(args: argparse.Namespace) -> int:
    text, source = _read_input(args.input)
    g = _parse_graph(text, args.format)
    a = analyze_graph(g)
    co = analyze_graph(g.complement())
    record = _analysis_record(g, a, co, source, args.format)
    if args.json:
        record["generated_at"] = _timestamp()
        print(json.dumps(theorems.json_clean(record)))
    else:
        _print_analysis_table(record)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _parse_family_tokens(tokens: Sequence[str]) -> FamilySpec:
    if not tokens:
        raise ParameterError("missing family name")
    kind = tokens[0].lower()
    rest = list(tokens[1:])
    if kind == "pendant":
        # pendant BASE P... [q] Q — the literal 'q' separator is optional.
        base_tokens = rest[:-2] if rest[-2:-1] == ["q"] else rest[:-1]
        if not base_tokens:
            raise ParameterError("pendant needs a base family and a pendant count")
        base = _parse_family_tokens(base_tokens)
        if base.kind == "pendant":
            raise ParameterError("pendant decorations do not nest")
        return FamilySpec("pendant", (_as_int(rest[-1]),), base=base)
    return FamilySpec(kind, tuple(_as_int(t) for t in rest))


def _as_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParameterError(f"expected an integer parameter, got {token!r}") from None


def cmd_generate(args: argparse.Namespace) -> int:
    g = build_family(_parse_family_tokens([args.family, *args.params]))
    sys.stdout.buffer.write(serialize_graph6(g) + b"\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_path_range(raw: str) -> tuple[int, int]:
    bad = ParameterError(f"bad path range {raw!r}")
    try:
        lo, hi = map(int, raw.split("..", 1)) if ".." in raw else (2, int(raw))
    except ValueError:
        raise bad from None
    if lo < 1 or hi < lo:
        raise bad
    return lo, hi


def _family_instances(
    ids: list[str], args: argparse.Namespace
) -> list[tuple[str, Graph, Callable[..., TheoremReport]]]:
    """Every named-family instance of the chosen claims as (claim id, graph,
    checker), in report order: the per-graph claims' family extras first, then
    the family claims.  Each distinct spec is built once."""
    lo, hi = args.path_range
    pend_p, pend_q = args.pendants
    k_max = args.doublestars
    # Each family's last instance is its largest: refuse an over-cap one
    # before listing every instance below it.
    for largest in (FamilySpec("path", (hi,)), FamilySpec("doublestar", (k_max, k_max)),
                    FamilySpec("pendant", (pend_q,), base=FamilySpec("cycle", (pend_p,))),
                    FamilySpec("harmonictree", (args.harmonictrees,)),
                    FamilySpec("completebipartite", (args.krr, args.krr))):
        require_capped(largest)
    paths = [FamilySpec("path", (n,)) for n in range(lo, hi + 1)]
    stars = [FamilySpec("doublestar", (k, s)) for k in range(1, k_max + 1)
             for s in range(k, k_max + 1)]
    pendants = [FamilySpec("pendant", (q,), base=FamilySpec("cycle", (p,)))
                for p in range(3, pend_p + 1) for q in range(1, pend_q + 1)]
    trees = [FamilySpec("harmonictree", (ell,)) for ell in range(2, args.harmonictrees + 1)]
    krr = [FamilySpec("completebipartite", (r, r)) for r in range(1, args.krr + 1)]
    families = dict.fromkeys(("L23", "P24", "P25", "P26"), trees)
    families |= dict.fromkeys(("P21", "C22"), pendants + trees)
    families |= dict.fromkeys(("T37", "T44", "INEQ2", "P34", "P35"), krr)
    families |= dict.fromkeys(PATH_CHECKERS, paths)
    families |= {"T45": pendants + trees + paths + stars, "T46": stars}
    families["COR47"] = [spec for spec in paths if spec.params[0] >= 2] + [
        FamilySpec("doublestar", (k, k)) for k in range(1, k_max + 1)]
    checkers = GRAPH_CHECKERS | PATH_CHECKERS | {
        "T46": check_double_star_profile, "COR47": check_complement_second_eigenvalue}
    listed = [(tid, spec) for tid in sorted(ids, key=lambda t: t not in GRAPH_CHECKERS)
              for spec in families.get(tid, ())]
    built = {spec: build_family(spec) for spec in dict.fromkeys(spec for _, spec in listed)}
    return [(tid, built[spec], checkers[tid]) for tid, spec in listed]


@dataclass
class _Tally:
    holds: int = 0
    fails: int = 0
    skipped: int = 0
    # (key, report) of the failing instances with the smallest keys, in key
    # order: a swept graph's key is its edge mask, and family instances, all
    # keyed inf, follow the sweep in the order they are checked.
    failing: list[tuple[float, TheoremReport]] = field(default_factory=list)

    def add(self, report: TheoremReport, key: float) -> None:
        if report.verdict == theorems.HOLDS:
            self.holds += 1
        elif report.verdict == FAILS:
            self.fails += 1
            self._keep(key, report)
        else:
            self.skipped += 1

    def wants(self, key: float) -> bool:
        """Whether a failure keyed ``key`` would be kept."""
        failing = self.failing
        return len(failing) < _MAX_FAIL_DETAIL or key < failing[-1][0]

    def _keep(self, key: float, report: TheoremReport) -> None:
        if self.wants(key):
            failing = self.failing
            bisect.insort(failing, (key, report), key=itemgetter(0))
            del failing[_MAX_FAIL_DETAIL:]

    def merge(self, other: _Tally) -> None:
        """Add the tally of another share of the same sweep."""
        self.holds += other.holds
        self.fails += other.fails
        self.skipped += other.skipped
        for key, report in other.failing:
            self._keep(key, report)

    @property
    def total(self) -> int:
        return self.holds + self.fails + self.skipped


_Checks = list[tuple[Callable[..., TheoremReport], _Tally]]
# (key, analysis, complement analysis, the checkers to run on that graph with their tallies)
_Pair = tuple[float, GraphAnalysis, GraphAnalysis, _Checks]


def _selected_masks(args: argparse.Namespace) -> np.ndarray | None:
    """The sweep's sample, or None for all labeled graphs of the order."""
    n = args.exhaustive
    population = sweeps.mask_population(n)
    if args.sample and population > args.sample:
        return sweeps.sample_masks(n, args.sample)
    if n in _LONG_SWEEPS:
        print(f"note: --exhaustive {n} sweeps all {population:,} labeled graphs, which "
              f"takes {_LONG_SWEEPS[n]}; --sample K checks K of them", file=sys.stderr)
    return None


def _kept(cut: sweeps.Cut, args: argparse.Namespace) -> np.ndarray:
    """The pairs of ``cut`` the filters keep, read off G's fact columns."""
    facts = cut.block.facts
    return np.flatnonzero((facts.connected[cut.own] | (not args.connected))
                          & (facts.bipartite[cut.own] | (not args.bipartite)))


def _check_cuts(n: int, share: Iterable[np.ndarray], tallies: dict[str, _Tally],
                args: argparse.Namespace) -> bool:
    """Table mode: tally each cut of ``share``, each of its chunks one
    selection, from its block verdicts, keyed by the chunk's masks.  Returns
    True if a pair the filters keep disagrees."""
    claims = [(column, GRAPH_CHECKERS[tid], tallies[tid])
              for column, tid in enumerate(GRAPH_CHECKERS) if tid in tallies]
    disagreement = False
    for chunk in share:
        start = 0
        for cut in sweeps.cuts(n, masks=chunk):
            disagreement |= _tally_cut(cut, chunk[start:start + len(cut.own)], claims, args)
            start += len(cut.own)
            del cut  # with _tally_cut's verdicts, gone before the next cut is built
    return disagreement


def _tally_cut(cut: sweeps.Cut, keys: np.ndarray,
               claims: list[tuple[int, Callable[..., TheoremReport], _Tally]],
               args: argparse.Namespace) -> bool:
    """Count each claim's verdicts on the graphs of ``cut`` the filters keep,
    all from one ``theorems.check_block`` call; only a failure its tally keeps
    has its pair's records built, for the checker's report.  Returns True if
    a kept pair disagrees."""
    block = theorems.check_block(cut)
    rows = _kept(cut, args)
    verdicts = block.verdicts[rows]
    counts = np.count_nonzero(verdicts[:, :, None] == np.arange(3), axis=0).tolist()
    for column, check, tally in claims:
        holds, fails, skipped = counts[column]  # codes index theorems.VERDICTS
        tally.holds += holds
        tally.fails += fails
        tally.skipped += skipped
        for row in rows[verdicts[:, column] == 1].tolist():
            key = int(keys[row])
            if tally.wants(key):
                ((a, co),) = sweeps.pairs(cut, np.array([row]))
                tally._keep(key, check(a.graph, analysis=a, co=co))
    return bool(block.disagrees[rows].any())


def _family_pairs(instances: list[tuple[str, Graph, Callable[..., TheoremReport]]],
                  tallies: dict[str, _Tally]) -> Iterator[_Pair]:
    """Every named-family instance with its one checker; all the graphs are
    analysed, each with its complement once, before the first is checked."""
    found = sweeps.analyze_with_complements(g for _, g, _ in instances)
    for tid, g, check in instances:
        a, co = found[g]
        yield math.inf, a, co, [(check, tallies[tid])]


def _check_pairs(pairs: Iterable[_Pair], as_json: bool) -> bool:
    """Run each graph's per-graph checkers, tally the reports and, for
    ``--json``, print them: the route of the family instances and of a
    ``--json`` sweep.  Returns True if either analysis of a checked pair
    disagrees."""
    disagreement = False
    for key, a, co, checks in pairs:
        disagreement |= a.disagrees or co.disagrees
        for check, tally in checks:
            report = check(a.graph, analysis=a, co=co)
            tally.add(report, key)
            if as_json:
                print(json.dumps(report.to_json()))
    return disagreement


def _check_sweep(ids: list[str], args: argparse.Namespace,
                 tallies: dict[str, _Tally]) -> bool:
    """Check the sweep's graphs against the chosen graph claims.

    ``--json`` runs every per-graph checker on the pairs ``sweeps.sweep``
    yields, keeps those whose facts pass the filters, and prints each report
    as it comes, chunk by chunk, each chunk in mask order; from
    ``sweeps._MIN_SPLIT`` graphs on the sweep's cuts come from a forked
    producer.  Table mode splits the selection into shares
    (``sweeps.shares``), one per usable CPU: this process checks the first, a
    forked worker each other, and their tallies are merged by mask, so the
    output is the one a single share gives.  It takes each cut's verdicts
    from one ``theorems.check_block`` call and runs a per-graph checker only
    to report a failure it prints (``_check_cuts``).  Returns True if a
    checked pair disagrees."""
    checks = [(GRAPH_CHECKERS[tid], tallies[tid]) for tid in ids if tid in GRAPH_CHECKERS]
    if not checks:
        return False
    n = args.exhaustive
    masks = _selected_masks(args)
    if args.json:
        with contextlib.closing(sweeps.sweep(n, masks=masks)) as swept:
            return _check_pairs(((a.graph.edge_mask(), a, co, checks) for a, co in swept
                                 if (not args.connected or is_connected(a.graph))
                                 and (not args.bipartite or is_bipartite(a.graph))), True)
    size = sweeps.mask_population(n) if masks is None else len(masks)
    first, *rest = sweeps.shares(n, sweeps.usable_cpus(size), masks)

    def job(share: Iterator[np.ndarray]) -> list[tuple[list[_Tally], bool]]:
        disagreement = _check_cuts(n, share, tallies, args)
        return [([tally for _, tally in checks], disagreement)]  # a stream of one result

    workers: list[sweeps.Worker] = []
    try:
        for share in rest:  # before any chunk is built, so each worker starts small
            workers.append(sweeps.Worker(functools.partial(job, share)))
        disagreement = _check_cuts(n, first, tallies, args)
        for worker in workers:  # in share order, so the first share to fail decides
            ((shared, flag),) = worker.results()
            for (_, tally), other in zip(checks, shared):
                tally.merge(other)
            disagreement |= flag
    finally:
        for worker in workers:
            worker.stop()
    return disagreement


def cmd_verify(args: argparse.Namespace) -> int:
    args.path_range = _parse_path_range(args.paths)
    if args.exhaustive < 1 or args.exhaustive > MAX_ENUM_ORDER:
        raise ParameterError(f"--exhaustive must be between 1 and {MAX_ENUM_ORDER}")
    for flag, size in (("--doublestars", args.doublestars), ("--krr", args.krr),
                       ("--harmonictrees", args.harmonictrees),
                       ("--pendants", min(args.pendants)), ("--sample", args.sample)):
        if size < 0:
            raise ParameterError(f"{flag} must be >= 0")
    if args.sample > sweeps.MAX_SAMPLE:
        raise ParameterError(f"--sample must be at most {sweeps.MAX_SAMPLE:,}")
    ids = list(ALL_IDS) if args.theorem == "all" else [args.theorem]
    tallies = {tid: _Tally() for tid in ids}
    family = _family_instances(ids, args)
    disagreement = _check_sweep(ids, args, tallies)
    disagreement |= _check_pairs(_family_pairs(family, tallies), args.json)

    failures = sum(t.fails for t in tallies.values())
    instances = sum(t.total for t in tallies.values())
    if args.json:
        print(json.dumps({
            "record": "summary",
            "generated_at": _timestamp(),
            "claims": len(ids),
            "instances": instances,
            "failures": failures,
        }))
    else:
        for tid in ids:
            t = tallies[tid]
            print(f"{tid}: {t.total} instances — {t.holds} holds, {t.fails} fails, "
                  f"{t.skipped} not-applicable")
            for _, report in t.failing:
                wit = json.dumps(theorems.json_clean(report.witnesses))
                print(f"  FAIL {report.instance}: {wit}")
            if t.fails > len(t.failing):
                print(f"  ... and {t.fails - len(t.failing)} more failures")
        print(f"verified {len(ids)} claim(s) over {instances} instance(s): "
              f"{failures} failure(s)")
    if disagreement:
        print("error: cross-check disagreement between float route and "
              "walk-matrix rank", file=sys.stderr)
        return EXIT_DISAGREE
    return EXIT_FAIL if failures else EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache  # building takes about 0.5 ms, parsing a fifteenth of that
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mainspec",
        description="Main-eigenvalue toolkit: analyze graphs, generate "
                    "families, verify spectral claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze one graph")
    p_an.add_argument("input",
                      help="graph input: '-' for stdin, a file path, or the "
                           "literal text itself")
    p_an.add_argument("--format", choices=("graph6", "edgelist"),
                      default="graph6")
    p_an.add_argument("--json", action="store_true",
                      help="emit a JSON record instead of a table")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="emit a named family as graph6")
    p_gen.add_argument("family",
                       help="path|cycle|complete|empty|star|completebipartite|"
                            "doublestar|harmonictree|pendant")
    p_gen.add_argument("params", nargs="*",
                       help="integer parameters; pendant takes a base family "
                            "first, e.g. 'pendant cycle 5 q 2'")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="check claims over instance sweeps")
    p_ver.add_argument("theorem", choices=ALL_IDS + ("all",),
                       metavar="THEOREM",
                       help=f"claim id or 'all'; ids: {', '.join(ALL_IDS)}")
    p_ver.add_argument("--exhaustive", type=int, default=4, metavar="N",
                       help="sweep all labeled graphs of this order (default 4)")
    p_ver.add_argument("--connected", action="store_true",
                       help="restrict the sweep to connected graphs")
    p_ver.add_argument("--bipartite", action="store_true",
                       help="restrict the sweep to bipartite graphs")
    p_ver.add_argument("--paths", default="2..12", metavar="A..B",
                       help="path order range (default 2..12)")
    p_ver.add_argument("--doublestars", type=int, default=6, metavar="K",
                       help="double stars with 1 <= k,s <= K (default 6)")
    p_ver.add_argument("--krr", type=int, default=5, metavar="R",
                       help="balanced complete bipartite sizes up to R (default 5)")
    p_ver.add_argument("--harmonictrees", type=int, default=3, metavar="L",
                       help="harmonic tree levels up to L (default 3)")
    p_ver.add_argument("--pendants", type=int, nargs=2, default=(8, 3),
                       metavar=("P", "Q"),
                       help="pendant-decorated cycles C_p, p <= P, q <= Q "
                            "(default 8 3)")
    p_ver.add_argument("--sample", type=int, default=0, metavar="K",
                       help="sample K graphs from the sweep instead of all "
                            "(0 = exhaustive)")
    p_ver.add_argument("--json", action="store_true",
                       help="emit one JSON line per instance plus a summary")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _fail(code: int, message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except (Graph6Error, EdgeListError, ParameterError) as err:
            code = _fail(EXIT_USAGE, err)
        except RouteDisagreementError as err:
            code = _fail(EXIT_DISAGREE, f"cross-check disagreement: {err}")
        except NUMERICAL_ERRORS as err:
            code = _fail(EXIT_NUMERICAL, f"numerical check failed: {err}")
        except sweeps.WorkerLost as err:
            code = _fail(EXIT_WORKER_LOST, err)
        sys.stdout.flush()  # on every path, so a closed reader is met in this guard
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that the flush at
        # interpreter exit drops what is still buffered without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except KeyboardInterrupt:
        return _fail(EXIT_INTERRUPTED, "interrupted")
    return code


if __name__ == "__main__":
    sys.exit(main())
