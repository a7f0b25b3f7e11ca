"""Command-line front-end: analyze | generate | verify.

Exit codes: 0 success, 1 at least one claim failed, 2 usage or parse error,
3 the floating and exact main-eigenvalue counts disagreed (confidently, or
through gray-band groups the exact rank cannot settle),
4 a numerical-hygiene check failed (the eigensolver did not converge, a
decomposition missed its bounds, or eigenvalue groups were too close to
separate), 5 stdout was closed before all output was written (for example
by ``| head``; the rest of the output is dropped, nothing is printed),
6 a process checking a share of ``verify``'s sweep ended without sending
back its result (it was killed, or failed outside the checks).
"""
from __future__ import annotations

import argparse
import bisect
import functools
import json
import math
import os
import pickle
import signal
import sys
import warnings
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
from .spectra import AmbiguousGroupingError, ConvergenceError, SpectralInvariantError
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

_NUMERICAL_ERRORS = (AmbiguousGroupingError, ConvergenceError, SpectralInvariantError)

_MAX_FAIL_DETAIL = 20  # failing witnesses printed per claim in table mode

# Smallest table-mode sweep split across CPUs.  A split costs about 20 ms of
# CPU (the fork, copy-on-write faults, pickling, reaping) and a swept graph
# 100-180 us, so 2,048 graphs are some ten times the split's cost; the default
# --exhaustive 4 (64 graphs) and order 5 (1,024) stay in one process.
_MIN_SPLIT = 2048

# Most characters ``analyze`` reads from stdin or a file.  The longest
# well-formed input at MAX_ORDER is K_200 as an edge list: 137,320 characters
# as ``serialize_edgelist`` writes it, 157,221 with CRLF line ends (its graph6
# line is 3,322); 2^18 leaves room for padding, and a longer or endless stream
# is refused after one read of this size.
MAX_INPUT = 1 << 18

# How long a full sweep of these orders runs: order 6 (32,768 graphs) takes
# seconds, order 7 has 64 times as many graphs and order 8 8,192 times, so
# verify says so before it starts.
_LONG_SWEEPS = {7: "minutes", 8: "hours"}


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
    ValueError on a stream or file longer than MAX_INPUT, after reading at
    most one character more."""
    if raw == "-":
        text, source = sys.stdin.read(MAX_INPUT + 1), "stdin"
    elif os.path.isfile(raw):
        with open(raw, "r", encoding="ascii") as fh:
            text, source = fh.read(MAX_INPUT + 1), raw
    else:
        return raw, "literal"
    if len(text) > MAX_INPUT:
        raise ValueError(f"{source} holds more than {MAX_INPUT:,} characters, "
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
    try:
        text, source = _read_input(args.input)
        g = _parse_graph(text, args.format)
    except (Graph6Error, EdgeListError, ParameterError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        a = analyze_graph(g)
        co = analyze_graph(g.complement())
    except RouteDisagreementError as err:
        print(f"error: cross-check disagreement: float route found {err.s_float} "
              f"main eigenvalues, walk-matrix rank is {err.rank}", file=sys.stderr)
        return EXIT_DISAGREE
    except _NUMERICAL_ERRORS as err:
        print(f"error: numerical check failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
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
    try:
        spec = _parse_family_tokens([args.family, *args.params])
        g = build_family(spec)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.buffer.write(serialize_graph6(g) + b"\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _parse_path_range(raw: str) -> tuple[int, int]:
    bad = ValueError(f"bad path range {raw!r}")
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

    def _keep(self, key: float, report: TheoremReport) -> None:
        failing = self.failing
        if len(failing) < _MAX_FAIL_DETAIL or key < failing[-1][0]:
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


class _WorkerLost(Exception):
    """A process checking a share of the sweep ended without sending its result."""


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


def _sweep_pairs(n: int, chunks: Iterable[np.ndarray], checks: _Checks,
                 args: argparse.Namespace) -> Iterator[_Pair]:
    """Every order-n labeled graph of ``chunks`` the filters keep, keyed by its
    mask, with the chosen claims' graph checkers."""
    for masks in chunks:
        for key, (a, co) in zip(masks.flat, sweeps.sweep(n, masks=masks)):
            if args.connected and not is_connected(a.graph):
                continue
            if args.bipartite and not is_bipartite(a.graph):
                continue
            yield key, a, co, checks


def _family_pairs(instances: list[tuple[str, Graph, Callable[..., TheoremReport]]],
                  tallies: dict[str, _Tally]) -> Iterator[_Pair]:
    """Every named-family instance with its one checker; all the graphs are
    analysed, each with its complement once, before the first is checked."""
    found = sweeps.analyze_with_complements(g for _, g, _ in instances)
    for tid, g, check in instances:
        a, co = found[g]
        yield math.inf, a, co, [(check, tallies[tid])]


def _check_pairs(pairs: Iterable[_Pair], as_json: bool) -> bool:
    """Run each graph's checkers, tally the reports and, for ``--json``, print
    them.  Returns True if either analysis of a checked pair disagrees."""
    disagreement = False
    for key, a, co, checks in pairs:
        disagreement |= a.disagrees or co.disagrees
        for check, tally in checks:
            report = check(a.graph, analysis=a, co=co)
            tally.add(report, key)
            if as_json:
                print(json.dumps(report.to_json()))
    return disagreement


class _Worker:
    """A forked process that runs ``job`` and pipes its result back."""

    def __init__(self, job: Callable[[], Any]) -> None:
        read, write = os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 warns when a process with more than one thread forks;
            # the others here are OpenBLAS's pool, which stops around a fork.
            warnings.simplefilter("ignore", DeprecationWarning)
            self.pid = os.fork()
        if self.pid == 0:
            os.close(read)
            _serve(write, job)
        os.close(write)
        self.pipe = open(read, "rb")

    def result(self) -> Any:
        """Wait for the worker's result; the worker is reaped."""
        data = self.pipe.read()
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        try:
            return pickle.loads(data)
        except Exception:  # nothing was sent, or it was cut short
            code = os.waitstatus_to_exitcode(status)
            how = (f"killed by {signal.Signals(-code).name}" if code < 0
                   else f"exit status {code}")
            raise _WorkerLost(f"a sweep worker ended without a result ({how})") from None

    def stop(self) -> None:
        """Kill and reap the worker, unless ``result`` already has."""
        self.pipe.close()
        if self.pid:
            try:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self.pid = 0


def _serve(write: int, job: Callable[[], Any]) -> None:
    """The forked worker's whole life: send ``job``'s result and exit.

    It never returns, prints or flushes the buffers it shares with its parent,
    whatever ``job`` raises, Ctrl-C included."""
    status = 1
    try:
        try:
            result = job()
        except Exception as err:  # a numerical error is re-raised by the parent
            result = err if isinstance(err, _NUMERICAL_ERRORS) else _WorkerLost(
                f"a sweep worker ended without a result ({type(err).__name__}: {err})")
        with open(write, "wb") as pipe:
            pickle.dump(result, pipe)
        status = 0
    finally:
        os._exit(status)


def _check_sweep(ids: list[str], args: argparse.Namespace,
                 tallies: dict[str, _Tally]) -> bool:
    """Check the sweep's graphs with the chosen claims' graph checkers.

    The selection is split into shares (``sweeps.shares``), in table mode one
    per usable CPU: this process checks the first, a forked worker each other,
    and their tallies are merged by mask, so the output is the one a single
    share gives.  ``--json`` prints its one share's chunks as they come, each
    in mask order.  Returns True if a checked pair disagrees."""
    checks = [(GRAPH_CHECKERS[tid], tallies[tid]) for tid in ids if tid in GRAPH_CHECKERS]
    if not checks:
        return False
    n = args.exhaustive
    masks = _selected_masks(args)
    size = sweeps.mask_population(n) if masks is None else len(masks)
    cpus = 1
    if not args.json and sys.platform == "linux" and size >= _MIN_SPLIT:
        cpus = len(os.sched_getaffinity(0))
    first, *rest = sweeps.shares(n, cpus, masks)

    def job(share: Iterator[np.ndarray]) -> tuple[list[_Tally], bool]:
        disagreement = _check_pairs(_sweep_pairs(n, share, checks, args), args.json)
        return [tally for _, tally in checks], disagreement

    workers: list[_Worker] = []
    try:
        for share in rest:  # before any chunk is built, so each worker starts small
            workers.append(_Worker(functools.partial(job, share)))
        disagreement = job(first)[1]
        for worker in workers:  # in share order, so the first share to fail decides
            result = worker.result()
            if isinstance(result, Exception):
                raise result
            shared, flag = result
            for (_, tally), other in zip(checks, shared):
                tally.merge(other)
            disagreement |= flag
    finally:
        for worker in workers:
            worker.stop()
    return disagreement


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        args.path_range = _parse_path_range(args.paths)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if args.exhaustive < 1 or args.exhaustive > MAX_ENUM_ORDER:
        print(f"error: --exhaustive must be between 1 and {MAX_ENUM_ORDER}",
              file=sys.stderr)
        return EXIT_USAGE
    for flag, size in (("--doublestars", args.doublestars), ("--krr", args.krr),
                       ("--harmonictrees", args.harmonictrees),
                       ("--pendants", min(args.pendants)), ("--sample", args.sample)):
        if size < 0:
            print(f"error: {flag} must be >= 0", file=sys.stderr)
            return EXIT_USAGE
    if args.sample > sweeps.MAX_SAMPLE:
        print(f"error: --sample must be at most {sweeps.MAX_SAMPLE:,}", file=sys.stderr)
        return EXIT_USAGE
    ids = list(ALL_IDS) if args.theorem == "all" else [args.theorem]
    tallies = {tid: _Tally() for tid in ids}
    try:
        instances = _family_instances(ids, args)
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    try:
        disagreement = _check_sweep(ids, args, tallies)
        disagreement |= _check_pairs(_family_pairs(instances, tallies), args.json)
    except _NUMERICAL_ERRORS as err:
        print(f"error: numerical check failed: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _WorkerLost as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_WORKER_LOST

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: point stdout at devnull so that the flush at
        # interpreter exit drops what is still buffered without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
