"""Run one mainspec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-sampled-o8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The run pins BLAS to one thread, times the set-up (a fresh interpreter that
imports mainspec and builds the inputs) eleven times, then repeats whole
passes of the workload until ``--seconds`` have passed (at least one).
Set-up, pass and call times are seconds at reference speed (see speed.py).
With ``--trace 1`` it runs the first pass again with the span tracer
installed and reports per-layer metrics instead of end-to-end ones.
Every pass's outputs are checked after its timed region.  The last line of
standard output is one JSON object; the exit code is 0 only when every
check passed.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it

# Metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_program() -> None:
    """Put this checkout's src first on the path and make sure it is what loads."""
    if not (SRC / "mainspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no mainspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import mainspec

    if Path(mainspec.__file__).resolve().parent != SRC / "mainspec":
        raise SystemExit(f"error: imported mainspec from {mainspec.__file__}, not {SRC}")


def _timed_process(cmd: list[str]) -> float:
    # No timeout: with one, the wait polls in steps of up to 50 ms,
    # which would quantise the measurement.
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds of each set-up probe, and of a bare interpreter start before each.

    A probe is mostly process start and imports.  The calibration loop does
    not track their speed, but a bare start does (see speed.py).
    """
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)]
    bare = [sys.executable, "-c", "pass"]
    setups, starts = [], []
    for _ in range(SETUP_PROBES):
        starts.append(_timed_process(bare))
        setups.append(_timed_process(probe))
    return setups, starts


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond.

    With fewer than TAIL_BEYOND + 1 samples no such percentile exists, and the
    maximum (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - 1 - TAIL_BEYOND
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mainspec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "tracing_overhead_s": None,  # measured by --trace 1 runs
    }


def _end_to_end(passes: list, setup_times: list[float], start_times: list[float],
                peak_rss_mb: float, scaled: bool) -> dict[str, float]:
    """Medians over passes; ``scaled`` gives seconds at reference speed."""
    setup_factor = speed.START_REFERENCE_S / statistics.median(start_times) if scaled else 1.0

    def wall(p):
        return p.seconds * p.speed_factor if scaled else p.seconds

    def calls(p):
        raw = [end - start for start, end in p.calls]
        return [t * f for t, f in zip(raw, p.call_factors)] if scaled else raw

    return {
        "setup_s": statistics.median(setup_times) * setup_factor,
        "wall_s": statistics.median(wall(p) for p in passes),
        "graphs_per_s": statistics.median(p.graphs / wall(p) for p in passes),
        "call_p50_s": statistics.median(statistics.median(calls(p)) for p in passes),
        "call_tail_s": statistics.median(tail(calls(p))[0] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    setup_times, start_times = _setup_times(name, seed)

    passes, inputs = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        inputs.append(wl.inputs(seed, len(passes)))
        with speed.SpeedSampler() as sampler:
            passes.append(wl.run(inputs[-1], sampler.clock))
        passes[-1].speed_factor = sampler.factor()
        passes[-1].call_factors = [sampler.factor(*call) for call in passes[-1].calls]
        if len(passes) == 1:
            # Later passes hold earlier outputs for the checks, so only the
            # first pass's peak is independent of the pass count.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems: list[str] = []
    tracer = Tracer()
    if trace:
        with tracer:
            traced = wl.run(inputs[0])
        if traced.digest() != passes[0].digest():
            problems.append("pass 0: traced outputs differ from untraced")

    checks = [wl.check(seed, i, inp, res) for i, (inp, res) in enumerate(zip(inputs, passes))]
    for i, c in enumerate(checks):
        problems += [f"pass {i}: {p}" for p in c["problems"]]
    reference = wl.reference(inputs[0], passes[0])

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    end_to_end = _end_to_end(passes, setup_times, start_times, peak_rss_mb, scaled=True)
    raw = _end_to_end(passes, setup_times, start_times, peak_rss_mb, scaled=False)
    record = {
        "record": "perfbench",
        "workload": name,
        "why": next(w["why"] for w in SPEC["workloads"] if w["name"] == name),
        "provenance": provenance(seed),
        "loop": "closed, one caller, one process",
        "seconds": seconds,
        "passes": len(passes),
        "calls_per_pass": len(passes[0].calls),
        "tail_percentile": tail(passes[0].calls)[1],
        "setup_probes_s": setup_times,
        "bare_start_probes_s": start_times,
        "pass_wall_s": [p.seconds for p in passes],
        "pass_speed_factors": [p.speed_factor for p in passes],
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:20],
        "checked_outputs": sum(c["checked"] for c in checks),
        "problems": problems,
        "end_to_end": end_to_end,
        "end_to_end_raw_seconds": raw,
        "reference_eigh": reference,
    }
    if trace:
        layer = tracer.metrics(traced.seconds, passes[0].seconds)
        record["per_layer"] = layer
        record["provenance"]["tracing_overhead_s"] = layer["trace.overhead_s"]
        chosen, units = layer, PER_LAYER_UNITS
    else:
        chosen, units = end_to_end, END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": chosen[k], "unit": units[k]} for k in units},
    }
    return result, record


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
        if not lines:
            print(f"{name}: no result (exit {proc.returncode}) {proc.stderr.strip()}")
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        WORKLOADS[args.workload].inputs(args.seed, 0)
        return 0

    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for metric, m in result["metrics"].items():
        print(f"{args.workload} {metric} = {m['value']:.6g} {m['unit']}")
    if record["problems"]:
        print(f"{args.workload}: output check FAILED: {record['problems'][:5]}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
