"""Tests for the benchmark itself, at smoke sizes.

Run with ``python3 -m pytest perfbench/tests -q``.
"""
from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import spans
import speed
import workloads
from mainspec import graph6, graphs

BENCH = Path(__file__).resolve().parents[1]

# `mainspec verify all --exhaustive 4` at the commit the benchmark was defined on.
ORDER4_TOTALS = {
    "P21": (84, 52, 0, 32), "C22": (84, 12, 0, 72), "L23": (66, 14, 0, 52),
    "P24": (66, 66, 0, 0), "P25": (66, 65, 0, 1), "P26": (66, 43, 0, 23),
    "T31": (64, 64, 0, 0), "P32": (64, 64, 0, 0), "C33": (64, 39, 0, 25),
    "INEQ2": (69, 69, 0, 0), "P34": (69, 69, 0, 0), "P35": (69, 69, 0, 0),
    "P36": (64, 64, 0, 0), "T37": (69, 24, 0, 45), "L41": (11, 11, 0, 0),
    "T42": (11, 11, 0, 0), "C43": (11, 11, 0, 0), "T44": (69, 35, 0, 34),
    "T45": (116, 116, 0, 0), "T46": (21, 21, 0, 0), "COR47": (17, 17, 0, 0),
}

SMOKE = {
    "verify-exhaustive": workloads.VerifyExhaustive(order=4, totals=ORDER4_TOTALS),
    "sweep-sampled-o8": workloads.SweepSampledO8(sample=192, rank_checks=4),
    "analyze-large": workloads.AnalyzeLarge(
        random_mix=[(12, 0.3), (16, 0.5)],
        structured_mix=[("T(2,3)", oracle.double_star(2, 3)),
                        ("K_3,3", oracle.complete_bipartite(3, 3))],
        rank_checks=2),
}


@pytest.fixture(params=sorted(SMOKE))
def smoke(request):
    return SMOKE[request.param]


def test_smoke_workload_passes_its_checks(smoke):
    inputs = smoke.inputs(7, 0)
    res = smoke.run(inputs)
    assert res.attempted > 0 and res.calls and res.seconds > 0
    assert res.graphs > 0
    report = smoke.check(7, 0, inputs, res)
    assert report["problems"] == []
    assert report["checked"] > 0
    assert smoke.reference(inputs, res)["eigh_s"] > 0


def test_inputs_depend_only_on_seed_and_pass(smoke):
    assert smoke.inputs(3, 1) == smoke.inputs(3, 1)
    if smoke.name != "verify-exhaustive":  # the exhaustive population has no seed
        assert smoke.inputs(3, 1) != smoke.inputs(4, 1)
        assert smoke.inputs(3, 0) != smoke.inputs(3, 1)


def test_traced_and_untraced_outputs_are_identical(smoke):
    inputs = smoke.inputs(11, 0)
    plain = smoke.run(inputs)
    with spans.Tracer() as tracer:
        traced = smoke.run(inputs)
    assert traced.outputs == plain.outputs
    assert traced.digest() == plain.digest()
    assert tracer.spans > 0


def test_every_wrapper_is_removed():
    before = spans.binding_snapshot()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert spans.binding_snapshot() != before
            raise RuntimeError("leave the traced block early")
    after = spans.binding_snapshot()
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


def test_self_times_account_for_traced_wall():
    wl = SMOKE["sweep-sampled-o8"]
    inputs = wl.inputs(5, 0)
    with spans.Tracer() as tracer:
        res = wl.run(inputs)
    layer = tracer.metrics(res.seconds, res.seconds)
    self_times = sum(v for k, v in layer.items()
                     if k.endswith("_s") and not k.startswith("trace."))
    assert self_times == pytest.approx(layer["trace.wall_s"])
    assert layer["cli.other_s"] >= 0
    assert layer["sweeps.analyses_per_pair"] == 2.0
    assert layer["spectra.batch_calls"] == 2
    assert layer["spectra.batch_graphs"] == 2 * wl.sample
    assert layer["theorems.reports"] == wl.sample * 16


def test_analyze_repeat_ratio_counts_equal_graphs():
    tracer = spans.Tracer()
    with tracer:
        workloads._run_cli(["analyze", "Bw", "--json"])
        workloads._run_cli(["analyze", "Bw", "--json"])
    assert tracer.analyze_calls == 4  # each call analyses G and its complement
    assert tracer.analyze_repeats == 2
    assert tracer.layers["spectra.scalar"].calls == 4


def test_calls_that_raise_are_counted():
    # An order-8 graph whose float route is confidently one main eigenvalue
    # short (a known defect): analyze exits 3 from inside analyze_graph.
    tracer = spans.Tracer()
    with tracer:
        rc, _, err = workloads._run_cli(["analyze", "GvO\\eG", "--json"])
    assert rc == 3, err
    assert tracer.analyze_calls == 1
    assert tracer.disagreements == 1


def test_analyze_check_fails_unless_calls_exit_0_or_3():
    wl = SMOKE["analyze-large"]
    inputs = wl.inputs(7, 0)
    for rc in (2, None):  # a usage error, an exception
        res = workloads.PassResult(outputs=[[item.label, rc, ""] for item in inputs])
        problems = wl.check(7, 0, inputs, res)["problems"]
        # one per call, and one because no call is left for the rank checks
        assert len(problems) == len(inputs) + 1
    res = workloads.PassResult(outputs=[[item.label, 3, ""] for item in inputs])
    assert len(wl.check(7, 0, inputs, res)["problems"]) == 1


def test_run_workload_reports_every_metric(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "sweep-sampled-o8", SMOKE["sweep-sampled-o8"])
    for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
        result, record = run.run_workload("sweep-sampled-o8", 2, 0.0, trace)
        assert result["correct"], record["problems"]
        assert set(result["metrics"]) == set(units)
        assert all(m["unit"] == units[k] for k, m in result["metrics"].items())
        assert record["passes"] == 1 and record["calls_per_pass"] == 1
        assert record["provenance"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    # The overhead is a difference of two timings and may come out negative.
    assert all(result["metrics"][k]["value"] >= 0 for k in units if k != "trace.overhead_s")
    assert "tracing_overhead_s" in record["provenance"]
    # Set-up is scaled by the bare interpreter starts timed next to its probes.
    raw_setup = statistics.median(record["setup_probes_s"])
    assert record["end_to_end_raw_seconds"]["setup_s"] == raw_setup
    assert record["end_to_end"]["setup_s"] == pytest.approx(
        raw_setup * speed.START_REFERENCE_S / statistics.median(record["bare_start_probes_s"]))


def test_speed_sampler_samples_and_keeps_its_time_out_of_the_clock():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        t0, w0 = sampler.clock(), time.perf_counter()
        while time.perf_counter() - w0 < 0.35:
            pass
        elapsed, wall = sampler.clock() - t0, time.perf_counter() - w0
    assert len(sampler.samples) >= 2
    assert sampler.spent > 0
    assert elapsed == pytest.approx(wall - sampler.spent, abs=1e-3)
    assert sampler.factor() > 0
    # A call's factor uses the samples during it and the nearest on either side.
    start, end = sampler.stamps[1], sampler.stamps[2]
    assert sampler.factor(start + 1e-6, end) == pytest.approx(
        speed.REFERENCE_S / statistics.mean(sampler.samples[1:4]))
    assert signal.getsignal(signal.SIGALRM) is previous


def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(40)]
    assert run.tail(values) == (29.0, 75.0)
    assert run.tail(values[:5]) == (4.0, 100.0)


def test_oracle_matches_known_ranks_and_graph6():
    # A path on n vertices has ceil(n/2) main eigenvalues; K_n has one.
    for n in range(2, 9):
        edges = [(v, v + 1) for v in range(n - 1)]
        assert oracle.walk_rank(n, edges) == (n + 1) // 2
        assert oracle.walk_rank(n, oracle.complement_edges(n, [])) == 1
    for n, edges in (oracle.double_star(2, 3), oracle.harmonic_tree(3),
                     oracle.pendant_cycle(5, 2)):
        g = graphs.Graph.from_edges(n, edges)
        assert oracle.graph6(n, edges) == graph6.serialize_graph6(g).decode()
    assert oracle.harmonic_tree(4)[0] == 53


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "analyze-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
