"""CLI behavior: formats, exit codes, JSON stability."""
import errno
import io
import json
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from mainspec import analysis, cli, spectra, sweeps, theorems
from mainspec.analysis import Block, RouteDisagreementError
from mainspec.graph6 import serialize_edgelist, serialize_graph6
from mainspec.graphs import (
    MAX_ORDER, FamilySpec, Graph, ParameterError, StackFacts, build_family, complete, path,
    stack_graphs)
from mainspec.theorems import TheoremReport


# Per-claim (instances, holds, fails, not-applicable) of
# `mainspec verify all --exhaustive 5` with the default families.
VERIFY5_TOTALS = {
    "P21": (1044, 150, 0, 894),
    "C22": (1044, 57, 0, 987),
    "L23": (1026, 42, 0, 984),
    "P24": (1026, 1026, 0, 0),
    "P25": (1026, 1025, 0, 1),
    "P26": (1026, 770, 0, 256),
    "T31": (1024, 1024, 0, 0),
    "P32": (1024, 1024, 0, 0),
    "C33": (1024, 855, 0, 169),
    "INEQ2": (1029, 1029, 0, 0),
    "P34": (1029, 1029, 0, 0),
    "P35": (1029, 1029, 0, 0),
    "P36": (1024, 1024, 0, 0),
    "T37": (1029, 200, 0, 829),
    "L41": (11, 11, 0, 0),
    "T42": (11, 11, 0, 0),
    "C43": (11, 11, 0, 0),
    "T44": (1029, 728, 0, 301),
    "T45": (1076, 1076, 0, 0),
    "T46": (21, 21, 0, 0),
    "COR47": (17, 17, 0, 0),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def force_verdicts(monkeypatch, tid, verdict_of):
    """Make ``theorems.check_block`` give claim ``tid`` the verdict
    ``verdict_of(g)`` on each swept graph g, as table-mode verify reads it."""
    real = theorems.check_block
    column = list(theorems.GRAPH_CHECKERS).index(tid)

    def check_block(cut):
        block = real(cut)
        block.verdicts[:, column] = [theorems.VERDICTS.index(verdict_of(g))
                                     for g in stack_graphs(cut.block.rows[cut.own])]
        return block

    monkeypatch.setattr(theorems, "check_block", check_block)


def sweep_records(monkeypatch):
    """The number of records each record build of a sweep makes, as it comes:
    the builds from a block's rows (family graphs come with their graphs)."""
    built = []
    real = sweeps.records

    def records(block, index, graphs=None, facts=None):
        if graphs is None:
            built.append(len(index))
        return real(block, index, graphs, facts)

    monkeypatch.setattr(sweeps, "records", records)
    return built


class TestAnalyze:
    def test_literal_graph6(self, capsys):
        code, out, _ = run(capsys, "analyze", "Ch")
        assert code == 0
        assert "main count: 2 (float route) / 2 (walk-matrix rank)" in out
        assert "harmonic: no" in out

    def test_cycle_harmonic(self, capsys):
        code, out, _ = run(capsys, "analyze", "Cl")
        assert code == 0
        assert "main count: 1" in out
        assert "harmonic: yes (level 2)" in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Ch\n"))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 0
        assert "graph6=Ch" in out

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "g.g6"
        p.write_text("Cs\n")
        code, out, _ = run(capsys, "analyze", str(p))
        assert code == 0
        assert "n=4 m=3" in out

    def test_non_ascii_or_unreadable_file_exit2(self, capsys, monkeypatch, tmp_path):
        p = tmp_path / "g.g6"
        p.write_bytes(b"C\xc3\xa9\n")
        assert run(capsys, "analyze", str(p)) == (2, "", (
            "error: 'ascii' codec can't decode byte 0xc3 in position 1: "
            "ordinal not in range(128)\n"))

        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, "Permission denied", path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        assert run(capsys, "analyze", str(p)) == (
            2, "", f"error: [Errno 13] Permission denied: {str(p)!r}\n")

    def test_edgelist_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "4 3\n0 1\n1 2\n2 3",
                           "--format", "edgelist")
        assert code == 0
        assert "graph6=Ch" in out

    def test_parse_error_exit2(self, capsys):
        code, _, err = run(capsys, "analyze", "###bad###")
        assert code == 2
        assert "error" in err

    def test_graph6_padding_bits_exit2(self, capsys):
        # "B~" sets the triangle's three edge bits and all three padding bits.
        assert run(capsys, "analyze", "B~") == (
            2, "", "error: non-zero padding bits (byte offset 1)\n")

    def test_edgelist_error_exit2(self, capsys):
        code, _, err = run(capsys, "analyze", "junk", "--format", "edgelist")
        assert code == 2

    def test_json_record(self, capsys):
        code, out, _ = run(capsys, "analyze", "Ch", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["graph"]["n"] == 4
        assert rec["main_count"] == {"float_route": 2, "walk_rank": 2,
                                     "used_fallback": False}
        assert rec["harmonic"] == {"is_harmonic": False, "level": None}
        assert rec["complement"]["window"] == "equals-lambda2"
        assert "generated_at" in rec

    def test_order1_has_no_complement_window(self, capsys):
        # The complement of K_1 has no lambda_2 to place -1-lambda_min against.
        code, out, _ = run(capsys, "analyze", "@", "--json")
        assert code == 0
        rec = json.loads(out)["complement"]
        assert (rec["lambda2"], rec["window"]) == (None, None)
        code, out, _ = run(capsys, "analyze", "@")
        assert code == 0
        assert "complement: lambda1=0 lambda2=n/a -1-lambda_min=-1 mains=1 [n/a]" in out
        _, out, _ = run(capsys, "analyze", "A_", "--json")  # K_2: its complement has a lambda_2
        assert json.loads(out)["complement"]["window"] == "equals-lambda1"

    def test_json_bytes_stable_modulo_timestamp(self, capsys):
        _, first, _ = run(capsys, "analyze", "FsPA?", "--json")
        _, second, _ = run(capsys, "analyze", "FsPA?", "--json")
        scrub = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', s)
        assert scrub(first) == scrub(second)
        assert first != second or json.loads(first)["generated_at"] == json.loads(second)["generated_at"]

    def test_disagreement_exit3(self, capsys, monkeypatch):
        def boom(g, **kwargs):
            raise RouteDisagreementError(2, 3)

        monkeypatch.setattr(cli, "analyze_graph", boom)
        code, _, err = run(capsys, "analyze", "Ch")
        assert code == 3
        assert "2" in err and "3" in err

    def test_unreachable_gray_rank_exit3(self, capsys, monkeypatch):
        # P_39 with one gray group but three mains short of its walk rank:
        # a route disagreement, not a re-ranking of the confident groups.
        for name, value in {"MAIN_TOL": 1e-4, "GRAY_LO": 0.1, "GRAY_HI": 0.2}.items():
            monkeypatch.setattr(spectra, name, value)
        label = serialize_graph6(path(39)).decode("ascii")
        code, out, err = run(capsys, "analyze", label)
        assert code == 3
        assert out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "found 17 main eigenvalues, walk-matrix rank is 20" in err

    def test_tiny_main_projection_in_complement_exit0(self, capsys):
        # A G(24, 0.3) whose complement has a main eigenvalue with all-ones
        # projection 3.4e-13, under the main threshold: it must land in the
        # gray band and go to the exact rank, not be counted non-main with
        # confidence (23 against walk rank 24, exit 3).
        label = "WFHX@q?CpObvq?@Hc?@GCCy?WKib@ucq`RSm@TgAAhK`U??"
        code, out, _ = run(capsys, "analyze", label, "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["main_count"]["walk_rank"] == 24
        assert rec["complement"]["main_count"] == 24


NUMERICAL_ERRORS = [spectra.AmbiguousGroupingError, spectra.ConvergenceError,
                    spectra.SpectralInvariantError]


@pytest.mark.parametrize("error", NUMERICAL_ERRORS)
@pytest.mark.parametrize("argv", [("analyze", "Ch"), ("verify", "T45", "--exhaustive", "3")],
                         ids=["analyze", "verify"])
def test_numerical_failure_exit4(capsys, monkeypatch, argv, error):
    def boom(evals, proj_sq):
        raise error("injected")

    monkeypatch.setattr(spectra, "build_groups", boom)
    code, _, err = run(capsys, *argv)
    assert code == 4
    assert err == "error: numerical check failed: injected\n"


@pytest.mark.parametrize("error, code, line", [
    (ParameterError("injected"), cli.EXIT_USAGE, "error: injected"),
    (RouteDisagreementError(2, 3), cli.EXIT_DISAGREE, "error: cross-check disagreement: "
     "float route found 2 main eigenvalues, walk-matrix rank is 3"),
    (spectra.ConvergenceError("injected"), cli.EXIT_NUMERICAL,
     "error: numerical check failed: injected"),
    (sweeps.WorkerLost("injected"), cli.EXIT_WORKER_LOST, "error: injected"),
    (KeyboardInterrupt(), cli.EXIT_INTERRUPTED, "error: interrupted"),
], ids=["usage", "disagreement", "numerical", "worker-lost", "interrupt"])
@pytest.mark.parametrize("argv", [("analyze", "Ch"), ("verify", "T45", "--exhaustive", "3")],
                         ids=["analyze", "verify"])
def test_main_maps_each_failure_to_its_exit_code(capsys, monkeypatch, argv, error, code, line):
    # Raised from inside the command, where the analyses run: main alone turns
    # it into the exit code and the one error line.
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "analyze_graph", boom)
    monkeypatch.setattr(sweeps, "cuts", boom)
    assert run(capsys, *argv) == (code, "", line + "\n")


def _mainspec_env():
    """This environment, with the tested ``mainspec`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path_env = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path_env)


def test_an_error_after_buffered_output_to_a_closed_reader_exit5():
    # The --json reports of the sweep sit in stdout's buffer when the family
    # checks fail: the error line is printed, then the flush meets the closed
    # pipe.  A flush made only on success would leave it to interpreter exit,
    # which prints "Exception ignored" and exits 120.
    script = ("import sys\n"
              "from mainspec import cli, spectra\n"
              "def late(*args):\n"
              "    raise spectra.ConvergenceError('injected')\n"
              "cli._family_pairs = late\n"
              "sys.exit(cli.main(['verify', 'T45', '--exhaustive', '2', '--json']))\n")
    env = _mainspec_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", script], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == cli.EXIT_CLOSED_STDOUT
    assert proc.stderr == b"error: numerical check failed: injected\n"


def test_lapack_failure_exit4(capsys, monkeypatch):
    # The real raise site: the solver itself reports no convergence.
    def no_convergence(mats):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    code, out, err = run(capsys, "analyze", "EhCG")
    assert code == 4
    assert out == ""
    assert err == ("error: numerical check failed: "
                   "Eigenvalues did not converge (n=6)\n")


class TestGenerate:
    @pytest.mark.parametrize("argv,expected", [
        (("path", "4"), "Ch"),
        (("cycle", "4"), "Cl"),
        (("star", "4"), "Cs"),
        (("completebipartite", "3", "3"), "EFz_"),
        (("doublestar", "2", "3"), "FsPA?"),
    ])
    def test_frozen_lines(self, capsys, argv, expected):
        code, out, _ = run(capsys, "generate", *argv)
        assert code == 0
        assert out == expected + "\n"

    def test_pendant_q_token_optional(self, capsys):
        _, with_q, _ = run(capsys, "generate", "pendant", "cycle", "5", "q", "2")
        _, without, _ = run(capsys, "generate", "pendant", "cycle", "5", "2")
        assert with_q == without
        assert len(with_q.strip()) > 0

    def test_harmonictree_order(self, capsys):
        code, out, _ = run(capsys, "generate", "harmonictree", "3")
        from mainspec.graph6 import parse_graph6
        assert parse_graph6(out.strip()).n == 22

    def test_unknown_family_exit2(self, capsys):
        code, _, err = run(capsys, "generate", "mobius", "5")
        assert code == 2
        assert "unknown family" in err

    def test_bad_parameter_exit2(self, capsys):
        code, _, err = run(capsys, "generate", "doublestar", "0", "3")
        assert code == 2

    def test_non_integer_exit2(self, capsys):
        code, _, err = run(capsys, "generate", "path", "four")
        assert code == 2

    @pytest.mark.parametrize("argv", [("pendant", "cycle"), ("pendant", "3")])
    def test_pendant_without_base_or_count_exit2(self, capsys, argv):
        code, _, err = run(capsys, "generate", *argv)
        assert code == 2
        assert err == "error: pendant needs a base family and a pendant count\n"

    def test_pendant_irregular_base_exit2(self, capsys):
        code, _, err = run(capsys, "generate", "pendant", "path", "4", "2")
        assert code == 2


class TestVerify:
    def test_t45_small_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "T45", "--exhaustive", "4")
        assert code == 0
        assert "T45:" in out
        assert "0 fails" in out.replace("0 fails,", "0 fails,")  # summary line present
        assert "failure(s)" in out

    def test_paths_range(self, capsys):
        code, out, _ = run(capsys, "verify", "C43", "--paths", "2..10")
        assert code == 0
        assert "C43: 9 instances" in out

    def test_all_order3(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--exhaustive", "3")
        assert code == 0
        for tid in ("P21", "T31", "COR47"):
            assert f"{tid}:" in out

    def test_connected_bipartite_filters(self, capsys):
        code, out, _ = run(capsys, "verify", "T37", "--exhaustive", "4",
                           "--connected", "--bipartite")
        assert code == 0

    def test_connected_filter_count(self, capsys):
        # 38 connected labeled graphs on 4 vertices plus 52 family extras
        code, out, _ = run(capsys, "verify", "T45", "--exhaustive", "4", "--connected")
        assert code == 0
        assert "T45: 90 instances" in out

    def test_order5_totals_are_pinned(self, capsys):
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        assert (code, err) == (0, "")
        got = {m[1]: tuple(map(int, m.groups()[1:])) for m in re.finditer(
            r"^(\w+): (\d+) instances — (\d+) holds, (\d+) fails, (\d+) not-applicable$",
            out, re.M)}
        assert got == VERIFY5_TOTALS
        assert out.endswith("verified 21 claim(s) over 16580 instance(s): 0 failure(s)\n")

    @pytest.mark.parametrize("argv,note", [
        (("--exhaustive", "8"), "268,435,456"),
        (("--exhaustive", "7"), "2,097,152"),
        (("--exhaustive", "6"), None),
        (("--exhaustive", "8", "--sample", "16"), None),
    ])
    def test_long_sweep_is_announced(self, capsys, monkeypatch, argv, note):
        monkeypatch.setattr(sweeps, "cuts", lambda n, **kwargs: iter(()))
        code, _, err = run(capsys, "verify", "P32", *argv)
        assert code == 0
        if note is None:
            assert err == ""
        else:
            assert len(err.splitlines()) == 1
            assert note in err and "--sample K" in err

    def test_sampled_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "T45", "--exhaustive", "7",
                           "--sample", "64")
        assert code == 0
        # 64 sampled graphs plus their complements plus family extras
        assert "T45:" in out

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "T46", "--doublestars", "3", "--json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert all("verdict" in rec for rec in lines[:-1])
        assert lines[-1]["record"] == "summary"
        assert lines[-1]["failures"] == 0

    def test_bad_range_exit2(self, capsys):
        code, _, err = run(capsys, "verify", "P21", "--paths", "9..3")
        assert code == 2

    def test_bad_exhaustive_exit2(self, capsys):
        code, _, err = run(capsys, "verify", "P21", "--exhaustive", "99")
        assert code == 2

    def test_negative_sample_exit2(self, capsys):
        code, out, err = run(capsys, "verify", "T45", "--exhaustive", "4", "--sample", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: --sample must be >= 0\n"

    @pytest.mark.parametrize("raw", ["x", "2..y", "..", "3.5"])
    def test_non_integer_range_exit2(self, capsys, raw):
        code, out, err = run(capsys, "verify", "C43", "--paths", raw)
        assert (code, out, err) == (2, "", f"error: bad path range {raw!r}\n")

    @pytest.mark.parametrize("argv,flag", [
        (("--doublestars", "-2"), "--doublestars"),
        (("--krr", "-1"), "--krr"),
        (("--harmonictrees", "-5"), "--harmonictrees"),
        (("--pendants", "3", "-1"), "--pendants"),
        (("--pendants", "-3", "1"), "--pendants"),
    ])
    def test_negative_family_size_exit2(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "3", *argv)
        assert (code, out, err) == (2, "", f"error: {flag} must be >= 0\n")

    def test_unknown_id_exit2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "ZZZ"])
        assert exc.value.code == 2

    def test_forced_failure_exit1(self, capsys, monkeypatch):
        force_verdicts(monkeypatch, "T45", lambda g: theorems.FAILS)
        code, out, _ = run(capsys, "verify", "T45", "--exhaustive", "3")
        assert code == 1
        assert "FAIL" in out

    def test_table_mode_builds_no_records(self, capsys, monkeypatch):
        # Table mode decides and counts every swept graph from its cut's
        # columns; with nothing to report it builds no record of a swept graph.
        built = sweep_records(monkeypatch)
        code, out, _ = run(capsys, "verify", "all", "--exhaustive", "5")
        assert code == 0 and "T45: 1076 instances — 1076 holds" in out
        assert built == []

    def test_table_mode_builds_records_only_for_the_failures_it_keeps(
            self, capsys, monkeypatch):
        # T45 forced to fail on all 1,024 order-5 graphs: the tally keeps the
        # first 20 by mask, and each of those, and nothing else, has the
        # records of its pair built, for the per-graph checker's report.
        built = sweep_records(monkeypatch)
        force_verdicts(monkeypatch, "T45", lambda g: theorems.FAILS)
        code, out, _ = run(capsys, "verify", "all", "--exhaustive", "5")
        assert code == 1 and out.count("  FAIL ") == 20
        assert "T45: 1076 instances — 52 holds, 1024 fails" in out
        assert built == [2] * 20

    def test_verify_json_reports_are_stable(self, capsys):
        _, first, _ = run(capsys, "verify", "C43", "--paths", "2..6", "--json")
        _, second, _ = run(capsys, "verify", "C43", "--paths", "2..6", "--json")
        strip = lambda s: [l for l in s.splitlines() if '"summary"' not in l]
        assert strip(first) == strip(second)


def _refused(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def _forbid(*args, **kwargs):
    raise AssertionError("an over-cap input got past its cap")


class TestCaps:
    """Inputs over the order, input-length or sample cap exit 2 before anything
    is built, analysed or sampled; each cap itself is accepted."""

    def test_generate_over_order_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(Graph, "from_edges", staticmethod(_forbid))
        code, out, err = run(capsys, "generate", "path", str(MAX_ORDER + 1))
        _refused(code, out, err)
        assert f"path({MAX_ORDER + 1}) has order {MAX_ORDER + 1}" in err

    def test_generate_at_order_cap(self, capsys):
        code, out, _ = run(capsys, "generate", "path", str(MAX_ORDER))
        assert code == 0
        assert out.encode() == serialize_graph6(path(MAX_ORDER)) + b"\n"

    def test_analyze_over_order_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "analyze_graph", _forbid)
        empty = serialize_graph6(Graph(MAX_ORDER + 1, (0,) * (MAX_ORDER + 1)))
        code, out, err = run(capsys, "analyze", empty.decode())
        _refused(code, out, err)
        assert f"order {MAX_ORDER + 1}" in err

    def test_analyze_edgelist_over_order_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(Graph, "from_edges", staticmethod(_forbid))
        code, out, err = run(capsys, "analyze", f"{MAX_ORDER + 1} 0\n", "--format", "edgelist")
        _refused(code, out, err)
        assert f"order {MAX_ORDER + 1}" in err

    def test_analyze_at_order_cap(self, capsys):
        empty = serialize_graph6(Graph(MAX_ORDER, (0,) * MAX_ORDER))
        code, out, _ = run(capsys, "analyze", empty.decode())
        assert code == 0
        assert "main count: 1 (float route) / 1 (walk-matrix rank)" in out

    def test_analyze_over_input_cap(self, capsys, monkeypatch, tmp_path):
        # An endless stdin and an over-cap file are refused after one read of
        # at most MAX_INPUT + 1 characters, before anything is parsed.
        class Endless:
            def read(self, size=-1):
                assert 0 <= size <= cli.MAX_INPUT + 1, size
                return "y\n" * size

        monkeypatch.setattr(cli, "_parse_graph", _forbid)
        monkeypatch.setattr("sys.stdin", Endless())
        code, out, err = run(capsys, "analyze", "-")
        _refused(code, out, err)
        assert f"stdin holds more than {cli.MAX_INPUT:,} characters" in err
        big = tmp_path / "big.g6"
        big.write_text("?" * (cli.MAX_INPUT + 1))
        code, out, err = run(capsys, "analyze", str(big))
        _refused(code, out, err)
        assert f"holds more than {cli.MAX_INPUT:,} characters" in err

    def test_analyze_at_input_cap(self, capsys, tmp_path):
        # The longest well-formed input at the order cap, K_200 as a CRLF
        # edge list, fits under the input cap and is analysed.
        text = serialize_edgelist(complete(MAX_ORDER)).replace("\n", "\r\n")
        assert len(text) <= cli.MAX_INPUT
        k = tmp_path / "k200.txt"
        k.write_bytes(text.encode("ascii"))
        code, out, _ = run(capsys, "analyze", str(k), "--format", "edgelist")
        assert code == 0
        assert f"n={MAX_ORDER} m={MAX_ORDER * (MAX_ORDER - 1) // 2}" in out

    @pytest.mark.parametrize("argv,largest", [
        # harmonic tree T_7 has order 7^3 - 7^2 + 7 + 1 = 302
        (("--harmonictrees", "7"), "harmonictree(7) has order 302"),
        (("--paths", f"2..{MAX_ORDER + 1}"), f"path({MAX_ORDER + 1})"),
        (("--doublestars", "100"), "doublestar(100,100) has order 202"),
        (("--krr", "101"), "completebipartite(101,101) has order 202"),
        (("--pendants", "101", "1"), "pendant(cycle(101),q=1) has order 202"),
    ])
    def test_verify_family_over_order_cap(self, capsys, monkeypatch, argv, largest):
        # refused before any family graph is built or any sweep runs
        monkeypatch.setattr(cli, "build_family", _forbid)
        monkeypatch.setattr(sweeps, "cuts", _forbid)
        code, out, err = run(capsys, "verify", "T45", *argv)
        _refused(code, out, err)
        assert largest in err

    def test_sample_over_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "sample_masks", _forbid)
        code, out, err = run(capsys, "verify", "P32", "--exhaustive", "8",
                             "--sample", str(sweeps.MAX_SAMPLE + 1))
        _refused(code, out, err)
        assert f"{sweeps.MAX_SAMPLE:,}" in err

    def test_sample_at_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(sweeps, "sample_masks", lambda n, size: np.zeros(0, dtype=np.int64))
        monkeypatch.setattr(sweeps, "cuts", lambda n, **kwargs: iter(()))
        code, _, err = run(capsys, "verify", "P32", "--exhaustive", "8",
                           "--sample", str(sweeps.MAX_SAMPLE))
        assert (code, err) == (0, "")


def test_closed_stdout_exit5_without_traceback():
    # `verify ... --json | head -1`: the reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "mainspec", "verify", "all", "--exhaustive", "5", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_mainspec_env())
    try:
        assert proc.stdout.readline().startswith(b'{"theorem_id": ')
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (cli.EXIT_CLOSED_STDOUT, b"")


def test_an_interrupt_exits_130_without_traceback():
    # SIGINT to the calling process alone, as a sweep's long run is under way:
    # it reaps its workers, so the pipes they inherited close and communicate
    # returns; a worker left alive would hold them open until the timeout.
    # A background job of a shell starts with SIGINT ignored, and a child
    # inherits that; a handled SIGINT is reset to the default across exec.
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "mainspec", "verify", "all", "--exhaustive", "7"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_mainspec_env())
    finally:
        signal.signal(signal.SIGINT, handler)
    try:
        assert proc.stderr.readline().startswith(b"note: --exhaustive 7 sweeps all ")
        time.sleep(1.0)  # past the fork, into the sweep
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == cli.EXIT_INTERRUPTED
    assert b"Traceback" not in err
    assert err.decode().splitlines()[-1] == "error: interrupted"
    assert out == b""


def _process_state(pid):
    """The state letter of process ``pid`` ('R', 'S', 'Z', ...), None once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def test_a_killed_verify_takes_its_worker_with_it():
    # SIGTERM, which Python does not handle, ends the calling process at once:
    # no finally runs, so only the kernel's parent-death signal can stop the
    # worker; left alone it would sweep for minutes under init.
    script = ("import os, sys\n"
              "from mainspec import cli\n"
              "os.sched_getaffinity = lambda pid: {0, 1}  # one worker on any machine\n"
              "sys.exit(cli.main(['verify', 'all', '--exhaustive', '7']))\n")
    worker = None
    with subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, env=_mainspec_env()) as proc:
        try:
            assert proc.stderr.readline().startswith(b"note: --exhaustive 7 sweeps all ")
            children = f"/proc/{proc.pid}/task/{proc.pid}/children"
            deadline = time.monotonic() + 30
            while worker is None and time.monotonic() < deadline:
                with open(children) as fh:
                    worker = next(map(int, fh.read().split()), None)
                time.sleep(0.05)
            assert worker is not None, "no worker was forked"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == -signal.SIGTERM
            deadline = time.monotonic() + 5
            while _process_state(worker) not in (None, "Z") and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _process_state(worker) in (None, "Z")
        finally:
            if worker is not None and _process_state(worker) not in (None, "Z"):
                os.kill(worker, signal.SIGKILL)
            proc.kill()


def test_the_cached_parser_keeps_no_state_between_calls(capsys, monkeypatch):
    # One process, one parser: every call must print what it prints in a
    # process of its own, whatever the calls before it set or failed on.
    calls = [
        ["verify", "P32", "--exhaustive", "4", "--json"],
        ["verify", "P32", "--exhaustive", "4"],
        ["analyze", "4 3\n0 1\n1 2\n2 3", "--format", "edgelist"],
        ["analyze", "Cl"],
        ["verify", "P32", "--exhaustive", "four"],
        ["verify", "C43", "--paths", "3..5"],
    ]
    scrub = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', s)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    env = _mainspec_env()
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "mainspec", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        fresh.append((proc.returncode, scrub(proc.stdout), proc.stderr))
    shared = []
    for argv in calls:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        shared.append((code, scrub(out), err))
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0]
    assert shared == fresh


def test_usage_without_command():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def _take(block, index):
    """Rows ``index`` of a sweep block, every column with them."""
    return Block(*(c[index] for c in block[:-1]), StackFacts(*(c[index] for c in block.facts)))


def _disagreeing_complements(cut):
    """``cut`` with each complement read from a row of its own, a copy whose
    float count disagrees with its walk rank; G's rows are left as they are."""
    co = _take(cut.block, cut.co)
    co.s_float[:] = co.rank + 1
    rows = len(cut.block.rank)
    return cut._replace(block=sweeps._join([cut.block, co]), co=np.arange(rows, rows + len(cut.co)))


def test_complement_disagreement_in_sweep_exit3(capsys, monkeypatch):
    real = sweeps.cuts

    def cuts(n, **kwargs):
        for cut in real(n, **kwargs):
            yield _disagreeing_complements(cut)

    monkeypatch.setattr(sweeps, "cuts", cuts)
    code, out, err = run(capsys, "verify", "T45", "--exhaustive", "3")
    assert code == 3
    assert "0 fails" in out  # T45 reads G's analysis only, which agrees
    assert "cross-check disagreement" in err


def test_complement_disagreement_in_family_exit3(capsys, monkeypatch):
    target = path(5).complement().adjacency_matrix()
    real = sweeps.analyze_stack

    def analyze_stack(adj, rows=None):
        block = real(adj, rows)
        hit = (adj == target).all(axis=(1, 2))
        block.s_float[hit] = block.rank[hit] + 1
        return block

    monkeypatch.setattr(sweeps, "analyze_stack", analyze_stack)
    code, out, err = run(capsys, "verify", "C43", "--paths", "5..5")
    assert code == 3
    assert "C43: 1 instances — 1 holds" in out
    assert "cross-check disagreement" in err


def test_verify_analyses_each_family_graph_once(capsys, monkeypatch):
    stacks = []
    batch = spectra.eigen_decompose_batch

    def recording(mats):
        stacks.append(mats.copy())
        return batch(mats)

    single = []
    for module in (analysis, theorems, cli):
        real = module.analyze_graph
        monkeypatch.setattr(module, "analyze_graph",
                            lambda g, real=real, **kw: single.append(g) or real(g, **kw))
    monkeypatch.setattr(spectra, "eigen_decompose_batch", recording)
    code, _, _ = run(capsys, "verify", "all", "--exhaustive", "3")
    assert code == 0
    assert single == []
    sweep_stack, *family_stacks = stacks
    assert sweep_stack.shape == (8, 3, 3)  # the order-3 population, complements included
    orders = [s.shape[1] for s in family_stacks]
    assert len(orders) == len(set(orders))  # one stack per order
    # the default families: --paths 2..12, --doublestars 6, --krr 5,
    # --harmonictrees 3, --pendants 8 3
    specs = [FamilySpec("path", (n,)) for n in range(2, 13)]
    specs += [FamilySpec("doublestar", (k, s)) for k in range(1, 7) for s in range(k, 7)]
    specs += [FamilySpec("completebipartite", (r, r)) for r in range(1, 6)]
    specs += [FamilySpec("harmonictree", (ell,)) for ell in (2, 3)]
    specs += [FamilySpec("pendant", (q,), base=FamilySpec("cycle", (p,)))
              for p in range(3, 9) for q in range(1, 4)]
    expected = {h.adjacency_matrix().tobytes()
                for g in map(build_family, specs) for h in (g, g.complement())}
    rows = [m.tobytes() for s in family_stacks for m in s]
    assert len(rows) == len(set(rows))
    assert set(rows) == expected


class TestSplitSweep:
    """Table-mode verify splits its sweep into one share per usable CPU, and
    ``--json``'s sweep takes its cuts from one forked producer; the output is
    the one a single process gives, and no worker outlives a run."""

    @pytest.fixture(autouse=True)
    def small_split(self, monkeypatch):
        monkeypatch.setattr(sweeps, "_MIN_SPLIT", 1)  # fork at any order
        self.forks = 0
        fork = os.fork

        def counting():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "fork", counting)

    @staticmethod
    def cpus(monkeypatch, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))

    @staticmethod
    def no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def both(self, capsys, monkeypatch, *argv):
        """(code, out, err) with one CPU, then with three."""
        self.cpus(monkeypatch, 1)
        single = run(capsys, *argv)
        assert self.forks == 0
        self.cpus(monkeypatch, 3)
        split = run(capsys, *argv)
        self.no_children()
        return single, split

    @pytest.mark.parametrize("argv, forks", [
        (("--exhaustive", "5"), 2),
        (("--exhaustive", "5", "--connected", "--bipartite"), 2),
        (("--exhaustive", "7", "--sample", "2048"), 2),
        (("--exhaustive", "2"), 0),  # one representative mask: one share
        (("--exhaustive", "1"), 0),  # mask 0 is its own complement
    ])
    def test_shares_print_what_one_share_prints(self, capsys, monkeypatch, argv, forks):
        single, split = self.both(capsys, monkeypatch, "verify", "all", *argv)
        assert single == split
        assert single[0] == 0
        assert self.forks == forks

    def test_failures_are_reported_by_mask(self, capsys, monkeypatch):
        # The claim fails in every share, only on graphs with the top edge
        # (3, 4): the complement half of each chunk, swept after its
        # representatives.  The witnesses printed are those of the 20 smallest masks.
        def failing(g):
            return g.rows[4] >> 3 & 1 and g.m % 3 == 1

        def fails(g, *, analysis, co):  # the report of a failing graph
            return TheoremReport("P32", g, theorems.FAILS, {"m": g.m})

        force_verdicts(monkeypatch, "P32",
                       lambda g: theorems.FAILS if failing(g) else theorems.HOLDS)
        monkeypatch.setitem(theorems.GRAPH_CHECKERS, "P32", fails)
        single, split = self.both(capsys, monkeypatch, "verify", "P32", "--exhaustive", "5")
        assert single == split
        code, out, _ = split
        graphs = [Graph.from_edge_mask(5, m) for m in range(sweeps.mask_population(5))]
        failed = [g for g in graphs if failing(g)]
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == (f"P32: 1024 instances — {1024 - len(failed)} holds, "
                            f"{len(failed)} fails, 0 not-applicable")
        assert lines[1:21] == [f'  FAIL {serialize_graph6(g).decode()}: {{"m": {g.m}}}'
                               for g in failed[:20]]
        assert lines[21] == f"  ... and {len(failed) - 20} more failures"

    def test_table_failures_are_the_json_reports_tallied(self, capsys, monkeypatch):
        # TOL_EQ widened so that P25, T31, P32, C33 and P36 fail on hundreds of
        # order-5 graphs.  Table mode counts block verdicts and builds a report
        # only for a failure it prints; it must print the per-claim tallies of
        # the --json reports, every one built by a per-graph checker: the same
        # counts, the first 20 FAIL lines by mask, the same remainder.
        monkeypatch.setattr(theorems, "TOL_EQ", 0.05)
        self.cpus(monkeypatch, 1)
        code, out, _ = run(capsys, "verify", "all", "--exhaustive", "5", "--json")
        assert code == 1
        records = [json.loads(line) for line in out.splitlines()[:-1]]
        lines, failures = [], 0
        for tid in theorems.ALL_IDS:
            reports = [r for r in records if r["theorem_id"] == tid]
            failed = [r for r in reports if r["verdict"] == theorems.FAILS]
            holds = sum(r["verdict"] == theorems.HOLDS for r in reports)
            lines.append(f"{tid}: {len(reports)} instances — {holds} holds, {len(failed)} fails, "
                         f"{len(reports) - holds - len(failed)} not-applicable")
            lines += [f"  FAIL {r['instance']}: {json.dumps(r['witnesses'])}" for r in failed[:20]]
            if len(failed) > 20:
                lines.append(f"  ... and {len(failed) - 20} more failures")
            failures += len(failed)
        lines.append(f"verified 21 claim(s) over {len(records)} instance(s): "
                     f"{failures} failure(s)")
        assert failures > 1000
        single, split = self.both(capsys, monkeypatch, "verify", "all", "--exhaustive", "5")
        assert single == split == (1, "\n".join(lines) + "\n", "")

    def in_worker(self, monkeypatch, action):
        """Make ``sweeps.cuts`` run ``action`` on each cut in the workers, not
        in this process."""
        parent = os.getpid()
        real = sweeps.cuts

        def cuts(n, **kwargs):
            for cut in real(n, **kwargs):
                yield cut if os.getpid() == parent else action(cut)

        monkeypatch.setattr(sweeps, "cuts", cuts)

    def test_numerical_error_in_a_worker_exit4(self, capsys, monkeypatch):
        def fail(cut):
            raise spectra.SpectralInvariantError("injected")

        self.in_worker(monkeypatch, fail)
        self.cpus(monkeypatch, 2)
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        self.no_children()
        assert (code, out, err) == (cli.EXIT_NUMERICAL, "",
                                    "error: numerical check failed: injected\n")

    def test_disagreement_in_a_worker_exit3(self, capsys, monkeypatch):
        self.in_worker(monkeypatch, _disagreeing_complements)
        self.cpus(monkeypatch, 2)
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        self.no_children()
        assert code == cli.EXIT_DISAGREE
        assert out.endswith("verified 21 claim(s) over 16580 instance(s): 0 failure(s)\n")
        assert err == ("error: cross-check disagreement between float route and "
                       "walk-matrix rank\n")

    def test_a_worker_that_exits_without_a_result_exit6(self, capsys, monkeypatch):
        self.in_worker(monkeypatch, lambda cut: os._exit(3))
        self.cpus(monkeypatch, 3)
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        self.no_children()
        assert (code, out) == (cli.EXIT_WORKER_LOST, "")
        assert err == "error: a sweep worker ended without a result (exit status 3)\n"

    def test_a_worker_that_fails_outside_the_checks_exit6(self, capsys, monkeypatch):
        def fail(cut):
            raise KeyError("injected")

        self.in_worker(monkeypatch, fail)
        self.cpus(monkeypatch, 2)
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        self.no_children()
        assert (code, out) == (cli.EXIT_WORKER_LOST, "")
        assert err == "error: a sweep worker ended without a result (KeyError: 'injected')\n"

    def test_workers_are_reaped_when_this_process_is_interrupted(self, capsys, monkeypatch):
        parent = os.getpid()
        real = sweeps.cuts

        def cuts(n, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            yield from real(n, **kwargs)

        monkeypatch.setattr(sweeps, "cuts", cuts)
        self.cpus(monkeypatch, 3)
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "5")
        assert (code, out, err) == (cli.EXIT_INTERRUPTED, "", "error: interrupted\n")
        assert self.forks == 2
        self.no_children()

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_a_worker_that_cannot_be_started_exit6(self, capsys, monkeypatch, call):
        # Out of processes at the fork, or of descriptors at the pipe: nothing
        # opened for the worker is left open.
        def fail():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, call, fail)
        self.cpus(monkeypatch, 2)
        fds = len(os.listdir("/proc/self/fd"))
        code, out, err = run(capsys, "verify", "all", "--exhaustive", "6")
        assert len(os.listdir("/proc/self/fd")) == fds
        self.no_children()
        assert (code, out) == (cli.EXIT_WORKER_LOST, "")
        assert err == ("error: a sweep worker could not be started (BlockingIOError: "
                       "[Errno 11] Resource temporarily unavailable)\n")

    @pytest.mark.parametrize("argv", [
        ("--exhaustive", "5", "--json"),
        ("--exhaustive", "7", "--sample", "2048", "--json"),
        ("--exhaustive", "5"),
    ], ids=["order5-json", "order7-sample-json", "order5"])
    def test_one_cpu_never_forks(self, capsys, monkeypatch, argv):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        self.cpus(monkeypatch, 1)
        code, _, err = run(capsys, "verify", "all", *argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ("--exhaustive", "5"),
        ("--exhaustive", "5", "--connected", "--bipartite"),
        ("--exhaustive", "7", "--sample", "2048"),
    ], ids=["order5", "order5-filtered", "order7-sample"])
    def test_json_forks_one_producer_and_prints_what_one_process_prints(
            self, capsys, monkeypatch, argv):
        # However many CPUs, --json forks one process, the sweep's producer;
        # cuts of 256 masks give each sweep several, so there is one to fork.
        monkeypatch.setattr(sweeps, "_BLOCK", 256)
        scrub = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', s)
        single, split = self.both(capsys, monkeypatch, "verify", "all", *argv, "--json")
        assert self.forks == 1
        assert single[0] == 0 and single[2] == ""
        assert (single[0], scrub(single[1]), single[2]) == (split[0], scrub(split[1]), split[2])
