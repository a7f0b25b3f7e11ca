"""Joint float/exact analysis of graphs, one stack at a time.

This is where the two independent routes meet: the float spectrum with the
main flags ``spectra.build_groups`` gives its groups, and the exact integer
walk-matrix rank.  Only gray groups are settled by the exact count.  A float
count that still contradicts the rank is a hard error, never papered over.
``finish_block`` runs everything after the eigensolver over a stack of
graphs and returns one ``Block`` of columns; ``records`` is the one builder
of ``GraphAnalysis`` records from a block's rows.  ``analyze_graph`` is a
stack of one, and ``sweeps.analyze_stack`` passes a sweep's blocks and
``verify``'s family stacks, each of at most ``sweeps._BLOCK`` graphs.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import exact, spectra
from .graphs import Graph, StackFacts, stack_facts, stack_graphs, store_facts


class RouteDisagreementError(RuntimeError):
    """The float route's own main count contradicts the exact walk-matrix rank."""

    def __init__(self, s_float: int, rank: int):
        super().__init__(f"float route found {s_float} main eigenvalues, "
                         f"walk-matrix rank is {rank}")
        self.s_float = s_float
        self.rank = rank


class GraphAnalysis(NamedTuple):
    """Everything the checkers need about one graph, as a named tuple.

    ``s_float`` is the float route's own main count: None when the exact rank
    settled the gray groups, the plain threshold count when it cannot (each
    gray group main iff its projection clears ``MAIN_TOL * n``), else the
    spectrum's.  ``spectrum`` carries the flags that count stands for.
    """

    graph: Graph
    spectrum: spectra.MainSpectrum
    rank: int
    s_float: int | None
    harmonic_level: int | None

    @property
    def used_fallback(self) -> bool:
        """The exact rank settled the gray groups."""
        return self.s_float is None

    @property
    def disagrees(self) -> bool:
        """The float route's own count contradicts the exact rank."""
        return self.s_float is not None and self.s_float != self.rank

    @property
    def main_count(self) -> int:
        return self.spectrum.main_count

    @property
    def is_harmonic(self) -> bool:
        return self.harmonic_level is not None

    def eigenvalue(self, index: int) -> float:
        """Eigenvalue by sorted position (0 = largest), honoring multiplicities."""
        pos = 0
        for grp in self.spectrum.groups:
            pos += grp.multiplicity
            if index < pos:
                return grp.value
        raise IndexError(index)

    @property
    def lambda_min(self) -> float:
        return self.spectrum.groups[-1].value

    @property
    def lambda_max(self) -> float:
        return self.spectrum.groups[0].value


def resolve_spectrum(
    spectrum: spectra.MainSpectrum, flags: list[bool], gray: list[int], rank: int
) -> tuple[spectra.MainSpectrum, int | None, bool]:
    """Settle the gray groups with the exact rank; returns (final, s_float, fallback).

    ``spectrum`` carries ``build_groups``' flags, None on the ``gray`` groups,
    and ``flags`` its ``main`` column for the same groups: every group's
    threshold flag, gray ones included.  A rank the gray groups cannot reach
    leaves them their threshold flags and s_float the threshold count: a
    disagreement for the caller to surface.
    """
    if not gray:
        return spectrum, spectrum.main_count, False
    try:
        return spectra.resolve_with_rank(spectrum, rank), None, True
    except ValueError:
        spectrum = spectra.MainSpectrum(tuple(
            grp._replace(is_main=flag) for grp, flag in zip(spectrum.groups, flags)))
        return spectrum, spectrum.main_count, False


class Block(NamedTuple):
    """The analyses of B graphs of one order n, as a named tuple of arrays.

    The group columns are (B, n + 1), padded as ``spectra.build_groups`` pads
    them, with every gray group settled; the rest is (B,), nan where a
    ``GraphAnalysis`` holds None.  A sweep block also holds its (B, n) int64
    neighbor bitmasks and their ``graphs.stack_facts`` columns.
    """

    value: np.ndarray
    mult: np.ndarray
    proj: np.ndarray
    main: np.ndarray
    count: np.ndarray
    rank: np.ndarray
    s_float: np.ndarray
    level: np.ndarray
    rows: np.ndarray | None = None
    facts: StackFacts | None = None


def finish_block(adj: np.ndarray, evals: np.ndarray, proj_sq: np.ndarray,
                 rows: np.ndarray | None = None) -> Block:
    """Everything after the eigensolver for a (B, n, n) adjacency stack with
    sorted eigenvalues ``evals``, all-ones projections ``proj_sq`` and, for a
    sweep block, neighbor bitmasks ``rows``: each layer runs once over the
    stack, and only a row with a gray group is settled alone, by its exact
    rank (``resolve_spectrum``).  A disagreement is left in the columns."""
    cols = spectra.build_groups(evals, proj_sq)
    adj = adj.astype(np.int64)
    rank = np.array(exact.walk_ranks(adj), dtype=np.int64)
    main, s_float = cols.main, cols.main.sum(axis=1, dtype=float)
    gray = np.flatnonzero(cols.gray.any(axis=1))
    for b, grp in zip(gray.tolist(), spectra.group_rows(*(c[gray] for c in cols))):
        spectrum, s, _ = resolve_spectrum(spectra.MainSpectrum(grp), main[b, :len(grp)].tolist(),
                                          np.flatnonzero(cols.gray[b]).tolist(), int(rank[b]))
        main[b, :len(grp)] = [x.is_main for x in spectrum.groups]
        s_float[b] = np.nan if s is None else s
    return Block(cols.value, cols.mult, cols.proj, main, cols.count, rank, s_float,
                 np.array(exact.harmonic_levels(adj), dtype=float), rows,
                 None if rows is None else stack_facts(rows))


def records(block: Block, index: Sequence[int] | np.ndarray,
            graphs: Sequence[Graph] | None = None,
            facts: np.ndarray | None = None) -> list[GraphAnalysis]:
    """The ``GraphAnalysis`` records of rows ``index`` of ``block``: the one
    builder of records.  The graphs are ``graphs`` or are built from the
    block's rows, and those ``facts`` picks get their ``graphs.facts``
    record from its fact columns."""
    index = np.asarray(index, dtype=np.intp)
    if graphs is None:
        graphs = stack_graphs(block.rows[index])
        if facts is not None:
            store_facts([g for g, f in zip(graphs, facts.tolist()) if f],
                        StackFacts(*(c[index[facts]] for c in block.facts)))
    spectrums = map(spectra.MainSpectrum, spectra.group_rows(*(c[index] for c in block[:5])))
    return [GraphAnalysis(g, spectrum, rank, None if s != s else int(s),
                          None if level != level else int(level))
            for g, spectrum, rank, s, level in zip(
                graphs, spectrums, *(c[index].tolist() for c in block[5:8]))]


def analyze_graph(g: Graph) -> GraphAnalysis:
    """Run both routes on one graph and reconcile them.

    Raises RouteDisagreementError when the float count and the exact rank
    differ; that situation means a real bug (or a tolerance failure) and
    must abort the caller visibly.  A caller that needs the disagreement as
    data takes its analyses from ``sweeps.analyze_stack`` instead.
    """
    dec = spectra.eigen_decompose(g)
    block = finish_block(g.adjacency_matrix()[None], dec.eigenvalues[None],
                         (dec.eigenvectors.sum(axis=0) ** 2)[None])
    (result,) = records(block, [0], [g])
    if result.disagrees:
        raise RouteDisagreementError(result.s_float, result.rank)
    return result
