"""Joint float/exact analysis of graphs, one stack at a time.

This is where the two independent routes meet: the float spectrum with the
main flags ``spectra.build_groups`` gives its groups, and the exact integer
walk-matrix rank.  Only gray groups are settled by the exact count.  A float
count that still contradicts the rank is a hard error, never papered over.
``finish_analyses`` runs everything after the eigensolver over a stack of
graphs; ``analyze_graph`` is a stack of one, and ``sweeps.analyze_stack``
passes whole sweep chunks and ``verify``'s family stacks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exact, spectra
from .graphs import Graph


class RouteDisagreementError(RuntimeError):
    """The float route's own main count contradicts the exact walk-matrix rank."""

    def __init__(self, s_float: int, rank: int):
        super().__init__(
            f"float route counted {s_float} main group(s) but the exact "
            f"walk-matrix rank is {rank}"
        )
        self.s_float = s_float
        self.rank = rank


@dataclass(frozen=True, slots=True)
class GraphAnalysis:
    """Everything the checkers need about one graph.

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
    and ``flags`` the plain threshold flags (``spectra.classify_flags``).  A
    rank the gray groups cannot reach leaves them their threshold flags and
    s_float the threshold count: a disagreement for the caller to surface.
    """
    if not gray:
        return spectrum, spectrum.main_count, False
    try:
        return spectra.resolve_with_rank(spectrum, rank), None, True
    except ValueError:
        spectrum = spectra.MainSpectrum(tuple(
            spectra.EigenGroup(grp.value, grp.multiplicity, grp.projection_norm_sq, flag)
            for grp, flag in zip(spectrum.groups, flags)
        ))
        return spectrum, spectrum.main_count, False


def finish_analyses(
    graphs: Sequence[Graph], adj: np.ndarray, evals: np.ndarray, proj_sq: np.ndarray
) -> list[GraphAnalysis]:
    """Everything after the eigensolver, for a stack of equally-sized graphs.

    ``adj`` is the (B, n, n) adjacency stack of ``graphs``, ``evals`` their
    sorted eigenvalues and ``proj_sq`` the per-eigenvector all-ones
    projections, one row per graph.  Grouping with the float flags, walk
    ranks and the harmonic test run once over the whole stack; then only a
    graph with a gray group has those groups settled by its exact rank.  A
    disagreement is left in the result (``disagrees``) for the caller to act
    on.
    """
    groups = spectra.build_groups(evals, proj_sq)
    adj = adj.astype(np.int64)
    ranks = exact.walk_ranks(adj)
    levels = exact.harmonic_levels(adj)
    out = []
    for g, grp, rank, level in zip(graphs, groups, ranks, levels):
        spectrum = spectra.MainSpectrum(tuple(grp))
        s_float: int | None = spectrum.main_count
        gray = [i for i, x in enumerate(grp) if x.is_main is None]
        if gray:
            spectrum, s_float, _ = resolve_spectrum(
                spectrum, spectra.classify_flags(grp, g.n)[0], gray, rank)
        out.append(GraphAnalysis(g, spectrum, rank, s_float, level))
    return out


def analyze_graph(g: Graph) -> GraphAnalysis:
    """Run both routes on one graph and reconcile them.

    Raises RouteDisagreementError when the float count and the exact rank
    differ; that situation means a real bug (or a tolerance failure) and
    must abort the caller visibly.  A caller that needs the disagreement as
    data takes its analyses from ``sweeps.analyze_stack`` instead.
    """
    dec = spectra.eigen_decompose(g)
    (result,) = finish_analyses(
        [g],
        g.adjacency_matrix()[None],
        dec.eigenvalues[None],
        (dec.eigenvectors.sum(axis=0) ** 2)[None],
    )
    if result.disagrees:
        raise RouteDisagreementError(result.s_float, result.rank)
    return result
