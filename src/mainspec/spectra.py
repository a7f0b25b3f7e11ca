"""Floating-point spectral route: eigendecomposition, grouping, main classification.

The eigendecomposition is LAPACK's symmetric solver (``numpy.linalg.eigh``),
one call per (B, n, n) stack; numpy solves each matrix of a stack on its own,
so a graph gets the same floats alone (a batch of one) as inside a sweep
chunk.  The solver is not trusted blindly: every decomposition must pass the
orthonormality, residual and trace bounds below, and the main count it leads
to is cross-checked against the exact walk-matrix rank.

Every tolerance in this module scales with the problem: see the constants
below.  ``build_groups`` flags each group once, the float route's only main
verdicts; in its gray zone it refuses to guess (None), and
``resolve_with_rank`` settles just those groups with the exact rank.  The
main groups carry the all-ones vector: their projections ||P j||^2 sum to n,
and weighted by lambda and lambda^2 to 2m and the degree-square sum.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple

import numpy as np

from .graphs import Graph

# Tolerance policy (n = order, lam_max = max |eigenvalue|):
#   orthonormality   |V^T V - I|_max   <= 1e-10 * n
#   residual         |A v - lam v|_max <= 1e-9 * (1 + lam_max) * n
#   trace            |sum lam - tr A|  <= 1e-8 * n * max(1, lam_max)
#   grouping gap                          1e-7 * max(1, lam_max)
#   main threshold   ||P j||^2         >  1e-12 * n, gray zone [x1e-6, x10]
# Measured on 24,576 sampled order-8 graphs and 4,400 G(n, p) and structured
# graphs of order 16-56 with their complements (analyze-large, seeds 401-410):
# non-main group projections are rounding noise (at most 2.3e-27 n), main
# ones at least 3.0e-8 n at order 8 but 1.4e-14 n at order 24 (the complement
# of WFHX@q?CpObvq?@Hc?...).  So the gray band [1e-18 n, 1e-11 n] lies far
# above the noise and below the smallest main projection seen, and a main
# projection under the threshold goes to the exact rank.  A threshold near
# 1e-6 n would call main projections of about 7e-7 (order-8 graphs such as
# GvO\eG) non-main and contradict the exact rank.
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
TRACE_TOL = 1e-8
GROUP_TOL = 1e-7
MAIN_TOL = 1e-12
GRAY_LO = 1e-6
GRAY_HI = 10.0


class ConvergenceError(RuntimeError):
    """The LAPACK eigensolver reported that it did not converge."""


class SpectralInvariantError(RuntimeError):
    """A computed decomposition violated one of its advertised bounds."""


class AmbiguousGroupingError(RuntimeError):
    """Adjacent eigenvalue groups too close to separate at the grouping tolerance."""


# What a failed hygiene check raises: ``verify`` exits 4 on any of them.
NUMERICAL_ERRORS = (AmbiguousGroupingError, ConvergenceError, SpectralInvariantError)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (non-increasing) with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class EigenGroup(NamedTuple):
    """One numerically-equal eigenvalue cluster, as a named tuple.

    ``projection_norm_sq`` is ||P j||^2, the squared length of the all-ones
    vector's projection onto the group eigenspace (basis independent).
    ``is_main`` is None while undecided: before classification, or where the
    float route abstains because the projection sits in the gray band.
    """

    value: float
    multiplicity: int
    projection_norm_sq: float
    is_main: bool | None = None


@dataclass(frozen=True, slots=True)
class MainSpectrum:
    """Eigenvalue groups, largest first; the main values are collected once."""

    groups: tuple[EigenGroup, ...]
    _main_values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_main_values", tuple(g.value for g in self.groups if g.is_main))

    @property
    def main_count(self) -> int:
        return len(self._main_values)

    def main_values(self) -> tuple[float, ...]:
        return self._main_values


def _require(what: str, values: np.ndarray, bounds: np.ndarray | float, n: int) -> None:
    """Raise SpectralInvariantError naming the worst value that misses its bound
    (a NaN misses every bound)."""
    bad = ~(values <= bounds)
    if bad.any():
        raise SpectralInvariantError(f"{what} {values[bad].max():.3e} exceeds bound (n={n})")


def eigen_decompose(g: Graph) -> EigenDecomposition:
    """Full spectrum of the adjacency matrix, eigenvalues non-increasing.

    A batch of one through :func:`eigen_decompose_batch`.
    """
    evals, evecs, _ = eigen_decompose_batch(g.adjacency_matrix()[None])
    return EigenDecomposition(evals[0], evecs[0])


def eigen_decompose_batch(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[str, float]]:
    """Batched spectrum of a (B, n, n) symmetric stack.

    Returns (eigenvalues (B, n) non-increasing, eigenvector stacks with
    matching column order, hygiene maxima over the batch).  Raises
    ConvergenceError if LAPACK fails on any matrix of the stack and
    SpectralInvariantError if any decomposition misses a bound.
    """
    mats = np.asarray(mats, dtype=np.float64)
    B, n, _ = mats.shape
    try:
        evals, evecs = np.linalg.eigh(mats)
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"{err} (n={n})") from err
    evals = evals[:, ::-1]  # eigh sorts ascending
    evecs = evecs[:, :, ::-1]

    lam_max = np.abs(evals).max(axis=1) if n else np.zeros(B)
    gram = evecs.transpose(0, 2, 1) @ evecs - np.eye(n)
    orth = np.abs(gram).reshape(B, n * n).max(axis=1)
    _require("orthonormality defect", orth, ORTHONORMALITY_TOL * n, n)
    resid = np.abs(mats @ evecs - evecs * evals[:, None, :])
    resid = resid.reshape(B, n * n).max(axis=1)
    _require("eigen residual", resid, RESIDUAL_TOL * (1.0 + lam_max) * n, n)
    drift = np.abs(evals.sum(axis=1) - np.trace(mats, axis1=1, axis2=2))
    _require("trace drift", drift, TRACE_TOL * n * np.maximum(1.0, lam_max), n)
    hygiene = {
        "orthonormality": float(orth.max(initial=0.0)),
        "residual": float(resid.max(initial=0.0)),
        "trace_drift": float(drift.max(initial=0.0)),
    }
    return evals, evecs, hygiene


# ---------------------------------------------------------------------------
# Grouping and main classification.
# ---------------------------------------------------------------------------


class Groups(NamedTuple):
    """``build_groups``' columns: (B, n + 1), one per group, largest first,
    and -inf, 0, 0.0, False past each row's ``count`` groups.  ``main`` holds
    the threshold flags, ``gray`` the groups the exact rank must settle."""

    value: np.ndarray
    mult: np.ndarray
    proj: np.ndarray
    main: np.ndarray
    count: np.ndarray
    gray: np.ndarray


def build_groups(evals: np.ndarray, proj_sq: np.ndarray) -> Groups:
    """Cluster and classify each row of a (B, n) stack of sorted eigenvalues,
    as padded group columns.

    A gap larger than the row's grouping tolerance starts a new run.  A
    group's value is the mean of its run and its projection the sum of the
    run's per-eigenvector projections.  Each (row, run) pair is one slot of
    the flattened stack, and one ``np.bincount`` per quantity sums every
    slot at once.  bincount adds in index order from 0.0, so each run is
    summed left to right, which is how numpy sums fewer than 8 values: each
    group matches ``evals[a:b].mean()`` and ``proj_sq[a:b].sum()`` bit for
    bit.  The rare runs of 8 or more take numpy's own sum.  Raises
    AmbiguousGroupingError when two neighboring representatives end up
    closer than 3x the grouping tolerance, which would make the clustering
    order dependent.  Each group is flagged by the ``classify_flags``
    threshold at order n and marked gray inside the gray band.
    """
    B, n = evals.shape
    tau = GROUP_TOL * np.maximum(1.0, np.abs(evals).max(axis=1))
    starts = np.ones((B, n), dtype=bool)
    starts[:, 1:] = evals[:, :-1] - evals[:, 1:] > tau[:, None]
    run = np.cumsum(starts, axis=1) - 1
    slot = (run + (n + 1) * np.arange(B)[:, None]).ravel()
    width = B * (n + 1)
    sums = np.bincount(slot, evals.ravel(), width).reshape(B, n + 1)
    proj = np.bincount(slot, proj_sq.ravel(), width).reshape(B, n + 1)
    proj = proj.astype(float, copy=False)  # bincount gives ints on an empty stack
    mult = np.bincount(slot, minlength=width).reshape(B, n + 1)
    for b, r in zip(*np.nonzero(mult >= 8)):
        a = int(np.argmax(run[b] == r))
        sums[b, r] = evals[b, a:a + mult[b, r]].sum()
        proj[b, r] = proj_sq[b, a:a + mult[b, r]].sum()
    values = sums / np.maximum(mult, 1)
    count = run[:, -1] + 1
    real = np.arange(n + 1) < count[:, None]
    close = values[:, :-2] - values[:, 1:-1] < 3.0 * tau[:, None]
    close &= real[:, 1:-1]
    if close.any():
        b, r = np.argwhere(close)[0]
        raise AmbiguousGroupingError(
            f"group representatives {float(values[b, r])!r} and "
            f"{float(values[b, r + 1])!r} are closer than {3.0 * tau[b]:.3e}"
        )
    values[~real] = -np.inf
    main, gray = _main_flags(proj, n)
    return Groups(values, mult, proj, main, count, gray & real)


def group_rows(value: np.ndarray, mult: np.ndarray, proj: np.ndarray, main: np.ndarray,
               count: np.ndarray, gray: np.ndarray | None = None,
               ) -> list[tuple[EigenGroup, ...]]:
    """One tuple of ``EigenGroup`` named tuples per row of padded group
    columns, flagged by ``main``, or None where ``gray`` is set.  Only the
    real slots, those ``build_groups`` did not pad with -inf, are converted,
    in one flat run of groups that each row's ``count`` then splits.  The
    groups are made by ``tuple.__new__`` over the zipped columns, skipping
    the named tuple's Python-level ``__new__``."""
    real = value > -np.inf
    flags = main[real].tolist()
    if gray is not None:
        for i in np.flatnonzero(gray[real]).tolist():
            flags[i] = None
    groups = map(partial(tuple.__new__, EigenGroup),
                 zip(value[real].tolist(), mult[real].tolist(), proj[real].tolist(), flags))
    return [tuple(islice(groups, k)) for k in count.tolist()]


def group_eigenvalues(d: EigenDecomposition) -> MainSpectrum:
    """Grouping with the float route's own flags; no exact-rank fallback, so
    gray-band groups stay undecided (None)."""
    proj_sq = d.eigenvectors.sum(axis=0) ** 2
    cols = build_groups(d.eigenvalues[None], proj_sq[None])
    return MainSpectrum(group_rows(*cols)[0])


def _main_flags(proj: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Threshold decisions on a (B, k) stack of group projections at order n:
    (main, gray) boolean arrays.  Column 0 holds the top group, whose
    eigenspace always meets the all-ones vector: always main, never gray."""
    tau = MAIN_TOL * n
    main = proj > tau
    gray = (GRAY_LO * tau <= proj) & (proj <= GRAY_HI * tau)
    main[:, 0] = True
    gray[:, 0] = False
    return main, gray


def classify_flags(
    groups: list[EigenGroup] | tuple[EigenGroup, ...], n: int
) -> tuple[list[bool], list[int]]:
    """Threshold decision per group; returns (flags, gray group indices).

    A projection above MAIN_TOL * n is main; one within [GRAY_LO, GRAY_HI]
    times that threshold is gray, too close to call.  The top group is never
    demoted and never counts as gray.
    """
    main, gray = _main_flags(np.array([[grp.projection_norm_sq for grp in groups]]), n)
    return main[0].tolist(), np.flatnonzero(gray[0]).tolist()


def resolve_with_rank(spectrum: MainSpectrum, rank: int) -> MainSpectrum:
    """Settle the gray groups (``is_main`` None) so that exactly ``rank``
    groups are main; flagged groups are never flipped.

    The exact count is trusted, and the float projections only order the gray
    candidates: the rank minus the confident main count of them, the largest
    projections first, become main.  Raises ValueError if none can reach it.
    """
    gray = [i for i, grp in enumerate(spectrum.groups) if grp.is_main is None]
    free = rank - spectrum.main_count
    if rank < 1 or not 0 <= free <= len(gray):
        raise ValueError(f"rank {rank} unreachable from {spectrum.main_count} main "
                         f"and {len(gray)} gray group(s)")
    chosen = set(sorted(gray, key=lambda i: (-spectrum.groups[i].projection_norm_sq, i))[:free])
    return MainSpectrum(tuple(
        grp if grp.is_main is not None else grp._replace(is_main=idx in chosen)
        for idx, grp in enumerate(spectrum.groups)
    ))
