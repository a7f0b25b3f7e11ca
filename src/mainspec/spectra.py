"""Floating-point spectral route: eigendecomposition, grouping, main classification.

The eigensolver is a cyclic Jacobi iteration written here (no LAPACK): the
matrices are desk-scale symmetric 0/1 matrices, Jacobi converges
unconditionally, and a fixed sweep order keeps results deterministic for a
fixed graph.  There is one solver, batched over a stack of equally-sized
matrices: the Brent-Luk round-robin order rotates floor(n/2) disjoint pairs
per step, so every step is a handful of array operations whether the stack
holds one matrix or a whole exhaustive chunk.  A single graph is a batch of
one.

Every tolerance in this module scales with the problem: see the constants
below.  Classification refuses to guess inside its gray zone; callers resolve
those instances against the exact integer route.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, degree_data

# Tolerance policy (n = order, lam_max = max |eigenvalue|):
#   orthonormality   |V^T V - I|_max   <= 1e-10 * n
#   residual         |A v - lam v|_max <= 1e-9 * (1 + lam_max) * n
#   trace            |sum lam - tr A|  <= 1e-8 * n * max(1, lam_max)
#   grouping gap                          1e-7 * max(1, lam_max)
#   main threshold   ||P j||^2         >  1e-12 * n, gray zone [x0.1, x10]
# Measured on 24,576 sampled order-8 graphs and 110 G(n, p) and structured
# graphs of order 16-56, each with its complement: non-main group projections
# are rounding noise (at most 2.5e-26), main ones at least 2e-9 (2.4e-7 at
# order 8), so the gray band [1e-13 n, 1e-11 n] lies inside the gap.  A
# threshold near 1e-6 n would call main projections of about 7e-7 (order-8
# graphs such as GvO\eG) non-main and contradict the exact rank.
ORTHONORMALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9
TRACE_TOL = 1e-8
GROUP_TOL = 1e-7
MAIN_TOL = 1e-12
GRAY_LO = 0.1
GRAY_HI = 10.0

_MAX_SWEEPS = 100


class ConvergenceError(RuntimeError):
    """Jacobi did not reach the off-diagonal target within the sweep cap."""


class SpectralInvariantError(RuntimeError):
    """A computed decomposition violated one of its advertised bounds."""


class AmbiguousGroupingError(RuntimeError):
    """Adjacent eigenvalue groups too close to separate at the grouping tolerance."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (non-increasing) with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, slots=True)
class EigenGroup:
    """One numerically-equal eigenvalue cluster.

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

    @property
    def classified(self) -> bool:
        return all(g.is_main is not None for g in self.groups)


@dataclass(frozen=True)
class MainDecomposition:
    """all-ones vector written over the main eigenspaces: (value, ||P j||^2) pairs."""

    entries: tuple[tuple[float, float], ...]


# ---------------------------------------------------------------------------
# Cyclic Jacobi in round-robin order, batched.
# ---------------------------------------------------------------------------


def _round_robin(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Slot layout of a sweep's first step and the slot permutation between steps.

    Brent-Luk round-robin (circle) ordering: with m = n rounded up to even,
    index m-1 stays in the last slot while the other m-1 indices move one
    place round a circle per step, so the m-1 steps of a sweep pair every
    index with every other exactly once.  Slots (2i, 2i+1) hold a step's
    disjoint pairs.  For odd n, index m-1 is a dummy: it is left out, and
    the slot paired with it idles for that step.
    """
    m = n + (n & 1)

    def layout(step: int) -> list[int]:
        slots: list[int] = []
        for i in range(1, m // 2):
            slots += [(step - i) % (m - 1), (step + i) % (m - 1)]
        return slots + [step % (m - 1), m - 1]

    first = layout(0)
    slot_of = {index: slot for slot, index in enumerate(first)}
    perm = [slot_of[index] for index in layout(1)]
    return np.array(first[:n]), np.array(perm[:n])


def _pair_rotations(a: np.ndarray, p: slice, q: slice) -> tuple[np.ndarray, np.ndarray]:
    """(c, s) of the rotation that zeroes a[p, q] for every slot pair in the stack."""
    diag = np.diagonal(a, axis1=1, axis2=2)
    apq = np.diagonal(a, offset=1, axis1=1, axis2=2)[:, p]
    active = np.abs(apq) > 1e-300
    theta = np.divide(diag[:, q] - diag[:, p], 2.0 * apq, out=np.zeros_like(apq), where=active)
    with np.errstate(over="ignore", divide="ignore"):
        # theta^2 would overflow; there 1/(|theta|+sqrt(..)) ~ 1/(2 theta).
        huge = np.abs(theta) > 1.0e154
        t = np.where(
            huge,
            0.5 / np.where(huge, theta, 1.0),
            np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
        )
    t = np.where(active, t, 0.0)
    c = 1.0 / np.sqrt(t * t + 1.0)
    return c, t * c


def _rotate(xp: np.ndarray, xq: np.ndarray, c: np.ndarray, s: np.ndarray) -> None:
    """(xp, xq) <- (c xp - s xq, s xp + c xq) in place, for two views of one array.

    The views end with the call, so the array they look into is not kept
    alive after the caller replaces it.
    """
    xp[...], xq[...] = c * xp - s * xq, s * xp + c * xq


def _jacobi_batch(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi over a (B, n, n) stack in round-robin order.

    A sweep is n-1 steps (n for odd n), and each step rotates its floor(n/2)
    disjoint pairs at once; they commute, so this is the same as rotating
    them one after another.  The stack is kept in slot order, which makes a
    step's pairs the even and odd slots (basic slices), and a fixed
    permutation moves every index to its next slot after the step.
    Eigenvector columns follow the slots; their rows stay in vertex order.
    A pair whose (p, q) entry is already (near) zero gets the identity
    rotation, so converged matrices in the stack are left untouched while
    the stragglers finish.
    """
    B, n, _ = a.shape
    if n == 1:
        return a[:, 0, :].copy(), np.ones((B, 1, 1))
    first, perm = _round_robin(n)
    a = a[:, first[:, None], first]
    v = np.zeros((B, n, n))
    v[:, first, np.arange(n)] = 1.0
    p = slice(0, n - 1, 2)
    q = slice(1, n, 2)
    pairs = np.arange(0, n - 1, 2)
    stop = 1e-14 * max(1.0, float(np.abs(a).max()))
    iu = np.triu_indices(n, 1)
    for _ in range(_MAX_SWEEPS):
        if float(np.abs(a[:, iu[0], iu[1]]).max()) <= stop:
            return np.diagonal(a, axis1=1, axis2=2).copy(), v
        for _step in range(n - 1 + (n & 1)):
            c, s = _pair_rotations(a, p, q)
            _rotate(a[:, p, :], a[:, q, :], c[:, :, None], s[:, :, None])
            c, s = c[:, None, :], s[:, None, :]
            _rotate(a[:, :, p], a[:, :, q], c, s)
            _rotate(v[:, :, p], v[:, :, q], c, s)
            # The rotation makes a[p, q] and a[q, p] exactly zero; store that,
            # not their rounding residue (about eps * |a_pp|, different in the
            # two triangles), which can otherwise sit above the stop level in
            # the triangle the next rotation of the pair does not read.
            a[:, pairs, pairs + 1] = 0.0
            a[:, pairs + 1, pairs] = 0.0
            a = a[:, perm[:, None], perm]
            v = v[:, :, perm]
    raise ConvergenceError(f"no convergence after {_MAX_SWEEPS} cyclic sweeps (n={n})")


def _require(what: str, values: np.ndarray, bounds: np.ndarray | float, n: int) -> None:
    """Raise SpectralInvariantError naming the worst value that misses its bound."""
    bad = values > bounds
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
    SpectralInvariantError if any matrix in the stack misses a bound.
    """
    mats = np.asarray(mats, dtype=np.float64)
    B, n, _ = mats.shape
    evals, evecs = _jacobi_batch(mats)
    order = np.argsort(-evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    evecs = np.take_along_axis(evecs, order[:, None, :], axis=2)

    lam_max = np.abs(evals).max(axis=1) if n else np.zeros(B)
    gram = np.einsum("bij,bik->bjk", evecs, evecs) - np.eye(n)
    orth = np.abs(gram).reshape(B, -1).max(axis=1)
    _require("orthonormality defect", orth, ORTHONORMALITY_TOL * n, n)
    resid = np.abs(np.einsum("bij,bjk->bik", mats, evecs) - evecs * evals[:, None, :])
    resid = resid.reshape(B, -1).max(axis=1)
    _require("eigen residual", resid, RESIDUAL_TOL * (1.0 + lam_max) * n, n)
    drift = np.abs(evals.sum(axis=1) - np.trace(mats, axis1=1, axis2=2))
    _require("trace drift", drift, TRACE_TOL * n * np.maximum(1.0, lam_max), n)
    hygiene = {
        "orthonormality": float(orth.max()),
        "residual": float(resid.max()),
        "trace_drift": float(drift.max()),
    }
    return evals, evecs, hygiene


# ---------------------------------------------------------------------------
# Grouping and main classification.
# ---------------------------------------------------------------------------


def build_groups(evals: np.ndarray, proj_sq: np.ndarray) -> list[list[EigenGroup]]:
    """Cluster and classify each row of a (B, n) stack of sorted eigenvalues;
    one group list per row.

    A gap larger than the row's grouping tolerance starts a new run.  A
    group's value is the mean of its run and its projection the sum of the
    run's per-eigenvector projections.  Sums add left to right from 0.0,
    which is how numpy sums fewer than 8 values, so each group matches
    ``evals[a:b].mean()`` and ``proj_sq[a:b].sum()`` bit for bit; the rare
    runs of 8 or more take numpy's own sum.  Raises AmbiguousGroupingError
    when two neighboring representatives end up closer than 3x the grouping
    tolerance, which would make the clustering order dependent.

    Each group is built once, with the float route's own flag: the
    ``classify_flags`` threshold at order n, or None inside the gray band,
    where the caller must fall back on the exact rank.
    """
    B, n = evals.shape
    tau = GROUP_TOL * np.maximum(1.0, np.abs(evals).max(axis=1))
    starts = np.ones((B, n), dtype=bool)
    starts[:, 1:] = evals[:, :-1] - evals[:, 1:] > tau[:, None]
    run = np.cumsum(starts, axis=1) - 1
    rows = np.arange(B)
    sums = np.zeros((B, n))
    proj = np.zeros((B, n))
    mult = np.zeros((B, n), dtype=np.int64)
    for i in range(n):
        sums[rows, run[:, i]] += evals[:, i]
        proj[rows, run[:, i]] += proj_sq[:, i]
        mult[rows, run[:, i]] += 1
    for b, r in zip(*np.nonzero(mult >= 8)):
        a = int(np.argmax(run[b] == r))
        sums[b, r] = evals[b, a:a + mult[b, r]].sum()
        proj[b, r] = proj_sq[b, a:a + mult[b, r]].sum()
    values = sums / np.maximum(mult, 1)
    count = run[:, -1] + 1
    close = values[:, :-1] - values[:, 1:] < 3.0 * tau[:, None]
    close &= np.arange(1, n) < count[:, None]
    if close.any():
        b, r = np.argwhere(close)[0]
        raise AmbiguousGroupingError(
            f"group representatives {float(values[b, r])!r} and "
            f"{float(values[b, r + 1])!r} are closer than {3.0 * tau[b]:.3e}"
        )
    main, gray = _main_flags(proj, n)
    flags = main.tolist()
    for b, r in np.argwhere(gray & (np.arange(n) < count[:, None])).tolist():
        flags[b][r] = None
    return [
        [EigenGroup(*grp) for grp in zip(v[:k], m[:k], p[:k], f[:k])]
        for v, m, p, f, k in zip(values.tolist(), mult.tolist(), proj.tolist(), flags,
                                 count.tolist())
    ]


def group_eigenvalues(d: EigenDecomposition) -> MainSpectrum:
    """Grouping with the float route's own flags; no exact-rank fallback, so
    gray-band groups stay undecided (None)."""
    proj_sq = d.eigenvectors.sum(axis=0) ** 2
    return MainSpectrum(tuple(build_groups(d.eigenvalues[None], proj_sq[None])[0]))


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
    """Assign main flags so that exactly ``rank`` groups are main.

    The top group is always main; the remaining rank-1 slots go to the groups
    with the largest projections.  This is the gray-zone fallback: the exact
    count is trusted, and the float projections only order the candidates.
    """
    if rank < 1 or rank > len(spectrum.groups):
        raise ValueError(f"rank {rank} incompatible with {len(spectrum.groups)} groups")
    others = sorted(
        range(1, len(spectrum.groups)),
        key=lambda i: (-spectrum.groups[i].projection_norm_sq, i),
    )
    chosen = {0, *others[: rank - 1]}
    groups = tuple(
        EigenGroup(grp.value, grp.multiplicity, grp.projection_norm_sq, idx in chosen)
        for idx, grp in enumerate(spectrum.groups)
    )
    return MainSpectrum(groups)


def decompose_all_ones(g: Graph, spectrum: MainSpectrum) -> MainDecomposition:
    """Expand the all-ones vector over the main eigenspaces and audit the sums.

    The coefficients must reproduce n, 2m and the degree-square sum; a failure
    here means the classification and the graph disagree, so it raises rather
    than returning junk.
    """
    if not spectrum.classified:
        raise ValueError("spectrum must be classified before decomposing")
    entries = tuple(
        (grp.value, grp.projection_norm_sq) for grp in spectrum.groups if grp.is_main
    )
    dv = degree_data(g)
    lam1 = spectrum.groups[0].value
    tol = 1e-6 * g.n * (1.0 + lam1 * lam1)
    total = sum(c for _, c in entries)
    first = sum(v * c for v, c in entries)
    second = sum(v * v * c for v, c in entries)
    if abs(total - g.n) > tol:
        raise SpectralInvariantError(f"coefficient sum {total!r} != n={g.n}")
    if abs(first - 2.0 * dv.m) > tol:
        raise SpectralInvariantError(f"weighted sum {first!r} != 2m={2 * dv.m}")
    if abs(second - dv.sum_squares) > tol:
        raise SpectralInvariantError(f"square-weighted sum {second!r} != {dv.sum_squares}")
    return MainDecomposition(entries)
