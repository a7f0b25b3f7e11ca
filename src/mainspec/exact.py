"""Exact integer route: walk matrices, walk rank, divisors of given equitable partitions.

Every result here is an exact integer fact, whatever the conditioning of the
floating spectrum; no float enters.  The analysis pipeline passes stacks of
graphs (a single graph is a stack of one): their walk ranks come from a mod-p
Krylov elimination whose dependency is then checked exactly in int64, and
from fraction-free Bareiss elimination, column by column with row swaps
only, over arbitrary-precision Python integers where that certificate does
not apply; their harmonic levels come from one int64 product.  An equitable
partition is checked as given (``verify_equitable``) and yields the divisor
walk matrix behind T46's determinant.  This module is the cross-check
counterpart of :mod:`mainspec.spectra`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, degree_data, per_graph


@dataclass(frozen=True)
class WalkMatrix:
    """Integer matrix whose column c counts walks of length c from each vertex."""

    entries: tuple[tuple[int, ...], ...]
    rank: int


def walk_matrix(g: Graph) -> WalkMatrix:
    """Columns j, Aj, A^2 j, ..., A^(n-1) j of the adjacency matrix, exactly."""
    n = g.n
    nbrs = g.neighbor_lists()
    col = [1] * n
    cols = [col]
    for _ in range(n - 1):
        col = [sum(col[w] for w in nbrs[v]) for v in range(n)]
        cols.append(col)
    entries = tuple(tuple(cols[c][v] for c in range(n)) for v in range(n))
    return WalkMatrix(entries, exact_rank(entries))


def _bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Fraction-free Bareiss elimination; returns (rank, swap sign, last pivot).

    Columns are taken in order: each pivots on its first non-zero entry at or
    below the current row, and a column with none is skipped.  Only rows are
    swapped, each swap flipping the sign.  By Sylvester's identity every
    intermediate value is a minor of the input, so the divisions are exact
    whatever the pivots; exact arithmetic gains nothing from a large one, and
    on a walk matrix, whose column k grows like lambda_1^k, column order
    builds the early minors from the small columns.  For a square matrix of
    full rank, sign times the last pivot is the determinant.
    """
    m = [list(map(int, row)) for row in rows]
    nrows = len(m)
    sign = 1
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        pi = next((i for i in range(r, nrows) if m[i][c]), -1)
        if pi < 0:
            continue
        if pi != r:
            m[pi], m[r] = m[r], m[pi]
            sign = -sign
        pivot_row = m[r]
        piv = pivot_row[c]
        for mi in m[r + 1:]:
            f = mi[c]
            for j in range(c + 1, len(mi)):
                mi[j] = (mi[j] * piv - f * pivot_row[j]) // prev
            mi[c] = 0
        prev = piv
        r += 1
    return r, sign, prev


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return _bareiss(rows)[0]


def exact_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, sign, last = _bareiss(rows)
    return sign * last if rank == n else 0


# ---------------------------------------------------------------------------
# Walk ranks of an adjacency stack: a mod-p Krylov certificate.
# ---------------------------------------------------------------------------

_PRIME = (1 << 31) - 1  # residues below 2^31, so a product of two fits in int64


def _certifiable(n: int) -> bool:
    """Whether the exact check of an order-n dependency cannot overflow int64.

    Its n+1 terms are coefficients of size at most p//2 times walk counts of
    size at most max(n-1, 1)^n; with p = 2^31 - 1 this holds for n <= 9.
    """
    return (n + 1) * (_PRIME // 2) * max(n - 1, 1) ** n < 1 << 63


def _inverse_mod(x: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of every non-zero residue."""
    out = np.ones_like(x)
    e = _PRIME - 2
    while e:
        if e & 1:
            out = out * x % _PRIME
        x = x * x % _PRIME
        e >>= 1
    return out


def _krylov_dependency(krylov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First mod-p dependency of each graph's Krylov sequence j, Aj, ..., A^n j.

    Eliminates the vectors in order against a basis with unit pivots, keeping
    each basis row as a combination of Krylov vectors.  Returns (rank_p,
    coefficients): the first k whose vector reduces to zero, and the monic
    combination m (m_k = 1, m_i = 0 for i > k) with sum m_i A^i j = 0 mod p,
    lifted to the symmetric range.
    """
    B, n1, n = krylov.shape
    rows = np.arange(B)
    basis = np.zeros((B, n, n), dtype=np.int64)
    combos = np.zeros((B, n, n1), dtype=np.int64)
    pivots = np.zeros((B, n), dtype=np.int64)
    rank = np.full(B, -1)
    coeffs = np.zeros((B, n1), dtype=np.int64)
    for k in range(n1):
        v = krylov[:, k] % _PRIME
        c = np.zeros((B, n1), dtype=np.int64)
        c[:, k] = 1
        for r in range(k):
            f = v[rows, pivots[:, r]][:, None]
            v = (v - f * basis[:, r]) % _PRIME
            c = (c - f * combos[:, r]) % _PRIME
        done = (rank < 0) & ~v.any(axis=1)
        rank[done] = k
        coeffs[done] = c[done]
        if (rank >= 0).all():
            break
        piv = np.argmax(v != 0, axis=1)
        inv = _inverse_mod(v[rows, piv])[:, None]
        basis[:, k] = v * inv % _PRIME
        combos[:, k] = c * inv % _PRIME
        pivots[:, k] = piv
    coeffs[coeffs > _PRIME // 2] -= _PRIME
    return rank, coeffs


def walk_ranks(graphs: Sequence[Graph], adj: np.ndarray) -> list[int]:
    """Walk-matrix ranks of ``graphs``, whose (B, n, n) int64 adjacency stack is ``adj``.

    For n <= 9 every rank is certified from both sides.  Lower bound: the
    vectors j, ..., A^(k-1) j before the first one that reduces to zero mod p
    are independent mod p, so some k x k minor of the walk matrix is non-zero
    mod p, hence non-zero: rank >= k.  Upper bound: the lifted dependency
    A^k j = -sum_{i<k} m_i A^i j, checked exactly, makes the span of
    j, ..., A^(k-1) j invariant under A, so every later column lies in it:
    rank <= k.  A graph whose check fails (rank_p falls short of the rank
    because p divides every minor that shows it, or a true coefficient lies
    outside the symmetric range) and every graph of order n > 9, where the
    check could overflow int64, gets Bareiss on ``walk_matrix(g)``.
    """
    B, n, _ = adj.shape
    ranks = np.full(B, -1)
    if _certifiable(n):
        krylov = np.empty((B, n + 1, n), dtype=np.int64)
        krylov[:, 0] = 1
        for k in range(n):
            krylov[:, k + 1] = np.einsum("bij,bj->bi", adj, krylov[:, k])
        rank_p, coeffs = _krylov_dependency(krylov)
        exact_zero = ~np.einsum("bk,bkv->bv", coeffs, krylov).any(axis=1)
        ranks[exact_zero] = rank_p[exact_zero]
    out = ranks.tolist()
    for b in np.flatnonzero(ranks < 0).tolist():
        out[b] = walk_matrix(graphs[b]).rank
    return out


# ---------------------------------------------------------------------------
# Equitable partitions and their divisor (quotient) matrices.
# ---------------------------------------------------------------------------


class NotEquitableError(ValueError):
    """Partition is not equitable; carries the first violating (vertex, cell)."""

    def __init__(self, vertex: int, cell: int, message: str):
        super().__init__(message)
        self.vertex = vertex
        self.cell = cell


@dataclass(frozen=True)
class EquitablePartition:
    """Cells plus the divisor matrix.

    ``quotient[i][j]`` is the number of neighbors inside cell j that every
    vertex of cell i has.
    """

    cells: tuple[tuple[int, ...], ...]
    quotient: tuple[tuple[int, ...], ...]


def verify_equitable(g: Graph, cells: Sequence[Sequence[int]]) -> EquitablePartition:
    """Check that ``cells`` is an equitable partition and build its divisor.

    Raises ValueError if the cells do not partition the vertex set, and
    NotEquitableError (with the first offending vertex/cell pair) if the
    neighbor counts are not constant on some cell.
    """
    norm = [tuple(sorted(cell)) for cell in cells]
    seen: set[int] = set()
    for cell in norm:
        if not cell:
            raise ValueError("empty cell in partition")
        for v in cell:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            if v in seen:
                raise ValueError(f"vertex {v} appears in two cells")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("cells do not cover every vertex")

    masks = [sum(1 << v for v in cell) for cell in norm]
    quotient = []
    for ci, cell in enumerate(norm):
        counts = [(g.rows[cell[0]] & mask).bit_count() for mask in masks]
        for v in cell[1:]:
            for cj, mask in enumerate(masks):
                if (g.rows[v] & mask).bit_count() != counts[cj]:
                    raise NotEquitableError(
                        v, cj,
                        f"vertex {v} has {(g.rows[v] & mask).bit_count()} neighbors in "
                        f"cell {cj}, expected {counts[cj]} (cell {ci})",
                    )
        quotient.append(tuple(counts))
    return EquitablePartition(tuple(norm), tuple(quotient))


def divisor_walk_matrix(p: EquitablePartition) -> tuple[tuple[int, ...], ...]:
    """Walk matrix [1, M·1, ..., M^(r-1)·1] of the divisor, exact integers."""
    r = len(p.quotient)
    col = [1] * r
    cols = [col]
    for _ in range(r - 1):
        col = [sum(p.quotient[i][j] * col[j] for j in range(r)) for i in range(r)]
        cols.append(col)
    return tuple(tuple(cols[c][i] for c in range(r)) for i in range(r))


# ---------------------------------------------------------------------------
# Closed forms for double stars and paths.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with integer coefficients, ascending by degree."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        parts: list[str] = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            term = "x" if e == 1 else f"x^{e}" if e else ""
            mag = "" if abs(c) == 1 and e else str(abs(c))
            if not parts:
                parts.append(("-" if c < 0 else "") + mag + term)
            else:
                parts.append(("- " if c < 0 else "+ ") + mag + term)
        return " ".join(parts) if parts else "0"


def double_star_quartic(k: int, s: int) -> IntPolynomial:
    """x^4 - (k+s+1) x^2 + k s: the factor carrying T(k, s)'s nonzero eigenvalues."""
    if k < 1 or s < 1:
        raise ValueError(f"double star needs k, s >= 1, got ({k}, {s})")
    return IntPolynomial((k * s, 0, -(k + s + 1), 0, 1))


def double_star_quartic_roots(k: int, s: int) -> tuple[float, float, float, float]:
    """The four real roots of the quartic, ascending.

    Substituting y = x^2 gives y^2 - (k+s+1) y + k s, whose two positive roots
    produce the symmetric pairs +-sqrt(y).
    """
    b = k + s + 1
    disc = math.sqrt(b * b - 4 * k * s)
    y_hi = (b + disc) / 2.0
    y_lo = (b - disc) / 2.0
    r_hi, r_lo = math.sqrt(y_hi), math.sqrt(y_lo)
    return (-r_hi, -r_lo, r_lo, r_hi)


def det_walk_divisor(k: int, s: int) -> int:
    """Exact determinant of the divisor walk matrix of T(k, s)'s 4-cell partition.

    Computed from the partition {center 0}, {center 1}, {leaves of 0},
    {leaves of 1}; zero exactly when k = s.
    """
    from .graphs import double_star

    g = double_star(k, s)
    cells = [(0,), (1,), tuple(range(2, 2 + k)), tuple(range(2 + k, 2 + k + s))]
    return exact_det(divisor_walk_matrix(verify_equitable(g, cells)))


def path_eigenpair(n: int, j: int) -> tuple[float, np.ndarray]:
    """Closed-form eigenpair of the path on n vertices, 1 <= j <= n.

    Eigenvalue 2 cos(j pi / (n+1)) with eigenvector entries sin(i j pi / (n+1))
    for i = 1..n (not normalized).  Values are sorted: j = 1 is the largest.
    """
    if not 1 <= j <= n:
        raise ValueError(f"eigenpair index must satisfy 1 <= j <= n, got j={j}, n={n}")
    theta = j * math.pi / (n + 1)
    lam = 2.0 * math.cos(theta)
    x = np.array([math.sin(i * theta) for i in range(1, n + 1)], dtype=np.float64)
    return lam, x


# ---------------------------------------------------------------------------
# Harmonic detection (exact integer test).
# ---------------------------------------------------------------------------


def harmonic_ell(g: Graph) -> int | None:
    """Return ell if A·d = ell·d exactly (d the degree vector), else None.

    Edgeless graphs have d = 0, which satisfies the relation vacuously for
    every level; they report ell = 0.  For any other harmonic graph the level
    is the unique nonnegative integer ratio.
    """
    degs = g.degrees()
    nbrs = g.neighbor_lists()
    ad = [sum(degs[w] for w in nbrs[v]) for v in range(g.n)]
    if all(d == 0 for d in degs):
        return 0
    pivot = next(v for v in range(g.n) if degs[v])
    if ad[pivot] % degs[pivot]:
        return None
    ell = ad[pivot] // degs[pivot]
    if all(ad[v] == ell * degs[v] for v in range(g.n)):
        return ell
    return None


def harmonic_levels(adj: np.ndarray) -> list[int | None]:
    """:func:`harmonic_ell` of every graph in a (B, n, n) int64 adjacency stack.

    The level candidate is A·d / d at the first vertex of positive degree
    (0 for edgeless graphs); a graph is harmonic iff A·d equals that multiple
    of d everywhere, which also rules out a non-integer ratio.
    """
    d = adj.sum(axis=2)
    ad = np.einsum("bij,bj->bi", adj, d)
    rows = np.arange(len(adj))
    pivot = np.argmax(d > 0, axis=1)
    ell = ad[rows, pivot] // np.maximum(d[rows, pivot], 1)
    harmonic = (ad == ell[:, None] * d).all(axis=1)
    return [e if h else None for e, h in zip(ell.tolist(), harmonic.tolist())]


@per_graph
def pseudo_regular_ratio(g: Graph) -> tuple[int, int] | None:
    """Average-neighbor-degree ratio (p, q) if it is the same at every vertex.

    Defined only for graphs without isolated vertices; returns the reduced
    fraction sum(deg of neighbors)/deg as (numerator, denominator), or None
    if the ratio varies (or some vertex is isolated).
    """
    degs = degree_data(g).degrees
    if 0 in degs:
        return None
    num0 = den0 = 0
    for v, row in enumerate(g.rows):
        num = 0
        while row:
            low = row & -row
            num += degs[low.bit_length() - 1]
            row ^= low
        if v == 0:
            num0, den0 = num, degs[0]
        elif num * den0 != num0 * degs[v]:
            return None
    common = math.gcd(num0, den0)
    return num0 // common, den0 // common
