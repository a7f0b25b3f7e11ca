"""Exact integer route: walk matrices, walk rank, divisors of given equitable partitions.

Every result here is an exact integer fact, whatever the conditioning of the
floating spectrum; nothing is rounded.  The analysis pipeline passes stacks
of graphs (a single graph is a stack of one) to ``walk_ranks``: the Krylov
rank mod a 31-bit prime bounds each walk rank from below, and a monic
dependency, lifted over further primes by the Chinese remainder theorem and
checked exactly, bounds it from above, at every order.  The Krylov vectors
mod p are built by float64 BLAS matvecs and ``np.fmod``, exact because every
partial sum is an integer below 2^53; the walk counts mod 2^64 that the
checks read are built in wrapping int64, and only as many as the longest
candidate dependency sums.  A stack of one, which is what ``analyze`` and
every single-graph caller pass, is eliminated by a 2-D loop of its own: the
stacked kernel pays a dozen-odd numpy calls per pivot to index its batch
axis, which dominate at one graph and vanish over a sweep block of 2,048.
Over all n vectors it first finds the rank alone, and carries the
coefficient block only over the k + 1 vectors of a graph short of full
rank.  Both give the same results bit for bit.  A stack's harmonic levels
come from one int64 product.  ``walk_matrix``,
``exact_rank`` and ``exact_det`` (fraction-free Bareiss elimination over
Python integers) are not on that route; ``exact_det`` gives T46 its
determinant.  An equitable partition is checked as given
(``verify_equitable``) and yields the divisor walk matrix behind that
determinant.  This module is the cross-check counterpart of
:mod:`mainspec.spectra`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class WalkMatrix:
    """Integer matrix whose column c counts walks of length c from each vertex."""

    entries: tuple[tuple[int, ...], ...]
    rank: int


def walk_matrix(g: Graph) -> WalkMatrix:
    """Columns j, Aj, A^2 j, ..., A^(n-1) j of the adjacency matrix, exactly."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
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
# Walk ranks of an adjacency stack: a multi-modular Krylov certificate.
# ---------------------------------------------------------------------------

_FIRST_PRIME = (1 << 31) - 1  # residues below 2^31, so a product of two fits in int64
_BLOCK_ENTRIES = 1 << 16  # int64 entries of one elimination update's temporary product


def _is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; bases 2, 3, 5, 7 decide every q < 3,215,031,751."""
    if q < 2:
        return False
    for a in (2, 3, 5, 7):
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


_PROVED: list[int] = []  # the primes ``_primes`` has proved so far, descending


def _primes() -> Iterator[int]:
    """The odd primes below 2^31, descending from 2^31 - 1, generated lazily.

    Each is proved by ``_is_prime`` once per process and kept in ``_PROVED``,
    which every later call reads before it extends it.
    """
    for i in itertools.count():
        if i == len(_PROVED):
            start = _PROVED[-1] - 2 if _PROVED else _FIRST_PRIME
            q = next(filter(_is_prime, range(start, 2, -2)), None)
            if q is None:
                return
            _PROVED.append(q)
        yield _PROVED[i]


def _krylov(adj: np.ndarray, p: int | np.ndarray | None = None,
            length: int | None = None) -> np.ndarray:
    """Walk-matrix columns j, Aj, ..., A^(K-1) j of a (B, n, n) stack, as (B, K, n) int64 rows.

    K is ``length``, n by default.  With ``p`` (an int, or one modulus per
    graph as a (B, 1) array) the matvecs run on float64 BLAS and every entry
    is reduced mod p after each one (``np.fmod``).  That is exact: a matvec
    of a 0/1 matrix sums at most n <= 200 residues below 2^31, so every
    partial sum, in whatever order BLAS adds, is an integer below 2^53.  A
    stack of one with C moduli as a (C, 1) array gives that graph's C
    sequences, each step one matrix product.  Without ``p`` the int64
    matvecs wrap, so the entries are the walk counts modulo 2^64 exactly.
    """
    B, n, _ = adj.shape
    length = n if length is None else length
    if p is None:
        out = np.empty((B, length, n), dtype=np.int64)
        out[:, 0] = 1
        for k in range(length - 1):
            np.einsum("bij,bj->bi", adj, out[:, k], out=out[:, k + 1])
        return out
    q = np.asarray(p, dtype=np.float64)
    at = np.swapaxes(adj, 1, 2).astype(np.float64)  # rows times A^T: each row's matvec
    out = np.empty((len(q) if B == 1 and q.ndim else B, length, n))
    out[:, 0] = 1
    for k in range(length - 1):
        x = out[:, k]
        np.fmod(x @ at[0] if B == 1 else np.matmul(x[:, None], at)[:, 0], q, out=out[:, k + 1])
    return out.astype(np.int64)


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise: the inverse of every non-zero residue."""
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _krylov_dependency(krylov: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """First mod-p dependency of each graph's Krylov vectors j, Aj, ..., A^(K-1) j.

    ``krylov`` is a (B, K, n) stack, K <= n, holding the vectors as walk
    counts or as residues mod p; they are reduced mod p on the way in.
    Fraction-free forward elimination mod p: row r, once every earlier row
    has been subtracted out of it, is either zero or pivots on its first
    non-zero entry, which is then eliminated from every later row (each
    scaled by the pivot, so no inverse is needed).  Each row carries the
    combination of Krylov vectors it stands for.  Returns (rank_p,
    coefficients): the first k whose vector reduces to zero, K if none does,
    and for k < K the monic combination m of length K (m_k = 1, m_i = 0 for
    i > k) with sum m_i A^i j = 0 mod p, entries in [0, p); a graph with no
    dependency among its K vectors gets coefficients 0.

    A stack of one (B = 1) goes to ``_krylov_dependency_of_one``, the same
    elimination on 2-D arrays: per pivot the batched gathers, the all-ranks
    test and the vectorised Fermat inverse cost more than the row update
    itself when the batch axis has length 1.  Given all K = n vectors, as
    a first prime is, it first finds rank_p = k by the same elimination
    without the K x K coefficient block, which doubles each row update, and
    runs the augmented one only if k < n, on j, ..., A^k j alone: rank_p
    and the monic first dependency mod p depend on those vectors only,
    whatever the elimination.
    """
    B, K, n = krylov.shape
    if B == 1:
        if K < n:  # a lifting prime's k + 1 vectors
            return _krylov_dependency_of_one(krylov[0], p)
        k = _eliminate_one(np.remainder(krylov[0], p), n, p)  # rank_p alone
        coeffs = np.zeros((1, K), dtype=np.int64)
        if k < K:
            coeffs[:, :k + 1] = _krylov_dependency_of_one(krylov[0, :k + 1], p)[1]
        return np.array([k]), coeffs
    rows = np.arange(B)
    m = np.empty((B, K, n + K), dtype=np.int64)
    np.remainder(krylov, p, out=m[:, :, :n])
    m[:, :, n:] = np.eye(K, dtype=np.int64)
    rank = np.full(B, K)
    step = max(1, _BLOCK_ENTRIES // max(B * (n + K), 1))  # B = 0: an empty stack
    for r in range(K):
        row = m[:, r]
        piv = np.argmax(row[:, :n] != 0, axis=1)
        pv = row[rows, piv]
        rank[(rank == K) & (pv == 0)] = r
        if (rank < K).all():
            break
        below = m[:, r + 1:]
        f = below[rows, :, piv]
        below *= pv[:, None, None]
        for lo in range(0, K - r - 1, step):  # row blocks bound the product's size
            below[:, lo:lo + step] -= f[:, lo:lo + step, None] * row[:, None, :]
        below %= p
    k = np.minimum(rank, K - 1)
    coeffs = m[rows, k, n:] * (rank < K)[:, None]
    return rank, coeffs * _inverse_mod(coeffs[rows, k], p)[:, None] % p


def _krylov_dependency_of_one(krylov: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_krylov_dependency` of one graph's (K, n) Krylov vectors, as a stack of one.

    The same elimination in the same order, on 2-D arrays with the pivot as
    Python ints and one scalar inverse, so (rank_p, coefficients) equal the
    stacked kernel's bit for bit without its per-pivot batch indexing.
    """
    K, n = krylov.shape
    m = np.empty((K, n + K), dtype=np.int64)
    np.remainder(krylov, p, out=m[:, :n])
    m[:, n:] = np.eye(K, dtype=np.int64)
    r = _eliminate_one(m, n, p)
    if r == K:
        return np.array([K]), np.zeros((1, K), dtype=np.int64)
    coeffs = m[r, n:]
    return np.array([r]), (coeffs * pow(int(coeffs[r]), p - 2, p) % p)[None]


def _eliminate_one(m: np.ndarray, n: int, p: int) -> int:
    """Fraction-free forward elimination mod p of a 2-D ``m`` in place, pivoting
    in its first n columns; returns the first row that reduces to zero there,
    or the row count if none does."""
    for r in range(len(m)):
        row = m[r]
        piv = int(np.argmax(row[:n] != 0))
        pv = int(row[piv])
        if not pv:
            return r
        below = m[r + 1:]
        f = below[:, piv].copy()
        below *= pv
        below -= f[:, None] * row
        below %= p
    return len(m)


def _dependency_holds(adj: np.ndarray, krylov: np.ndarray, m: Sequence[int]) -> bool:
    """Whether sum_i m_i A^i j = 0 exactly for one graph (``adj`` (n, n)).

    ``krylov`` is the graph's wrapping Krylov sequence (exact mod 2^64).  A
    length-i walk count is at most Delta^i (Delta the maximum degree), so
    every entry of the sum is at most S = sum_i |m_i| Delta^i in size.  It
    is checked mod 2^64 and then mod as many primes as it takes for the
    moduli's product to exceed 2S: an integer that all of them divide and
    that is smaller than their product in size is 0.
    """
    n = len(adj)
    delta = int(adj.sum(axis=1).max())
    bound = 2 * sum(abs(c) * delta ** i for i, c in enumerate(m))
    wrapped = np.array([(c + (1 << 63)) % (1 << 64) - (1 << 63) for c in m], dtype=np.int64)
    if (wrapped[:, None] * krylov[:len(m)]).sum(axis=0).any():
        return False
    checks, modulus = [], 1 << 64
    for q in _primes():
        if modulus > bound:
            break
        checks.append(q)
        modulus *= q
    if not checks:
        return True
    qs = np.array(checks)[:, None]
    kq = _krylov(adj[None], qs, len(m))
    acc = np.zeros((len(checks), n), dtype=np.int64)
    for i, c in enumerate(m):
        acc = (acc + np.array([c % q for q in checks])[:, None] * kq[:, i]) % qs
    return not acc.any()


def _fits_int64_check(coeffs: np.ndarray, krylov: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """:func:`_dependency_holds` on a stack, where 2^64 alone covers the bound.

    True where the sum, wrapping in int64 and so exact mod 2^64, is zero and
    2S < 2^64.  ``coeffs`` are below 2^31 in size.  S comes from Horner's
    rule in int64, saturating at ``cap`` so that no step overflows; a
    saturated S is only known to be large, and that graph is left to the
    per-graph check.
    """
    zero = ~np.einsum("bk,bkv->bv", coeffs, krylov).any(axis=1)
    cap = ((1 << 63) - (1 << 31)) // max(int(delta.max(initial=0)), 1)
    s = np.zeros(len(coeffs), dtype=np.int64)
    for c in np.abs(coeffs).T[::-1]:
        s = np.minimum(s * delta + c, cap)
    return zero & (s < cap)


def walk_ranks(adj: np.ndarray) -> list[int]:
    """Walk-matrix ranks of a (B, n, n) int64 adjacency stack, each one certified.

    The rank of W = [j, Aj, ..., A^(n-1) j] is the first k for which A^k j
    lies in the span of j, ..., A^(k-1) j, since from there on that span is
    invariant under A.  Every rank is bounded from both sides.

    Lower bound.  Mod a prime p, let rank_p be the first k for which A^k j
    depends on the vectors before it (``_krylov_dependency``).  Those k
    vectors are independent mod p, so some k x k minor of W is non-zero mod
    p, hence non-zero: rank >= rank_p.  rank_p = n settles the rank.

    Upper bound, when rank_p = k < n.  The monic dependency found mod p is
    lifted by the Chinese remainder theorem, in the symmetric range, over
    the primes that give the same k.  A prime with a higher rank_p restarts
    the lift at its k; one with a lower rank_p divides a minor that shows
    rank >= k, so it is skipped.  A lifted m with sum m_i A^i j = 0 exactly
    (``_dependency_holds``) makes the span of j, ..., A^(k-1) j invariant
    under A: rank <= k.  A candidate that fails the check is never
    certified; the graph takes another prime.

    Termination.  Let r be the rank and D a non-zero r x r minor of W.  No
    prime has rank_p > r, and every prime that does not divide D, which is
    all but finitely many, has rank_p = r; mod such a prime the monic
    dependency is the integer one, m*, reduced.  So after finitely many
    primes the lift sits at k = r and only takes primes that agree with m*;
    once their product exceeds 2 max |m*_i| it returns m*, which passes.

    The primes are 31-bit, descending from 2^31 - 1 (``_primes``, each
    proved once per process).  The first one runs on the whole stack; for a
    stack of one it finds rank_p by a rank-only elimination and runs the
    coefficient elimination only on a short graph's first k + 1 vectors.
    Only the graphs it leaves short (rank_p < n) need the wrapping
    sequence, exact mod 2^64, that the checks read, and only as many
    vectors of it as the longest candidate has coefficients, max k + 1; a
    graph whose lift a later prime raises past that gets its sequence
    rebuilt to the new k + 1.  When Delta^(n-1) < 2^63, as for every graph
    of order n <= 16, every walk count is below 2^63 and that sequence is
    the one the prime reduces, so the stack builds its int64 Krylov
    sequence once; otherwise the primes' Krylov vectors are built mod p on
    float64 (``_krylov``), and the wrapping sequence for the short graphs
    alone, not at all when none is short.  Their candidates are checked in
    int64 (``_fits_int64_check``) wherever 2^64 alone covers the check's
    bound; only the rest go graph by graph.  A lift sitting at k needs from
    a later prime only whether j, ..., A^k j are dependent, so that prime
    gets the first k + 1 Krylov vectors and the coefficient elimination
    directly; a prime that finds them independent has a higher rank_p and
    is redone over all n.
    """
    B, n, _ = adj.shape
    delta = adj.sum(axis=2).max(axis=1)
    unwrapped = int(delta.max(initial=0)) ** (n - 1) < 1 << 63  # every walk count below 2^63
    krylov = _krylov(adj) if unwrapped else None

    def dependencies(idx, p, length=n):
        return _krylov_dependency(krylov[idx, :length] if unwrapped
                                  else _krylov(adj[idx], p, length), p)

    primes = _primes()
    p = next(primes)
    ranks, coeffs = dependencies(slice(None), p)
    idx = np.flatnonzero(ranks < n)
    if not idx.size:
        return ranks.tolist()
    length = int(ranks[idx].max()) + 1  # the longest candidate's vectors
    wrapping = krylov[idx, :length] if unwrapped else _krylov(adj[idx], length=length)
    short = coeffs[idx, :length]
    unsettled = ~_fits_int64_check(np.where(2 * short > p, short - p, short), wrapping,
                                   delta[idx])
    idx, wrapping = idx[unsettled], dict(zip(idx[unsettled].tolist(), wrapping[unsettled]))
    rank_p, coeffs = ranks[idx], coeffs[idx].tolist()
    # graph -> (k, modulus, lifted coefficients in [0, modulus))
    lifts = dict.fromkeys(idx.tolist(), (-1, 1, []))
    while True:
        for b, k, c in zip(idx.tolist(), rank_p.tolist(), coeffs):
            k0, mod, m = lifts[b]
            if k < k0:
                continue
            if k > k0:
                mod, m = p, c[:k + 1]
            else:
                inv = pow(mod, -1, p)
                m = [x + mod * ((y - x) * inv % p) for x, y in zip(m, c)]
                mod *= p
            lifts[b] = k, mod, m
            if k < n and len(wrapping[b]) <= k:  # a later prime raised the lift
                wrapping[b] = _krylov(adj[b][None], length=k + 1)[0]
            if k == n or _dependency_holds(adj[b], wrapping[b],
                                           [x - mod if 2 * x > mod else x for x in m]):
                ranks[b] = k
                del lifts[b]
        if not lifts:
            return ranks.tolist()
        p = next(primes)
        idx = np.array(list(lifts))
        length = max(k for k, _, _ in lifts.values()) + 1
        rank_p, coeffs = dependencies(idx, p, length)
        coeffs = coeffs.tolist()
        higher = np.flatnonzero((rank_p == length) & (length < n))
        if higher.size:
            higher_rank, higher_coeffs = dependencies(idx[higher], p)
            rank_p[higher] = higher_rank
            for i, c in zip(higher.tolist(), higher_coeffs.tolist()):
                coeffs[i] = c


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


def double_star_quartic_roots(k: int, s: int) -> tuple[float, float, float, float]:
    """The four real roots of x^4 - (k+s+1) x^2 + k s, the factor carrying
    T(k, s)'s nonzero eigenvalues, ascending.

    Substituting y = x^2 gives y^2 - (k+s+1) y + k s, whose two positive roots
    produce the symmetric pairs +-sqrt(y).
    """
    b = k + s + 1
    disc = math.sqrt(b * b - 4 * k * s)
    y_hi = (b + disc) / 2.0
    y_lo = (b - disc) / 2.0
    r_hi, r_lo = math.sqrt(y_hi), math.sqrt(y_lo)
    return (-r_hi, -r_lo, r_lo, r_hi)


def det_walk_divisor(g: Graph, k: int, s: int) -> int:
    """Exact determinant of the divisor walk matrix of T(k, s)'s 4-cell partition.

    Computed on ``g``, the double star T(k, s), from the partition {center 0},
    {center 1}, {leaves of 0}, {leaves of 1}; zero exactly when k = s.
    """
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
    x = np.sin(np.arange(1, n + 1) * theta)
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
    nbrs = [g.neighbors(v) for v in range(g.n)]
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
