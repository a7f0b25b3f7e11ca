"""Exact integer route: walk matrices, walk rank, divisors of given equitable partitions.

Every result here is an exact integer fact, whatever the conditioning of the
floating spectrum; no float enters.  The analysis pipeline passes stacks of
graphs (a single graph is a stack of one) to ``walk_ranks``: the Krylov rank
mod a 31-bit prime bounds each walk rank from below, and a monic dependency,
lifted over further primes by the Chinese remainder theorem and checked
exactly, bounds it from above, at every order.  Their harmonic levels come
from one int64 product.  ``walk_matrix``, ``exact_rank`` and ``exact_det``
(fraction-free Bareiss elimination over Python integers) are not on that
route; ``exact_det`` gives T46 its determinant.  An equitable partition is
checked as given (``verify_equitable``) and yields the divisor walk matrix
behind that determinant.  This module is the cross-check counterpart of
:mod:`mainspec.spectra`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _primes() -> Iterator[int]:
    """The odd primes below 2^31, descending from 2^31 - 1, generated lazily."""
    return filter(_is_prime, range(_FIRST_PRIME, 2, -2))


def _krylov(adj: np.ndarray, p: int | np.ndarray | None = None,
            length: int | None = None) -> np.ndarray:
    """Walk-matrix columns j, Aj, ..., A^(K-1) j of a (B, n, n) stack, as (B, K, n) int64 rows.

    K is ``length``, n by default.  With ``p`` (an int, or one modulus per
    graph as a (B, 1) array) every entry is reduced mod p after each matvec,
    which sums at most n residues below 2^31.  Without it the int64 matvecs
    wrap, so the entries are the walk counts modulo 2^64 exactly.
    """
    B, n, _ = adj.shape
    length = n if length is None else length
    out = np.empty((B, length, n), dtype=np.int64)
    out[:, 0] = 1
    for k in range(length - 1):
        v = np.einsum("bij,bj->bi", adj, out[:, k])
        out[:, k + 1] = v if p is None else v % p
    return out


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
    """
    B, K, n = krylov.shape
    rows = np.arange(B)
    m = np.empty((B, K, n + K), dtype=np.int64)
    np.remainder(krylov, p, out=m[:, :, :n])
    m[:, :, n:] = np.eye(K, dtype=np.int64)
    rank = np.full(B, K)
    step = max(1, _BLOCK_ENTRIES // (B * (n + K)))
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
    kq = _krylov(np.broadcast_to(adj, (len(checks), n, n)), qs)
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

    The primes are 31-bit, descending from 2^31 - 1 (``_primes``).  The
    first one runs on the whole stack.  Only the graphs it leaves short
    (rank_p < n) need the wrapping sequence, exact mod 2^64, that the checks
    read.  When every walk count is below 2^63, as at every n <= 9, that
    sequence is the one the prime reduces, so the stack builds its Krylov
    sequence once; otherwise it is built for the short graphs alone, and
    not at all when none is short.  Their candidates are checked in int64
    (``_fits_int64_check``) wherever 2^64 alone covers the check's bound;
    only the rest go graph by graph.  A lift sitting at k needs from a later
    prime only whether j, ..., A^k j are dependent, so that prime gets the
    first k + 1 Krylov vectors; a prime that finds them independent has a
    higher rank_p and is redone over all n.
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
    wrapping = krylov[idx] if unwrapped else _krylov(adj[idx])
    sym = np.where(2 * coeffs[idx] > p, coeffs[idx] - p, coeffs[idx])
    unsettled = ~_fits_int64_check(sym, wrapping, delta[idx])
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
