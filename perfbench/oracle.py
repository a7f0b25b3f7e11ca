"""Independent reference code: graph encodings, inputs and an exact rank.

Nothing here calls mainspec.  The benchmark builds its inputs with it and
checks the program's exact ranks against a ``fractions.Fraction``
elimination, outside the timed region.
"""
from __future__ import annotations

import random
from fractions import Fraction

Edges = list[tuple[int, int]]


def triangle_pairs(n: int) -> list[tuple[int, int]]:
    """Edge-mask bit order shared with graph6: (0,1), (0,2), (1,2), (0,3), ..."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def mask_edges(n: int, mask: int) -> Edges:
    return [pair for bit, pair in enumerate(triangle_pairs(n)) if mask >> bit & 1]


def graph6(n: int, edges: Edges) -> str:
    """graph6 text for n <= 62."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [int(pair in present) for pair in triangle_pairs(n)]
    bits += [0] * (-len(bits) % 6)
    body = (
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
        for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + "".join(body)


def complement_edges(n: int, edges: Edges) -> Edges:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [pair for pair in triangle_pairs(n) if pair not in present]


def walk_matrix(n: int, edges: Edges) -> list[list[int]]:
    """Rows indexed by vertex, column c counts walks of length c."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    col = [1] * n
    cols = [col]
    for _ in range(n - 1):
        col = [sum(col[w] for w in nbrs[v]) for v in range(n)]
        cols.append(col)
    return [[cols[c][v] for c in range(n)] for v in range(n)]


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / top[c]
            if f:
                row = m[i]
                for j in range(c, len(row)):
                    row[j] -= f * top[j]
        rank += 1
    return rank


def walk_rank(n: int, edges: Edges) -> int:
    return fraction_rank(walk_matrix(n, edges))


# -- structured families (vertex order as in the paper's constructions) -----


def gnp(n: int, p: float, rng: random.Random) -> Edges:
    return [pair for pair in triangle_pairs(n) if rng.random() < p]


def pendant_cycle(p: int, q: int) -> tuple[int, Edges]:
    """C_p with q pendant vertices on every cycle vertex."""
    edges = [(v, (v + 1) % p) for v in range(p)]
    edges += [(v, p + v * q + t) for v in range(p) for t in range(q)]
    return p * (q + 1), edges


def double_star(k: int, s: int) -> tuple[int, Edges]:
    """Two adjacent centres 0 and 1 with k and s leaves."""
    edges = [(0, 1)] + [(0, 2 + t) for t in range(k)]
    edges += [(1, 2 + k + t) for t in range(s)]
    return k + s + 2, edges


def harmonic_tree(ell: int) -> tuple[int, Edges]:
    """T_ell: hub, ell^2 - ell + 1 neighbours, ell - 1 leaves on each."""
    h = ell * ell - ell + 1
    edges = [(0, v) for v in range(1, h + 1)]
    for v in range(1, h + 1):
        base = h + 1 + (v - 1) * (ell - 1)
        edges += [(v, base + t) for t in range(ell - 1)]
    return 1 + h * ell, edges


def complete_bipartite(r: int, s: int) -> tuple[int, Edges]:
    return r + s, [(u, r + v) for u in range(r) for v in range(s)]


def relabel(n: int, edges: Edges, rng: random.Random) -> Edges:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]
