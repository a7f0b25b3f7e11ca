"""Core graph type, named families, and graph predicates.

Vertices are always 0..n-1 and graphs are simple and undirected.  Adjacency is
stored as one neighbor bitmask per vertex: equality and hashing are cheap, and
complement / enumeration reduce to integer bit operations.

Rows the program builds (edge masks and lists, complements, families, and
stacks ``check_stack`` checked as a whole) are valid by construction and go
through ``_trusted``; ``Graph(n, rows)`` checks the rows a caller passes in.

A graph's structural facts (degrees, m, sum d^2, connectivity, the
two-coloring and the pseudo-regular ratio) are one ``Facts`` record, read
through the ``per_graph`` function ``facts``: computed from one bitmask
breadth-first walk on the first read and kept on the graph.  Sweeps check a
(B, n) stack of neighbor bitmasks (``check_stack``) and compute its facts as
columns (``stack_facts``) at once; ``store_facts`` puts a row's record where
``facts`` looks.  The lazy route is the reference the stack path is tested
against.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple, Sequence, TypeVar

import numpy as np

# Exhaustive sweeps (``sweeps.sweep``) walk all 2^(n(n-1)/2) labeled graphs;
# past n = 8 that is no longer a sane thing to offer.
MAX_ENUM_ORDER = 8
# Largest order the command line reads or builds.  At it, ``analyze --json``
# on a G(200, 0.3) or G(200, 0.5) and its complement takes 0.4-0.5 s, and on
# the twin blow-up of a G(100, 0.3) (walk rank 100, nine lifting primes)
# 1.0-1.3 s, start-up included; at order 250 analysing that blow-up and its
# complement takes 1.8-2.0 s (2-core x86_64 box).
MAX_ORDER = 200


class ParameterError(ValueError):
    """A constructor or family parameter is outside its documented domain."""


_T = TypeVar("_T")


@lru_cache(maxsize=None)
def triangle_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangle vertex pairs in column-major order.

    The order (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ... is shared by the
    graph6 codec and by the edge-mask enumeration, so bit k of an edge mask
    always means the same pair.
    """
    return tuple((i, j) for j in range(1, n) for i in range(j))


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; ``rows[i]`` is the neighbor bitmask of vertex i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_order(self.n)
        if len(self.rows) != self.n:
            raise ParameterError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if row >> self.n:
                raise ParameterError(f"row {i} references vertices >= n")
            if row >> i & 1:
                raise ParameterError(f"loop at vertex {i}")
        # Symmetric iff every neighbor lists the vertex back: walk set bits only.
        for i, row in enumerate(self.rows):
            bit = 1 << i
            while row:
                low = row & -row
                j = low.bit_length() - 1
                if not self.rows[j] & bit:
                    raise ParameterError(
                        f"adjacency not symmetric at ({min(i, j)}, {max(i, j)})")
                row ^= low

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            try:  # numpy integers too, as Python ints: 1 << np.int64(70) wraps
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ParameterError(f"edge ({u}, {v}) has a non-integer endpoint") from None
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        _require_order(n)
        return _trusted(n, tuple(rows))

    @staticmethod
    def from_edge_mask(n: int, mask: int) -> "Graph":
        """Build a graph from an edge bitmask over ``triangle_pairs(n)``: column j,
        vertex j's neighbors below it, is the mask's next j bits."""
        _require_order(n)
        rows = [0] * n
        for j in range(1, n):
            below = mask & (1 << j) - 1
            mask >>= j
            rows[j] = below
            while below:
                low = below & -below
                rows[low.bit_length() - 1] |= 1 << j
                below ^= low
        return _trusted(n, tuple(rows))

    def edge_mask(self) -> int:
        """The edge bitmask over ``triangle_pairs(n)``, the inverse of ``from_edge_mask``:
        column j, vertex j's neighbors below it, is the mask's next j bits."""
        mask = 0
        for j in range(self.n - 1, 0, -1):
            mask = mask << j | self.rows[j] & (1 << j) - 1
        return mask

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.rows) // 2

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self.rows[v]))

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i, j in triangle_pairs(self.n) if self.rows[i] >> j & 1]

    def adjacency_matrix(self) -> np.ndarray:
        """0/1 float64 matrix; row i's bit j, read little-endian, is entry (i, j)."""
        width = (self.n + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.rows)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width),
                             axis=1, count=self.n, bitorder="little")
        return bits.astype(np.float64)

    def complement(self) -> "Graph":
        # The complement of a valid graph is valid: no symmetry walk.
        full = (1 << self.n) - 1
        return _trusted(self.n, tuple((full ^ row) & ~(1 << i) for i, row in enumerate(self.rows)))


def _require_order(n: int) -> None:
    if n < 1:
        raise ParameterError(f"graph order must be >= 1, got {n}")


def _trusted(n: int, rows: tuple[int, ...]) -> Graph:
    """A ``Graph`` on rows already known to be valid, built without ``__post_init__``."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)  # as the dataclass __init__ does, not through __dict__
    object.__setattr__(g, "rows", rows)
    return g


def per_graph(fact: Callable[[Graph], _T]) -> Callable[[Graph], _T]:
    """Memoise a structural fact on the graph object it describes.

    The body runs on the first call for each ``Graph`` object; its value is
    kept in that graph's instance dict under ``"_" + fact.__name__`` (a frozen
    dataclass still has one), so it lives as long as the graph and stays out
    of equality and hashing.
    """
    key = "_" + fact.__name__

    @wraps(fact)
    def cached(g: Graph) -> _T:
        memo = g.__dict__
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fact(g)
            return value

    return cached


def _neighborhood(g: Graph, vertices: int) -> int:
    """Union of the neighbor masks of the vertices in bitmask ``vertices``."""
    out = 0
    while vertices:
        low = vertices & -vertices
        out |= g.rows[low.bit_length() - 1]
        vertices ^= low
    return out


def _bits(mask: int) -> list[int]:
    """Vertices of bitmask ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Facts(NamedTuple):
    """The structural facts the claims and ``verify``'s filters read off a
    graph, as a named tuple.

    ``sides`` is the two-coloring (side 0, side 1), each ascending, in which
    every component's smallest vertex has color 0 and a vertex's color is the
    parity of its distance from it; for a connected graph that is the
    bipartition, unique up to swapping sides.  It is None if an odd cycle
    exists.  ``ratio`` is the average-neighbor-degree ratio, the reduced
    fraction sum(deg of neighbors)/deg as (numerator, denominator), if it is
    the same at every vertex; None if it varies or some vertex is isolated.
    """

    degrees: tuple[int, ...]
    m: int
    sum_squares: int
    connected: bool
    sides: tuple[tuple[int, ...], tuple[int, ...]] | None
    ratio: tuple[int, int] | None


@per_graph
def facts(g: Graph) -> Facts:
    """``g``'s structural facts, from one bitmask breadth-first walk.

    The walk starts each component at its smallest unseen vertex with color 0
    and alternates colors by layer; an edge inside a layer closes an odd
    cycle, and the walk goes on to count the components.  The neighbor-degree
    sums take one popcount per degree class and vertex, and stop at the first
    vertex whose ratio differs from vertex 0's.
    """
    degs = g.degrees()
    full = (1 << g.n) - 1
    sides = [0, 0]
    seen = components = clash = 0
    while seen != full:
        layer = ~seen & (seen + 1)  # the smallest vertex not yet colored
        components += 1
        color = 0
        while layer:
            sides[color] |= layer
            seen |= layer
            reach = _neighborhood(g, layer)
            clash |= reach & sides[color]
            layer = reach & ~seen
            color ^= 1
    ratio = None
    if 0 not in degs:
        classes: dict[int, int] = {}  # degree: bitmask of the vertices of that degree
        for v, d in enumerate(degs):
            classes[d] = classes.get(d, 0) | 1 << v

        def neighbor_degrees(row: int) -> int:
            return sum(c * (row & cls).bit_count() for c, cls in classes.items())

        num0, den0 = neighbor_degrees(g.rows[0]), degs[0]
        if all(neighbor_degrees(row) * den0 == num0 * d for row, d in zip(g.rows, degs)):
            common = math.gcd(num0, den0)
            ratio = num0 // common, den0 // common
    return Facts(degs, sum(degs) // 2, sum(d * d for d in degs), components == 1,
                 None if clash else (tuple(_bits(sides[0])), tuple(_bits(sides[1]))), ratio)


def is_connected(g: Graph) -> bool:
    return facts(g).connected


def is_bipartite(g: Graph) -> bool:
    return facts(g).sides is not None


# ---------------------------------------------------------------------------
# Stacks: a sweep chunk's graphs and their facts, from its (B, n) rows.
# ---------------------------------------------------------------------------


def check_stack(rows: np.ndarray) -> None:
    """Check a (B, n) int64 stack of neighbor bitmasks as a whole.

    One vectorised pass makes ``Graph.__post_init__``'s checks for every row
    (no bit >= n, no loop, bit j of row i equal to bit i of row j) and raises
    ParameterError at the first bad graph.
    """
    count, n = rows.shape
    if not 1 <= n <= 62:
        raise ParameterError(f"a row stack holds orders 1..62, got {n}")
    octets = rows.astype("<i8", copy=False).view(np.uint8).reshape(count, n, 8)
    bits = np.unpackbits(octets, axis=2, count=n, bitorder="little")  # (B, n, n) adjacency
    for bad, message in (
            ((rows >> n) != 0, "row {1} references vertices >= n"),
            (np.diagonal(bits, axis1=1, axis2=2) != 0, "loop at vertex {1}"),
            (bits != bits.transpose(0, 2, 1), "adjacency not symmetric at ({1}, {2})")):
        if bad.any():
            where = np.argwhere(bad)[0].tolist()
            raise ParameterError(f"stack graph {where[0]}: " + message.format(*where))


def stack_graphs(rows: np.ndarray) -> list[Graph]:
    """The graphs of a (B, n) int64 stack of neighbor bitmasks that
    ``check_stack`` passed, built without the per-graph walk."""
    n = rows.shape[1]
    return [_trusted(n, tuple(r)) for r in rows.tolist()]


class StackFacts(NamedTuple):
    """The ``facts`` of a (B, n) stack as columns: ``side1`` is the bitmask of
    side 1 of the two-coloring (side 0 is every other vertex), ``ratio`` is
    (B, 2), (0, 0) where ``Facts.ratio`` is None."""

    degrees: np.ndarray
    m: np.ndarray
    sum_squares: np.ndarray
    connected: np.ndarray
    bipartite: np.ndarray
    side1: np.ndarray
    ratio: np.ndarray


def stack_facts(rows: np.ndarray) -> StackFacts:
    """The structural facts of a (B, n) int64 stack of neighbor bitmasks as columns.

    Degrees and sum d^2 come from popcounts, the pseudo-regular ratio from
    the neighbor-degree sums reduced by ``np.gcd``; connectivity and the
    sides from ``facts``'s bitmask BFS run on every graph at once over the
    array's columns, giving the same sides.
    """
    count, n = rows.shape
    full = (1 << n) - 1
    degs = np.zeros_like(rows)
    for j in range(n):
        degs += rows >> j & 1
    nbr_sums = np.zeros_like(rows)
    for j in range(n):
        nbr_sums += (rows >> j & 1) * degs[:, j, None]
    # BFS: each step colors one layer of every graph not yet done, and a graph
    # whose layer runs dry starts its next component at its smallest unseen
    # vertex, so a graph is done after at most n steps.  A graph with an odd
    # cycle keeps walking, so its components still count.
    idx = np.arange(count)
    shifts = np.arange(n, dtype=np.int64)
    seen = np.zeros(count, dtype=np.int64)
    layer = np.zeros(count, dtype=np.int64)
    color = np.zeros(count, dtype=np.intp)
    sides = np.zeros((2, count), dtype=np.int64)
    components = np.zeros(count, dtype=np.int64)
    odd = np.zeros(count, dtype=bool)
    while True:
        start = (layer == 0) & (seen != full)
        layer = np.where(start, ~seen & (seen + 1), layer)
        if not layer.any():
            break
        color[start] = 0
        components += start
        sides[color, idx] |= layer
        seen |= layer
        in_layer = ((layer[:, None] >> shifts) & 1).astype(bool)
        reach = np.bitwise_or.reduce(np.where(in_layer, rows, 0), axis=1)
        odd |= (reach & sides[color, idx]) != 0
        layer = reach & ~seen
        color ^= 1
    # Pseudo-regular: every vertex has the ratio of vertex 0, sum of neighbor degrees / degree.
    num0, den0 = nbr_sums[:, 0], degs[:, 0]
    regular = (degs > 0).all(axis=1) & (nbr_sums * den0[:, None] == num0[:, None] * degs).all(axis=1)
    ratio = np.stack([num0, den0], axis=1) // np.maximum(np.gcd(num0, den0), 1)[:, None]
    return StackFacts(degs, degs.sum(axis=1) // 2, (degs * degs).sum(axis=1), components == 1,
                      ~odd, sides[1], np.where(regular[:, None], ratio, 0))


def store_facts(graphs: Sequence[Graph], columns: StackFacts) -> None:
    """Store each of ``graphs``' ``facts`` record, read off its row of ``columns``."""
    full = (1 << columns.degrees.shape[1]) - 1
    masks, slot = np.unique(np.stack([full ^ columns.side1, columns.side1]), return_inverse=True)
    parts = [tuple(_bits(mask)) for mask in masks.tolist()]
    slot = slot.reshape(2, -1)
    for g, d, m, sq, conn, two, s0, s1, (p, q) in zip(
            graphs, columns.degrees.tolist(), columns.m.tolist(), columns.sum_squares.tolist(),
            columns.connected.tolist(), columns.bipartite.tolist(), slot[0].tolist(),
            slot[1].tolist(), columns.ratio.tolist()):
        g.__dict__["_facts"] = Facts(  # where ``facts`` keeps its record
            tuple(d), m, sq, conn, (parts[s0], parts[s1]) if two else None,
            (p, q) if q else None)


# ---------------------------------------------------------------------------
# Named families.  Every builder documents its vertex order; reports and the
# CLI rely on these labels being stable.  Each writes its neighbor bitmasks in
# closed form, symmetric by construction (the tests compare each with
# ``Graph.from_edges`` of the edges it documents), so none runs the
# constructor's symmetry walk: for K_{100,100} that walk visits 20,000 bits.
# ---------------------------------------------------------------------------


def _path_rows(n: int) -> tuple[int, ...]:
    """Neighbor bitmasks of the path 0-1-...-(n-1): bits i-1 and i+1 of row i, within n."""
    return tuple((1 << i >> 1 | 1 << i + 1) & ((1 << n) - 1) for i in range(n))


def path(n: int) -> Graph:
    """Path on vertices 0-1-...-(n-1)."""
    if n < 1:
        raise ParameterError(f"path needs n >= 1, got {n}")
    return _trusted(n, _path_rows(n))


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3, got {n}")
    return _trusted(n, tuple(1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"complete graph needs n >= 1, got {n}")
    return _trusted(n, tuple(((1 << n) - 1) ^ 1 << i for i in range(n)))


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError(f"empty graph needs n >= 1, got {n}")
    return _trusted(n, (0,) * n)


def star(n: int) -> Graph:
    """Star on n vertices: hub 0 joined to leaves 1..n-1."""
    if n < 1:
        raise ParameterError(f"star needs n >= 1, got {n}")
    return _trusted(n, ((1 << n) - 2,) + (1,) * (n - 1))


def complete_bipartite(r: int, s: int) -> Graph:
    """K_{r,s} with side A = 0..r-1 and side B = r..r+s-1."""
    if r < 1 or s < 1:
        raise ParameterError(f"complete bipartite needs r, s >= 1, got ({r}, {s})")
    side_a, side_b = (1 << r) - 1, ((1 << s) - 1) << r
    return _trusted(r + s, (side_b,) * r + (side_a,) * s)


def _double_star_rows(k: int, s: int) -> tuple[int, ...]:
    """Neighbor bitmasks of T(k, s) as ``double_star`` lays it out."""
    leaves0, leaves1 = ((1 << k) - 1) << 2, ((1 << s) - 1) << 2 + k
    return (leaves0 | 0b10, leaves1 | 0b01) + (0b01,) * k + (0b10,) * s


def double_star(k: int, s: int) -> Graph:
    """Double star T(k, s): centers 0 and 1 joined by an edge, with k leaves
    2..k+1 on center 0 and s leaves k+2..k+s+1 on center 1."""
    if k < 1 or s < 1:
        raise ParameterError(f"double star needs k, s >= 1, got ({k}, {s})")
    return _trusted(2 + k + s, _double_star_rows(k, s))


def harmonic_tree(ell: int) -> Graph:
    """Tree whose degree vector is an eigenvector for eigenvalue ell.

    Vertex order: hub 0; the hub's h = ell^2 - ell + 1 neighbors 1..h; then
    ell - 1 leaves per neighbor, grouped by neighbor.  Hub degree h, neighbor
    degree ell, leaf degree 1; the order is ell^3 - ell^2 + ell + 1.
    """
    if ell < 2:
        raise ParameterError(f"harmonic tree needs ell >= 2, got {ell}")
    h = ell * ell - ell + 1
    leaves = (1 << ell - 1) - 1  # neighbor v's leaves, shifted to h + 1 + (v-1)(ell-1)
    rows = ((1 << h + 1) - 2,)
    rows += tuple(1 | leaves << h + 1 + (v - 1) * (ell - 1) for v in range(1, h + 1))
    rows += tuple(1 << v for v in range(1, h + 1) for _ in range(ell - 1))
    return _trusted(1 + h * ell, rows)


def pendant_decorated(base: Graph, q: int) -> Graph:
    """Attach q pendant vertices to every vertex of a connected regular graph.

    Base vertices keep their labels 0..p-1; pendant t of base vertex v is
    p + v*q + t.  The base must be connected and regular (any degree).
    """
    if q < 1:
        raise ParameterError(f"pendant decoration needs q >= 1, got {q}")
    degs = set(base.degrees())
    if len(degs) != 1:
        raise ParameterError("pendant decoration needs a regular base graph")
    if not is_connected(base):
        raise ParameterError("pendant decoration needs a connected base graph")
    p, pendants = base.n, (1 << q) - 1
    rows = tuple(row | pendants << p + v * q for v, row in enumerate(base.rows))
    return _trusted(p * (q + 1), rows + tuple(1 << v for v in range(p) for _ in range(q)))


@dataclass(frozen=True)
class FamilySpec:
    """Symbolic family instance: a kind tag plus integer parameters.

    Pendant decorations carry their base family in ``base``; only regular,
    connected base families make sense there.
    """

    kind: str
    params: tuple[int, ...]
    base: "FamilySpec | None" = None

    def describe(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        if self.base is not None:
            return f"{self.kind}({self.base.describe()},q={inner})"
        return f"{self.kind}({inner})"

    def order(self) -> int:
        """Order of the graph this spec names, from the parameters alone.

        Raises ParameterError on an unknown kind or a wrong parameter count;
        parameters outside a family's domain are left to its builder.
        """
        kind = self.kind.lower()
        if kind == "pendant":
            if self.base is None or len(self.params) != 1:
                raise ParameterError("pendant spec needs a base family and a single q parameter")
            return self.base.order() * (self.params[0] + 1)
        if kind not in _FAMILY_BUILDERS:
            raise ParameterError(f"unknown family {self.kind!r}")
        _, arity, order = _FAMILY_BUILDERS[kind]
        if len(self.params) != arity:
            raise ParameterError(
                f"family {self.kind!r} takes {arity} parameter(s), got {len(self.params)}")
        return order(*self.params)


# kind: (builder, parameter count, order from the parameters)
_FAMILY_BUILDERS = {
    "path": (path, 1, lambda n: n),
    "cycle": (cycle, 1, lambda n: n),
    "star": (star, 1, lambda n: n),
    "complete": (complete, 1, lambda n: n),
    "empty": (empty_graph, 1, lambda n: n),
    "completebipartite": (complete_bipartite, 2, lambda r, s: r + s),
    "krs": (complete_bipartite, 2, lambda r, s: r + s),
    "doublestar": (double_star, 2, lambda k, s: 2 + k + s),
    "harmonictree": (harmonic_tree, 1, lambda ell: ell ** 3 - ell ** 2 + ell + 1),
}


@per_graph
def family_of(g: Graph) -> FamilySpec | None:
    """The ``path`` or ``doublestar`` spec whose builder gives exactly ``g``'s
    rows, or None: a relabelled path or double star is not one."""
    if g.rows == _path_rows(g.n):  # every order-1 graph stops here
        return FamilySpec("path", (g.n,))
    k, s = g.rows[0].bit_count() - 1, g.rows[1].bit_count() - 1
    if min(k, s) >= 1 and g.rows == _double_star_rows(k, s):
        return FamilySpec("doublestar", (k, s))
    return None


def require_capped(spec: FamilySpec) -> None:
    """Raise ParameterError if ``spec`` names a graph of order above MAX_ORDER."""
    order = spec.order()
    if order > MAX_ORDER:
        raise ParameterError(f"{spec.describe()} has order {order}, above the cap of {MAX_ORDER}")


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph an instance spec names; raises ParameterError on bad
    input, and on an order above MAX_ORDER before building anything."""
    require_capped(spec)
    if spec.kind.lower() == "pendant":
        return pendant_decorated(build_family(spec.base), spec.params[0])
    return _FAMILY_BUILDERS[spec.kind.lower()][0](*spec.params)
