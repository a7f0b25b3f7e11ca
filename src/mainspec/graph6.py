"""graph6 and plain edge-list codecs.

graph6 packs the upper triangle of the adjacency matrix, column by column
((0,1), (0,2), (1,2), (0,3), ...), six bits per printable byte (value + 63).
The size header is a single byte n + 63 for n <= 62; larger orders use the
'~' extended forms.  Parsing is strict about byte ranges and payload length
and reports the byte offset of the first problem.
"""
from __future__ import annotations

from .graphs import MAX_ORDER, Graph, triangle_pairs

_HEADER = b">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeListError(ValueError):
    """Malformed edge-list input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


def _to_bytes(data: str | bytes) -> bytes:
    if isinstance(data, bytes):
        return data
    try:
        return data.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("non-ASCII byte", exc.start) from None


def parse_graph6(data: str | bytes) -> Graph:
    """Decode one graph6 line (optional '>>graph6<<' prefix and trailing newline allowed)."""
    raw = _to_bytes(data)
    if raw.startswith(_HEADER):
        raw = raw[len(_HEADER):]
    raw = raw.rstrip(b"\r\n")
    if not raw:
        raise Graph6Error("empty input", 0)

    n, pos = _parse_order(raw)
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    actual = len(raw) - pos
    if actual < expected:
        raise Graph6Error(
            f"payload too short: need {expected} bytes for n={n}, got {actual}", len(raw)
        )
    if actual > expected:
        raise Graph6Error(
            f"payload too long: need {expected} bytes for n={n}, got {actual}", pos + expected
        )

    rows = [0] * n
    pairs = triangle_pairs(n)
    bit = 0
    for off in range(pos, len(raw)):
        b = raw[off]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", off)
        chunk = b - 63
        for k in range(5, -1, -1):
            if bit < nbits and chunk >> k & 1:
                i, j = pairs[bit]
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return Graph(n, tuple(rows))


def _parse_order(raw: bytes) -> tuple[int, int]:
    """Read the size header; returns (n, payload offset)."""
    b0 = raw[0]
    if b0 != 126:
        if not 63 <= b0 <= 126:
            raise Graph6Error(f"byte {b0} outside graph6 range 63..126", 0)
        n = b0 - 63
        if n == 0:
            raise Graph6Error("order 0 not supported", 0)
        return n, 1
    # '~' prefix: 3 bytes of 18-bit order, or '~~' followed by 6 bytes of 36 bits.
    long_form = len(raw) > 1 and raw[1] == 126
    start, width = (2, 6) if long_form else (1, 3)
    if len(raw) < start + width:
        raise Graph6Error("truncated extended size header", len(raw))
    n = 0
    for off in range(start, start + width):
        b = raw[off]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} outside graph6 range 63..126", off)
        n = n << 6 | (b - 63)
    if not long_form and n < 63:
        raise Graph6Error(f"non-canonical extended header for n={n}", 0)
    if long_form and n < 258048:
        raise Graph6Error(f"non-canonical extended header for n={n}", 0)
    return n, start + width


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    return bytes([126, 126] + [(n >> (6 * k) & 63) + 63 for k in range(5, -1, -1)])


def serialize_graph6(g: Graph) -> bytes:
    """Encode a graph as one graph6 line (no header, no trailing newline)."""
    out = bytearray(_encode_order(g.n))
    chunk = 0
    filled = 0
    for i, j in triangle_pairs(g.n):
        chunk = chunk << 1 | (g.rows[i] >> j & 1)
        filled += 1
        if filled == 6:
            out.append(chunk + 63)
            chunk = 0
            filled = 0
    if filled:
        out.append((chunk << (6 - filled)) + 63)
    return bytes(out)


def parse_edgelist(text: str) -> Graph:
    """Decode the plain text format: first line "n m", then one "u v" per edge.

    The header alone can name any order, so one above MAX_ORDER is refused
    before anything is built (a graph6 line grows with the order it names).
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise EdgeListError("missing header line", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise EdgeListError(f"header must be 'n m', got {lines[0]!r}", 1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise EdgeListError(f"header must be two integers, got {lines[0]!r}", 1) from None
    if n < 1:
        raise EdgeListError(f"order must be >= 1, got {n}", 1)
    if n > MAX_ORDER:
        raise EdgeListError(f"order {n} is above the cap of {MAX_ORDER}", 1)
    if m < 0:
        raise EdgeListError(f"edge count must be >= 0, got {m}", 1)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    lineno = 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"edge line must be 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"edge line must be two integers, got {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"vertex out of range in edge ({u}, {v})", lineno)
        if u == v:
            raise EdgeListError(f"loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise EdgeListError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(key)
        edges.append((u, v))
    if len(edges) != m:
        raise EdgeListError(f"header announced {m} edges, found {len(edges)}", lineno)
    return Graph.from_edges(n, edges)


def serialize_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
