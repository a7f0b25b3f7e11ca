"""graph6 + edge-list codec tests, cross-checked against networkx."""
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspec.graph6 import (
    EdgeListError,
    Graph6Error,
    parse_edgelist,
    parse_graph6,
    serialize_edgelist,
    serialize_graph6,
)
from mainspec.graphs import (
    MAX_ORDER,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    path,
    star,
)
from mainspec.sweeps import mask_population

FROZEN = [
    (path(2), b"A_"),
    (path(4), b"Ch"),
    (cycle(4), b"Cl"),
    (star(4), b"Cs"),
    (complete_bipartite(3, 3), b"EFz_"),
]


@pytest.mark.parametrize("g,encoded", FROZEN, ids=lambda v: repr(v)[:12])
def test_frozen_encodings(g, encoded):
    assert serialize_graph6(g) == encoded
    assert parse_graph6(encoded) == g


def test_frozen_encodings_match_networkx():
    for g, encoded in FROZEN:
        gx = nx.from_graph6_bytes(encoded)
        assert set(gx.edges()) == {tuple(sorted(e)) for e in g.edges()}


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for mask in range(mask_population(n)):
            g = Graph.from_edge_mask(n, mask)
            assert parse_graph6(serialize_graph6(g)) == g


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
        )
    )
)
def test_roundtrip_random(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    assert parse_graph6(serialize_graph6(g)) == g


@settings(max_examples=150)
@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1)
        )
    )
)
def test_agrees_with_networkx(nm):
    n, mask = nm
    g = Graph.from_edge_mask(n, mask)
    gx = nx.Graph()
    gx.add_nodes_from(range(n))  # keep vertex labels in order
    gx.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(gx, header=False).strip()
    assert serialize_graph6(g) == theirs
    assert parse_graph6(theirs) == g


def test_string_input_accepted():
    assert parse_graph6("Ch") == path(4)


def test_header_prefix_stripped():
    assert parse_graph6(b">>graph6<<Ch") == path(4)


def test_trailing_newline_ignored():
    assert parse_graph6(b"Ch\n") == path(4)


def test_extended_order_63():
    g = path(63)
    enc = serialize_graph6(g)
    assert enc[:4] == b"~??~"
    assert len(enc) == 330
    assert parse_graph6(enc) == g


def test_extended_order_128():
    g = star(128)
    assert parse_graph6(serialize_graph6(g)) == g


class TestGraph6Errors:
    def test_empty_input(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"")

    def test_byte_out_of_range(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"C\x1f")
        assert exc.value.offset == 1

    def test_truncated_body(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"E")  # order 6 needs 3 body bytes
        assert exc.value.offset == 1

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"Chh")

    def test_order_zero_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6(b"?")

    def test_order_over_cap_refused_on_header(self):
        # "~?mw" names order 3000 and carries no payload: the cap is reported
        # from the header alone, before the payload length is looked at
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(b"~?mw")
        assert str(exc.value) == f"order 3000 is above the cap of {MAX_ORDER} (byte offset 0)"


class TestEdgeList:
    def test_roundtrip(self):
        g = complete(5)
        assert parse_edgelist(serialize_edgelist(g)) == g

    def test_parse_basic(self):
        g = parse_edgelist("4 3\n0 1\n1 2\n2 3\n")
        assert g == path(4)

    def test_blank_lines_skipped(self):
        g = parse_edgelist("2 1\n\n0 1\n\n")
        assert g.m == 1

    def test_bad_header(self):
        with pytest.raises(EdgeListError):
            parse_edgelist("nonsense\n0 1")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edgelist("3 2\n0 1\n")
        assert exc.value.line is not None

    def test_loop_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edgelist("3 1\n1 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError):
            parse_edgelist("3 1\n0 3\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edgelist("3 2\n0 1\n1 0\n")
