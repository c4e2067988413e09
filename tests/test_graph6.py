import random

import networkx as nx
import pytest

from distlab.graph6 import HEADER, Graph6Error, emit, iter_graphs, parse
from distlab.graphs import complete_graph, cycle_graph, empty_graph, from_edge_list

from util import random_graph


def test_known_small_codes():
    assert emit(cycle_graph(5)) == "Dhc"
    assert parse("Dhc") == cycle_graph(5)
    assert emit(empty_graph(1)) == "@"
    assert parse("@") == empty_graph(1)


def test_round_trip_random():
    rng = random.Random(29)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 30), rng.random())
        assert parse(emit(g)) == g


def test_round_trip_long_header_sizes():
    rng = random.Random(31)
    for n in (62, 63, 64):
        g = random_graph(rng, n, 0.3)
        s = emit(g)
        if n >= 63:
            assert s.startswith("~")
        assert parse(s) == g


def test_agrees_with_networkx():
    """Three graphs of every order 1..64, so every column width and the
    long header of n >= 63 are checked."""
    rng = random.Random(37)
    for n in [*range(1, 65)] * 3:
        g = random_graph(rng, n, rng.random())
        ours = emit(g)
        ng = nx.empty_graph(g.n)
        ng.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(ng, header=False).strip().decode()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert from_edge_list(g.n, list(back.edges())) == g


def test_header_prefix_accepted_once():
    s = HEADER + emit(cycle_graph(4))
    assert parse(s) == cycle_graph(4)
    with pytest.raises(Graph6Error):
        parse(HEADER + HEADER + emit(cycle_graph(4)))


def test_parse_rejects_empty_and_bad_bytes():
    with pytest.raises(Graph6Error):
        parse("")
    with pytest.raises(Graph6Error) as exc:
        parse("D" + chr(20))
    assert "byte" in str(exc.value)
    with pytest.raises(Graph6Error):
        parse("Déc")


def test_parse_rejects_wrong_length():
    good = emit(cycle_graph(5))
    with pytest.raises(Graph6Error):
        parse(good + "A")
    with pytest.raises(Graph6Error):
        parse(good[:-1])


def test_parse_rejects_nonzero_padding():
    # K2 is 'A_'; body byte 'o' sets a padding bit past the single pair
    assert parse("A_") == complete_graph(2)
    with pytest.raises(Graph6Error):
        parse("Ao")


def test_iter_graphs_skips_blanks_and_header():
    text = [HEADER + "\n", "\n", emit(cycle_graph(4)) + "\n", emit(complete_graph(3)) + "\n"]
    got = list(iter_graphs(text))
    assert got == [cycle_graph(4), complete_graph(3)]


def test_iter_graphs_reports_line_numbers():
    lines = [emit(cycle_graph(4)), "D" + chr(20) + "c"]
    with pytest.raises(Graph6Error) as exc:
        list(iter_graphs(lines))
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)
