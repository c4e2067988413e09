import hashlib
import random

import networkx as nx
import pytest

from distlab.graph6 import HEADER, Graph6Error, _layout, emit, iter_graphs, parse
from distlab.graphs import from_edge_list

from util import complete_graph, cycle_graph, random_graph


def test_known_small_codes():
    assert emit(cycle_graph(5)) == "Dhc"
    assert parse("Dhc") == cycle_graph(5)
    assert emit(from_edge_list(1, [])) == "@"
    assert parse("@") == from_edge_list(1, [])


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


# sha256 over every emit string and over every repr(parse(...).adj), one per
# line, of _pinned_graphs(); recorded before emit packed one triangle int and
# parse checked bytes by deletion.
EMIT_SHA256 = "1552fcab6f05431e69ac78ebab9405821ab1c7e19621762c92d2938dba983924"
PARSE_SHA256 = "009a9794cc505063cb81883e8a2b506c05dcb77166ff462aa716b90c15d03c69"


def _pinned_graphs():
    rng = random.Random(43)
    for n in range(1, 65):
        for p in (0, 0.1, 0.5, 0.9, 1):
            yield random_graph(rng, n, p)


def test_codec_is_pinned():
    """Every order 1..64 at five densities: n = 1 and 2, every amount of
    padding and the long header of n = 63 and 64."""
    emitted = hashlib.sha256()
    parsed = hashlib.sha256()
    for g in _pinned_graphs():
        s = emit(g)
        emitted.update(s.encode() + b"\n")
        parsed.update(repr(parse(s).adj).encode() + b"\n")
    assert emitted.hexdigest() == EMIT_SHA256
    assert parsed.hexdigest() == PARSE_SHA256


def test_header_prefix_accepted_once():
    s = HEADER + emit(cycle_graph(4))
    assert parse(s) == cycle_graph(4)
    with pytest.raises(Graph6Error):
        parse(HEADER + HEADER + emit(cycle_graph(4)))


# n = 62 is the largest short-form order; its 1,891 bits leave 5 padding bits
# in the last of 316 bytes.  n = 63 takes the long form and leaves 3 of 1,953.
_EMPTY_62 = "}" + "?" * 316
_EMPTY_63 = "~??~" + "?" * 326
_EMPTY_64 = "~?@?" + "?" * 336


@pytest.mark.parametrize("text, message", [
    ("", "empty graph6 record"),
    ("  \n", "empty graph6 record"),
    (HEADER, "empty graph6 record"),
    ("D\u00e9c", "non-ASCII bytes in graph6 record"),
    (chr(20) + "hc", "byte 20 at position 0 outside 63..126"),
    ("Dh" + chr(20), "byte 20 at position 2 outside 63..126"),
    ("D" + chr(127) + "c", "byte 127 at position 1 outside 63..126"),
    ("~?" + chr(20) + "~" + "?" * 326, "byte 20 at position 2 outside 63..126"),
    ("D" + chr(20) + chr(127), "byte 20 at position 1 outside 63..126"),
    ("D" + chr(127) + chr(20), "byte 127 at position 1 outside 63..126"),
    ("Dh" + chr(62) + chr(127), "byte 62 at position 2 outside 63..126"),
    (_EMPTY_64[:-1] + chr(127), "byte 127 at position 339 outside 63..126"),
    (_EMPTY_64[:-1] + chr(62), "byte 62 at position 339 outside 63..126"),
    ("~~", "vertex counts above 258047 are not supported"),
    ("~~??????", "vertex counts above 258047 are not supported"),
    ("~", "truncated long-form vertex count"),
    ("~?@", "truncated long-form vertex count"),
    ("?", "vertex count 0 outside 1..64"),
    ("~???", "vertex count 0 outside 1..64"),
    ("~?@@", "vertex count 65 outside 1..64"),
    ("Dh", "expected 2 data bytes for n=5, got 1"),
    ("Dhc?", "expected 2 data bytes for n=5, got 3"),
    ("@?", "expected 0 data bytes for n=1, got 1"),
    (_EMPTY_63[:-1], "expected 326 data bytes for n=63, got 325"),
    (_EMPTY_63 + "?", "expected 326 data bytes for n=63, got 327"),
    ("Ao", "nonzero padding bits"),
    (_EMPTY_62[:-1] + "@", "nonzero padding bits"),
    (_EMPTY_63[:-1] + "@", "nonzero padding bits"),
    (_EMPTY_63[:-1] + "C", "nonzero padding bits"),
    (HEADER + HEADER + "Dhc", "byte 62 at position 0 outside 63..126"),
], ids=["empty", "blank", "header-only", "non-ascii", "bad-first-byte", "bad-body-byte",
        "del-byte", "bad-long-header-byte", "two-bad-bytes", "two-bad-bytes-del-first",
        "bad-bytes-below-and-above", "del-byte-last-n-64", "low-byte-last-n-64", "double-tilde", "double-tilde-long",
        "tilde-only", "truncated-long-form", "n-0", "n-0-long-form", "n-65",
        "body-short", "body-long", "n-1-body", "n-63-short", "n-63-long",
        "padding-n-2", "padding-n-62", "padding-n-63", "padding-n-63-top-bit",
        "header-twice"])
def test_parse_error_messages(text, message):
    """Each defect has one exact message, and a line number prefixes it."""
    with pytest.raises(Graph6Error) as exc:
        parse(text)
    assert str(exc.value) == message
    assert exc.value.line is None
    with pytest.raises(Graph6Error) as exc:
        parse(text, line=7)
    assert str(exc.value) == f"line 7: {message}"
    assert exc.value.line == 7


def test_n_64_has_no_padding_bits():
    """2,016 bits fill 336 bytes exactly, so every last byte is data: '~'
    sets the last six pairs, (57, 63) .. (62, 63)."""
    g = parse("~?@?" + "?" * 335 + "~")
    assert g.edges() == [(i, 63) for i in range(57, 63)]


def _head(n):
    return chr(n + 63) if n <= 62 else "~" + chr(63) + chr(63 + (n >> 6)) + chr(63 + (n & 63))


def _body_with_bit(n, p):
    """The body of n's empty graph with bit p of the body set, counted from
    the top bit of its first byte."""
    body = ["?"] * ((n * (n - 1) // 2 + 5) // 6)
    body[p // 6] = chr(63 + (1 << (5 - p % 6)))
    return "".join(body)


@pytest.mark.parametrize("n", [n for n in range(1, 65) if n * (n - 1) // 2 % 6])
def test_every_padding_bit_is_refused(n):
    """Every order with padding: any one padding bit set is refused, and the
    last data bit is the pair (n - 2, n - 1)."""
    nbits = n * (n - 1) // 2
    for p in range(nbits, 6 * ((nbits + 5) // 6)):
        text = _head(n) + _body_with_bit(n, p)
        with pytest.raises(Graph6Error) as exc:
            parse(text)
        assert str(exc.value) == "nonzero padding bits"
        with pytest.raises(Graph6Error) as exc:
            parse(text, line=3)
        assert str(exc.value) == "line 3: nonzero padding bits"
    assert parse(_head(n) + _body_with_bit(n, nbits - 1)).edges() == [(n - 2, n - 1)]


def _run(stages, x, up):
    for shift, mask in stages:
        t = x & mask
        x ^= t ^ (t << shift if up else t >> shift)
    return x


@pytest.mark.parametrize("n", range(1, 65))
def test_stage_tables(n):
    """The cached stages alone, no base64: parse stages take bit
    j * (j - 1) / 2 + i to j * size + i and move only triangle bits, the emit
    stages undo them, and no mask reaches bit n * size."""
    size, stages, unstages, lower, rows = _layout(n)
    assert size == max(8, 1 << (n - 1).bit_length())
    assert rows.size == n * size // 8
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for i, j in pairs:
        src, dst = 1 << (j * (j - 1) // 2 + i), 1 << (j * size + i)
        assert _run(stages, src, True) == dst
        assert _run(unstages, dst, False) == src
    assert lower == sum(1 << (j * size + i) for i, j in pairs)
    # with every triangle bit set, each mask lies inside what is set when its
    # stage runs, so no other bit moves, and no two bits meet
    x = (1 << len(pairs)) - 1
    for shift, mask in stages:
        assert mask & ~x == 0
        x = _run([(shift, mask)], x, True)
    assert x == lower
    for shift, mask in unstages:
        assert mask & ~x == 0
        x = _run([(shift, mask)], x, False)
    assert x == (1 << len(pairs)) - 1
    assert all(0 < mask < 1 << (n * size) for _, mask in stages + unstages)


@pytest.mark.parametrize("n", range(1, 65))
def test_empty_and_complete_graphs_match_networkx(n):
    """All-zero and all-one bodies at every order: each column width, the
    short and the long header, and every amount of padding."""
    for g in (from_edge_list(n, []), complete_graph(n)):
        s = emit(g)
        assert parse(s) == g
        assert emit(parse(s)) == s
        ng = nx.empty_graph(n)
        ng.add_edges_from(g.edges())
        assert s == nx.to_graph6_bytes(ng, header=False).strip().decode()


@pytest.mark.parametrize("n, quad_rest", [(2, 1), (5, 2), (6, 3), (7, 0), (62, 0), (63, 2)])
def test_body_length_mod_4(n, quad_rest):
    """Orders whose bodies end on each place in a base64 quad round-trip."""
    rng = random.Random(41 + n)
    head = 1 if n <= 62 else 4
    for _ in range(20):
        g = random_graph(rng, n, rng.random())
        s = emit(g)
        assert (len(s) - head) % 4 == quad_rest
        assert parse(s) == g


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
