import gc
import random
import tracemalloc
import warnings

import pytest

from effchain import (
    BadLabel,
    ConflictingArc,
    DuplicateArc,
    EffchainError,
    EfficiencyOutOfRange,
    ParseError,
    SelfLoop,
    best_chain_multiplicative,
    build_network,
    parse_network,
    read_network,
    render_network,
    to_dot,
)
from helpers import random_mixed_network


def test_parse_basic():
    net = parse_network("a,b,0.9\nb,c,0.8\n")
    assert net.nodes == ("a", "b", "c")
    assert net.step_efficiency("a", "b") == 0.9
    assert not net.arcs[0].undirected


def test_parse_skips_header():
    net = parse_network("tail,head,efficiency,mode\na,b,0.9,dir\n")
    assert net.nodes == ("a", "b")


def test_parse_no_header_needed():
    net = parse_network("a,b,0.9,dir\n")
    assert net.nodes == ("a", "b")


def test_parse_undirected_mode():
    net = parse_network("a,b,0.9,undir\n")
    assert net.arcs[0].undirected
    assert net.step_efficiency("b", "a") == 0.9


def test_parse_strips_fields_and_blank_lines():
    net = parse_network("\n  a , b , 0.9 , dir \n\n b , c , 0.8 \n")
    assert net.nodes == ("a", "b", "c")
    assert net.step_efficiency("b", "c") == 0.8


def test_parse_crlf():
    net = parse_network("tail,head,efficiency\r\na,b,0.9\r\nb,c,0.8\r\n")
    assert net.nodes == ("a", "b", "c")


def test_parse_counts_only_cr_and_lf_as_line_ends():
    # str.splitlines() also breaks at \f and friends, which shifted every
    # later line number by one.
    with pytest.raises(EfficiencyOutOfRange) as exc_info:
        parse_network("tail,head,efficiency\na,b,0.5\f\nc,d,2.0\n")
    assert exc_info.value.line == 3
    net = parse_network("a,b,0.9\rb,c,0.8\r\nc,d,0.7\n")
    assert net.nodes == ("a", "b", "c", "d")


@pytest.mark.parametrize("stray", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_stray_line_break_character_in_a_label_is_a_bad_label(stray):
    with pytest.raises(BadLabel) as exc_info:
        parse_network(f"a,b,0.9\nb{stray}c,d,0.8\n")
    assert exc_info.value.line == 2


def test_parse_empty_text_gives_empty_network():
    assert parse_network("").nodes == ()
    assert parse_network("\n\n").nodes == ()


def test_parse_bad_field_count():
    with pytest.raises(ParseError, match="line 1"):
        parse_network("a,b\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_network("a,b,0.9\na,b,0.9,dir,extra\n")


def test_parse_bad_efficiency_is_line_numbered():
    with pytest.raises(ParseError, match="line 3"):
        parse_network("a,b,0.9\nb,c,0.8\nc,d,oops\n")


def test_parse_bad_mode():
    with pytest.raises(ParseError, match="line 1"):
        parse_network("a,b,0.9,both\n")


def test_parse_out_of_range_efficiency():
    with pytest.raises(EfficiencyOutOfRange, match="line 2"):
        parse_network("a,b,0.9\nb,c,1.5\n")


def test_parse_self_loop():
    with pytest.raises(SelfLoop, match="line 1"):
        parse_network("a,a,0.9\n")


def test_parse_duplicate_cites_both_lines():
    with pytest.raises(DuplicateArc, match="line 3.*line 1") as exc_info:
        parse_network("a,b,0.9\nb,c,0.8\na,b,0.7\n")
    assert exc_info.value.line == 3


def test_parse_conflict_between_modes():
    with pytest.raises(ConflictingArc, match="line 2"):
        parse_network("a,b,0.9,undir\nb,a,0.8,dir\n")


def test_header_only_on_first_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_network("a,b,0.9\ntail,head,efficiency\n")


@pytest.mark.parametrize(
    "text, error",
    [("a,b,0.9x\nb,c,0.8\n", ParseError), ("a,b,nan\n", EfficiencyOutOfRange)],
)
def test_first_line_with_a_digit_is_data_not_header(text, error):
    with pytest.raises(error) as exc_info:
        parse_network(text)
    assert exc_info.value.line == 1


@pytest.mark.parametrize(
    "text, error, line, cites",
    [
        ("a,b,0.9\nb c,d,0.8\n", BadLabel, 2, None),
        ("a,b,0.9\nc,c,0.8\n", SelfLoop, 2, None),
        ("a,b,0.9\nb,c,1.5\n", EfficiencyOutOfRange, 2, None),
        ("a,b,0.9\nb,c,0.8\na,b,0.7\n", DuplicateArc, 3, "already declared on line 1"),
        (
            "a,b,0.9,undir\nb,c,0.8\nb,a,0.7,undir\n",
            DuplicateArc,
            3,
            "already declared on line 1",
        ),
        ("a,b,0.9\nb,a,0.8,undir\n", ConflictingArc, 2, None),
        ("a,b,0.9,undir\nb,a,0.8,dir\n", ConflictingArc, 2, None),
    ],
)
def test_validation_errors_carry_line_numbers(text, error, line, cites):
    with pytest.raises(error) as exc_info:
        parse_network(text)
    assert exc_info.value.line == line
    if cites is not None:
        assert cites in str(exc_info.value)
    raws = []
    for row in text.splitlines():
        tail, head, eta, *mode = row.split(",")
        raws.append((tail, head, float(eta), mode == ["undir"]))
    with pytest.raises(error) as exc_info:
        build_network(raws)
    assert exc_info.value.line is None


def test_round_trip_identity():
    rng = random.Random(888)
    for _ in range(100):
        net = random_mixed_network(rng)
        assert parse_network(render_network(net)) == net


def test_render_writes_modes():
    net = build_network([("a", "b", 0.9, False), ("b", "c", 0.8, True)])
    text = render_network(net)
    lines = text.strip().splitlines()
    assert lines[0] == "tail,head,efficiency,mode"
    assert lines[1] == "a,b,0.9,dir"
    assert lines[2] == "b,c,0.8,undir"


def test_read_network(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("a,b,0.9\n", encoding="utf-8")
    assert read_network(path).nodes == ("a", "b")


def test_read_network_names_the_line_of_a_non_utf8_byte(tmp_path):
    path = tmp_path / "net.csv"
    path.write_bytes(b"a,b,0.9\rb,c,0.8\r\nc,d,\xff0.7\n")
    with pytest.raises(ParseError, match="UTF-8") as exc_info:
        read_network(path)
    assert exc_info.value.line == 3


def test_parse_drops_one_leading_byte_order_mark():
    assert parse_network("\ufeffa,b,0.5\nb,c,0.5\n").nodes == ("a", "b", "c")
    assert parse_network("\ufefftail,head,efficiency\na,b,0.5\n").nodes == ("a", "b")
    # Only the first character is a byte-order mark; a second one is text.
    assert parse_network("\ufeff\ufeffa,b,0.5\n").nodes == ("b", "\ufeffa")
    with pytest.raises(EfficiencyOutOfRange) as exc_info:
        parse_network("\ufeffa,b,0.5\nb,c,2.0\n")
    assert exc_info.value.line == 2


def test_read_network_drops_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "net.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b,0.5\nb,c,0.5\n")
    assert read_network(path).nodes == ("a", "b", "c")
    # A bad byte after the mark is still found on its own line.
    path.write_bytes(b"\xef\xbb\xbfa,b,0.5\nb\xff,c,0.5\n")
    with pytest.raises(ParseError, match="byte 0xff") as exc_info:
        read_network(path)
    assert exc_info.value.line == 2


def test_to_dot_marks_undirected():
    net = build_network([("a", "b", 0.9, False), ("b", "c", 0.8, True)])
    dot = to_dot(net)
    assert dot.startswith("digraph")
    assert '"a" -> "b" [label="0.9"];' in dot
    assert '"b" -> "c" [label="0.8", dir=none];' in dot


def test_to_dot_escapes_quotes_and_backslashes():
    net = build_network([('a"b', "c\\", 0.5, False)])
    assert to_dot(net) == (
        "digraph network {\n"
        '  "a\\"b";\n'
        '  "c\\\\";\n'
        '  "a\\"b" -> "c\\\\" [label="0.5"];\n'
        "}\n"
    )


@pytest.mark.parametrize("at", [8190, 8191, 8192, 8193, 16383, 16384])
def test_read_network_joins_a_crlf_split_across_chunks(tmp_path, at):
    # The first line's \r sits at byte ``at``, its \n at the next byte: a
    # reader that takes them for two line ends counts every later line one
    # too many.
    text = "x" * (at - len(",b,0.5")) + ",b,0.5\r\nb,c,0.5\r\nc,d,2.0\r\n"
    assert text.index("\r") == at
    path = tmp_path / "net.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(EfficiencyOutOfRange) as exc_info:
        read_network(path)
    assert exc_info.value.line == 3
    path.write_bytes(text.replace("2.0", "0.5").encode("utf-8"))
    assert read_network(path) == parse_network(text.replace("2.0", "0.5"))


@pytest.mark.parametrize("defect", ["a,b", "a,b,oops", "a,a,0.5", "a,b,0.5"])
def test_a_bad_byte_past_the_first_chunk_wins_over_any_defect(tmp_path, defect):
    # Line 2 holds a syntax or validation defect (or repeats line 1); the
    # bad byte, on line 2002, is far past the first chunk the reader decodes.
    good = "".join(f"n{i:04d},m{i:04d},0.5\n" for i in range(1999))
    data = f"a,b,0.5\n{defect}\n{good}".encode() + b"bad\xff,c,0.5\n"
    path = tmp_path / "net.csv"
    path.write_bytes(data)
    assert data.index(b"\xff") > 16384
    with pytest.raises(ParseError, match="not UTF-8") as exc_info:
        read_network(path)
    assert exc_info.value.line == 2002


def _error_of_read(path):
    """The class and line read_network raises, keeping no frame alive."""
    try:
        read_network(path)
    except EffchainError as exc:
        return type(exc), exc.line
    return None


@pytest.mark.parametrize(
    "data, error",
    [
        (b"a,b,0.5\na,b\n", ParseError),
        (b"a,b,0.5\n\xff\n", ParseError),
        (b"a,b\n\xff\n", ParseError),
        (b"a,b,0.5\nb,b,0.5\n", SelfLoop),
    ],
)
def test_read_network_closes_the_file_on_every_error(tmp_path, data, error):
    path = tmp_path / "net.csv"
    path.write_bytes(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _error_of_read(path) == (error, 2)
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_read_network_peak_and_searched_network_per_arc(tmp_path):
    # 5k nodes and 25k arcs: a path through every node plus random arcs,
    # about a fifth of them undirected.  Per arc, the streaming load peaks
    # at ~162 bytes and the network keeps ~40 until its first search
    # builds the CSR search index, ~92 after.  Building per-node lists of
    # (id, efficiency) tuples on every load reads ~199 and ~157.
    rng = random.Random(609)
    n, m = 5000, 25000
    names = [f"n{i:05d}" for i in range(n)]
    pairs = {(i, i + 1) for i in range(n - 1)}
    while len(pairs) < m:
        i, j = rng.sample(range(n), 2)
        if (j, i) not in pairs:
            pairs.add((i, j))
    lines = ["tail,head,efficiency,mode"]
    for i, j in pairs:
        mode = "undir" if rng.random() < 0.2 else "dir"
        lines.append(f"{names[i]},{names[j]},{1.0 - rng.random()!r},{mode}")
    path = tmp_path / "net.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    del lines, pairs
    gc.collect()
    tracemalloc.start()
    try:
        net = read_network(path)
        _, peak = tracemalloc.get_traced_memory()
        assert best_chain_multiplicative(net, names[0], names[-1]) is not None
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(net.nodes) == n and len(net._effs) == m
    assert peak <= 180 * m
    assert kept <= 110 * m
