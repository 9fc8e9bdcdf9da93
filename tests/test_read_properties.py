"""Property test: reading a file gives what parsing its text gives.

read_network streams a file line by line; parse_network splits a string.
On the same text, encoded as UTF-8, both must build the same network or
raise the same error class, message, line and pair.  Texts mix LF, CRLF
and CR line ends, a leading byte-order mark, characters that
str.splitlines() would break at (form feed, vertical tab, U+0085,
U+2028), blank lines, headers and every kind of syntax and validation
defect.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from effchain import EffchainError, parse_network, read_network  # noqa: E402

STRAYS = ["\f", "\v", "\x85", "\u2028"]

labels = st.sampled_from(list("abcdefghijkl") + ["bb", "é"])
padding = st.sampled_from(["", " ", "\t"] + STRAYS)
efficiency_texts = st.sampled_from(["0.5", "1.0", "0.25", "0.75", "1e-300"])
modes = st.sampled_from(["", ",dir", ",undir", ", undir "])
DEFECTS = [
    "a,b",
    "a,b,0.5,dir,x",
    "a,b,x",
    "a,b,0.9x",
    "a,b,0.5,both",
    "a,b,2.0",
    "a,b,nan",
    "a,a,0.5",
    "tail,head,efficiency",
] + [f"a{s}b,c,0.5" for s in STRAYS]


@st.composite
def text_lines(draw) -> str:
    """A blank line, a header, or an arc whose fields may be padded."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(padding)
    if kind == 1:
        return "tail,head,efficiency" + draw(st.sampled_from(["", ",mode"]))
    tail, head = draw(st.lists(labels, min_size=2, max_size=2, unique=True))
    pad = draw(padding)
    return f"{pad}{tail}{pad},{head},{pad}{draw(efficiency_texts)}{draw(modes)}{pad}"


@st.composite
def edge_list_texts(draw) -> str:
    lines = draw(st.lists(text_lines(), max_size=12))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(DEFECTS)))
    text = "\ufeff" if draw(st.booleans()) else ""
    for line in lines:
        text += line + draw(st.sampled_from(["\n", "\r\n", "\r"]))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


def _outcome(load, source):
    try:
        net = load(source)
    except EffchainError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.pair)
    return ("ok", net, net._out_rows())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edge_list_texts())
def test_read_network_matches_parse_network(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("read") / "net.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_network, path) == _outcome(parse_network, text)
