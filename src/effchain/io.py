"""Reading and writing edge-list text.

The on-disk format is a comma-separated edge list, one arc per line:

    tail,head,efficiency[,mode]

where mode is ``dir`` (default) or ``undir``.  The first non-blank line
is a header, and skipped, when its third field is not a number and
contains no digit; ``a,b,0.9x`` there is a typo, not a header.  Blank
lines are skipped.  A line ends at LF, CRLF or CR, and only there: other
characters str.splitlines() breaks at (form feed, vertical tab, U+0085,
U+2028, ...) stay in their field, where they are whitespace and so are
stripped from a field's ends and rejected inside a label.

parse_network checks only this syntax.  Labels, ranges, self-loops,
duplicates and conflicts are validated once, by build_network, which
reports the file line of the offending arc.  Syntax is checked over the
whole file first, so a file with both kinds of defect reports its first
syntax error.  Every error carries a 1-based line number.  One leading
byte-order mark (U+FEFF) is dropped.

read_network streams the file as UTF-8, line by line, through the same
syntax pass as parse_network, so the text is never held whole.  The
syntax pass gives each label its id as it reads it and keeps one string
per distinct label.  A byte sequence that does not decode is a
ParseError on the line that holds it, and it wins over every other
defect: a syntax error found before the bad byte is reported only after
the rest of the file has decoded.
"""

from array import array
from collections.abc import Iterable
from io import StringIO
from itertools import chain
from pathlib import Path

from .errors import ParseError
from .network import Network, _build_network


def parse_network(text: str) -> Network:
    """Parse edge-list text into a validated Network."""
    # Universal newlines, as read_network's open() reads a file.
    return _build_network(*_syntax_pass(StringIO(text, newline=None)))


def read_network(path: str | Path) -> Network:
    """Read and parse a UTF-8 edge-list file."""
    try:
        with open(path, encoding="utf-8", newline=None) as stream:
            try:
                columns = _syntax_pass(stream)
            except ParseError:
                # A bad byte later in the file still wins: decode the rest.
                for _ in stream:
                    pass
                raise
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    return _build_network(*columns)


def _syntax_pass(
    lines: Iterable[str],
) -> tuple[list[str], array, array, array, bytearray, array]:
    """Check the syntax of edge-list lines and gather their arcs as columns.

    A line holds no line end but an optional trailing LF.  Returns the
    distinct labels in order of first appearance, then one entry per arc:
    tail and head ids (positions in those labels), efficiencies,
    undirected flags and file lines, the arguments of _build_network.
    Each label occurrence costs one dict lookup, and no tuple is built
    per line.
    """
    ids: dict[str, int] = {}
    intern = ids.setdefault
    tails = array("i")
    heads = array("i")
    effs = array("d")
    undirected = bytearray()
    arc_lines = array("i")
    saw_line = False
    lines = iter(lines)
    first = next(lines, "").removeprefix("\ufeff")  # not part of the first label
    for lineno, line in enumerate(chain((first,), lines), start=1):
        fields = line.split(",")
        count = len(fields)
        if count != 3 and count != 4:
            if not line.strip():
                continue  # a blank line has one field
            raise ParseError(
                f"expected 3 or 4 comma-separated fields, got {count}", line=lineno
            )
        try:
            # float() ignores exactly the whitespace strip() would remove.
            eta = float(fields[2])
        except ValueError:
            text_eta = fields[2].strip()
            if not saw_line and not any(ch.isdigit() for ch in text_eta):
                saw_line = True
                continue  # header line
            raise ParseError(
                f"efficiency {text_eta!r} is not a number", line=lineno
            ) from None
        saw_line = True
        undir = False
        if count == 4:
            mode = fields[3].strip()
            if mode == "undir":
                undir = True
            elif mode != "dir":
                raise ParseError(
                    f"mode must be 'dir' or 'undir', got {mode!r}", line=lineno
                )
        # A new label takes the next id: the count of labels seen before it.
        tails.append(intern(fields[0].strip(), len(ids)))
        heads.append(intern(fields[1].strip(), len(ids)))
        effs.append(eta)
        undirected.append(undir)
        arc_lines.append(lineno)
    return list(ids), tails, heads, effs, undirected, arc_lines


def _decode_error(path: str | Path) -> ParseError:
    """The error for a file that is not UTF-8: its first bad byte, on its
    line, counted with the universal newlines read_network uses."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = StringIO(data[: exc.start].decode("utf-8"), newline=None).read()
        line = before.count("\n") + 1
        return ParseError(
            f"not UTF-8 text: {exc.reason} (byte {data[exc.start]:#04x})", line=line
        )
    raise AssertionError(f"{path} decoded as UTF-8 on a second read")


def render_network(net: Network) -> str:
    """Serialize a network back to edge-list text.

    Efficiencies are written with repr, which round-trips floats exactly:
    parse_network(render_network(net)) == net.
    """
    lines = ["tail,head,efficiency,mode"]
    for tail, head, eta, undirected in net._arc_rows():
        mode = "undir" if undirected else "dir"
        lines.append(f"{tail},{head},{eta!r},{mode}")
    return "\n".join(lines) + "\n"


def to_dot(net: Network) -> str:
    """Render the network in DOT, for quick visual inspection.

    Undirected links are drawn without an arrowhead.  Labels are quoted
    with ``\\`` and ``"`` escaped, so every valid label yields valid DOT.
    """
    # Only labels holding \ or " change.  A dict of every node's quoted
    # form would cost a lookup into a large table per arc endpoint.
    escaped = {
        node: node.replace("\\", "\\\\").replace('"', '\\"')
        for node in net.nodes
        if "\\" in node or '"' in node
    }
    lines = ["digraph network {"]
    for node in net.nodes:
        lines.append(f'  "{escaped.get(node, node)}";')
    for tail, head, eta, undirected in net._arc_rows():
        attrs = f'label="{eta}"'
        if undirected:
            attrs += ", dir=none"
        tail = escaped.get(tail, tail)
        head = escaped.get(head, head)
        lines.append(f'  "{tail}" -> "{head}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
