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
byte-order mark (U+FEFF) is dropped.  read_network reads files as UTF-8;
a byte sequence that does not decode is a ParseError on the line that
holds it.
"""

from array import array
from pathlib import Path

from .errors import ParseError
from .network import Network, _build_network


def parse_network(text: str) -> Network:
    """Parse edge-list text into a validated Network."""
    if text.startswith("\ufeff"):
        text = text[1:]  # a byte-order mark, not part of the first label
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # Columns, one entry per arc (two labels in ``endpoints``): no tuple
    # per line.
    endpoints: list[str] = []
    effs = array("d")
    undirected = bytearray()
    lines = array("i")
    saw_line = False
    for lineno, line in enumerate(text.split("\n"), start=1):
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
        endpoints.append(fields[0].strip())
        endpoints.append(fields[1].strip())
        effs.append(eta)
        undirected.append(undir)
        lines.append(lineno)
    return _build_network(endpoints, effs, undirected, lines)


def read_network(path: str | Path) -> Network:
    """Read and parse a UTF-8 edge-list file."""
    return parse_network(_read_text(path))


def _read_text(path: str | Path) -> str:
    """The file decoded as UTF-8; a byte that does not decode is a ParseError
    on its line, counted with the line ends parse_network uses."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise ParseError(
            f"not UTF-8 text: {exc.reason} (byte {data[exc.start]:#04x})", line=line
        ) from None


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
