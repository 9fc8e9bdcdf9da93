"""Reading and writing edge-list text.

The on-disk format is a comma-separated edge list, one arc per line:

    tail,head,efficiency[,mode]

where mode is ``dir`` (default) or ``undir``.  The first non-blank line
is a header, and skipped, when its third field is not a number and
contains no digit; ``a,b,0.9x`` there is a typo, not a header.  Blank
lines are skipped; both LF and CRLF endings work.

parse_network checks only this syntax.  Labels, ranges, self-loops,
duplicates and conflicts are validated once, by build_network, which
reports the file line of the offending arc.  Syntax is checked over the
whole file first, so a file with both kinds of defect reports its first
syntax error.  Every error carries a 1-based line number.
"""

from pathlib import Path

from .errors import ParseError
from .network import Network, RawArc, _build_network


def parse_network(text: str) -> Network:
    """Parse edge-list text into a validated Network."""
    raws: list[RawArc] = []
    lines: list[int] = []
    saw_line = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (3, 4):
            raise ParseError(
                f"expected 3 or 4 comma-separated fields, got {len(fields)}",
                line=lineno,
            )
        try:
            eta = float(fields[2])
        except ValueError:
            if not saw_line and not any(ch.isdigit() for ch in fields[2]):
                saw_line = True
                continue  # header line
            raise ParseError(
                f"efficiency {fields[2]!r} is not a number", line=lineno
            ) from None
        saw_line = True
        undir = False
        if len(fields) == 4:
            mode = fields[3]
            if mode == "undir":
                undir = True
            elif mode != "dir":
                raise ParseError(
                    f"mode must be 'dir' or 'undir', got {mode!r}", line=lineno
                )
        raws.append((fields[0], fields[1], eta, undir))
        lines.append(lineno)
    return _build_network(raws, lines)


def read_network(path: str | Path) -> Network:
    """Read and parse an edge-list file."""
    return parse_network(Path(path).read_text(encoding="utf-8"))


def render_network(net: Network) -> str:
    """Serialize a network back to edge-list text.

    Efficiencies are written with repr, which round-trips floats exactly:
    parse_network(render_network(net)) == net.
    """
    lines = ["tail,head,efficiency,mode"]
    for arc in net.arcs:
        mode = "undir" if arc.undirected else "dir"
        lines.append(f"{arc.tail},{arc.head},{arc.efficiency!r},{mode}")
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
    for arc in net.arcs:
        attrs = f'label="{arc.efficiency}"'
        if arc.undirected:
            attrs += ", dir=none"
        tail = escaped.get(arc.tail, arc.tail)
        head = escaped.get(arc.head, arc.head)
        lines.append(f'  "{tail}" -> "{head}" [{attrs}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
