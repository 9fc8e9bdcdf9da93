"""Property tests: the columnar load matches the tuple-based load it replaced.

The same edge-list text goes to parse_network and to reference_parse
(helpers.py: the earlier syntax pass and validation pass, kept verbatim).
Both must build the same nodes, arcs and adjacency, or raise the same
error class, message, line and pair.  Inputs favour the edge cases of
the integer-keyed pass: opposite arcs in both orders, merge gaps of
exactly MERGE_TOLERANCE and of the next float above it, labels first
seen out of sorted order, duplicates, conflicts, self-loops, bad labels,
and out-of-range and NaN efficiencies.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from effchain import MERGE_TOLERANCE, EffchainError, build_network, parse_network  # noqa: E402
from helpers import reference_build, reference_out, reference_parse  # noqa: E402


def _merge_pairs() -> list[tuple[float, float]]:
    """(eta, eta') pairs whose computed gap is exactly MERGE_TOLERANCE, or
    the next float above it.  Below 2^-39 + 1e-12 the subtraction is exact."""
    pairs = []
    for base in (1.5e-12, 2e-12, 2.5e-12):
        at = base - MERGE_TOLERANCE
        assert base - at == MERGE_TOLERANCE
        above = math.nextafter(at, 0.0)
        assert base - above > MERGE_TOLERANCE
        pairs += [(base, at), (base, above)]
    return pairs + [(0.9, 0.9), (0.9, 0.9 + 1e-13), (0.9, 0.9 + 1e-9), (1.0, 1.0)]


MERGE_PAIRS = _merge_pairs()

# Few labels, so pairs repeat often; drawn in any order, so ids given in
# order of first appearance are rarely in label order.  "a b" holds
# a no-break space and is a bad label.
labels = st.sampled_from(["m", "d", "b", "bb", "a", "Z", "é", "a b"])

efficiency_texts = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True).map(repr),
    st.sampled_from(["1.0", "5e-324", "0.0", "-0.5", "1.5", "inf", "nan", " 0.5 "]),
)
modes = st.sampled_from(["", ",dir", ",undir", ", undir "])


@st.composite
def arc_lines(draw) -> list[str]:
    """One arc line, or two opposite arcs with a chosen merge gap."""
    tail, head = draw(labels), draw(labels)
    if draw(st.booleans()):
        return [f"{tail},{head},{draw(efficiency_texts)}{draw(modes)}"]
    eta, other = draw(st.sampled_from(MERGE_PAIRS))
    pair = [f"{tail},{head},{eta!r}", f"{head},{tail},{other!r}"]
    return pair if draw(st.booleans()) else pair[::-1]


@st.composite
def edge_lists(draw) -> str:
    lines = ["tail,head,efficiency,mode"] if draw(st.booleans()) else []
    for group in draw(st.lists(arc_lines(), max_size=12)):
        lines += group
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    return "\n".join(lines) + "\n"


def _outcome(load, adjacency, source):
    try:
        net = load(source)
    except EffchainError as exc:
        return ("error", type(exc), str(exc), exc.line, exc.pair)
    arcs = [(a.tail, a.head, repr(a.efficiency), a.undirected) for a in net.arcs]
    return ("ok", net.nodes, arcs, adjacency(net))


def _out_neighbors(net):
    return {u: net.out_neighbors(u) for u in net.nodes}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edge_lists())
def test_parse_matches_reference(text):
    assert _outcome(parse_network, _out_neighbors, text) == _outcome(
        reference_parse, reference_out, text
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(edge_lists())
def test_build_matches_reference(text):
    raws = []
    for line in text.splitlines()[1:] if text.startswith("tail") else text.splitlines():
        if line:
            tail, head, eta, *mode = line.split(",")
            raws.append((tail, head, float(eta), [m.strip() for m in mode] == ["undir"]))
    assert _outcome(build_network, _out_neighbors, raws) == _outcome(
        lambda r: reference_build(r, None), reference_out, raws
    )
