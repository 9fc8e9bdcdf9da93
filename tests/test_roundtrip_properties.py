"""Property tests: every valid network survives render, rebuild and DOT.

Labels mix quotes, backslashes and invisible non-ASCII characters;
efficiencies reach the smallest subnormal and 1.0 exactly.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from effchain import Network, build_network, parse_network, render_network, to_dot  # noqa: E402

ADVERSARIAL_CHARS = ['"', "\\", "'", "é", "\u200b", "\ufeff", "a", "Z", "0", "-", ";", "{"]

labels = st.text(
    alphabet=st.one_of(
        st.sampled_from(ADVERSARIAL_CHARS),
        st.characters(exclude_categories=("Cs",)),
    ),
    min_size=1,
    max_size=6,
).filter(lambda s: "," not in s and not any(c.isspace() for c in s))

efficiencies = st.one_of(
    st.sampled_from(
        [
            5e-324,
            math.nextafter(0.0, 1.0),
            2.5e-320,  # subnormal
            math.nextafter(2.2250738585072014e-308, 0.0),  # largest subnormal
            2.2250738585072014e-308,  # smallest normal
            math.nextafter(1.0, 0.0),
            1.0,
        ]
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


@st.composite
def networks(draw) -> Network:
    names = draw(st.lists(labels, min_size=2, max_size=6, unique=True))
    raws = []
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            kind = draw(st.sampled_from(["none", "forward", "backward", "both", "undir"]))
            if kind in ("forward", "both"):
                raws.append((u, v, draw(efficiencies), False))
            if kind in ("backward", "both"):
                raws.append((v, u, draw(efficiencies), False))
            if kind == "undir":
                raws.append((u, v, draw(efficiencies), True))
    return build_network(raws)


def _dot_node_line(label: str) -> str:
    escaped = label.replace("\\", "\\\\").replace('"', '\\"')
    return f'  "{escaped}";'


@settings(max_examples=200, deadline=None, derandomize=True)
@given(networks())
def test_render_parse_round_trip(net):
    assert parse_network(render_network(net)) == net


@settings(max_examples=200, deadline=None, derandomize=True)
@given(networks())
def test_rebuild_from_arcs(net):
    raws = [(a.tail, a.head, a.efficiency, a.undirected) for a in net.arcs]
    assert build_network(raws) == net


@settings(max_examples=200, deadline=None, derandomize=True)
@given(networks())
def test_dot_names_each_node_once(net):
    lines = to_dot(net).splitlines()
    for node in net.nodes:
        assert lines.count(_dot_node_line(node)) == 1
