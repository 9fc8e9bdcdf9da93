import random
from itertools import product

import pytest

from effchain import (
    Arc,
    BadLabel,
    ConflictingArc,
    DuplicateArc,
    EfficiencyOutOfRange,
    NetworkKind,
    NotSymmetric,
    SelfLoop,
    UnknownNode,
    as_symmetric,
    best_chain_multiplicative,
    best_chain_via_lossiness,
    build_network,
    classify,
    guaranteed_min_all_pairs,
    guaranteed_min_by_tree,
    is_connected,
    parse_network,
    render_network,
    to_dot,
    validate_label,
)
from helpers import (
    random_connected_undirected,
    random_directed_network,
    random_mixed_network,
    reference_reversed_rows,
    reference_rows,
    sparse_undirected,
    tuple_rows,
)


def test_build_sorts_nodes_and_arcs():
    net = build_network([("c", "a", 0.5, False), ("b", "a", 0.6, False)])
    assert net.nodes == ("a", "b", "c")
    assert [(a.tail, a.head) for a in net.arcs] == [("b", "a"), ("c", "a")]


def test_opposite_equal_arcs_merge_to_undirected():
    net = build_network([("a", "b", 0.9, False), ("b", "a", 0.9, False)])
    assert len(net.arcs) == 1
    arc = net.arcs[0]
    assert arc == Arc("a", "b", 0.9, undirected=True)


def test_merge_respects_tolerance():
    close = build_network([("a", "b", 0.9, False), ("b", "a", 0.9 + 1e-13, False)])
    assert close.arcs[0].undirected
    assert close.arcs[0].efficiency == 0.9  # the smaller-tail arc wins

    apart = build_network([("a", "b", 0.9, False), ("b", "a", 0.9 + 1e-9, False)])
    assert len(apart.arcs) == 2
    assert not any(a.undirected for a in apart.arcs)


def test_rebuild_from_arcs_is_identity():
    rng = random.Random(2024)
    for _ in range(100):
        net = random_mixed_network(rng)
        raws = [(a.tail, a.head, a.efficiency, a.undirected) for a in net.arcs]
        assert build_network(raws) == net


def test_undirected_arc_serves_both_directions():
    net = build_network([("a", "b", 0.9, True)])
    assert net.step_efficiency("a", "b") == 0.9
    assert net.step_efficiency("b", "a") == 0.9
    assert ("b", 0.9) in net.out_neighbors("a")
    assert ("a", 0.9) in net.out_neighbors("b")


def test_directed_arc_serves_one_direction():
    net = build_network([("a", "b", 0.9, False)])
    assert net.has_step("a", "b")
    assert not net.has_step("b", "a")


def test_unknown_node_lookups():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(UnknownNode):
        net.out_neighbors("q")
    with pytest.raises(UnknownNode):
        net.step_efficiency("a", "q")
    with pytest.raises(UnknownNode):
        net.step_efficiency("q", "a")
    with pytest.raises(UnknownNode):
        net.step_efficiency("b", "a")
    assert not net.has_step("q", "a")
    assert not net.has_step("a", "q")
    assert "q" not in net


def test_lookups_agree_with_arcs():
    """Every step the arcs declare, and no other, is found by each lookup."""
    rng = random.Random(31)
    for _ in range(100):
        net = random_mixed_network(rng)
        steps = {}
        for arc in net.arcs:
            steps[(arc.tail, arc.head)] = arc.efficiency
            if arc.undirected:
                steps[(arc.head, arc.tail)] = arc.efficiency
        for u in net.nodes:
            assert u in net
            neighbors = net.out_neighbors(u)
            assert neighbors == sorted(
                (v, eta) for (t, v), eta in steps.items() if t == u
            )
            for v in net.nodes:
                assert net.has_step(u, v) == ((u, v) in steps)
                if (u, v) in steps:
                    assert net.step_efficiency(u, v) == steps[(u, v)]
                else:
                    with pytest.raises(UnknownNode):
                        net.step_efficiency(u, v)


@pytest.mark.parametrize("label", ["", "a,b", "a b", " a", "\t"])
def test_bad_labels_rejected(label):
    with pytest.raises(BadLabel):
        validate_label(label)
    with pytest.raises(BadLabel):
        build_network([(label, "z", 0.5, False)])


def test_self_loop_rejected():
    with pytest.raises(SelfLoop):
        build_network([("a", "a", 0.5, False)])


def test_duplicate_directed_arc_rejected():
    with pytest.raises(DuplicateArc):
        build_network([("a", "b", 0.5, False), ("a", "b", 0.6, False)])


def test_duplicate_undirected_link_rejected_either_orientation():
    with pytest.raises(DuplicateArc):
        build_network([("a", "b", 0.5, True), ("b", "a", 0.6, True)])


def test_directed_undirected_conflict_rejected():
    with pytest.raises(ConflictingArc):
        build_network([("a", "b", 0.5, False), ("a", "b", 0.6, True)])
    with pytest.raises(ConflictingArc):
        build_network([("b", "a", 0.5, False), ("a", "b", 0.6, True)])


def test_out_of_range_efficiency_rejected():
    for bad in (0.0, -0.1, 1.1):
        with pytest.raises(EfficiencyOutOfRange):
            build_network([("a", "b", bad, False)])


def test_classify_empty_network_is_one_sided():
    assert classify(build_network([])) is NetworkKind.ONE_SIDED


def _expected_kind(states: dict[tuple[str, str], str]) -> NetworkKind:
    """Independent classification from raw unordered-pair states.

    Each state is one of "absent", "one", "both-equal", "both-unequal".
    """
    present = [s for s in states.values() if s != "absent"]
    two_way = [s for s in present if s.startswith("both")]
    if not two_way:
        return NetworkKind.ONE_SIDED
    if len(two_way) == len(present):
        if any(s == "both-unequal" for s in two_way):
            return NetworkKind.ASYMMETRIC_TWO_SIDED
        return NetworkKind.SYMMETRIC_TWO_SIDED
    return NetworkKind.MIXED


def test_classify_exhaustive_three_nodes():
    """Every assignment of {absent, 0.5, 0.7} to the six ordered pairs."""
    pairs = [("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("b", "c"), ("c", "b")]
    for weights in product((None, 0.5, 0.7), repeat=6):
        raws = [
            (t, h, w, False) for (t, h), w in zip(pairs, weights) if w is not None
        ]
        states = {}
        for u, v in (("a", "b"), ("a", "c"), ("b", "c")):
            w_uv = weights[pairs.index((u, v))]
            w_vu = weights[pairs.index((v, u))]
            if w_uv is None and w_vu is None:
                states[(u, v)] = "absent"
            elif w_uv is None or w_vu is None:
                states[(u, v)] = "one"
            elif w_uv == w_vu:
                states[(u, v)] = "both-equal"
            else:
                states[(u, v)] = "both-unequal"
        assert classify(build_network(raws)) is _expected_kind(states)


def test_classify_random_mixed_networks_agree_with_raw_states():
    rng = random.Random(515)
    for _ in range(200):
        net = random_mixed_network(rng)
        states = {}
        for arc in net.arcs:
            key = (min(arc.tail, arc.head), max(arc.tail, arc.head))
            if arc.undirected:
                states[key] = "both-equal"
            elif (arc.head, arc.tail) in {(a.tail, a.head) for a in net.arcs}:
                states[key] = "both-unequal"
            elif key not in states:
                states[key] = "one"
        assert classify(net) is _expected_kind(states)


def test_as_symmetric_requires_undirected_only():
    sym = build_network([("a", "b", 0.9, True), ("b", "c", 0.8, True)])
    view = as_symmetric(sym)
    assert [(e.tail, e.head) for e in view.arcs] == [("a", "b"), ("b", "c")]
    with pytest.raises(NotSymmetric):
        as_symmetric(build_network([("a", "b", 0.9, False)]))


def test_as_symmetric_adjacency_is_symmetric():
    rng = random.Random(77)
    for _ in range(50):
        raws = []
        n = rng.randint(2, 6)
        names = [chr(ord("a") + i) for i in range(n)]
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                if rng.random() < 0.5:
                    raws.append((names[i], names[j], 1.0 - rng.random(), True))
        net = build_network(raws)
        as_symmetric(net)  # accepted: every link is undirected
        for u in net.nodes:
            for v, eta in net.out_neighbors(u):
                assert (u, eta) in net.out_neighbors(v)


def test_is_connected():
    single = as_symmetric(build_network([]))
    assert is_connected(single)
    joined = as_symmetric(build_network([("a", "b", 0.5, True), ("b", "c", 0.5, True)]))
    assert is_connected(joined)
    split = as_symmetric(build_network([("a", "b", 0.5, True), ("c", "d", 0.5, True)]))
    assert not is_connected(split)
    # A cycle spends an edge without joining anything: four edges on five
    # nodes still leave two components.
    cycle = as_symmetric(
        build_network(
            [
                ("a", "b", 0.5, True),
                ("b", "c", 0.5, True),
                ("a", "c", 0.5, True),
                ("d", "e", 0.5, True),
            ]
        )
    )
    assert not is_connected(cycle)


def test_is_connected_ignores_direction():
    # c is reached only against the arc's direction, yet it is joined.
    mixed = build_network([("a", "b", 0.5, True), ("c", "b", 0.5, False)])
    assert is_connected(mixed)
    assert not is_connected(build_network([("a", "b", 0.5, False), ("c", "d", 0.5, True)]))


def test_network_equality_and_hash():
    net1 = build_network([("a", "b", 0.9, False)])
    net2 = build_network([("a", "b", 0.9, False)])
    net3 = build_network([("a", "b", 0.8, False)])
    assert net1 == net2
    assert hash(net1) == hash(net2)
    assert net1 != net3


def test_queries_levels_and_rendering_build_no_arcs():
    # Only a read of net.arcs builds the Arc tuple; on a 50k-node network
    # every other caller would otherwise pay for 100k Arcs.  Only a search
    # or step lookup builds the search rows: rendering, classifying and
    # the tree level read the columns alone.
    net = parse_network(
        "a,b,0.9,undir\nb,c,0.8,undir\nc,a,0.5,undir\nc,d,0.7,undir\n"
    )
    directed = parse_network("a,b,0.9\nb,c,0.8\nc,a,0.7\n")
    level = guaranteed_min_by_tree(net)
    for loaded in (net, directed):
        render_network(loaded)
        to_dot(loaded)
        classify(loaded)
        is_connected(loaded)
    assert is_connected(as_symmetric(net))
    for loaded in (net, directed, level.tree):
        assert loaded._forward is None and loaded._backward is None
    for route in (best_chain_multiplicative, best_chain_via_lossiness):
        for tie in ("low", "high"):
            assert route(net, "a", "d", tie_break=tie) is not None
    assert guaranteed_min_all_pairs(net).worst_pair is not None
    assert guaranteed_min_all_pairs(directed).value == pytest.approx(0.56)
    for loaded in (net, directed, level.tree):
        assert loaded._arcs is None
    # Built on first search and kept; a symmetric network's backward
    # sweeps reuse its forward rows.
    assert net._out_rows() is net._out_rows() is net._in_rows()
    assert net._backward is None
    assert directed._in_rows() is directed._in_rows() is directed._backward
    assert directed._in_rows() != directed._out_rows()
    assert level.tree.arcs
    assert net.arcs[0] == Arc("a", "b", 0.9, undirected=True)
    assert net.arcs is net.arcs  # built once, then kept


def test_search_rows_equal_the_reference_rows():
    """Every node's forward row equals the tuple-row reference in content
    and order, and its backward row the reference rows reversed arc by
    arc, on directed, symmetric, mixed and tie-heavy networks."""
    rng = random.Random(1014)
    makers = [
        lambda: random_directed_network(rng, max_nodes=12),
        lambda: random_connected_undirected(rng, max_nodes=12),
        lambda: random_mixed_network(rng, max_nodes=12),
        lambda: random_mixed_network(rng, max_nodes=12, draw=lambda: rng.choice((0.5, 1.0))),
    ]
    nets = [makers[i % len(makers)]() for i in range(800)]
    nets.append(sparse_undirected(rng, 600))
    nets.append(random_mixed_network(rng, max_nodes=26))
    for net in nets:
        want = reference_rows(net)
        assert tuple_rows(net._out_rows()) == want
        assert tuple_rows(net._in_rows()) == reference_reversed_rows(want)
        # Neighbour ids are the index's own ints, and a link's two steps
        # share one float.
        ids = list(net._index.values())
        first, to, eta = net._out_rows()
        assert all(v is ids[v] for v in to)
        for t, h, undirected in zip(net._tails, net._heads, net._undirected):
            if undirected:
                there = first[t] + to[first[t]:first[t + 1]].index(h)
                back = first[h] + to[first[h]:first[h + 1]].index(t)
                assert eta[there] is eta[back]
