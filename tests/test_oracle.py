import random

import pytest

from effchain import (
    Chain,
    Network,
    UnknownNode,
    as_symmetric,
    build_network,
)
from helpers import complete_undirected, labels_for
from oracle import (
    SizeLimitExceeded,
    brute_best_chain,
    brute_best_tree,
    enumerate_chains,
    enumerate_spanning_trees,
)


def _complete_digraph(n: int, eff: float = 0.9) -> Network:
    names = labels_for(n)
    raws = [(u, v, eff, False) for u in names for v in names if u != v]
    return build_network(raws)


def test_chain_count_on_complete_digraph():
    # From a fixed source to a fixed target on 4 nodes: the direct arc,
    # two one-stop chains, and two two-stop chains.
    net = _complete_digraph(4)
    assert len(enumerate_chains(net, "a", "d")) == 5


def test_chains_are_simple_and_correctly_priced():
    rng = random.Random(321)
    names = labels_for(5)
    raws = [
        (u, v, 1.0 - rng.random(), False)
        for u in names
        for v in names
        if u != v and rng.random() < 0.6
    ]
    net = build_network(raws)
    for chain in enumerate_chains(net, "a", "e"):
        assert len(set(chain.nodes)) == len(chain.nodes)
        product = 1.0
        for u, v in zip(chain.nodes, chain.nodes[1:]):
            product *= net.step_efficiency(u, v)
        assert chain.efficiency == product


def test_same_source_and_target():
    net = build_network([("a", "b", 0.5, False)])
    assert enumerate_chains(net, "a", "a") == [Chain(("a",), 1.0)]


def test_unknown_endpoint_rejected():
    net = build_network([("a", "b", 0.5, False)])
    with pytest.raises(UnknownNode):
        enumerate_chains(net, "a", "q")


def test_chain_enumeration_guardrail():
    names = [f"x{i}" for i in range(13)]
    raws = [(names[i], names[i + 1], 0.9, False) for i in range(12)]
    with pytest.raises(SizeLimitExceeded):
        enumerate_chains(build_network(raws), "x0", "x12")


def test_brute_best_prefers_fewer_links_on_ties():
    net = build_network(
        [
            ("a", "z", 0.25, False),
            ("a", "b", 0.5, False),
            ("b", "z", 0.5, False),
        ]
    )
    best = brute_best_chain(net, "a", "z")
    assert best.nodes == ("a", "z")


def test_brute_best_breaks_remaining_ties_lexicographically():
    net = build_network(
        [
            ("a", "b", 0.5, False),
            ("b", "z", 0.5, False),
            ("a", "c", 0.5, False),
            ("c", "z", 0.5, False),
        ]
    )
    best = brute_best_chain(net, "a", "z")
    assert best.nodes == ("a", "b", "z")


def test_brute_best_none_when_unreachable():
    net = build_network([("a", "b", 0.5, False)])
    assert brute_best_chain(net, "b", "a") is None


@pytest.mark.parametrize("n,count", [(3, 3), (4, 16), (5, 125)])
def test_spanning_tree_counts_on_complete_graphs(n, count):
    rng = random.Random(n)
    view = as_symmetric(complete_undirected(n, rng))
    assert len(enumerate_spanning_trees(view)) == count


def test_spanning_tree_enumeration_guardrail():
    rng = random.Random(9)
    view = as_symmetric(complete_undirected(9, rng))
    with pytest.raises(SizeLimitExceeded):
        enumerate_spanning_trees(view)


def test_trivial_views_have_the_empty_tree():
    view = as_symmetric(build_network([]))
    assert enumerate_spanning_trees(view) == [()]


def test_enumerated_trees_span_and_are_acyclic():
    rng = random.Random(404)
    view = as_symmetric(complete_undirected(4, rng))
    for edges in enumerate_spanning_trees(view):
        assert len(edges) == 3
        touched = {e.tail for e in edges} | {e.head for e in edges}
        assert touched == set(view.nodes)
        # n-1 edges touching all n nodes and connected: checked by the
        # enumerator itself; distinctness of edge pairs is worth asserting.
        assert len({(e.tail, e.head) for e in edges}) == 3


def test_brute_best_tree_on_disconnected_view():
    view = as_symmetric(
        build_network([("a", "b", 0.5, True), ("c", "d", 0.5, True)])
    )
    with pytest.raises(ValueError):
        brute_best_tree(view)


def test_brute_best_tree_picks_heaviest_product():
    net = build_network(
        [("a", "b", 0.9, True), ("b", "c", 0.8, True), ("a", "c", 0.7, True)]
    )
    product, edges = brute_best_tree(as_symmetric(net))
    assert product == 0.9 * 0.8
    assert [(e.tail, e.head) for e in edges] == [("a", "b"), ("b", "c")]


def test_all_subsets_of_a_tree_only_give_one_tree():
    net = build_network(
        [("a", "b", 0.9, True), ("b", "c", 0.8, True), ("c", "d", 0.7, True)]
    )
    trees = enumerate_spanning_trees(as_symmetric(net))
    assert len(trees) == 1
    assert len(trees[0]) == 3


def test_tree_count_matches_deletion_argument_on_cycle():
    # A single cycle of length n has exactly n spanning trees: drop any
    # one edge.
    names = labels_for(5)
    raws = [
        (names[i], names[(i + 1) % 5], 0.9, True)
        for i in range(5)
    ]
    view = as_symmetric(build_network(raws))
    assert len(enumerate_spanning_trees(view)) == 5
