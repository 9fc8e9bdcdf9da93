import math
import random
import sys

import pytest

import effchain.guarantee
from effchain import (
    Chain,
    NotConnected,
    NotSymmetric,
    SomePairUnreachable,
    UnknownNode,
    as_symmetric,
    best_chain_multiplicative,
    build_network,
    guaranteed_min_all_pairs,
    guaranteed_min_by_tree,
    max_product_spanning_tree,
    tree_path,
)
from helpers import (
    _all_pairs_full_sweep,
    random_connected_undirected,
    random_directed_network,
    random_mixed_network,
    random_tree,
    sparse_undirected,
    underflow_path,
)
from effchain.routing import _product_sweep
from oracle import brute_best_tree


def _triangle():
    return build_network(
        [("a", "b", 0.9, True), ("b", "c", 0.8, True), ("a", "c", 0.7, True)]
    )


def test_triangle_tree_drops_weakest_edge():
    level = guaranteed_min_by_tree(_triangle())
    assert [(e.tail, e.head) for e in level.tree.arcs] == [("a", "b"), ("b", "c")]
    assert level.value == 0.9 * 0.8
    assert level.method == "tree"


def test_triangle_methods_coincide():
    # Here the worst pair's best chain is forced through both tree edges,
    # so the conservative bound happens to be tight.
    tree = guaranteed_min_by_tree(_triangle())
    exact = guaranteed_min_all_pairs(_triangle())
    assert tree.value == exact.value
    assert exact.value == pytest.approx(0.72)
    assert exact.worst_pair == ("a", "c")
    assert exact.worst_chain.nodes == ("a", "b", "c")


def test_path_network_methods_coincide():
    net = build_network([("a", "b", 0.9, True), ("b", "c", 0.9, True)])
    assert guaranteed_min_by_tree(net).value == 0.81
    assert guaranteed_min_all_pairs(net).value == 0.81


def test_star_tree_bound_is_strictly_conservative():
    net = build_network(
        [("s", "a", 0.9, True), ("s", "b", 0.8, True), ("s", "c", 0.7, True)]
    )
    tree = guaranteed_min_by_tree(net)
    exact = guaranteed_min_all_pairs(net)
    assert tree.value == 0.9 * 0.8 * 0.7
    assert exact.value == 0.8 * 0.7
    assert tree.value < exact.value


def test_tree_method_requires_symmetric():
    with pytest.raises(NotSymmetric):
        guaranteed_min_by_tree(build_network([("a", "b", 0.9, False)]))


def test_tree_rejects_a_directed_arc_in_a_network():
    mixed = build_network([("a", "b", 0.9, True), ("b", "c", 0.8, False)])
    with pytest.raises(NotSymmetric):
        max_product_spanning_tree(mixed)
    with pytest.raises(NotSymmetric):
        guaranteed_min_by_tree(mixed)


def test_tree_method_requires_connected():
    net = build_network([("a", "b", 0.9, True), ("c", "d", 0.9, True)])
    with pytest.raises(NotConnected):
        guaranteed_min_by_tree(net)


def test_all_pairs_reports_unreachable_pair():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(SomePairUnreachable) as exc_info:
        guaranteed_min_all_pairs(net)
    assert exc_info.value.pair == ("a", "b") or exc_info.value.pair == ("b", "a")


def test_all_pairs_names_the_first_unreachable_pair():
    # In node order: b reaches nothing, so (b, a) comes first.
    with pytest.raises(SomePairUnreachable) as exc_info:
        guaranteed_min_all_pairs(build_network([("a", "b", 0.9, False)]))
    assert exc_info.value.pair == ("b", "a")
    # A strongly connected core feeding a sink: a, b and c reach every
    # node, the sink d reaches none, so (d, a) comes first.
    core_and_sink = build_network(
        [
            ("a", "b", 0.9, False),
            ("b", "c", 0.8, False),
            ("c", "a", 0.7, False),
            ("b", "d", 0.6, False),
        ]
    )
    with pytest.raises(SomePairUnreachable) as exc_info:
        guaranteed_min_all_pairs(core_and_sink)
    assert exc_info.value.pair == ("d", "a")


def _exact(level):
    return (level.value, level.worst_pair, level.worst_chain)


def _level_or_unreachable(level_fn, net):
    try:
        return _exact(level_fn(net))
    except SomePairUnreachable as exc:
        return ("unreachable", exc.pair)


def test_bounded_level_matches_full_sweep():
    rng = random.Random(605)

    def ties():
        return rng.choice((0.5, 0.9, 1.0))

    def underflows():
        # Products of these reach subnormal weights or round to 0.0.
        return rng.choice((1e-308, 2e-308, 3e-90, 1e-120, 1e-160, 1e-200, 0.5, 1.0))

    makers = [
        lambda: random_connected_undirected(rng, max_nodes=12),
        lambda: sparse_undirected(rng, rng.randint(2, 40), draw=ties),
        lambda: sparse_undirected(rng, rng.randint(2, 40), draw=underflows),
        lambda: random_directed_network(rng, max_nodes=10),
        lambda: random_mixed_network(rng, max_nodes=10),
        lambda: random_mixed_network(rng, max_nodes=10, draw=ties),
        lambda: random_mixed_network(rng, max_nodes=10, draw=underflows),
    ]
    for _ in range(120):
        for make in makers:
            net = make()
            assert _level_or_unreachable(
                guaranteed_min_all_pairs, net
            ) == _level_or_unreachable(_all_pairs_full_sweep, net)


def test_bounded_level_sweeps_few_sources():
    net = sparse_undirected(random.Random(606), 400)
    level = guaranteed_min_all_pairs(net)
    full = _all_pairs_full_sweep(net)
    assert _exact(level) == _exact(full)
    assert full.sweeps == len(net.nodes)
    assert level.sweeps < len(net.nodes) // 4


def test_bounded_level_falls_back_on_a_subnormal_level(monkeypatch):
    # 0.001^103 ~ 1e-309 is subnormal: relative bounds no longer hold, so
    # after its first sweep the level sweeps every other source once, in
    # node order.
    names = [f"n{i:03d}" for i in range(104)]
    net = build_network([(u, v, 0.001, True) for u, v in zip(names, names[1:])])
    sources = _count_sweeps(monkeypatch)
    level = guaranteed_min_all_pairs(net)
    assert 0.0 < level.value < sys.float_info.min
    assert _exact(level) == _exact(_all_pairs_full_sweep(net))
    assert level.sweeps == len(names)
    assert sources == list(range(len(names)))


def test_unreached_pair_is_the_first_in_node_order():
    # Every weight from a is normal, so the bounds send the second sweep to
    # c, the node farthest from a, whose chain to b rounds to 0.0.  b's
    # chain to c rounds to 0.0 as well and b comes first, so (b, c) is the
    # pair to name: not (c, b), found first, nor (d, c), found after it.
    net = build_network(
        [("a", "b", 1e-160, True), ("a", "c", 1e-200, True), ("a", "d", 1e-150, True)]
    )
    assert _level_or_unreachable(_all_pairs_full_sweep, net) == (
        "unreachable",
        ("b", "c"),
    )
    with pytest.raises(SomePairUnreachable) as info:
        guaranteed_min_all_pairs(net)
    assert info.value.pair == ("b", "c")
    assert str(info.value) == "no chain from b to c"


def _count_sweeps(monkeypatch) -> list[int]:
    """The source of every sweep guaranteed_min_all_pairs runs from now on."""
    sources = []

    def counted(rows, source, target, sign):
        sources.append(source)
        return _product_sweep(rows, source, target, sign)

    monkeypatch.setattr(effchain.guarantee, "_product_sweep", counted)
    return sources


def test_a_source_that_reaches_nothing_is_named_in_three_sweeps(monkeypatch):
    # Every node of the symmetric part reaches every node, and zzz, last in
    # node order, reaches none.  Sweeping sources in node order would take
    # 1,501 sweeps to reach it.
    rng = random.Random(607)
    names = [f"s{i:05d}" for i in range(1500)]
    raws = [(names[rng.randrange(i)], names[i], 1.0 - rng.random(), True) for i in range(1, 1500)]
    raws.append((names[-1], "zzz", 0.5, False))
    net = build_network(raws)
    sources = _count_sweeps(monkeypatch)
    with pytest.raises(SomePairUnreachable) as info:
        guaranteed_min_all_pairs(net)
    assert info.value.pair == ("zzz", "s00000")
    # Forward and backward from s00000, then forward from zzz.
    assert sources == [0, 0, 1500]


def test_unreachable_pair_after_a_full_first_sweep_matches_full_sweep(monkeypatch):
    rng = random.Random(608)
    sources = _count_sweeps(monkeypatch)
    shortcuts = 0
    for _ in range(400):
        make = rng.choice((random_directed_network, random_mixed_network))
        net = make(rng, max_nodes=12)
        sources.clear()
        got = _level_or_unreachable(guaranteed_min_all_pairs, net)
        assert got == _level_or_unreachable(_all_pairs_full_sweep, net)
        first_reaches_all = len(_product_sweep(net._out_rows(), 0, None, 1)[2]) == len(net.nodes)
        if got[0] == "unreachable" and first_reaches_all:
            assert len(sources) <= 3
            shortcuts += 1
    assert shortcuts >= 20


def test_all_pairs_on_directed_cycle():
    net = build_network(
        [("a", "b", 0.9, False), ("b", "c", 0.9, False), ("c", "a", 0.9, False)]
    )
    level = guaranteed_min_all_pairs(net)
    assert level.value == pytest.approx(0.81)
    assert level.worst_chain.length == 2


def test_all_pairs_witness_is_attained():
    rng = random.Random(600)
    for _ in range(50):
        net = random_connected_undirected(rng)
        level = guaranteed_min_all_pairs(net)
        u, v = level.worst_pair
        recomputed = best_chain_multiplicative(net, u, v)
        assert recomputed.efficiency == level.value
        assert level.worst_chain == recomputed
        assert level.worst_chain.nodes[0] == u
        assert level.worst_chain.nodes[-1] == v


def test_tree_bound_never_exceeds_exact_value():
    # When the worst chain happens to use every tree edge, the two sides
    # multiply the same factors in different orders and may differ by an
    # ulp; the isclose guard covers exactly that case.
    rng = random.Random(601)
    for _ in range(100):
        net = random_connected_undirected(rng)
        tree = guaranteed_min_by_tree(net)
        exact = guaranteed_min_all_pairs(net)
        assert tree.value <= exact.value or math.isclose(
            tree.value, exact.value, rel_tol=1e-12
        )


def test_every_pair_meets_the_tree_bound():
    rng = random.Random(602)
    for _ in range(30):
        net = random_connected_undirected(rng)
        bound = guaranteed_min_by_tree(net).value
        for a in net.nodes:
            for z in net.nodes:
                if a != z:
                    best = best_chain_multiplicative(net, a, z)
                    assert best.efficiency >= bound or math.isclose(
                        best.efficiency, bound, rel_tol=1e-12
                    )


def test_kruskal_matches_exhaustive_maximum():
    rng = random.Random(603)
    for _ in range(60):
        view = as_symmetric(random_connected_undirected(rng))
        tree = max_product_spanning_tree(view)
        brute_product, brute_edges = brute_best_tree(view)
        assert guaranteed_min_by_tree(view).value == brute_product
        assert tree.arcs == brute_edges


def test_kruskal_tie_break_is_lexicographic():
    rng = random.Random(0)
    net = build_network(
        [("a", "b", 0.9, True), ("a", "c", 0.9, True), ("b", "c", 0.9, True)]
    )
    tree = max_product_spanning_tree(as_symmetric(net))
    assert [(e.tail, e.head) for e in tree.arcs] == [("a", "b"), ("a", "c")]


def test_empty_and_single_node_trees():
    empty = max_product_spanning_tree(as_symmetric(build_network([])))
    assert empty.arcs == ()
    assert guaranteed_min_by_tree(build_network([])).value == 1.0
    # Every arc joins two nodes, so the only network with fewer than two
    # nodes is the empty one.
    assert guaranteed_min_all_pairs(build_network([])).value == 1.0


def test_tree_path_on_star():
    net = build_network(
        [("s", "a", 0.9, True), ("s", "b", 0.8, True), ("s", "c", 0.7, True)]
    )
    tree = max_product_spanning_tree(as_symmetric(net))
    path = tree_path(tree, "a", "c")
    assert path.nodes == ("a", "s", "c")
    assert path.efficiency == 0.9 * 0.7


def test_tree_path_same_node_and_unknown_node():
    net = build_network([("a", "b", 0.9, True)])
    tree = max_product_spanning_tree(as_symmetric(net))
    assert tree_path(tree, "a", "a") == Chain(("a",), 1.0)
    with pytest.raises(UnknownNode):
        tree_path(tree, "a", "q")


def test_tree_paths_respect_the_full_product_bound():
    # The isclose guard covers paths using every tree edge, where the two
    # products multiply the same factors in different orders.
    rng = random.Random(604)
    for _ in range(50):
        net = random_tree(rng)
        tree = max_product_spanning_tree(as_symmetric(net))
        product = guaranteed_min_by_tree(net).value
        for u in tree.nodes:
            for v in tree.nodes:
                path = tree_path(tree, u, v)
                assert path.efficiency >= product or math.isclose(
                    path.efficiency, product, rel_tol=1e-12
                )


def test_tree_is_the_network_of_its_own_arcs():
    # The tree is cut from its network's columns; build_network of its
    # arcs must give the same Network, search rows included.
    rng = random.Random(606)
    for _ in range(100):
        net = random_connected_undirected(rng, max_nodes=8)
        level = guaranteed_min_by_tree(net)
        tree = level.tree
        raws = [(a.tail, a.head, a.efficiency, a.undirected) for a in tree.arcs]
        rebuilt = build_network(raws)
        assert tree == rebuilt
        assert tree._out_rows() == rebuilt._out_rows()
        assert tree.nodes == net.nodes
        assert len(tree.arcs) == len(net.nodes) - 1
        assert all(a.undirected for a in tree.arcs)
        product = 1.0
        for arc in tree.arcs:
            product *= arc.efficiency
        assert level.value == product
        for u in tree.nodes:
            assert tree.out_neighbors(u) == rebuilt.out_neighbors(u)
            for v in tree.nodes:
                assert tree_path(tree, u, v) == best_chain_multiplicative(tree, u, v)


def test_guaranteed_level_fields_by_method():
    net = build_network([("a", "b", 0.9, True)])
    tree = guaranteed_min_by_tree(net)
    assert tree.tree is not None
    assert tree.worst_pair is None
    assert tree.sweeps == 0
    exact = guaranteed_min_all_pairs(net)
    assert exact.tree is None
    assert exact.worst_pair is not None
    assert exact.sweeps > 0


# Long-path underflow (ROADMAP items 2b and 2c): on the connected 1,101-node
# path of 0.5 links, the worst pair's true level 2^-1100 underflows.
_UNDERFLOW = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP items 2b-2c: a level whose product underflows is lost or reported as 0.0",
)


@_UNDERFLOW
def test_all_pairs_level_on_underflowing_path():
    level = guaranteed_min_all_pairs(underflow_path())
    assert level.worst_chain is not None
    assert level.worst_chain.length == 1100
    assert 0.0 < level.value <= 1.0


@_UNDERFLOW
def test_tree_level_on_underflowing_path():
    level = guaranteed_min_by_tree(underflow_path())
    assert 0.0 < level.value <= 1.0


@_UNDERFLOW
def test_tree_path_on_underflowing_path():
    tree = max_product_spanning_tree(underflow_path())
    path = tree_path(tree, "n0000", "n1100")
    assert isinstance(path, Chain)
    assert path.length == 1100
    assert 0.0 < path.efficiency <= 1.0
