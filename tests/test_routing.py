import math
import random

import pytest

from effchain import (
    BadBase,
    Chain,
    UnknownNode,
    additive_search,
    best_chain_multiplicative,
    best_chain_via_lossiness,
    build_network,
    demo_energy_network,
    from_lossiness,
    multiplicative_search,
    to_lossiness,
)
from effchain.algebra import Lossiness
from effchain.routing import _lossiness_sweep, _product_sweep, _reached
from helpers import (
    random_directed_network,
    random_mixed_network,
    reference_lossiness_sweep,
    reference_product_sweep,
    reference_rows,
    underflow_path,
)
from oracle import brute_best_chain


def test_demo_network_best_chain():
    net = demo_energy_network()
    chain = best_chain_multiplicative(net, "a", "z")
    assert chain.nodes == ("a", "b", "c", "d", "z")
    assert chain.efficiency == pytest.approx(0.93168306, abs=1e-9)


def test_demo_network_tie_break_does_not_change_answer():
    net = demo_energy_network()
    low = best_chain_multiplicative(net, "a", "z", tie_break="low")
    high = best_chain_multiplicative(net, "a", "z", tie_break="high")
    assert low == high

    # d and e really are tied when reached from a, so the tie-break rule
    # is exercised, not vacuous.
    weight, _, _ = multiplicative_search(net, "a")
    assert weight["d"] == weight["e"]


def test_single_node_chain():
    net = build_network([("a", "b", 0.9, False)])
    assert best_chain_multiplicative(net, "a", "a") == Chain(("a",), 1.0)
    assert best_chain_via_lossiness(net, "b", "b") == Chain(("b",), 1.0)


def test_no_chain_returns_none():
    net = build_network([("a", "b", 0.9, False)])
    assert best_chain_multiplicative(net, "b", "a") is None
    assert best_chain_via_lossiness(net, "b", "a") is None


def test_unknown_endpoints_rejected():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(UnknownNode):
        best_chain_multiplicative(net, "a", "q")
    with pytest.raises(UnknownNode):
        best_chain_via_lossiness(net, "q", "b")
    with pytest.raises(UnknownNode):
        multiplicative_search(net, "q")


def test_unknown_target_rejected_by_both_sweeps():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(UnknownNode):
        multiplicative_search(net, "a", target="nosuch")
    with pytest.raises(UnknownNode):
        additive_search(net, "a", target="nosuch")


def test_bad_base_rejected():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(BadBase):
        best_chain_via_lossiness(net, "a", "b", base=1.0)


@pytest.mark.parametrize("base", [1.0, 0.5, 0.0, -2.0, math.nan, math.inf])
def test_bad_base_rejected_by_every_lossiness_entry_point(base):
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(BadBase):
        additive_search(net, "a", base=base)
    with pytest.raises(BadBase):
        best_chain_via_lossiness(net, "a", "b", base=base)
    with pytest.raises(BadBase):
        to_lossiness(0.9, base=base)
    with pytest.raises(BadBase):
        from_lossiness(Lossiness(1.0, base))


def test_bad_tie_break_rejected():
    net = build_network([("a", "b", 0.9, False)])
    with pytest.raises(ValueError):
        best_chain_multiplicative(net, "a", "b", tie_break="middle")


@pytest.mark.parametrize("a, z", [("a", "b"), ("a", "a"), ("a", "q"), ("q", "q")])
def test_bad_arguments_rejected_before_the_endpoints(a, z):
    """Every entry point checks tie_break and base before it looks up a
    node or takes the a == z shortcut."""
    net = build_network([("a", "b", 0.9, False)])
    for search in (multiplicative_search, additive_search):
        with pytest.raises(ValueError, match="tie_break"):
            search(net, a, z, tie_break="bogus")
    for best in (best_chain_multiplicative, best_chain_via_lossiness):
        with pytest.raises(ValueError, match="tie_break"):
            best(net, a, z, tie_break="bogus")
    with pytest.raises(BadBase):
        additive_search(net, a, z, base=1.0, tie_break="bogus")
    with pytest.raises(BadBase):
        best_chain_via_lossiness(net, a, z, base=1.0, tie_break="bogus")


def test_greedy_trap_diamond():
    """The locally best first step does not win; the search must look ahead."""
    net = build_network(
        [
            ("a", "b", 0.5, False),
            ("b", "z", 0.5, False),
            ("a", "c", 0.8, False),
            ("c", "z", 0.3, False),
        ]
    )
    chain = best_chain_multiplicative(net, "a", "z")
    assert chain.nodes == ("a", "b", "z")
    assert chain.efficiency == 0.25


def test_unit_weight_cycle_terminates():
    net = build_network(
        [("a", "b", 1.0, True), ("b", "c", 1.0, True), ("a", "c", 1.0, True)]
    )
    chain = best_chain_multiplicative(net, "a", "c")
    assert chain.efficiency == 1.0
    assert chain.nodes == ("a", "c")


def test_matches_oracle_on_random_networks():
    rng = random.Random(1001)
    for i in range(300):
        net = random_mixed_network(rng) if i % 2 else random_directed_network(rng)
        nodes = net.nodes
        a = nodes[rng.randrange(len(nodes))]
        z = nodes[rng.randrange(len(nodes))]
        got = best_chain_multiplicative(net, a, z)
        want = brute_best_chain(net, a, z)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got.efficiency == want.efficiency


def test_lossiness_route_matches_product_route():
    rng = random.Random(1002)
    for _ in range(200):
        net = random_directed_network(rng)
        nodes = net.nodes
        a, z = nodes[0], nodes[-1]
        direct = best_chain_multiplicative(net, a, z)
        for base in (2.0, math.e, 10.0):
            via = best_chain_via_lossiness(net, a, z, base=base)
            if direct is None:
                assert via is None
            else:
                assert via is not None
                assert via.efficiency == pytest.approx(
                    direct.efficiency, abs=1e-10
                )


def test_kernels_match_the_settled_set_reference():
    """Without a settled set, on the CSR index with id-indexed state, both
    kernels give the reference's weights (values and insertion order),
    pred and settle order.  Every value the list state holds beyond the
    reached ones is the unreached value."""
    rng = random.Random(1013)
    draws = [
        lambda: 1.0 - rng.random(),
        lambda: rng.choice((0.5, 1.0)),
        lambda: rng.choice((0.9, 0.99, 1.0 - 1e-7, 1.0)),
        lambda: rng.choice((1e-308, 2e-308, 3e-90, 1e-160, 0.5, 1.0)),
    ]
    for i in range(5000):
        net = random_mixed_network(rng, max_nodes=16, draw=draws[i % len(draws)])
        n = len(net.nodes)
        rows, ref_rows = net._out_rows(), reference_rows(net)
        source = rng.randrange(n)
        base = rng.choice((2.0, math.e, 10.0))
        for target in (None, rng.randrange(n)):
            for sign in (1, -1):
                runs = [
                    (
                        _product_sweep(rows, source, target, sign),
                        reference_product_sweep(ref_rows, source, target, sign),
                        0.0,
                    ),
                    (
                        _lossiness_sweep(rows, source, target, base, sign),
                        reference_lossiness_sweep(net, source, target, base, sign),
                        math.inf,
                    ),
                ]
                for (value, pred, order), (ref_value, ref_pred, ref_order), unset in runs:
                    reached = _reached(value, pred, source)
                    assert list(reached.items()) == list(ref_value.items())
                    assert all(x == unset for v, x in enumerate(value) if v not in reached)
                    assert list(pred.items()) == list(ref_pred.items())
                    assert order == ref_order


def test_settle_weights_monotone():
    rng = random.Random(1003)
    for _ in range(100):
        net = random_directed_network(rng)
        source = net.nodes[0]
        weight, _, order = multiplicative_search(net, source)
        settled = [weight[v] for v in order]
        assert all(x >= y for x, y in zip(settled, settled[1:]))
        dist, _, order = additive_search(net, source)
        settled = [dist[v] for v in order]
        assert all(x <= y for x, y in zip(settled, settled[1:]))


def test_predecessor_weights_are_consistent():
    """Each reached node's weight is exactly its predecessor's times the step."""
    rng = random.Random(1004)
    for _ in range(100):
        net = random_mixed_network(rng)
        source = net.nodes[0]
        weight, pred, _ = multiplicative_search(net, source)
        for v, p in pred.items():
            assert weight[v] == weight[p] * net.step_efficiency(p, v)


def test_reported_efficiency_is_left_to_right_product():
    rng = random.Random(1005)
    for _ in range(100):
        net = random_directed_network(rng)
        chain = best_chain_multiplicative(net, net.nodes[0], net.nodes[-1])
        if chain is None:
            continue
        product = 1.0
        for u, v in zip(chain.nodes, chain.nodes[1:]):
            product *= net.step_efficiency(u, v)
        assert chain.efficiency == product


def test_chains_are_simple():
    rng = random.Random(1006)
    for _ in range(100):
        net = random_mixed_network(rng)
        chain = best_chain_multiplicative(net, net.nodes[0], net.nodes[-1])
        if chain is not None:
            assert len(set(chain.nodes)) == len(chain.nodes)


def test_adding_an_arc_never_hurts():
    rng = random.Random(1007)
    for _ in range(100):
        net = random_directed_network(rng, max_nodes=6)
        a, z = net.nodes[0], net.nodes[-1]
        before = best_chain_multiplicative(net, a, z)
        pairs = [
            (u, v)
            for u in net.nodes
            for v in net.nodes
            if u != v and not net.has_step(u, v) and not net.has_step(v, u)
        ]
        if not pairs:
            continue
        u, v = pairs[rng.randrange(len(pairs))]
        raws = [(x.tail, x.head, x.efficiency, x.undirected) for x in net.arcs]
        raws.append((u, v, 1.0 - rng.random(), False))
        after = best_chain_multiplicative(build_network(raws), a, z)
        if before is not None:
            assert after is not None
            assert after.efficiency >= before.efficiency


def test_tie_break_orders_settle_differently_but_agree_on_value():
    net = build_network(
        [
            ("a", "b", 0.5, False),
            ("a", "c", 0.5, False),
            ("b", "z", 0.5, False),
            ("c", "z", 0.5, False),
        ]
    )
    _, _, low_order = multiplicative_search(net, "a", tie_break="low")
    _, _, high_order = multiplicative_search(net, "a", tie_break="high")
    assert low_order.index("b") < low_order.index("c")
    assert high_order.index("c") < high_order.index("b")
    low = best_chain_multiplicative(net, "a", "z", tie_break="low")
    high = best_chain_multiplicative(net, "a", "z", tie_break="high")
    assert low.efficiency == high.efficiency == 0.25


def test_chain_length_property():
    assert Chain(("a",), 1.0).length == 0
    assert Chain(("a", "b", "c"), 0.5).length == 2


def test_high_tie_break_mirrors_low_on_reversed_labels():
    """`high` on a network settles like `low` on its label-mirrored copy.

    The mirror maps the i-th smallest label to the i-th largest, so the
    largest label among ties becomes the smallest.  Settle orders and
    weights must correspond; predecessors may not, since they follow the
    adjacency scan order, which the mirror reverses.
    """
    rng = random.Random(1008)
    for _ in range(60):
        # Efficiencies of 0.5 and 1.0 keep products and lossiness sums
        # exact, so equal chains tie exactly and the tie-break decides.
        net = random_mixed_network(rng, draw=lambda: rng.choice((0.5, 1.0)))
        raws = [(a.tail, a.head, a.efficiency, a.undirected) for a in net.arcs]
        mirror = dict(zip(net.nodes, reversed(net.nodes)))
        mirrored = build_network([(mirror[t], mirror[h], e, u) for t, h, e, u in raws])
        for source in net.nodes:
            for search in (multiplicative_search, additive_search):
                weight, _, order = search(net, source, tie_break="high")
                m_weight, _, m_order = search(mirrored, mirror[source], tie_break="low")
                assert order == [mirror[v] for v in m_order]
                assert weight == {mirror[v]: w for v, w in m_weight.items()}


# Long-chain underflow (ROADMAP item 2a): the true product 2^-1100 of the
# 1,100-link path lies below the smallest positive float.
_UNDERFLOW = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2a: a chain whose product underflows is lost or reported as 0.0",
)


@_UNDERFLOW
def test_underflowing_chain_found_by_product_route():
    net = underflow_path()
    chain = best_chain_multiplicative(net, net.nodes[0], net.nodes[-1])
    assert chain is not None
    assert chain.length == 1100
    assert 0.0 < chain.efficiency <= 1.0


@_UNDERFLOW
def test_underflowing_chain_reported_in_range_by_lossiness_route():
    net = underflow_path()
    chain = best_chain_via_lossiness(net, net.nodes[0], net.nodes[-1])
    assert chain is not None
    assert chain.length == 1100
    assert 0.0 < chain.efficiency <= 1.0
