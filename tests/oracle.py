"""Exhaustive baselines for cross-checking the fast algorithms.

Everything here is deliberately naive: simple-chain enumeration by depth
first search and spanning-tree enumeration by trying every subset of a
symmetric network's arcs.  Both refuse networks large enough to make
enumeration explode, so a typo in a test cannot silently burn minutes.
"""

from itertools import combinations

from effchain import Arc, Chain, Network, UnknownNode, as_symmetric
from effchain.network import _union_find

MAX_CHAIN_NODES = 12
MAX_TREE_NODES = 8


class SizeLimitExceeded(Exception):
    """An exhaustive enumeration was asked for a network above its size
    guardrail."""


def enumerate_chains(net: Network, a: str, z: str) -> list[Chain]:
    """Every simple chain from ``a`` to ``z``, in discovery order.

    Efficiencies are accumulated left to right along each chain.  The
    degenerate a == z case yields the single-node chain alone, matching
    the search convention.
    """
    if len(net.nodes) > MAX_CHAIN_NODES:
        raise SizeLimitExceeded(
            f"chain enumeration is capped at {MAX_CHAIN_NODES} nodes, "
            f"network has {len(net.nodes)}"
        )
    for label in (a, z):
        if label not in net:
            raise UnknownNode(f"no node {label!r} in network")
    if a == z:
        return [Chain((a,), 1.0)]
    found: list[Chain] = []
    path = [a]
    on_path = {a}

    def extend(node: str, efficiency: float) -> None:
        for nxt, eta in net.out_neighbors(node):
            if nxt in on_path:
                continue
            product = efficiency * eta
            if nxt == z:
                found.append(Chain(tuple(path) + (z,), product))
                continue
            path.append(nxt)
            on_path.add(nxt)
            extend(nxt, product)
            path.pop()
            on_path.remove(nxt)

    extend(a, 1.0)
    return found


def brute_best_chain(net: Network, a: str, z: str) -> Chain | None:
    """The maximum-efficiency chain by full enumeration, or None.

    Ties are broken toward fewer links, then the lexicographically
    smallest node sequence, so the answer is unique and reproducible.
    """
    chains = enumerate_chains(net, a, z)
    if not chains:
        return None
    return min(chains, key=lambda c: (-c.efficiency, c.length, c.nodes))


def enumerate_spanning_trees(net: Network) -> list[tuple[Arc, ...]]:
    """Every spanning tree of a symmetric network, as sorted arc tuples.

    Tries each (n-1)-subset of the undirected arcs and keeps those whose
    every arc joins two components, as is_connected counts them: with
    exactly n-1 arcs, that is connected and acyclic.  Raises NotSymmetric
    if any arc is directed.
    """
    nodes = as_symmetric(net).nodes
    if len(nodes) > MAX_TREE_NODES:
        raise SizeLimitExceeded(
            f"spanning-tree enumeration is capped at {MAX_TREE_NODES} nodes, "
            f"network has {len(nodes)}"
        )
    if len(nodes) <= 1:
        return [()]
    index = net._index
    trees = []
    for subset in combinations(net.arcs, len(nodes) - 1):
        join = _union_find(len(nodes))
        if all(join(index[a.tail], index[a.head]) for a in subset):
            trees.append(subset)
    return trees


def brute_best_tree(net: Network) -> tuple[float, tuple[Arc, ...]]:
    """The spanning tree of maximal edge product, by full enumeration.

    Returns (product, edges).  Products are computed over the
    endpoint-sorted arc tuple, the shared convention everywhere a tree
    product appears.  Ties break toward the lexicographically smallest
    endpoint sequence.  An unconnected network has no spanning trees and
    is reported as a ValueError.
    """
    trees = enumerate_spanning_trees(net)
    if not trees:
        raise ValueError("network has no spanning tree; it is not connected")
    best_product = -1.0
    best_edges: tuple[Arc, ...] = ()
    best_key: tuple[tuple[str, str], ...] = ()
    for edges in trees:
        product = 1.0
        for e in edges:
            product *= e.efficiency
        key = tuple((e.tail, e.head) for e in edges)
        if product > best_product or (product == best_product and key < best_key):
            best_product = product
            best_edges = edges
            best_key = key
    return best_product, best_edges
