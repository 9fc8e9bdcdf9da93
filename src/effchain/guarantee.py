"""Guaranteed service levels for symmetric networks.

Two routes to a floor on chain efficiency:

* guaranteed_min_by_tree -- build the spanning tree whose edge-efficiency
  product is maximal (Kruskal on descending efficiencies) and quote that
  product.  Every pair of nodes is joined inside the tree by a chain whose
  efficiency is at least the full product, so the product is a guaranteed
  level for the whole network.  Fast, but usually conservative.
* guaranteed_min_all_pairs -- run the maximum-efficiency chain search from
  every node and take the worst best-chain value over all ordered pairs.
  Exact by construction, at the cost of n full searches.

The tree route needs no second graph type: a symmetric network's
canonical arcs are its undirected edges, so the tree is a tuple of those
Arcs and a tree path is a search over the Network they make up.
"""

from dataclasses import dataclass

from .errors import NotConnected, SomePairUnreachable
from .network import Arc, Network, _DisjointSet, as_symmetric
from .routing import Chain, _chain_nodes, _product_sweep, best_chain_multiplicative


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a symmetric network.

    ``edges`` holds undirected Arcs (tail < head) kept sorted by endpoints
    so that the product below is always accumulated in the same order,
    regardless of how the tree was discovered.
    """

    nodes: tuple[str, ...]
    edges: tuple[Arc, ...]

    @property
    def product(self) -> float:
        """Product of all edge efficiencies; 1.0 for a single-node tree."""
        result = 1.0
        for edge in self.edges:
            result *= edge.efficiency
        return result


@dataclass(frozen=True)
class GuaranteedLevel:
    """A certified floor on pairwise chain efficiency.

    ``method`` records how the floor was obtained ("tree" or "all-pairs").
    The tree route carries the tree itself; the exact route carries the
    worst ordered pair and its best chain as a witness.
    """

    value: float
    method: str
    tree: SpanningTree | None = None
    worst_pair: tuple[str, str] | None = None
    worst_chain: Chain | None = None


def max_product_spanning_tree(net: Network) -> SpanningTree:
    """Kruskal's construction of the maximum-product spanning tree.

    Because every efficiency lies in (0, 1], maximizing the product is the
    same greedy problem as the classical maximum spanning tree: scan links
    from the most to the least efficient and keep those joining distinct
    components.  The sort is stable over arcs already in (tail, head)
    order, so equally efficient links are scanned in endpoint order and
    the result is deterministic.  Raises NotSymmetric if any arc is
    directed and NotConnected when the network does not span.
    """
    nodes = as_symmetric(net).nodes
    if len(nodes) <= 1:
        return SpanningTree(nodes, ())
    index = net._index
    dsu = _DisjointSet(len(nodes))
    chosen: list[Arc] = []
    for arc in sorted(net.arcs, key=lambda a: -a.efficiency):
        if dsu.union(index[arc.tail], index[arc.head]):
            chosen.append(arc)
            if len(chosen) == len(nodes) - 1:
                break
    if len(chosen) < len(nodes) - 1:
        raise NotConnected(
            f"network is not connected: spanning tree needs {len(nodes) - 1} "
            f"edges, found {len(chosen)}"
        )
    chosen.sort(key=lambda a: (a.tail, a.head))
    return SpanningTree(nodes, tuple(chosen))


def guaranteed_min_by_tree(net: Network) -> GuaranteedLevel:
    """Certify a guaranteed level via the maximum-product spanning tree.

    The network must be symmetric (undirected after merging).  The
    returned value is the tree's full edge product: the chain joining any
    two nodes inside the tree uses a subset of the tree's edges, so its
    efficiency can only be higher.
    """
    tree = max_product_spanning_tree(net)
    return GuaranteedLevel(value=tree.product, method="tree", tree=tree)


def tree_path(tree: SpanningTree, u: str, v: str) -> Chain | None:
    """The unique chain joining ``u`` and ``v`` inside a spanning tree.

    A tree offers one chain per pair, so the maximum-efficiency search
    finds it, with its product accumulated outward from ``u``.  Like
    that search, it returns None when the product underflows to 0.0.
    """
    return best_chain_multiplicative(Network(tree.nodes, tree.edges), u, v)


def guaranteed_min_all_pairs(net: Network) -> GuaranteedLevel:
    """Exact guaranteed level: the worst best-chain over all ordered pairs.

    Runs one full maximum-efficiency search per source node.  Applies to
    any network, directed or not.  Raises SomePairUnreachable naming the
    first ordered pair (in node order) that no chain joins.  A single-node
    network has no pairs and is certified at level 1.
    """
    nodes = net.nodes
    if len(nodes) <= 1:
        return GuaranteedLevel(value=1.0, method="all-pairs")
    best_value = 2.0  # above any attainable efficiency
    best_pair: tuple[int, int] | None = None
    for source in range(len(nodes)):
        weight, pred, _ = _product_sweep(net, source, None, 1)
        for target in range(len(nodes)):
            if target == source:
                continue
            if target not in weight:
                u, v = nodes[source], nodes[target]
                raise SomePairUnreachable(f"no chain from {u} to {v}", pair=(u, v))
            if weight[target] < best_value:
                best_value = weight[target]
                best_pair = (source, target)
                best_pred = pred
    assert best_pair is not None
    # A settled node's weight and predecessor never change, so this full
    # sweep's chain is the one a search stopping at the target would find.
    witness = Chain(_chain_nodes(net, best_pred, *best_pair), best_value)
    return GuaranteedLevel(
        value=best_value,
        method="all-pairs",
        worst_pair=(nodes[best_pair[0]], nodes[best_pair[1]]),
        worst_chain=witness,
    )
