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
"""

from dataclasses import dataclass

from .errors import NotConnected, SomePairUnreachable, UnknownNode
from .network import Arc, Edge, Network, UndirectedView, _DisjointSet, as_symmetric
from .routing import Chain, _chain_nodes, _product_sweep


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of an undirected network.

    ``edges`` is kept sorted by endpoints so that the product below is
    always accumulated in the same order, regardless of how the tree was
    discovered.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

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


def max_product_spanning_tree(view: UndirectedView) -> SpanningTree:
    """Kruskal's construction of the maximum-product spanning tree.

    Because every efficiency lies in (0, 1], maximizing the product is the
    same greedy problem as the classical maximum spanning tree: scan edges
    from the most to the least efficient and keep those joining distinct
    components.  Equally efficient edges are scanned in endpoint order, so
    the result is deterministic.  Raises NotConnected when the view does
    not span.
    """
    nodes = view.nodes
    if len(nodes) <= 1:
        return SpanningTree(nodes, ())
    index = {label: i for i, label in enumerate(nodes)}
    dsu = _DisjointSet(len(nodes))
    chosen: list[Edge] = []
    for edge in sorted(view.edges, key=lambda e: (-e.efficiency, e.u, e.v)):
        if dsu.union(index[edge.u], index[edge.v]):
            chosen.append(edge)
            if len(chosen) == len(nodes) - 1:
                break
    if len(chosen) < len(nodes) - 1:
        raise NotConnected(
            f"network is not connected: spanning tree needs {len(nodes) - 1} "
            f"edges, found {len(chosen)}"
        )
    chosen.sort(key=lambda e: (e.u, e.v))
    return SpanningTree(nodes, tuple(chosen))


def guaranteed_min_by_tree(net: Network) -> GuaranteedLevel:
    """Certify a guaranteed level via the maximum-product spanning tree.

    The network must be symmetric (undirected after merging).  The
    returned value is the tree's full edge product: the chain joining any
    two nodes inside the tree uses a subset of the tree's edges, so its
    efficiency can only be higher.
    """
    tree = max_product_spanning_tree(as_symmetric(net))
    return GuaranteedLevel(value=tree.product, method="tree", tree=tree)


def tree_path(tree: SpanningTree, u: str, v: str) -> Chain:
    """The unique chain joining ``u`` and ``v`` inside a spanning tree."""
    arcs = tuple(Arc(e.u, e.v, e.efficiency, undirected=True) for e in tree.edges)
    net = Network(tree.nodes, arcs)
    for label in (u, v):
        if label not in net:
            raise UnknownNode(f"no node {label!r} in tree")
    if u == v:
        return Chain((u,), 1.0)
    # Walk out from u, multiplying each node's product onto the next step,
    # so the product at v is the chain's left-to-right product.
    pred: dict[str, str] = {}
    product = {u: 1.0}
    stack = [u]
    while stack and v not in pred:
        x = stack.pop()
        for y, eta in net.out_neighbors(x):
            if y not in product:
                pred[y] = x
                product[y] = product[x] * eta
                stack.append(y)
    nodes = [v]
    while nodes[-1] != u:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    return Chain(tuple(nodes), product[v])


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
