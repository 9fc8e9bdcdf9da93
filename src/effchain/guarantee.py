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
from .network import Edge, Network, UndirectedView, as_symmetric
from .routing import Chain, _reconstruct, multiplicative_search


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


class _DisjointSet:
    """Union-find over integer indices with path halving."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.rank = [0] * size

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True


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
    node_set = set(tree.nodes)
    for label in (u, v):
        if label not in node_set:
            raise UnknownNode(f"no node {label!r} in tree")
    if u == v:
        return Chain((u,), 1.0)
    adj: dict[str, list[str]] = {label: [] for label in tree.nodes}
    eff: dict[tuple[str, str], float] = {}
    for edge in tree.edges:
        adj[edge.u].append(edge.v)
        adj[edge.v].append(edge.u)
        eff[(edge.u, edge.v)] = edge.efficiency
    pred: dict[str, str] = {}
    frontier = [u]
    while frontier and v not in pred:
        next_frontier = []
        for x in frontier:
            for y in adj[x]:
                if y != u and y not in pred:
                    pred[y] = x
                    next_frontier.append(y)
        frontier = next_frontier
    nodes = [v]
    while nodes[-1] != u:
        nodes.append(pred[nodes[-1]])
    nodes.reverse()
    efficiency = 1.0
    for a, b in zip(nodes, nodes[1:]):
        efficiency *= eff[(a, b) if a < b else (b, a)]
    return Chain(tuple(nodes), efficiency)


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
    best_pair: tuple[str, str] | None = None
    for source in nodes:
        weight, pred, _ = multiplicative_search(net, source)
        for target in nodes:
            if target == source:
                continue
            if target not in weight:
                raise SomePairUnreachable(
                    f"no chain from {source} to {target}", pair=(source, target)
                )
            if weight[target] < best_value:
                best_value = weight[target]
                best_pair = (source, target)
                best_pred = pred
    assert best_pair is not None
    # A settled node's weight and predecessor never change, so this full
    # sweep's chain is the one a search stopping at the target would find.
    witness = Chain(_reconstruct(best_pred, *best_pair), best_value)
    return GuaranteedLevel(
        value=best_value,
        method="all-pairs",
        worst_pair=best_pair,
        worst_chain=witness,
    )
