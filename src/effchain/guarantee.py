"""Guaranteed service levels for symmetric networks.

Two routes to a floor on chain efficiency:

* guaranteed_min_by_tree -- build the spanning tree whose edge-efficiency
  product is maximal (Kruskal on descending efficiencies) and quote that
  product.  Every pair of nodes is joined inside the tree by a chain whose
  efficiency is at least the full product, so the product is a guaranteed
  level for the whole network.  Fast, but usually conservative.
* guaranteed_min_all_pairs -- the worst best-chain value over all ordered
  pairs, exact.  Each full search from a node bounds every other node's
  eccentricity (the efficiency of its worst best chain), so only the few
  sources that can still hold the worst pair are searched, not all n.
  Once a search leaves a node unreached or finds a subnormal level, every
  node falls back to the trivial bounds, 0 and 1, and the same rule (least
  upper bound first) takes the remaining sources in node order until the
  first unreachable pair or the last source.  A node
  that reaches everything but is not reached from everywhere names the
  first unreachable pair in one more search.  Its backward searches walk
  the rows of steps entering each node, which the network builds from
  its columns on first use, with the builder of its forward rows, and
  keeps; a symmetric network's forward rows serve both ways.

The tree route needs no second graph type: a symmetric network's
canonical arcs are its undirected edges, so the tree is the Network over
the chosen ones, kept in canonical order, and a tree path is a search
over that Network.  The tree level reads only the columns, so neither the
network's nor the tree's search rows are built.
"""

import math
import sys
from array import array
from dataclasses import dataclass

from .errors import NotConnected, SomePairUnreachable
from .network import Network, _union_find, as_symmetric
from .routing import Chain, _chain_nodes, _product_sweep, best_chain_multiplicative

# A node is pruned once the lower bound on its eccentricity clears the best
# level by this relative margin.  It covers rounding in the products the
# bounds multiply, so every source whose eccentricity ties the minimum,
# even one ulp away in the other order of a symmetric pair, is swept.
_PRUNE_MARGIN = 1e-9


@dataclass(frozen=True)
class GuaranteedLevel:
    """A certified floor on pairwise chain efficiency.

    ``method`` records how the floor was obtained ("tree" or "all-pairs").
    The tree route carries the tree itself, as a Network; the exact route
    carries the worst ordered pair and its best chain as a witness.
    ``sweeps`` counts the forward and backward searches the level ran (0
    for the tree).  Past an unreached node or a subnormal level only the
    trivial bounds hold, so the remaining sources go in node order at one
    forward search each: a level subnormal from its first search costs n.
    A pair no chain joins costs at most three when the first source
    reaches every node.
    """

    value: float
    method: str
    tree: Network | None = None
    worst_pair: tuple[str, str] | None = None
    worst_chain: Chain | None = None
    sweeps: int = 0


def max_product_spanning_tree(net: Network) -> Network:
    """Kruskal's construction of the maximum-product spanning tree.

    Because every efficiency lies in (0, 1], maximizing the product is the
    same greedy problem as the classical maximum spanning tree: scan links
    from the most to the least efficient and keep those joining distinct
    components.  The sort is stable over arcs already in (tail, head)
    order, so equally efficient links are scanned in endpoint order and
    the result is deterministic.  The tree is a Network on the same nodes
    holding the chosen links in canonical order, as build_network would
    give it.  Raises NotSymmetric if any arc is directed and NotConnected
    when the network does not span.
    """
    nodes = as_symmetric(net).nodes
    tails, heads, effs = net._tails, net._heads, net._effs
    join = _union_find(len(nodes))
    chosen: list[int] = []
    # Arc indices, most efficient first; reverse=True keeps the sort stable.
    for i in sorted(range(len(effs)), key=effs.__getitem__, reverse=True):
        if join(tails[i], heads[i]):
            chosen.append(i)
            if len(chosen) == len(nodes) - 1:
                break
    if len(chosen) < len(nodes) - 1:
        raise NotConnected(
            f"network is not connected: spanning tree needs {len(nodes) - 1} "
            f"edges, found {len(chosen)}"
        )
    # Ascending arc index is canonical (tail, head) order.
    chosen.sort()
    return Network(
        nodes,
        net._index,
        array("i", map(tails.__getitem__, chosen)),
        array("i", map(heads.__getitem__, chosen)),
        array("d", map(effs.__getitem__, chosen)),
        bytearray(b"\x01") * len(chosen),
    )


def guaranteed_min_by_tree(net: Network) -> GuaranteedLevel:
    """Certify a guaranteed level via the maximum-product spanning tree.

    The network must be symmetric (undirected after merging).  The
    returned value is the tree's full edge product, multiplied left to
    right over its canonical arcs (1.0 for an empty tree): the chain
    joining any two nodes inside the tree uses a subset of the tree's
    edges, so its efficiency can only be higher.
    """
    tree = max_product_spanning_tree(net)
    return GuaranteedLevel(value=math.prod(tree._effs, start=1.0), method="tree", tree=tree)


def tree_path(tree: Network, u: str, v: str) -> Chain | None:
    """The unique chain joining ``u`` and ``v`` inside a spanning tree.

    A tree offers one chain per pair, so the maximum-efficiency search
    finds it, with its product accumulated outward from ``u``.  Like
    that search, it returns None when the product underflows to 0.0.
    """
    return best_chain_multiplicative(tree, u, v)


def guaranteed_min_all_pairs(net: Network) -> GuaranteedLevel:
    """Exact guaranteed level: the worst best-chain over all ordered pairs.

    Applies to any network, directed or not, and returns the value,
    witness pair and chain that a full search from every source would:
    the first ordered pair (in node order) whose best chain is worst.  It
    sweeps only sources that can still hold that pair, pruned by bounds on
    each node's eccentricity, the efficiency of its worst best chain
    (BoundingDiameters on symmetric networks, SumSweep's forward and
    backward bounds on directed ones, both in product form).  Once a sweep
    leaves a node unreached, or finds an eccentricity below the smallest
    normal float, every node falls back to the trivial bounds, under which
    the same rule sweeps the remaining sources forward, in node order.  One
    case ends sooner: when a source reaches every node but its backward
    sweep misses some, the first node missed is the first source with an
    unreached target, and one forward sweep from it names that target.
    Raises SomePairUnreachable naming the first ordered pair that no chain
    joins.  A single-node network has no pairs and is certified at level 1.
    """
    nodes = net.nodes
    n = len(nodes)
    if n <= 1:
        return GuaranteedLevel(value=1.0, method="all-pairs")
    out = net._out_rows()
    # Rows of steps into each node, kept on the network; a symmetric
    # network's are its forward rows.
    into = net._in_rows()
    lower = [0.0] * n  # lower[v] <= ecc(v)
    upper = [1.0] * n  # ecc(v) <= upper[v]
    swept = [False] * n
    sweeps = 0
    best_value, best_source = 2.0, n  # above any attainable efficiency
    bounded = True  # every sweep so far reached all n nodes at normal weights
    miss = None  # (source, smallest target) of the latest sweep to miss a node
    source = 0
    while True:
        sweeps += 1
        weight, pred, order = _product_sweep(out, source, None, 1)
        swept[source] = True
        # A full sweep settles every node it reaches, each once.
        if len(order) < n:
            miss = (source, weight.index(0.0))
        ecc = min(map(weight.__getitem__, order))
        if (ecc, source) < (best_value, best_source):
            best_value, best_source, best_weight, best_pred = ecc, source, weight, pred
        # A subnormal weight has lost relative precision, so it bounds nothing.
        bounded = bounded and len(order) == n and ecc >= sys.float_info.min
        back = weight
        if bounded and into is not out:
            sweeps += 1
            back, _, back_order = _product_sweep(into, source, None, 1)
            bounded = len(back_order) == n
            if not bounded and (
                ecc * min(map(back.__getitem__, back_order)) >= 2 * sys.float_info.min
            ):
                # Through source, every node the backward sweep reached
                # reaches every node: the two legs' weights multiply to at
                # least twice the smallest normal float, which rounding
                # cannot take to 0.  So the first source with an unreached
                # target is the first node that sweep missed, and its own
                # sweep names the target.  Should rounding let it reach
                # every node, node order goes on.
                first = back.index(0.0)
                sweeps += 1
                reached, _, reached_order = _product_sweep(out, first, None, 1)
                if len(reached_order) < n:
                    miss = (first, reached.index(0.0))
                    break
        if bounded:
            # Through u, v reaches every target t at w(v, u) * w(u, t) or
            # better, so w(v, u) * ecc(u) <= ecc(v); u is itself one of v's
            # targets, so ecc(v) <= w(v, u).
            lower = list(map(max, lower, map(ecc.__mul__, back)))
            upper = list(map(min, upper, back))
        else:
            # The trivial bounds prune nothing (best_value is above 0),
            # so the smallest unswept id comes next.
            lower, upper = [0.0] * n, [1.0] * n
        limit = best_value * (1.0 + _PRUNE_MARGIN)
        left = [(upper[v], v) for v in range(n) if not swept[v] and lower[v] < limit]
        _, source = min(left, default=(0.0, n))
        # Past a miss sources go in node order, so once the next lies above
        # its source, that miss is the first ordered pair no chain joins.
        if source == n or (miss is not None and source > miss[0]):
            break
    if miss is not None:
        u, v = nodes[miss[0]], nodes[miss[1]]
        raise SomePairUnreachable(f"no chain from {u} to {v}", pair=(u, v))
    target = next(
        t for t in range(n) if t != best_source and best_weight[t] == best_value
    )
    # A settled node's weight and predecessor never change, so this full
    # sweep's chain is the one a search stopping at the target would find.
    witness = Chain(_chain_nodes(net, best_pred, best_source, target), best_value)
    return GuaranteedLevel(
        value=best_value,
        method="all-pairs",
        worst_pair=(nodes[best_source], nodes[target]),
        worst_chain=witness,
        sweeps=sweeps,
    )

