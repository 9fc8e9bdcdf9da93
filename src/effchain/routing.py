"""Maximum-efficiency chain search.

Two interchangeable methods:

* best_chain_multiplicative -- Dijkstra over the (max, *) semiring on the
  raw efficiencies: the source starts at weight 1, unreached nodes sit at
  0, the largest-weight unsettled node is settled, and relaxation
  multiplies instead of adding.  Works because every efficiency is <= 1,
  so extending a chain can never increase its product.
* best_chain_via_lossiness -- replace every arc weight by its lossiness
  -log_b(efficiency) and run the classical additive shortest-path search;
  the minimum-lossiness chain is the maximum-product chain because
  -log_b is monotone decreasing on (0, 1].

The routes agree on the optimal value up to rounding, not bit for bit:
sums of logarithms round differently from products, so on near-ties
they can settle nodes in different orders and return different chains
of almost equal efficiency.  Both return a simple chain: revisiting a
node can never improve the product, and relaxation requires strict
improvement, so weight-1 arcs cannot create improvement cycles either.
"""

import math
from dataclasses import dataclass
from heapq import heappop, heappush

from .algebra import _check_base, chain_efficiency
from .errors import UnknownNode
from .network import Network, Rows

TieBreak = str  # "low": settle the smallest label among ties; "high": the largest


@dataclass(frozen=True)
class Chain:
    """An ordered node walk from a source to a target with its efficiency.

    The efficiency equals the product of the traversed arcs' efficiencies,
    accumulated left to right.  A single-node chain (source == target) has
    efficiency 1.0, the empty product.
    """

    nodes: tuple[str, ...]
    efficiency: float

    @property
    def length(self) -> int:
        """Number of links."""
        return len(self.nodes) - 1


def _ends(
    net: Network, source: str, target: str | None, tie_break: TieBreak
) -> tuple[int, int, int | None]:
    """A search's heap sign and endpoint ids, checked in that order: heap
    entries hold (weight key, sign * id), and ids follow label order."""
    if tie_break not in ("low", "high"):
        raise ValueError(f"tie_break must be 'low' or 'high', got {tie_break!r}")
    index = net._index
    try:
        ids = index[source], None if target is None else index[target]
    except KeyError as exc:
        raise UnknownNode(f"no node {exc.args[0]!r} in network") from None
    return 1 if tie_break == "low" else -1, *ids


def _product_sweep(
    rows: Rows, source: int, target: int | None, sign: int
) -> tuple[list[float], dict[int, int], list[int]]:
    """multiplicative_search over node ids, with ties settled by ``sign``.

    ``rows`` are CSR rows of (neighbour id, efficiency) steps:
    ``net._out_rows()`` searches forward; ``net._in_rows()`` searches
    backward, giving the best chain *into* ``source`` from every node.
    Returns the weight of every id (0.0 = unreached), the predecessor of
    each reached id but the source in the order they were first reached,
    and the settle order.

    No settled set: a step never raises a weight (efficiencies are at most
    1 and IEEE ``*`` is monotone), so nodes settle in non-increasing weight
    and a settled weight is final.  A popped entry below its node's weight
    is stale, and a neighbour already at the settling weight or above
    (every settled one is) cannot improve.
    """
    first, to, eta = rows
    weight = [0.0] * (len(first) - 1)
    weight[source] = 1.0
    pred: dict[int, int] = {}
    order: list[int] = []
    heap = [(-1.0, sign * source)]
    while heap:
        neg_w, key = heappop(heap)
        v = sign * key
        w = -neg_w
        if w < weight[v]:
            continue
        order.append(v)
        if v == target:
            break
        for k in range(first[v], first[v + 1]):
            u = to[k]
            old = weight[u]
            if old >= w:
                continue
            candidate = w * eta[k]
            # Strict improvement only: an equal-weight candidate never
            # overwrites an existing history.
            if candidate > old:
                weight[u] = candidate
                pred[u] = v
                heappush(heap, (-candidate, sign * u))
    return weight, pred, order


def _lossiness_sweep(
    rows: Rows, source: int, target: int | None, base: float, sign: int
) -> tuple[list[float], dict[int, int], list[int]]:
    """additive_search over node ids, with ties settled by ``sign``.

    Returns as _product_sweep does, with distances (inf = unreached).  No
    settled set, as in _product_sweep: a lossiness is at least 0 and IEEE
    ``+`` is monotone, so nodes settle in non-decreasing distance.  A
    popped entry above its node's distance is stale, and a neighbour
    already at the settling distance or below cannot improve.
    """
    first, to, eta = rows
    log_base = math.log(base)
    dist = [math.inf] * (len(first) - 1)
    dist[source] = 0.0
    pred: dict[int, int] = {}
    order: list[int] = []
    heap = [(0.0, sign * source)]
    while heap:
        d, key = heappop(heap)
        v = sign * key
        if d > dist[v]:
            continue
        order.append(v)
        if v == target:
            break
        for k in range(first[v], first[v + 1]):
            u = to[k]
            old = dist[u]
            if old <= d:
                continue
            candidate = d + abs(math.log(eta[k]) / log_base)
            if candidate < old:
                dist[u] = candidate
                pred[u] = v
                heappush(heap, (candidate, sign * u))
    return dist, pred, order


def _reached(value: list[float], pred: dict[int, int], source: int) -> dict[int, float]:
    """A sweep's values of the reached ids, in the order they were reached.

    A node enters ``pred`` exactly when it is first reached, and the
    source is reached before any other.
    """
    reached = {source: value[source]}
    for v in pred:
        reached[v] = value[v]
    return reached


def _labelled(net: Network, source: int, value: list, pred: dict, order: list) -> tuple:
    """A sweep's id-indexed (value, pred, order) from ``source``, translated
    to labels."""
    nodes = net.nodes
    return (
        {nodes[v]: x for v, x in _reached(value, pred, source).items()},
        {nodes[v]: nodes[p] for v, p in pred.items()},
        [nodes[v] for v in order],
    )


def multiplicative_search(
    net: Network, source: str, target: str | None = None, tie_break: TieBreak = "low"
) -> tuple[dict[str, float], dict[str, str], list[str]]:
    """Run the multiplicative Dijkstra sweep from ``source``.

    Returns (weight, pred, settled): final node weights (absent = weight 0,
    unreached), the predecessor of each reached non-source node, and the
    settle order.  Stops as soon as ``target`` is settled; with
    target=None it settles every reachable node (used by the all-pairs
    guaranteed-level sweep).  An unknown source or target raises
    UnknownNode.
    """
    sign, source_id, target_id = _ends(net, source, target, tie_break)
    rows = net._out_rows()
    return _labelled(net, source_id, *_product_sweep(rows, source_id, target_id, sign))


def additive_search(
    net: Network,
    source: str,
    target: str | None = None,
    base: float = 2.0,
    tie_break: TieBreak = "low",
) -> tuple[dict[str, float], dict[str, str], list[str]]:
    """Run the classical min-sum Dijkstra over lossiness weights.

    Arc weights are -log_base(efficiency) for a base > 1; the source starts
    at distance 0 and unreached nodes are absent (conceptually at
    infinity).  Returns (distance, pred, settled) analogous to
    multiplicative_search.
    """
    _check_base(base)
    sign, source_id, target_id = _ends(net, source, target, tie_break)
    rows = net._out_rows()
    return _labelled(net, source_id, *_lossiness_sweep(rows, source_id, target_id, base, sign))


def _chain_nodes(
    net: Network, pred: dict[int, int], source: int, target: int
) -> tuple[str, ...]:
    """The labels along the pred chain from ``source`` to ``target``."""
    ids = [target]
    while ids[-1] != source:
        ids.append(pred[ids[-1]])
    nodes = net.nodes
    return tuple(nodes[v] for v in reversed(ids))


def best_chain_multiplicative(
    net: Network, a: str, z: str, tie_break: TieBreak = "low"
) -> Chain | None:
    """Find a maximum-efficiency chain from ``a`` to ``z``.

    Returns None when no chain exists.  ``a == z`` yields the single-node
    chain of efficiency 1.  Among unsettled nodes of equal maximal weight
    the tie_break rule decides which settles first; the optimum value does
    not depend on that choice.
    """
    sign, source, target = _ends(net, a, z, tie_break)
    if source == target:
        return Chain((a,), 1.0)
    weight, pred, _ = _product_sweep(net._out_rows(), source, target, sign)
    if target not in pred:
        return None
    return Chain(_chain_nodes(net, pred, source, target), weight[target])


def best_chain_via_lossiness(
    net: Network, a: str, z: str, base: float = 2.0, tie_break: TieBreak = "low"
) -> Chain | None:
    """Find a maximum-efficiency chain by minimizing total lossiness.

    Every arc weight is transformed to -log_base(efficiency), a classical
    additive shortest-path search runs on the transformed weights, and the
    winning node sequence is reported with its efficiency recomputed as
    the product of its arcs.  The chosen base does not change which chain
    wins; it only rescales all lossiness totals by a positive constant.
    """
    _check_base(base)
    sign, source, target = _ends(net, a, z, tie_break)
    if source == target:
        return Chain((a,), 1.0)
    _, pred, _ = _lossiness_sweep(net._out_rows(), source, target, base, sign)
    if target not in pred:
        return None
    nodes = _chain_nodes(net, pred, source, target)
    links = [net.step_efficiency(u, v) for u, v in zip(nodes, nodes[1:])]
    return Chain(nodes, chain_efficiency(links))
