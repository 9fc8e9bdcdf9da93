"""Logistic network data model.

A network is a set of node labels plus a list of arcs, each carrying an
efficiency in (0, 1].  A pair of opposite directed arcs with equal
efficiency is collapsed into a single undirected link at build time;
service then flows both ways over that link with the same efficiency.
Node labels are plain strings (non-empty, no commas, no whitespace), and
every iteration order in the package is ascending by label so runs are
reproducible.  A Network interns its labels once, in ascending order:
node id ``i`` is ``nodes[i]``, so ordering by id is ordering by label.
Its one adjacency lists, per id, the (head id, efficiency) steps leaving
that node in ascending id order; every lookup and both search routes
read it.  Among nodes of equal weight a search settles the smaller label
first under tie_break="low" and the larger under "high".

A symmetric network needs no second representation: each of its arcs is
an undirected link stored once with tail < head, so its canonical arcs
are its unordered weighted edges.  as_symmetric only checks that, and the
spanning tree, tree paths and connectivity test all run on a Network.

Networks are immutable after build_network returns and are safe to share
across threads; each query owns its own working state.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .algebra import check_efficiency
from .errors import (
    BadLabel,
    ConflictingArc,
    DuplicateArc,
    NotSymmetric,
    SelfLoop,
    UnknownNode,
)

# Opposite directed arcs merge into one undirected link when their
# efficiencies differ by no more than this.
MERGE_TOLERANCE = 1e-12


@dataclass(frozen=True, slots=True)
class Arc:
    """One service-carrying connection.

    A directed arc carries service tail -> head only.  An undirected arc
    (stored with tail < head) carries it both ways with equal efficiency.
    """

    tail: str
    head: str
    efficiency: float
    undirected: bool = False


class NetworkKind(Enum):
    ONE_SIDED = "one-sided"
    SYMMETRIC_TWO_SIDED = "symmetric-two-sided"
    ASYMMETRIC_TWO_SIDED = "asymmetric-two-sided"
    MIXED = "mixed"


# Exactly the characters validate_label rejects: commas and whatever
# str.isspace() accepts.
_FORBIDDEN_IN_LABEL = re.compile(r"[\s,]")


def validate_label(label: str, *, line: int | None = None) -> str:
    if not isinstance(label, str) or not label:
        raise BadLabel(f"node label must be a non-empty string, got {label!r}", line=line)
    if _FORBIDDEN_IN_LABEL.search(label):
        raise BadLabel(f"node label may not contain commas or whitespace: {label!r}", line=line)
    return label


class Network:
    """An immutable arc-weighted directed graph with optional undirected links.

    Use build_network() to construct one; it validates arcs and performs
    the opposite-arc merge.  The constructor itself assumes canonical,
    already-validated input.
    """

    __slots__ = ("_nodes", "_arcs", "_index", "_out")

    def __init__(self, nodes: tuple[str, ...], arcs: tuple[Arc, ...]):
        self._nodes = nodes
        self._arcs = arcs
        index = {label: i for i, label in enumerate(nodes)}
        out: list[list[tuple[int, float]]] = [[] for _ in nodes]
        for arc in arcs:
            tail, head = index[arc.tail], index[arc.head]
            out[tail].append((head, arc.efficiency))
            if arc.undirected:
                out[head].append((tail, arc.efficiency))
        for row in out:
            row.sort()
        self._index = index
        self._out = out

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node labels, ascending."""
        return self._nodes

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """All arcs in canonical (tail, head) order."""
        return self._arcs

    def out_neighbors(self, u: str) -> list[tuple[str, float]]:
        """Nodes reachable from ``u`` in one service-carrying step.

        Heads of directed arcs leaving ``u`` plus the far endpoints of
        undirected links touching it, as (label, efficiency) pairs in
        ascending label order.
        """
        try:
            row = self._out[self._index[u]]
        except KeyError:
            raise UnknownNode(f"no node {u!r} in network") from None
        nodes = self._nodes
        return [(nodes[v], eta) for v, eta in row]

    def _step(self, u: str, v: str) -> float | None:
        """Efficiency of the step u -> v, or None when there is none."""
        try:
            row = self._out[self._index[u]]
            head = self._index[v]
        except KeyError:
            return None
        k = bisect_left(row, (head,))
        return row[k][1] if k < len(row) and row[k][0] == head else None

    def step_efficiency(self, u: str, v: str) -> float:
        """Efficiency of the single step u -> v, if the network carries one."""
        eta = self._step(u, v)
        if eta is None:
            raise UnknownNode(f"no service-carrying step {u!r} -> {v!r}")
        return eta

    def has_step(self, u: str, v: str) -> bool:
        return self._step(u, v) is not None

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self._nodes == other._nodes and self._arcs == other._arcs

    def __hash__(self):
        return hash((self._nodes, self._arcs))

    def __repr__(self) -> str:
        return f"Network({len(self._nodes)} nodes, {len(self._arcs)} arcs)"


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


RawArc = tuple[str, str, float, bool]


def build_network(raw_arcs: list[RawArc] | tuple[RawArc, ...]) -> Network:
    """Validate raw (tail, head, efficiency, undirected) tuples into a Network.

    Arcs are checked in input order and the first defect raises.  Opposite
    directed arcs whose efficiencies agree within MERGE_TOLERANCE become
    one undirected link (carrying the efficiency of the arc whose tail is
    the smaller label).  Opposite arcs with different efficiencies are
    both kept.  Rebuilding from a built network's arcs reproduces it.
    """
    return _build_network(raw_arcs, None)


def _build_network(
    raw_arcs: list[RawArc] | tuple[RawArc, ...], lines: list[int] | None
) -> Network:
    """build_network, with ``lines[i]`` the file line of ``raw_arcs[i]``.

    Every error carries the line of the arc that raised it, and a
    duplicate cites the line of its first declaration.
    """
    # (tail, head) -> (efficiency, line); undirected keys have tail < head.
    directed: dict[tuple[str, str], tuple[float, int | None]] = {}
    undirected: dict[tuple[str, str], tuple[float, int | None]] = {}
    nodes: set[str] = set()

    for i, (tail, head, eta, undir) in enumerate(raw_arcs):
        line = None if lines is None else lines[i]
        for label in (tail, head):
            if label not in nodes:
                validate_label(label, line=line)
                nodes.add(label)
        if tail == head:
            raise SelfLoop(f"self-loop on node {tail!r}", line=line, pair=(tail, head))
        check_efficiency(eta, line=line, pair=(tail, head))
        unordered = (tail, head) if tail < head else (head, tail)
        if undir:
            if unordered in undirected:
                raise DuplicateArc(
                    f"undirected link {unordered[0]!r} -- {unordered[1]!r} "
                    f"already declared{_on_line(undirected[unordered][1])}",
                    line=line,
                    pair=unordered,
                )
            if (tail, head) in directed or (head, tail) in directed:
                raise ConflictingArc(
                    f"pair {unordered[0]!r} -- {unordered[1]!r} already has a "
                    "directed arc",
                    line=line,
                    pair=unordered,
                )
            undirected[unordered] = (eta, line)
        else:
            if (tail, head) in directed:
                raise DuplicateArc(
                    f"arc {tail!r} -> {head!r} already declared"
                    f"{_on_line(directed[(tail, head)][1])}",
                    line=line,
                    pair=(tail, head),
                )
            if unordered in undirected:
                raise ConflictingArc(
                    f"pair {unordered[0]!r} -- {unordered[1]!r} already has an "
                    "undirected link",
                    line=line,
                    pair=(tail, head),
                )
            directed[(tail, head)] = (eta, line)

    # Merge opposite directed arcs of (tolerably) equal efficiency.
    arcs: list[Arc] = []
    for (tail, head), (eta, line) in directed.items():
        if tail < head and (head, tail) in directed:
            if abs(eta - directed[(head, tail)][0]) <= MERGE_TOLERANCE:
                undirected[(tail, head)] = (eta, line)
                continue
        elif tail > head and (head, tail) in directed:
            if abs(eta - directed[(head, tail)][0]) <= MERGE_TOLERANCE:
                continue  # merged when the opposite arc was visited
        arcs.append(Arc(tail, head, eta, undirected=False))
    for (u, v), (eta, _) in undirected.items():
        arcs.append(Arc(u, v, eta, undirected=True))

    arcs.sort(key=lambda a: (a.tail, a.head))
    return Network(tuple(sorted(nodes)), tuple(arcs))


def _on_line(line: int | None) -> str:
    return "" if line is None else f" on line {line}"


def classify(net: Network) -> NetworkKind:
    """Classify a network by how service flows between node pairs.

    One-sided: no pair carries service both ways (a network with no arcs
    counts as one-sided).  Two-sided: every pair with service carries it
    both ways -- symmetric when all such pairs collapsed to undirected
    links, asymmetric when some pair kept two unequal directed arcs.
    Mixed: anything else.
    """
    any_both_ways = False
    all_both_ways = True
    any_directed_pair = False
    for arc in net.arcs:
        if arc.undirected:
            any_both_ways = True
        # No undirected link shares a directed arc's pair, so a reverse
        # step here is a second directed arc.
        elif net.has_step(arc.head, arc.tail):
            any_both_ways = True
            any_directed_pair = True
        else:
            all_both_ways = False
    if not any_both_ways:
        return NetworkKind.ONE_SIDED
    if all_both_ways:
        if any_directed_pair:
            return NetworkKind.ASYMMETRIC_TWO_SIDED
        return NetworkKind.SYMMETRIC_TWO_SIDED
    return NetworkKind.MIXED


def as_symmetric(net: Network) -> Network:
    """Check that ``net`` is symmetric two-sided and return it unchanged.

    In a symmetric network every arc is an undirected link, stored once
    with tail < head, so ``net.arcs`` already lists each link exactly once
    as an unordered weighted edge.  Raises NotSymmetric if any
    directed-only arc is present.
    """
    for arc in net.arcs:
        if not arc.undirected:
            raise NotSymmetric(
                f"directed arc {arc.tail!r} -> {arc.head!r} has no undirected view"
            )
    return net


def is_connected(net: Network) -> bool:
    """True iff every node is reachable from every other, ignoring direction."""
    index = net._index
    dsu = _DisjointSet(len(index))
    joins = sum(dsu.union(index[arc.tail], index[arc.head]) for arc in net.arcs)
    return joins >= len(index) - 1
