"""Logistic network data model.

A network is a set of node labels plus a list of arcs, each carrying an
efficiency in (0, 1].  A pair of opposite directed arcs with equal
efficiency is collapsed into a single undirected link at build time;
service then flows both ways over that link with the same efficiency.
Node labels are plain strings (non-empty, no commas, no whitespace), and
every iteration order in the package is ascending by label so runs are
reproducible.  A Network interns its labels once, in ascending order:
node id ``i`` is ``nodes[i]``, so ordering by id is ordering by label.

A Network stores its arcs as columns in canonical (tail, head) order:
tail ids and head ids (``array('i')``), efficiencies (``array('d')``) and
undirected flags (a ``bytearray``).  The columns are the storage of
record; everything else is built from them on first use and then kept.
The search index lists, per id, the steps leaving that node in
compressed sparse row (CSR) form: three flat lists ``first`` (n + 1
offsets), ``to`` (neighbour ids) and ``eta`` (efficiencies), row ``v``
being ``to[first[v]:first[v + 1]]`` in ascending id order.  Every lookup
and both search routes read it; loading, rendering, classifying and the
tree level never build it.  The backward rows (the steps entering each
node) come from the same builder on the swapped columns, for the exact
level on networks with directed arcs.  The ``arcs`` tuple of Arc objects
is built only when something reads it.  Among nodes of equal weight a
search settles the smaller label first under tie_break="low" and the
larger under "high".

A symmetric network needs no second representation: each of its arcs is
an undirected link stored once with tail < head, so its canonical arcs
are its unordered weighted edges.  as_symmetric only checks that.  A
spanning tree is a Network too, over a subset of its network's columns,
and the connectivity test reads the columns.

build_network is the one way in: every Network comes out of its
validation pass, or is a subset of one that did.  Networks are immutable
and safe to share across threads; each query owns its own working state.
Threads that race to build the same index or ``arcs`` tuple each build it
from the same columns, so they build equal ones, and whichever is stored
last is kept.
"""

import re
from array import array
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress, starmap

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


# CSR rows (first, to, eta): row v is to[first[v]:first[v + 1]], ascending
# by id, with the steps' efficiencies at the same positions of eta.
Rows = tuple[list[int], list[int], list[float]]


class Network:
    """An immutable arc-weighted directed graph with optional undirected links.

    Use build_network() (or io.parse_network) to construct one; it
    validates the arcs, performs the opposite-arc merge and puts them in
    canonical order.  The constructor trusts its columns: labels
    ascending with ``index[nodes[i]] == i``, at most one arc per (tail,
    head), sorted by (tail id, head id), each undirected one with tail <
    head.  It builds nothing.

    The arcs live in four columns, indexed alike: ``_tails``, ``_heads``,
    ``_effs`` and ``_undirected``.  Equality and hashing compare the
    labels and these columns.  ``arcs`` builds its Arc tuple from them on
    first read, and the first search builds the rows it walks; both are
    kept.
    """

    __slots__ = (
        "_nodes", "_index", "_tails", "_heads", "_effs", "_undirected",
        "_forward", "_backward", "_arcs",
    )

    def __init__(
        self,
        nodes: tuple[str, ...],
        index: dict[str, int],
        tails: array,
        heads: array,
        effs: array,
        undirected: bytearray,
    ):
        self._nodes = nodes
        self._index = index
        self._tails = tails
        self._heads = heads
        self._effs = effs
        self._undirected = undirected
        self._forward: Rows | None = None
        self._backward: Rows | None = None
        self._arcs: tuple[Arc, ...] | None = None

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node labels, ascending."""
        return self._nodes

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """All arcs in canonical (tail, head) order.

        Built from the columns on first read and kept.  Two threads that
        race here build equal tuples, so either may win.
        """
        arcs = self._arcs
        if arcs is None:
            arcs = self._arcs = tuple(starmap(Arc, self._arc_rows()))
        return arcs

    def _arc_rows(self):
        """(tail, head, efficiency, undirected) per arc, in canonical order.

        Reads the columns, so no Arc is built.
        """
        label = self._nodes.__getitem__
        return zip(
            map(label, self._tails),
            map(label, self._heads),
            self._effs,
            map(bool, self._undirected),
        )

    def _out_rows(self) -> Rows:
        """The search index: per id, the steps leaving that node.

        Built from the columns on first call and kept.  Two threads that
        race here build equal rows, so either may win.
        """
        rows = self._forward
        if rows is None:
            rows = self._forward = _csr(self, self._tails, self._heads, True)
        return rows

    def _in_rows(self) -> Rows:
        """Per id, the steps entering that node; built and kept as
        _out_rows is.  On a network of links only, the steps entering a
        node mirror those leaving it, so its forward rows serve."""
        if 0 not in self._undirected:
            return self._out_rows()
        rows = self._backward
        if rows is None:
            rows = self._backward = _csr(self, self._heads, self._tails, False)
        return rows

    def out_neighbors(self, u: str) -> list[tuple[str, float]]:
        """Nodes reachable from ``u`` in one service-carrying step.

        Heads of directed arcs leaving ``u`` plus the far endpoints of
        undirected links touching it, as (label, efficiency) pairs in
        ascending label order.
        """
        try:
            v = self._index[u]
        except KeyError:
            raise UnknownNode(f"no node {u!r} in network") from None
        first, to, eta = self._out_rows()
        nodes = self._nodes
        return [(nodes[to[k]], eta[k]) for k in range(first[v], first[v + 1])]

    def _step(self, u: str, v: str) -> float | None:
        """Efficiency of the step u -> v, or None when there is none."""
        try:
            tail = self._index[u]
            head = self._index[v]
        except KeyError:
            return None
        first, to, eta = self._out_rows()
        end = first[tail + 1]
        k = bisect_left(to, head, first[tail], end)
        return eta[k] if k < end and to[k] == head else None

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
        return self._nodes == other._nodes and self._columns() == other._columns()

    def __hash__(self):
        # tuple(effs), not its bytes: 0.0 and -0.0 are equal and hash alike.
        return hash((self._nodes, self._tails.tobytes(), self._heads.tobytes(), tuple(self._effs)))

    def _columns(self) -> tuple[array, array, array, bytearray]:
        return self._tails, self._heads, self._effs, self._undirected

    def __repr__(self) -> str:
        return f"Network({len(self._nodes)} nodes, {len(self._effs)} arcs)"


def _csr(net: Network, keys: array, vals: array, grouped: bool) -> Rows:
    """CSR rows of ``net``'s steps, one row per id of ``keys``.

    Arc ``i`` gives row ``keys[i]`` the step to ``vals[i]``, and a link
    also gives row ``vals[i]`` the step to ``keys[i]``; each row lists its
    steps by ascending id.  (tails, heads) gives the steps leaving each
    node, (heads, tails) the steps entering it.  When ``keys`` is
    ascending (``grouped``) and there is no link, the columns as they
    stand are the rows.  Otherwise one sort of (row, id, arc) keys puts
    every step in place; no two steps of a row share an id, so the arc
    index only names the efficiency.  ``to`` holds the int objects of the
    index's values, not one int per step, and a link's two steps share
    one float.
    """
    ids = list(net._index.values())
    effs, undirected = net._effs, net._undirected
    counts = [0] * len(ids)
    for key in keys:
        counts[key] += 1
    for val in compress(vals, undirected):
        counts[val] += 1
    first = list(accumulate(counts, initial=0))
    if grouped and 1 not in undirected:
        return first, list(map(ids.__getitem__, vals)), list(effs)
    node_bits = max(len(ids) - 1, 1).bit_length()
    arc_bits = max(len(effs) - 1, 1).bit_length()
    arcs = range(len(effs))
    steps = [(k << node_bits | v) << arc_bits | i for i, k, v in zip(arcs, keys, vals)]
    steps += [
        (v << node_bits | k) << arc_bits | i
        for i, k, v in compress(zip(arcs, keys, vals), undirected)
    ]
    steps.sort()
    node_mask = (1 << node_bits) - 1
    arc_mask = (1 << arc_bits) - 1
    etas = list(effs)
    return (
        first,
        [ids[s >> arc_bits & node_mask] for s in steps],
        [etas[s & arc_mask] for s in steps],
    )


def _union_find(size: int) -> Callable[[int, int], bool]:
    """Union-find over ids ``0 .. size - 1``, all apart at first.

    Returns ``join(u, v)``, which merges the components of ``u`` and
    ``v`` and is True iff they were apart.  The walk to each root halves
    its path, which alone, without union by rank, bounds m joins over n
    ids by O(m log_(1 + m/n) n) (Tarjan and van Leeuwen 1984).  Which root
    is linked under which is free: callers read only connectivity.
    """
    parent = list(range(size))

    def join(u: int, v: int) -> bool:
        # Each step points a node at its grandparent, then moves there
        # (the targets are assigned left to right).
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        parent[v] = u
        return u != v

    return join


RawArc = tuple[str, str, float, bool]


def build_network(raw_arcs: list[RawArc] | tuple[RawArc, ...]) -> Network:
    """Validate raw (tail, head, efficiency, undirected) tuples into a Network.

    Arcs are checked in input order and the first defect raises.  Opposite
    directed arcs whose efficiencies agree within MERGE_TOLERANCE become
    one undirected link (carrying the efficiency of the arc whose tail is
    the smaller label).  Opposite arcs with different efficiencies are
    both kept.  Rebuilding from a built network's arcs reproduces it.
    """
    ids: dict[str, int] = {}
    intern = ids.setdefault
    tails = array("i")
    heads = array("i")
    effs: list[float] = []
    undirected = bytearray()
    for tail, head, eta, undir in raw_arcs:
        tails.append(intern(tail, len(ids)))
        heads.append(intern(head, len(ids)))
        effs.append(eta)
        undirected.append(bool(undir))
    return _build_network(list(ids), tails, heads, effs, undirected, None)


def _build_network(
    labels: list[str],
    tail_ids: array,
    head_ids: array,
    effs: Sequence[float],
    undirected: bytearray,
    lines: Sequence[int] | None,
) -> Network:
    """build_network on columns: ``labels`` holds the distinct labels in
    order of first appearance, arc ``i`` runs from ``labels[tail_ids[i]]``
    to ``labels[head_ids[i]]``, and ``lines[i]`` is its file line.

    The one validation pass.  Every error carries the line of the arc that
    raised it, and a duplicate cites the line of its first declaration.
    The duplicate and conflict checks key on ``low_id << 32 | high_id``,
    and ids are remapped to label order once at the end, so the per-arc
    loop builds no tuple and compares no labels.  The dicts of that check
    are freed before the sort keys and the canonical columns are built.
    """
    # The first arc on each unordered pair, keyed low_id << 32 | high_id,
    # and the second where a pair holds two opposite directed arcs.
    pairs: dict[int, int] = {}
    seconds: dict[int, int] = {}
    seen = 0  # ids are given in order of first appearance: the next is new

    for i, (t, h, eta, undir) in enumerate(zip(tail_ids, head_ids, effs, undirected)):
        if t == seen:
            validate_label(labels[t], line=_line(lines, i))
            seen += 1
        if h == seen:
            validate_label(labels[h], line=_line(lines, i))
            seen += 1
        if t == h:
            tail = labels[t]
            raise SelfLoop(f"self-loop on node {tail!r}", line=_line(lines, i), pair=(tail, tail))
        if not 0.0 < eta <= 1.0:
            check_efficiency(eta, line=_line(lines, i), pair=(labels[t], labels[h]))
        link = t << 32 | h if t < h else h << 32 | t
        first = pairs.setdefault(link, i)
        if first != i:
            # A pair takes a second arc only as the opposite of a directed one.
            tail, head = labels[t], labels[h]
            if undir:
                if undirected[first]:
                    raise _duplicate(tail, head, True, lines, i, first)
                raise _conflict(tail, head, True, lines, i)
            if undirected[first]:
                raise _conflict(tail, head, False, lines, i)
            if tail_ids[first] == t:
                raise _duplicate(tail, head, False, lines, i, first)
            second = seconds.setdefault(link, i)
            if second != i:
                raise _duplicate(tail, head, False, lines, i, second)

    n = len(labels)
    order = sorted(range(n), key=labels.__getitem__)
    rank = array("i", [0]) * n
    for r, j in enumerate(order):
        rank[j] = r
    flags = bytearray(undirected)
    dropped = []
    for link, i in seconds.items():
        j = pairs[link]
        if abs(effs[i] - effs[j]) <= MERGE_TOLERANCE:
            # One link, carrying the arc whose tail is the smaller label.
            keep, drop = (i, j) if rank[tail_ids[i]] < rank[tail_ids[j]] else (j, i)
            flags[keep] = 1
            dropped.append(drop)
    del pairs, seconds
    # One int per arc sorts into canonical (tail, head) order and still
    # names the arc and whether it is undirected; a link's tail is its
    # smaller label.
    node_bits = max(n - 1, 1).bit_length()
    arc_bits = len(flags).bit_length() + 1
    keys = [
        ((rh << node_bits | rt) if u and rt > rh else (rt << node_bits | rh)) << arc_bits | i | u
        for i, rt, rh, u in zip(
            range(0, 2 * len(flags), 2),
            map(rank.__getitem__, tail_ids),
            map(rank.__getitem__, head_ids),
            flags,
        )
    ]
    for i in dropped:
        keys[i] = -1
    keys.sort()
    del keys[: len(dropped)]
    nodes = tuple([labels[j] for j in order])
    node_mask = (1 << node_bits) - 1
    arc_mask = (1 << arc_bits) - 1
    tails_c = array("i", [k >> (arc_bits + node_bits) for k in keys])
    heads_c = array("i", [k >> arc_bits & node_mask for k in keys])
    effs_c = array("d", [effs[(k & arc_mask) >> 1] for k in keys])
    flags_c = bytearray([k & 1 for k in keys])
    del keys, order
    return Network(nodes, dict(zip(nodes, range(n))), tails_c, heads_c, effs_c, flags_c)


def _line(lines: Sequence[int] | None, i: int) -> int | None:
    return None if lines is None else lines[i]


def _unordered(tail: str, head: str) -> tuple[str, str]:
    return (tail, head) if tail < head else (head, tail)


def _duplicate(tail, head, undir, lines, i, first) -> DuplicateArc:
    """The error for arc ``i``, which repeats arc ``first``."""
    on_line = "" if lines is None else f" on line {lines[first]}"
    if undir:
        pair = _unordered(tail, head)
        what = f"undirected link {pair[0]!r} -- {pair[1]!r}"
    else:
        pair = (tail, head)
        what = f"arc {tail!r} -> {head!r}"
    return DuplicateArc(f"{what} already declared{on_line}", line=_line(lines, i), pair=pair)


def _conflict(tail, head, undir, lines, i) -> ConflictingArc:
    """The error for arc ``i``, whose pair already holds an arc of the other mode."""
    u, v = _unordered(tail, head)
    held = "a directed arc" if undir else "an undirected link"
    return ConflictingArc(
        f"pair {u!r} -- {v!r} already has {held}",
        line=_line(lines, i),
        pair=(u, v) if undir else (tail, head),
    )


def classify(net: Network) -> NetworkKind:
    """Classify a network by how service flows between node pairs.

    One-sided: no pair carries service both ways (a network with no arcs
    counts as one-sided).  Two-sided: every pair with service carries it
    both ways -- symmetric when all such pairs collapsed to undirected
    links, asymmetric when some pair kept two unequal directed arcs.
    Mixed: anything else.
    """
    # tail_id << 32 | head_id of each directed arc; a pair keeps arcs both
    # ways only when their efficiencies differ.
    directed = {
        t << 32 | h
        for t, h, undir in zip(net._tails, net._heads, net._undirected)
        if not undir
    }
    # Per directed arc, whether the opposite arc is there too.
    paired = [(key & 0xFFFFFFFF) << 32 | key >> 32 in directed for key in directed]
    any_directed_pair = any(paired)
    any_both_ways = any_directed_pair or 1 in net._undirected
    all_both_ways = all(paired)
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
    i = net._undirected.find(0)
    if i >= 0:
        tail, head = net._nodes[net._tails[i]], net._nodes[net._heads[i]]
        raise NotSymmetric(f"directed arc {tail!r} -> {head!r} has no undirected view")
    return net


def is_connected(net: Network) -> bool:
    """True iff every node is reachable from every other, ignoring direction."""
    n = len(net.nodes)
    join = _union_find(n)
    return sum(map(join, net._tails, net._heads)) >= n - 1
