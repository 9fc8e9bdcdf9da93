"""Seeded random-network generators shared across test modules."""

import math
import random
import string
from array import array
from collections.abc import Callable
from heapq import heappop, heappush
from itertools import accumulate, combinations, compress
from typing import NamedTuple

from effchain import (
    MERGE_TOLERANCE,
    Arc,
    Chain,
    ConflictingArc,
    DuplicateArc,
    GuaranteedLevel,
    Network,
    ParseError,
    SelfLoop,
    SomePairUnreachable,
    build_network,
    check_efficiency,
    validate_label,
)
from effchain.network import RawArc, Rows
from effchain.routing import _chain_nodes, _product_sweep, _reached


def labels_for(n: int) -> list[str]:
    return list(string.ascii_lowercase[:n])


def random_directed_network(rng: random.Random, max_nodes: int = 8) -> Network:
    """A directed network with uniform arc density and weights in (0, 1].

    Regenerates on the rare all-pairs-miss roll, so the result always has
    at least one arc (hence at least two nodes).
    """
    while True:
        n = rng.randint(2, max_nodes)
        names = labels_for(n)
        density = rng.uniform(0.1, 0.9)
        raws: list[RawArc] = []
        for u in names:
            for v in names:
                if u != v and rng.random() < density:
                    raws.append((u, v, 1.0 - rng.random(), False))
        if raws:
            return build_network(raws)


def random_mixed_network(
    rng: random.Random, max_nodes: int = 8, draw: Callable[[], float] | None = None
) -> Network:
    """A network mixing one-way, two-way unequal, and undirected pairs.

    ``draw`` picks each efficiency; by default uniform in (0, 1].
    """
    draw = draw or (lambda: 1.0 - rng.random())
    while True:
        n = rng.randint(2, max_nodes)
        names = labels_for(n)
        raws: list[RawArc] = []
        for u, v in combinations(names, 2):
            roll = rng.random()
            if roll < 0.3:
                continue
            if roll < 0.55:
                tail, head = (u, v) if rng.random() < 0.5 else (v, u)
                raws.append((tail, head, draw(), False))
            elif roll < 0.8:
                raws.append((u, v, draw(), False))
                raws.append((v, u, draw(), False))
            else:
                raws.append((u, v, draw(), True))
        if raws:
            return build_network(raws)


def random_tree(rng: random.Random, max_nodes: int = 6) -> Network:
    """A random undirected tree (each new node attaches to an earlier one)."""
    n = rng.randint(2, max_nodes)
    names = labels_for(n)
    raws: list[RawArc] = []
    for i in range(1, n):
        j = rng.randrange(i)
        raws.append((names[j], names[i], 1.0 - rng.random(), True))
    return build_network(raws)


def random_connected_undirected(rng: random.Random, max_nodes: int = 6) -> Network:
    """A connected undirected network: a random tree plus extra edges."""
    n = rng.randint(2, max_nodes)
    names = labels_for(n)
    raws: list[RawArc] = []
    joined: set[tuple[str, str]] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = names[j], names[i]
        raws.append((u, v, 1.0 - rng.random(), True))
        joined.add((min(u, v), max(u, v)))
    for u, v in combinations(names, 2):
        if (u, v) not in joined and rng.random() < 0.3:
            raws.append((u, v, 1.0 - rng.random(), True))
    return build_network(raws)


def sparse_undirected(
    rng: random.Random, n: int, draw: Callable[[], float] | None = None
) -> Network:
    """A connected undirected network on n nodes: a random tree plus 2n links.

    ``draw`` picks each efficiency; by default uniform in (0, 1].
    """
    draw = draw or (lambda: 1.0 - rng.random())
    names = [f"n{i:04d}" for i in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    while len(pairs) < min(3 * n - 1, n * (n - 1) // 2):
        i, j = sorted(rng.sample(range(n), 2))
        pairs.add((i, j))
    return build_network([(names[i], names[j], draw(), True) for i, j in sorted(pairs)])


def complete_undirected(n: int, rng: random.Random) -> Network:
    """The complete undirected network on n nodes with random weights."""
    names = labels_for(n)
    raws: list[RawArc] = [
        (u, v, 1.0 - rng.random(), True) for u, v in combinations(names, 2)
    ]
    return build_network(raws)


def scale_network(rng: random.Random, n: int, m: int) -> tuple[Network, str, str]:
    """A large directed network: a full path backbone plus random extras.

    Returns (network, source, target) where target is reachable from
    source along the backbone by construction.
    """
    names = [f"n{i:06d}" for i in range(n)]
    raws: list[RawArc] = []
    seen: set[tuple[int, int]] = set()
    for i in range(n - 1):
        raws.append((names[i], names[i + 1], 1.0 - rng.random(), False))
        seen.add((i, i + 1))
    while len(raws) < m:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j or (i, j) in seen:
            continue
        seen.add((i, j))
        raws.append((names[i], names[j], 1.0 - rng.random(), False))
    return build_network(raws), names[0], names[-1]


def underflow_path(links: int = 1100) -> Network:
    """An undirected path of 0.5 links whose end-to-end product underflows.

    2^-1074 is the smallest positive float, so past 1,074 links the true
    product of the whole path rounds to 0.0.
    """
    names = [f"n{i:04d}" for i in range(links + 1)]
    return build_network([(u, v, 0.5, True) for u, v in zip(names, names[1:])])


class ReferenceNetwork(NamedTuple):
    """What reference_build yields: sorted labels and canonical arcs."""

    nodes: tuple[str, ...]
    arcs: tuple[Arc, ...]


def reference_build(
    raw_arcs: list[RawArc] | tuple[RawArc, ...], lines: list[int] | None
) -> ReferenceNetwork:
    """The validation pass effchain used before its columnar load, kept verbatim.

    build_network, with ``lines[i]`` the file line of ``raw_arcs[i]``:
    the oracle the columnar pass is checked against.  Every error carries
    the line of the arc that raised it, and a duplicate cites the line of
    its first declaration.  It returns the nodes and arcs as a plain
    record, since only build_network makes a Network.
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
    return ReferenceNetwork(tuple(sorted(nodes)), tuple(arcs))


def _on_line(line: int | None) -> str:
    return "" if line is None else f" on line {line}"


def reference_parse(text: str) -> ReferenceNetwork:
    """parse_network as it was before its columnar load, kept verbatim.

    Its syntax pass splits lines with str.splitlines(), so give it text
    whose only line ends are LF, CRLF or CR.
    """
    raws: list[RawArc] = []
    lines: list[int] = []
    saw_line = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (3, 4):
            raise ParseError(
                f"expected 3 or 4 comma-separated fields, got {len(fields)}",
                line=lineno,
            )
        try:
            eta = float(fields[2])
        except ValueError:
            if not saw_line and not any(ch.isdigit() for ch in fields[2]):
                saw_line = True
                continue  # header line
            raise ParseError(
                f"efficiency {fields[2]!r} is not a number", line=lineno
            ) from None
        saw_line = True
        undir = False
        if len(fields) == 4:
            mode = fields[3]
            if mode == "undir":
                undir = True
            elif mode != "dir":
                raise ParseError(
                    f"mode must be 'dir' or 'undir', got {mode!r}", line=lineno
                )
        raws.append((fields[0], fields[1], eta, undir))
        lines.append(lineno)
    return reference_build(raws, lines)


def reference_out(net: ReferenceNetwork) -> dict[str, list[tuple[str, float]]]:
    """Each node's out-neighbours, built from ``net.arcs`` as effchain did
    before its columnar load: one append per step, then every row sorted."""
    out: dict[str, list[tuple[str, float]]] = {u: [] for u in net.nodes}
    for arc in net.arcs:
        out[arc.tail].append((arc.head, arc.efficiency))
        if arc.undirected:
            out[arc.head].append((arc.tail, arc.efficiency))
    for row in out.values():
        row.sort()
    return out


def _all_pairs_full_sweep(net: Network) -> GuaranteedLevel:
    """guaranteed_min_all_pairs by one full search from every source.

    The reference the bounded level must match.
    """
    nodes = net.nodes
    if len(nodes) <= 1:
        return GuaranteedLevel(value=1.0, method="all-pairs")
    best_value = 2.0  # above any attainable efficiency
    best_pair: tuple[int, int] | None = None
    for source in range(len(nodes)):
        weight, pred, _ = _product_sweep(net._out_rows(), source, None, 1)
        weight = _reached(weight, pred, source)
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
    witness = Chain(_chain_nodes(net, best_pred, *best_pair), best_value)
    return GuaranteedLevel(
        value=best_value,
        method="all-pairs",
        worst_pair=(nodes[best_pair[0]], nodes[best_pair[1]]),
        worst_chain=witness,
        sweeps=len(nodes),
    )


# The search kernels as they were with a settled set beside the weights,
# kept verbatim: the references the set-free kernels must match in
# weights (values and insertion order), pred and settle order.


def reference_product_sweep(
    adj: list[list[tuple[int, float]]], source: int, target: int | None, sign: int
) -> tuple[dict[int, float], dict[int, int], list[int]]:
    """multiplicative_search over node ids, with ties settled by ``sign``.

    ``adj`` lists each id's (neighbour id, efficiency) steps: ``reference_rows``
    searches forward; rows reversed arc by arc search backward, giving the
    best chain *into* ``source`` from every node.
    """
    weight = {source: 1.0}
    pred: dict[int, int] = {}
    settled: set[int] = set()
    order: list[int] = []
    heap = [(-1.0, sign * source)]
    while heap:
        neg_w, key = heappop(heap)
        v = sign * key
        if v in settled:
            continue
        settled.add(v)
        order.append(v)
        if v == target:
            break
        w = -neg_w
        for u, eta in adj[v]:
            if u in settled:
                continue
            candidate = w * eta
            # Strict improvement only: an equal-weight candidate never
            # overwrites an existing history.
            if candidate > weight.get(u, 0.0):
                weight[u] = candidate
                pred[u] = v
                heappush(heap, (-candidate, sign * u))
    return weight, pred, order


def reference_lossiness_sweep(
    net: Network, source: int, target: int | None, base: float, sign: int
) -> tuple[dict[int, float], dict[int, int], list[int]]:
    """additive_search over node ids, with ties settled by ``sign``."""
    log_base = math.log(base)
    adj = reference_rows(net)
    dist = {source: 0.0}
    pred: dict[int, int] = {}
    settled: set[int] = set()
    order: list[int] = []
    heap = [(0.0, sign * source)]
    while heap:
        d, key = heappop(heap)
        v = sign * key
        if v in settled:
            continue
        settled.add(v)
        order.append(v)
        if v == target:
            break
        for u, eta in adj[v]:
            if u in settled:
                continue
            candidate = d + abs(math.log(eta) / log_base)
            if candidate < dist.get(u, math.inf):
                dist[u] = candidate
                pred[u] = v
                heappush(heap, (candidate, sign * u))
    return dist, pred, order


# The adjacency builders effchain used before its CSR search index, kept
# verbatim: rows of (neighbour id, efficiency) tuples, the references the
# index's forward and backward rows must equal in content and order.


def reference_adjacency(
    ids: list[int], tails: array, heads: array, effs: array, undirected: bytearray
) -> list[list[tuple[int, float]]]:
    """Per node id, the (head id, efficiency) steps leaving it, by head id.

    The columns are in canonical order, so a node's directed arcs and the
    links it is the tail of form one run of ascending heads: its row is
    that run.  A row that also gains the reverse step of a link is sorted
    once at the end.  Steps hold the int objects of ``ids`` (the index's
    values), not one int per step: the searches' dicts keyed by id then
    match a step's id by identity, their fast path.  A link's two
    steps share one float.
    """
    counts = [0] * len(ids)
    for tail in tails:
        counts[tail] += 1
    steps = list(zip(map(ids.__getitem__, heads), effs))
    out = [steps[a:b] for a, b in zip(accumulate(counts, initial=0), accumulate(counts))]
    touched = set()
    for tail, (head, eta) in compress(zip(tails, steps), undirected):
        out[head].append((ids[tail], eta))
        touched.add(head)
    for head in touched:
        out[head].sort()
    return out


def reference_reversed_rows(
    out: list[list[tuple[int, float]]],
) -> list[list[tuple[int, float]]]:
    """Per head id, the (tail id, efficiency) steps entering it, by tail id."""
    rows: list[list[tuple[int, float]]] = [[] for _ in out]
    for tail, row in enumerate(out):
        for head, eta in row:
            rows[head].append((tail, eta))
    return rows


def reference_rows(net: Network) -> list[list[tuple[int, float]]]:
    """``net``'s forward rows as reference_adjacency builds them."""
    return reference_adjacency(list(net._index.values()), *net._columns())


def tuple_rows(rows: Rows) -> list[list[tuple[int, float]]]:
    """CSR rows (first, to, eta) as one list of (id, efficiency) steps per id."""
    first, to, eta = rows
    return [list(zip(to[a:b], eta[a:b])) for a, b in zip(first, first[1:])]
