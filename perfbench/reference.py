"""Reference solver for the benchmark, written apart from effchain.

It has its own edge-list reader, an integer-indexed Dijkstra on -log
efficiencies and Kruskal on log weights.  The benchmark checks effchain's
outputs against it outside the timed region, and the input generator uses
its Dijkstra to pick query targets by settle rank.
"""

import math
from heapq import heappop, heappush


def parse_edges(text):
    """Arcs of edge-list text as (tail, head, efficiency, undirected) tuples.

    Reads the subset of the format that the benchmark writes and that
    effchain's renderer emits: a header line starting with ``tail,``,
    then ``tail,head,efficiency[,dir|undir]`` lines.
    """
    arcs = []
    for line in text.split("\n"):
        if not line or line.startswith("tail,"):
            continue
        fields = line.split(",")
        undirected = len(fields) == 4 and fields[3] == "undir"
        arcs.append((fields[0], fields[1], float(fields[2]), undirected))
    return arcs


def read_edges(path):
    with open(path, encoding="utf-8") as handle:
        return parse_edges(handle.read())


def arc_set(arcs):
    """Arcs as a set, with each undirected link's endpoints in label order."""
    out = set()
    for tail, head, eta, undirected in arcs:
        if undirected and head < tail:
            tail, head = head, tail
        out.add((tail, head, eta, undirected))
    return out


class Graph:
    """Integer-indexed adjacency over the arcs of one file."""

    def __init__(self, arcs):
        labels = sorted({a[0] for a in arcs} | {a[1] for a in arcs})
        self.labels = labels
        self.index = {label: i for i, label in enumerate(labels)}
        self.out = [[] for _ in labels]  # (head id, -log efficiency, efficiency)
        index = self.index
        for tail, head, eta, undirected in arcs:
            t, h = index[tail], index[head]
            cost = -math.log(eta)
            self.out[t].append((h, cost, eta))
            if undirected:
                self.out[h].append((t, cost, eta))

    def dijkstra(self, source, target=None):
        """Minimum total -log efficiency from ``source``.

        Returns (dist, pred, order) over integer ids; dist is inf where
        unreached.  Stops once ``target`` (a label) is settled.
        """
        n = len(self.labels)
        dist = [math.inf] * n
        pred = [-1] * n
        done = [False] * n
        order = []
        s = self.index[source]
        t = -1 if target is None else self.index[target]
        dist[s] = 0.0
        heap = [(0.0, s)]
        out = self.out
        while heap:
            d, v = heappop(heap)
            if done[v]:
                continue
            done[v] = True
            order.append(v)
            if v == t:
                break
            for u, cost, _ in out[v]:
                nd = d + cost
                if nd < dist[u]:
                    dist[u] = nd
                    pred[u] = v
                    heappush(heap, (nd, u))
        return dist, pred, order

    def path(self, pred, source, target):
        """Labels along the predecessor chain from ``source`` to ``target``."""
        s, v = self.index[source], self.index[target]
        ids = [v]
        while v != s:
            v = pred[v]
            ids.append(v)
        return [self.labels[i] for i in reversed(ids)]

    def chain_product(self, nodes):
        """Left-to-right product of the steps of ``nodes``; None if a step is missing."""
        product = 1.0
        for u, v in zip(nodes, nodes[1:]):
            if u not in self.index or v not in self.index:
                return None
            h = self.index[v]
            etas = [eta for head, _, eta in self.out[self.index[u]] if head == h]
            if not etas:
                return None
            product *= etas[0]
        return product

    def worst_lossiness(self, sources):
        """Largest reference distance from any of ``sources`` to any node."""
        worst = 0.0
        for source in sources:
            dist, _, _ = self.dijkstra(source)
            worst = max(worst, max(dist))
        return worst


def tree_product(arcs):
    """Kruskal on log weights over undirected links; product of the chosen edges.

    The product is taken over the chosen edges in endpoint order, left to
    right.  Returns None when the links do not span their nodes.
    """
    labels = sorted({a[0] for a in arcs} | {a[1] for a in arcs})
    index = {label: i for i, label in enumerate(labels)}
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = sorted(
        (-math.log(eta), min(u, v), max(u, v), eta) for u, v, eta, _ in arcs
    )
    chosen = []
    for _, u, v, eta in edges:
        ru, rv = find(index[u]), find(index[v])
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v, eta))
    if len(chosen) != len(labels) - 1:
        return None
    product = 1.0
    for _, _, eta in sorted(chosen):
        product *= eta
    return product


def check_dot(text, want):
    """True iff DOT ``text`` names every node once and every arc of ``want`` once.

    ``want`` is an arc_set.  Each arc must carry its efficiency as its
    label, and undirected links must be drawn with ``dir=none``, directed
    arcs without.
    """
    want_nodes = {a[0] for a in want} | {a[1] for a in want}
    seen_nodes = set()
    seen_arcs = set()
    lines = text.split("\n")
    if lines[0] != "digraph network {" or lines[-2:] != ["}", ""]:
        return False
    for line in lines[1:-2]:
        if " -> " not in line:
            label = line.strip()[1:-2]
            if label in seen_nodes:
                return False
            seen_nodes.add(label)
            continue
        ends, attrs = line.strip().split(" [", 1)
        tail, head = (part.strip('"') for part in ends.split(" -> "))
        eta = float(attrs.split('"', 2)[1])
        key = (tail, head, eta, "dir=none" in attrs)
        if key in seen_arcs:
            return False
        seen_arcs.add(key)
    return seen_nodes == want_nodes and seen_arcs == want
