"""Seeded random-network generators shared across test modules."""

import random
import string
from collections.abc import Callable
from itertools import combinations

from effchain import Network, build_network
from effchain.network import RawArc


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
