"""Write one workload's seeded inputs as edge-list files plus a manifest.

Usage: python3 perfbench/generate.py --workload NAME --seed N --out DIR

Runs in its own process so that the measured process receives only the
files.  The same workload and seed always give the same files.  Every
workload has the same roles, so every stage runs on every workload and the
sizes decide which layer dominates:

* ``chain`` -- the network that point-to-point queries and the CLI use;
* ``sym_small``, ``sym_large`` -- symmetric networks given both levels;
* ``directed`` -- a strongly connected one-sided network given the exact
  level (the exact level's only route on directed networks);
* ``tree_net`` -- the symmetric network the tree level is timed on;
* ``underflow`` (query-batch only) -- a 1,100-link chain of 0.5 links.
"""

import argparse
import json
import random
from pathlib import Path

from reference import Graph

LINK_CLASSES = (0.90, 0.95, 0.98, 0.99, 1.0)
WORKLOADS = ("large-file", "query-batch", "guarantee")
FIFTHS = [(i / 5, (i + 1) / 5) for i in range(5)]


def scale_directed(rng, n, m):
    """Criterion 7's network: a path backbone plus random arcs, uniform efficiencies."""
    names = [f"n{i:06d}" for i in range(n)]
    seen = set()
    arcs = []
    for i in range(n - 1):
        seen.add((i, i + 1))
        arcs.append((names[i], names[i + 1], 1.0 - rng.random(), False))
    while len(arcs) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (i, j) in seen or (j, i) in seen:
            continue
        seen.add((i, j))
        arcs.append((names[i], names[j], 1.0 - rng.random(), False))
    return arcs


def one_sided(rng, n, m, prefix, efficiency):
    """A ring plus random one-way arcs: strongly connected, no opposite pairs."""
    width = len(str(n - 1))
    names = [f"{prefix}{i:0{width}d}" for i in range(n)]
    seen = set()
    arcs = []
    for i in range(n):
        j = (i + 1) % n
        seen.add((i, j))
        arcs.append((names[i], names[j], efficiency(), False))
    while len(arcs) < m:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j or (i, j) in seen or (j, i) in seen:
            continue
        seen.add((i, j))
        arcs.append((names[i], names[j], efficiency(), False))
    return arcs


def symmetric(rng, n):
    """Criterion 7's symmetric family: a random tree plus 2n extra links."""
    names = [f"s{i:05d}" for i in range(n)]
    pairs = set()
    arcs = []

    def link(i, j):
        u, v = min(names[i], names[j]), max(names[i], names[j])
        if (u, v) in pairs:
            return False
        pairs.add((u, v))
        arcs.append((u, v, 1.0 - rng.random(), True))
        return True

    for i in range(1, n):
        link(rng.randrange(i), i)
    extra = 0
    while extra < 2 * n:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j and link(i, j):
            extra += 1
    return arcs


def underflow_chain(links=1100):
    """A path of 0.5 links whose product, 2**-1100, is below the smallest float."""
    names = [f"c{i:04d}" for i in range(links + 1)]
    return [(names[i], names[i + 1], 0.5, False) for i in range(links)]


def write_edges(path, arcs):
    lines = ["tail,head,efficiency,mode"]
    for tail, head, eta, undirected in arcs:
        lines.append(f"{tail},{head},{eta!r},{'undir' if undirected else 'dir'}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def stratified_queries(rng, arcs, sources, slices):
    """Seeded pairs whose targets are spread evenly over settle ranks.

    Each source is drawn at random.  For each (lo, hi) slice one target is
    drawn from the nodes the reference search settles between fractions lo
    and hi of the source's reachable set.  Every batch therefore mixes
    short and long searches in the same proportions whatever the seed,
    which keeps latency percentiles steady from seed to seed.
    """
    graph = Graph(arcs)
    pairs = []
    for _ in range(sources):
        source = rng.choice(graph.labels)
        _, _, order = graph.dijkstra(source)
        last = len(order) - 1
        for lo, hi in slices:
            rank = max(1, round((lo + rng.random() * (hi - lo)) * last))
            pairs.append([source, graph.labels[order[rank]]])
    return pairs


def companion_levels(rng):
    """The small level set of the workloads whose cost lies elsewhere."""
    return {
        "sym_small": symmetric(rng, 200),
        "sym_large": symmetric(rng, 400),
        "directed": one_sided(rng, 300, 900, "d", lambda: 1.0 - rng.random()),
        "tree_net": symmetric(rng, 2000),
    }


# How often a round repeats each step.  A step that is cheap on a workload
# is repeated so that its median rests on several samples; a step that
# takes seconds runs once.  "levels" counts the calls of each guaranteed
# level (the keys are worker.LEVELS' keys).
SMALL_LEVELS = {"exact_small": 3, "exact_large": 3, "exact_directed": 6,
                "tree_small": 1, "tree_large": 1, "tree_net": 9}
REPEATS = {
    "large-file": {"passes": 3, "cli": 1, "render": 1, "levels": SMALL_LEVELS},
    "query-batch": {"passes": 3, "cli": 3, "render": 6, "levels": SMALL_LEVELS},
    "guarantee": {"passes": 2, "cli": 4, "render": 2,
                  "levels": {"exact_small": 1, "exact_large": 1, "exact_directed": 2,
                             "tree_small": 1, "tree_large": 1, "tree_net": 4}},
}
SETUP_LOADS = {"large-file": 2, "query-batch": 3, "guarantee": 2}


def schedule(passes, cli, render, levels):
    """Deal a round's repeats over its passes, round-robin.

    A round runs its passes one after another, so the samples of a cheap
    step are spread over the whole round instead of bunched together;
    the host's speed wanders over seconds, and a bunch would catch one
    moment of it.
    """
    def dealt(n, p):
        return n // passes + (1 if p < n % passes else 0)

    return [
        {"cli": dealt(cli, p), "render": dealt(render, p),
         "levels": {key: dealt(n, p) for key, n in levels.items()}}
        for p in range(passes)
    ]


def generate(workload, seed, out):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-file":
        chain = scale_directed(rng, 100_000, 500_000)
        nets = {"chain": chain, **companion_levels(rng)}
        # One pair, a quarter into the settle order: a search here takes
        # seconds, and the load is the point.
        queries = stratified_queries(rng, chain, 1, [(0.25, 0.25)])
        cli_query = ["n000000", "n099999"]
    elif workload == "query-batch":
        chain = one_sided(rng, 20_000, 100_000, "q", lambda: rng.choice(LINK_CLASSES))
        nets = {"chain": chain, **companion_levels(rng), "underflow": underflow_chain()}
        queries = stratified_queries(rng, chain, 5, FIFTHS)
        cli_query = queries[0]
    else:  # guarantee
        # The tree level underflows to 0.0 on this network (a counted
        # failure), so it comes from a fixed seed: the failure then does
        # not depend on --seed.
        tree_rng = random.Random("guarantee:tree-net")
        nets = {
            "sym_small": symmetric(rng, 1000),
            "sym_large": symmetric(rng, 1500),
            "directed": one_sided(rng, 1000, 3000, "d", lambda: 1.0 - rng.random()),
            "tree_net": symmetric(tree_rng, 50_000),
        }
        nets["chain"] = nets["sym_large"]
        queries = stratified_queries(rng, nets["chain"], 10, FIFTHS)
        cli_query = queries[0]

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    written = {}
    for role, arcs in nets.items():
        if id(arcs) not in written:
            written[id(arcs)] = f"{role}.csv"
            write_edges(out / written[id(arcs)], arcs)
        files[role] = written[id(arcs)]
    sym_large_nodes = sorted({a[0] for a in nets["sym_large"]} | {a[1] for a in nets["sym_large"]})
    directed_nodes = sorted({a[0] for a in nets["directed"]})
    manifest = {
        "workload": workload,
        "seed": seed,
        "files": files,
        "cli_query": cli_query,
        "queries": queries,
        "underflow_query": ["c0000", "c1100"] if "underflow" in nets else None,
        "setup_loads": SETUP_LOADS[workload],
        "passes": schedule(**REPEATS[workload]),
        "sweep_sources": rng.sample(sym_large_nodes, 5),
        # Sources of the reference sweeps that check the exact levels: all
        # of sym_small, a seeded sample of the larger networks.
        "check_sources": {
            "sym_small": None,
            "sym_large": rng.sample(sym_large_nodes, 30),
            "directed": rng.sample(directed_nodes, 30),
        },
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
