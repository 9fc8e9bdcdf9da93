"""The measured process: loads one workload's files and runs its rounds.

Usage: python3 perfbench/worker.py DIR TRACE, with effchain importable.

run.py starts it after the inputs exist and drives it over stdin/stdout,
one JSON object per line:

* on start it loads every file several times and replies ``{"ready": true}``;
* ``{"cmd": "pass", "index": I, "parent": ID}`` runs pass I of a round and
  replies ``{"ok": true}``;
* ``{"cmd": "end", "cli": [...]}`` runs the traced probes (when tracing),
  checks every output against the reference solver, and replies with the
  counts, metrics and spans.  The worker then exits.

A round is the manifest's list of passes.  Over a round every network is
rendered, every query is asked through both routes and both tie-breaks,
and every guaranteed level is computed, each as often as the passes say.
Every round performs the same operations, so the share of failed ones is
the same in every run.
"""

import gc
import json
import math
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

import reference
from spans import Tracer

from effchain import (
    EffchainError,
    as_symmetric,
    best_chain_multiplicative,
    best_chain_via_lossiness,
    build_network,
    guaranteed_min_all_pairs,
    guaranteed_min_by_tree,
    max_product_spanning_tree,
    multiplicative_search,
    parse_network,
    read_network,
    render_network,
    to_dot,
)

VARIANTS = (
    ("product", "low", best_chain_multiplicative),
    ("product", "high", best_chain_multiplicative),
    ("lossiness", "low", best_chain_via_lossiness),
    ("lossiness", "high", best_chain_via_lossiness),
)
# (key, level function, role, span name) in the order a round computes them.
LEVELS = (
    ("exact_small", guaranteed_min_all_pairs, "sym_small", "guarantee.all_pairs_small"),
    ("exact_large", guaranteed_min_all_pairs, "sym_large", "guarantee.all_pairs_large"),
    ("exact_directed", guaranteed_min_all_pairs, "directed", "guarantee.all_pairs_directed"),
    ("tree_small", guaranteed_min_by_tree, "sym_small", "guarantee.by_tree"),
    ("tree_large", guaranteed_min_by_tree, "sym_large", "guarantee.by_tree"),
    ("tree_net", guaranteed_min_by_tree, "tree_net", "guarantee.by_tree_net"),
)


def in_range(value):
    return value is not None and 0.0 < value <= 1.0


class Worker:
    def __init__(self, workdir, trace):
        self.dir = Path(workdir)
        self.manifest = json.loads((self.dir / "manifest.json").read_text(encoding="utf-8"))
        self.tracer = Tracer(trace, "w")
        self.files = sorted(set(self.manifest["files"].values()))
        self.nets = {}
        self.load_s = []
        self.read_text_s = []
        self.parse_s = []
        self.lines = 0
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.problems = []
        self.render_s, self.render_parts, self.rendered = [], [], None
        self.query_s = {v[:2]: [] for v in VARIANTS}
        self.queries = {}  # index in the flat (pair, variant) list -> (status, chain)
        self.underflow = {}
        self.levels = {}
        self.level_s = {key: [] for key, *_ in LEVELS}

    def net(self, role):
        return self.nets[self.manifest["files"][role]]

    # -- set-up --------------------------------------------------------

    def setup(self):
        trace = self.tracer
        loads = self.manifest["setup_loads"]
        for _ in range(loads):
            self.nets = {}
            gc.collect()
            total = read_total = parse_total = 0.0
            with trace.span("setup.load"):
                for name in self.files:
                    path = self.dir / name
                    if trace.enabled:
                        text, read = trace.call("io.read_text", path.read_text, encoding="utf-8")
                        net, parse = trace.call("io.parse_network", parse_network, text)
                        self.lines += len(text.splitlines())
                        read_total += read
                        parse_total += parse
                        total += read + parse
                    else:
                        net, seconds = trace.call("io.read_network", read_network, path)
                        total += seconds
                    self.nets[name] = net
            self.load_s.append(total)
            self.read_text_s.append(read_total)
            self.parse_s.append(parse_total)
        self.lines //= loads
        # The loaded networks live for the whole run.  Freezing them keeps
        # the collector from rescanning them during every later operation,
        # which would tie each operation's time to the size of unrelated data.
        gc.collect()
        gc.freeze()

    # -- one round -----------------------------------------------------

    def run_op(self, name, fn, *args, **kwargs):
        """One counted operation; returns (result, seconds, status).

        status is "ok", "failed" (no chain for a joined pair, or a value
        outside (0, 1]) or "refused" (a raised EffchainError).
        """
        self.attempted += 1
        gc.collect()
        start = perf_counter()
        try:
            result, seconds = self.tracer.call(name, fn, *args, **kwargs)
        except EffchainError:
            self.refused += 1
            return None, perf_counter() - start, "refused"
        value = getattr(result, "value", getattr(result, "efficiency", None))
        if not in_range(value):
            self.failed += 1
            return result, seconds, "failed"
        return result, seconds, "ok"

    def timed(self, name, fn, *args, **kwargs):
        """Time one call from a fresh collector state.

        Collecting first makes the collector's work inside the call depend
        on the call alone, not on what earlier calls left behind.
        """
        gc.collect()
        return self.tracer.call(name, fn, *args, **kwargs)

    def run_pass(self, index, parent):
        step = self.manifest["passes"][index]
        with self.tracer.span("worker.pass", parent=parent):
            for _ in range(step["render"]):
                self._render()
            self._queries(index)
            self._levels(step["levels"])

    def _render(self):
        rendered = {}
        parts = [0.0, 0.0]
        for name in self.files:
            net = self.nets[name]
            self.attempted += 1
            text, render = self.timed("io.render_network", render_network, net)
            dot, dot_s = self.timed("io.to_dot", to_dot, net)
            parts[0] += render
            parts[1] += dot_s
            rendered[name] = (text, dot)
        self.render_s.append(parts[0] + parts[1])
        self.render_parts.append(parts)
        self.rendered = rendered

    def _queries(self, index):
        """Ask this pass's share of the queries: every pair, every variant."""
        chain_net = self.net("chain")
        asks = [(a, z, variant) for a, z in self.manifest["queries"] for variant in VARIANTS]
        passes = len(self.manifest["passes"])
        for i in range(index, len(asks), passes):
            a, z, (route, tie, fn) = asks[i]
            chain, seconds, status = self.run_op(
                f"routing.{route}_{tie}", fn, chain_net, a, z, tie_break=tie
            )
            if status == "ok":
                self.query_s[(route, tie)].append(seconds)
            self._keep(self.queries, i, (status, chain))
        if index == 0 and self.manifest["underflow_query"]:
            a, z = self.manifest["underflow_query"]
            net = self.net("underflow")
            for route, tie, fn in VARIANTS[::2]:
                chain, _, status = self.run_op(f"routing.underflow_{route}", fn, net, a, z)
                self._keep(self.underflow, route, (status, chain))

    def _levels(self, counts):
        for key, fn, role, span in LEVELS:
            for _ in range(counts[key]):
                level, seconds, status = self.run_op(span, fn, self.net(role))
                self.level_s[key].append(seconds)
                # Keep what the checks read, not the spanning tree itself.
                self._keep(self.levels, key, (status, level and level.value,
                                              level and level.worst_pair,
                                              level and level.worst_chain))

    def _keep(self, store, key, result):
        """Keep an operation's first result; every repeat must return the same."""
        if store.setdefault(key, result) != result:
            self.problems.append(f"{key}: a repeat returned a different result")

    # -- traced probes -------------------------------------------------

    def probes(self, ref_arcs):
        """Per-layer calls made only in traced runs, outside the rounds."""
        trace = self.tracer
        out = {}
        with trace.span("probes"):
            build = 0.0
            for name in self.files:
                _, seconds = self.timed("network.build_network", build_network, ref_arcs[name])
                build += seconds
            out["network.build_network_s"] = build
            tree_net = self.net("tree_net")
            sym, trees = [], []
            for _ in range(3):
                view, seconds = self.timed("network.as_symmetric", as_symmetric, tree_net)
                sym.append(seconds)
                _, seconds = self.timed(
                    "guarantee.spanning_tree", max_product_spanning_tree, view
                )
                trees.append(seconds)
            out["network.as_symmetric_s"] = statistics.median(sym)
            out["guarantee.spanning_tree_s"] = statistics.median(trees)
            chain_net = self.net("chain")
            a, z = self.manifest["cli_query"]
            _, out["routing.best_chain_s"] = self.timed(
                "routing.best_chain", best_chain_multiplicative, chain_net, a, z
            )
            sym_large = self.net("sym_large")
            for tie in ("low", "high"):
                times = [
                    self.timed(f"routing.sweep_{tie}", multiplicative_search, sym_large, s,
                               tie_break=tie)[1]
                    for s in self.manifest["sweep_sources"]
                ]
                out[f"routing.sweep_{tie}_s"] = statistics.median(times)
        # Counts, outside any timed call: they repeat exactly for a seed.
        settled = [
            len(multiplicative_search(chain_net, a, target=z)[2])
            for a, z in self.manifest["queries"]
        ]
        out["routing.settled_per_query"] = statistics.mean(settled)
        product_low = [self.queries[i] for i in range(0, len(self.queries), len(VARIANTS))]
        links = [c.length for (s, c) in product_low if s == "ok"]
        out["routing.chain_links_mean"] = statistics.mean(links) if links else 0.0
        out["network.nodes"] = sum(len(n.nodes) for n in self.nets.values())
        out["network.arcs"] = sum(len(n.arcs) for n in self.nets.values())
        return out

    # -- checks against the reference solver ---------------------------

    def check(self, ref_arcs, cli_results):
        problems = self.problems
        files = self.manifest["files"]
        graphs = {}

        def graph(role):
            if role not in graphs:
                graphs[role] = reference.Graph(ref_arcs[files[role]])
            return graphs[role]

        # Reference optima of the chain network's queries, one search per source.
        chain_graph = graph("chain")
        ref_value = {}
        targets = {}
        for a, z in self.manifest["queries"] + [self.manifest["cli_query"]]:
            targets.setdefault(a, set()).add(z)
        for a, zs in targets.items():
            dist, pred, _ = chain_graph.dijkstra(a, next(iter(zs)) if len(zs) == 1 else None)
            for z in zs:
                if dist[chain_graph.index[z]] < math.inf:
                    ref_value[(a, z)] = chain_graph.chain_product(chain_graph.path(pred, a, z))

        def check_chain(what, chain, a, z):
            if chain.nodes[0] != a or chain.nodes[-1] != z:
                problems.append(f"{what}: chain does not join {a} and {z}")
                return
            product = chain_graph.chain_product(list(chain.nodes))
            if product is None:
                problems.append(f"{what}: a step of the chain is not in the input")
            elif product != chain.efficiency:
                problems.append(f"{what}: efficiency {chain.efficiency!r} is not the "
                                f"left-to-right product {product!r}")
            want = ref_value.get((a, z))
            if want is None or abs(chain.efficiency - want) > 1e-9 * want:
                problems.append(f"{what}: efficiency {chain.efficiency!r}, reference {want!r}")

        for i, (a, z) in enumerate(self.manifest["queries"]):
            got = {v: self.queries[i * len(VARIANTS) + k] for k, v in enumerate(VARIANTS)}
            for (route, tie, _), (status, chain) in got.items():
                if status == "failed":
                    problems.append(f"query {a}->{z} {route}/{tie}: no chain for a joined pair")
                elif status == "ok":
                    check_chain(f"query {a}->{z} {route}/{tie}", chain, a, z)
            for tie_index in (0, 1):
                (s1, c1), (s2, c2) = list(got.values())[tie_index::2]
                if s1 == s2 == "ok" and abs(c1.efficiency - c2.efficiency) > 1e-10:
                    problems.append(f"query {a}->{z}: routes disagree")

        for status, chain in self.underflow.values():
            if status == "ok" and chain.length != 1100:
                problems.append("underflow chain: wrong chain")

        a, z = self.manifest["cli_query"]
        for result in cli_results:
            fields = result["stdout"].split()
            if result["status"] != 0 or len(fields) < 3:
                problems.append(f"cli: exit {result['status']}, output {result['stdout']!r}")
                continue
            nodes, printed = fields[:-1], fields[-1]
            product = chain_graph.chain_product(nodes)
            want = ref_value.get((a, z))
            if nodes[0] != a or nodes[-1] != z or product is None:
                problems.append("cli: printed chain is not a chain of the input")
            elif printed != f"{product:.8f}" or abs(product - want) > 1e-9 * want:
                problems.append(f"cli: printed {printed}, reference {want!r}")

        exact = {}
        for key, _, role, _ in LEVELS:
            status, value, worst_pair, worst_chain = self.levels[key]
            if status != "ok":
                continue
            if key.startswith("exact"):
                exact[role] = value
                g = graph(role)
                nodes = list(worst_chain.nodes)
                if ((nodes[0], nodes[-1]) != tuple(worst_pair)
                        or g.chain_product(nodes) != value or worst_chain.efficiency != value):
                    problems.append(f"{key}: the witness chain does not attain the level")
                sources = self.manifest["check_sources"][role] or g.labels
                floor = math.exp(-g.worst_lossiness(sources))
                if value > floor * (1 + 1e-9):
                    problems.append(f"{key}: reference finds a worse pair ({floor!r} < {value!r})")
                if len(sources) == len(g.labels) and value < floor * (1 - 1e-9):
                    problems.append(f"{key}: level {value!r} below reference {floor!r}")
            else:
                want = reference.tree_product(ref_arcs[files[role]])
                if want is None or abs(value - want) > 1e-9 * want:
                    problems.append(f"{key}: tree level {value!r}, reference {want!r}")
                if role in exact and value > exact[role] * (1 + 1e-12):
                    problems.append(f"{key}: tree level exceeds the exact level")

        for name, (text, dot) in self.rendered.items():
            want = reference.arc_set(ref_arcs[name])
            if reference.arc_set(reference.parse_edges(text)) != want:
                problems.append(f"render {name}: read back, it differs from the input arcs")
            if not reference.check_dot(dot, want):
                problems.append(f"to_dot {name}: a node or arc is missing or repeated")

    # -- results -------------------------------------------------------

    def end_to_end(self):
        latencies = [s for times in self.query_s.values() for s in times]
        exact = [a + b for a, b in zip(self.level_s["exact_small"], self.level_s["exact_large"])]
        return {
            "setup_s": statistics.median(self.load_s),
            "render_s": statistics.median(self.render_s),
            "queries_per_s": len(latencies) / sum(latencies),
            "query_p50_ms": 1e3 * statistics.median(latencies),
            "query_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
            "level_exact_s": statistics.median(exact),
            "level_exact_directed_s": statistics.median(self.level_s["exact_directed"]),
            "level_tree_s": statistics.median(self.level_s["tree_net"]),
        }

    def per_layer(self):
        out = {
            "io.read_text_s": statistics.median(self.read_text_s),
            "io.parse_network_s": statistics.median(self.parse_s),
            "io.lines": self.lines,
            "io.render_network_s": statistics.median(p[0] for p in self.render_parts),
            "io.to_dot_s": statistics.median(p[1] for p in self.render_parts),
            "io.bytes_out": sum(len(t) + len(d) for t, d in self.rendered.values()),
            "guarantee.all_pairs_small_s": statistics.median(self.level_s["exact_small"]),
            "guarantee.all_pairs_large_s": statistics.median(self.level_s["exact_large"]),
            "guarantee.all_pairs_directed_s": statistics.median(self.level_s["exact_directed"]),
        }
        for (route, tie), times in self.query_s.items():
            out[f"routing.{route}_{tie}_p50_ms"] = 1e3 * statistics.median(times)
        return out

    def end(self, cli_results):
        ref_arcs = {name: reference.read_edges(self.dir / name) for name in self.files}
        per_layer = self.per_layer()
        if self.tracer.enabled:
            per_layer.update(self.probes(ref_arcs))
            per_layer["io.parse_self_s"] = (
                per_layer["io.parse_network_s"] - per_layer["network.build_network_s"]
            )
        self.nets = {}
        gc.collect()
        self.check(ref_arcs, cli_results)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "refused": self.refused,
            "problems": self.problems,
            "end_to_end": self.end_to_end(),
            "per_layer": per_layer,
            "spans": self.tracer.spans,
        }


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    workdir, trace = sys.argv[1], sys.argv[2] == "1"
    worker = Worker(workdir, trace)
    worker.setup()
    reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "pass":
            worker.run_pass(command["index"], command.get("parent"))
            reply({"ok": True})
        elif command["cmd"] == "end":
            reply(worker.end(command["cli"]))
            # Skip tearing down the loaded networks object by object: the
            # reply is sent and the process holds nothing else.
            os._exit(0)


if __name__ == "__main__":
    main()
