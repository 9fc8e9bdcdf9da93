"""End-to-end acceptance suite.

One test per contract item, each printing a single PASS/FAIL line so the
whole gate can be read off a log scan.  Numbered labels follow the
package's release checklist.
"""

import json
import math
import random
import time

import pytest

from effchain import (
    as_symmetric,
    best_chain_multiplicative,
    best_chain_via_lossiness,
    bsc_endpoint_accuracy,
    build_network,
    commission_to_efficiency,
    demo_energy_network,
    guaranteed_min_all_pairs,
    guaranteed_min_by_tree,
    parse_network,
    render_network,
    to_lossiness,
)
from effchain.cli import run_cli
from helpers import (
    complete_undirected,
    random_connected_undirected,
    random_directed_network,
    random_tree,
    scale_network,
)
from oracle import brute_best_chain, brute_best_tree, enumerate_spanning_trees


def _report(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def small_symmetric_corpus():
    """200 connected undirected networks (n <= 6); every fourth is a tree."""
    rng = random.Random(24601)
    nets = []
    for i in range(200):
        if i % 4 == 0:
            nets.append(random_tree(rng, max_nodes=6))
        else:
            nets.append(random_connected_undirected(rng, max_nodes=6))
    return nets


def test_01_demo_network_reproduction():
    start = time.perf_counter()
    net = demo_energy_network()
    results = [
        best_chain_multiplicative(net, "a", "z", tie_break=order)
        for order in ("low", "high")
    ]
    elapsed = time.perf_counter() - start
    ok = all(
        c.nodes == ("a", "b", "c", "d", "z")
        and abs(c.efficiency - 0.93168306) <= 1e-9
        for c in results
    )
    _report(
        "criterion 1: demo chain a-b-c-d-z at 0.93168306 under both tie-break "
        "orders",
        ok and elapsed < 1.0,
        f"{elapsed:.3f}s",
    )


def test_02_search_methods_agree_and_match_oracle():
    rng = random.Random(31007)
    start = time.perf_counter()
    worst_gap = 0.0
    exact_matches = True
    for _ in range(1000):
        net = random_directed_network(rng, max_nodes=8)
        nodes = net.nodes
        a = nodes[rng.randrange(len(nodes))]
        z = nodes[rng.randrange(len(nodes))]
        want = brute_best_chain(net, a, z)
        direct = best_chain_multiplicative(net, a, z)
        if want is None:
            assert direct is None
            continue
        exact_matches &= direct.efficiency == want.efficiency
        for base in (2.0, math.e, 10.0):
            via = best_chain_via_lossiness(net, a, z, base=base)
            worst_gap = max(worst_gap, abs(via.efficiency - direct.efficiency))
            exact_matches &= via.efficiency == want.efficiency
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2: product and lossiness searches agree within 1e-10 over "
        "1000 networks and match the exhaustive optimum exactly",
        worst_gap <= 1e-10 and exact_matches and elapsed < 30.0,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_03_lossiness_is_additive():
    rng = random.Random(92653)
    worst = 0.0
    for _ in range(100_000):
        e1 = 1.0 - rng.random()
        e2 = 1.0 - rng.random()
        for base in (2.0, math.e, 10.0):
            t12 = to_lossiness(e1 * e2, base=base).value
            t1 = to_lossiness(e1, base=base).value
            t2 = to_lossiness(e2, base=base).value
            worst = max(worst, abs(t12 - (t1 + t2)))
    _report(
        "criterion 3: lossiness of a product equals the sum of lossiness "
        "values within 1e-10 (bases 2, e, 10)",
        worst <= 1e-10,
        f"worst {worst:.2e}",
    )


def test_04_greedy_tree_matches_enumeration(small_symmetric_corpus):
    ok = True
    for net in small_symmetric_corpus:
        view = as_symmetric(net)
        brute_product, _ = brute_best_tree(view)
        ok &= guaranteed_min_by_tree(view).value == brute_product
    counts_ok = True
    for n, want in ((3, 3), (4, 16), (5, 125)):
        view = as_symmetric(complete_undirected(n, random.Random(n)))
        counts_ok &= len(enumerate_spanning_trees(view)) == want
    _report(
        "criterion 4: greedy max-product tree equals exhaustive maximum on "
        "200 networks; complete-graph tree counts are 3/16/125",
        ok and counts_ok,
    )


def test_05a_every_pair_meets_tree_bound(small_symmetric_corpus):
    ok = True
    for net in small_symmetric_corpus:
        bound = guaranteed_min_by_tree(net).value
        for a in net.nodes:
            for z in net.nodes:
                if a == z:
                    continue
                eff = best_chain_multiplicative(net, a, z).efficiency
                ok &= eff >= bound or math.isclose(eff, bound, rel_tol=1e-12)
    _report(
        "criterion 5a: every pairwise optimum meets the tree bound",
        ok,
    )


def test_05b_exact_level_dominates_tree_level(small_symmetric_corpus):
    ok = True
    for net in small_symmetric_corpus:
        tree = guaranteed_min_by_tree(net).value
        exact = guaranteed_min_all_pairs(net).value
        ok &= exact >= tree or math.isclose(exact, tree, rel_tol=1e-12)
    _report(
        "criterion 5b: the all-pairs level dominates the tree level",
        ok,
    )


def test_05c_exact_level_is_attained(small_symmetric_corpus):
    ok = True
    for net in small_symmetric_corpus:
        level = guaranteed_min_all_pairs(net)
        a, z = level.worst_pair
        ok &= best_chain_multiplicative(net, a, z).efficiency == level.value
        ok &= level.worst_chain.efficiency == level.value
    _report(
        "criterion 5c: the all-pairs level is attained by its witness pair",
        ok,
    )


@pytest.mark.xfail(
    strict=True,
    reason="a branching tree's full edge product lies strictly below its "
    "pairwise minimum; only path-shaped trees make the two levels equal",
)
def test_05d_methods_coincide_on_trees(small_symmetric_corpus):
    ok = True
    witness = ""
    for net in small_symmetric_corpus:
        if len(net.arcs) != len(net.nodes) - 1:
            continue
        tree = guaranteed_min_by_tree(net).value
        exact = guaranteed_min_all_pairs(net).value
        if tree != exact and not witness:
            arcs = ", ".join(f"{a.tail}-{a.head}@{a.efficiency:.3f}" for a in net.arcs)
            witness = f"first counterexample: {arcs}: tree {tree!r} vs exact {exact!r}"
        ok &= tree == exact
    _report(
        "criterion 5d: tree and all-pairs levels coincide on tree inputs",
        ok,
        witness,
    )


def test_06_channel_accuracy_and_commission():
    frozen = abs(bsc_endpoint_accuracy(0.9, 0.8) - 0.74) <= 1e-12
    commission = commission_to_efficiency(2) == 0.98
    rng = random.Random(27182)
    properties = True
    for _ in range(10_000):
        e1 = 1.0 - rng.random()
        e2 = 1.0 - rng.random()
        properties &= bsc_endpoint_accuracy(e1, e2) == bsc_endpoint_accuracy(e2, e1)
        properties &= abs(bsc_endpoint_accuracy(1.0, e1) - e1) <= 1e-15
    _report(
        "criterion 6: two-channel accuracy 0.74 within 1e-12, 2% commission "
        "gives 0.98, symmetry and identity hold over 10000 pairs",
        frozen and commission and properties,
    )


def test_07_scale_smoke_and_benchmark():
    rng = random.Random(60221)
    net, source, target = scale_network(rng, 100_000, 500_000)
    start = time.perf_counter()
    chain = best_chain_multiplicative(net, source, target)
    elapsed = time.perf_counter() - start
    valid = chain is not None
    links = "none"
    if valid:
        product = 1.0
        for u, v in zip(chain.nodes, chain.nodes[1:]):
            valid &= net.has_step(u, v)
            product *= net.step_efficiency(u, v)
        valid &= abs(product - chain.efficiency) <= 1e-10
        links = str(chain.length)
    _report(
        "criterion 7: search over 100000 nodes / 500000 arcs returns a valid "
        "chain in under 5 s",
        valid and elapsed < 5.0,
        f"{elapsed:.2f}s, {links} links",
    )

    print("benchmark: guaranteed level runtimes (symmetric networks)")
    print(f"{'n':>6} {'tree [ms]':>12} {'all-pairs [ms]':>15}")
    for n in (50, 100, 200):
        bench = _symmetric_benchmark_network(rng, n)
        t0 = time.perf_counter()
        tree_level = guaranteed_min_by_tree(bench)
        t1 = time.perf_counter()
        exact_level = guaranteed_min_all_pairs(bench)
        t2 = time.perf_counter()
        print(f"{n:>6} {1e3 * (t1 - t0):>12.2f} {1e3 * (t2 - t1):>15.2f}")
        assert tree_level.value <= exact_level.value or math.isclose(
            tree_level.value, exact_level.value, rel_tol=1e-12
        )


def _symmetric_benchmark_network(rng, n):
    names = [f"s{i:04d}" for i in range(n)]
    raws = []
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = min(names[j], names[i]), max(names[j], names[i])
        raws.append((u, v, 1.0 - rng.random(), True))
        pairs.add((u, v))
    extra = 0
    while extra < 2 * n:
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        u, v = min(names[i], names[j]), max(names[i], names[j])
        if (u, v) in pairs:
            continue
        pairs.add((u, v))
        raws.append((u, v, 1.0 - rng.random(), True))
        extra += 1
    return build_network(raws)


def test_08_cli_contract(tmp_path, capsys):
    demo = tmp_path / "demo.csv"
    demo.write_text(render_network(demo_energy_network()), encoding="utf-8")
    triangle = tmp_path / "triangle.csv"
    triangle.write_text("a,b,0.9,undir\nb,c,0.8,undir\na,c,0.7,undir\n", encoding="utf-8")
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("a,b\n", encoding="utf-8")
    split = tmp_path / "split.csv"
    split.write_text("a,b,0.9,undir\nc,d,0.9,undir\n", encoding="utf-8")

    matrix = [
        (["best-chain", str(demo), "--from", "a", "--to", "z"], 0),
        (["guaranteed-min", str(triangle)], 0),
        (["best-chain", str(demo), "--from", "z", "--to", "a"], 1),
        (["guaranteed-min", str(split), "--method", "all-pairs"], 1),
        (["best-chain", str(malformed), "--from", "a", "--to", "b"], 2),
        (["best-chain", str(demo), "--from", "a", "--to", "nope"], 2),
        (["guaranteed-min", str(split)], 3),
        (["guaranteed-min", str(demo)], 3),
    ]
    codes_ok = True
    for argv, want in matrix:
        got = run_cli(argv)
        codes_ok &= got == want

    json_ok = True
    run_cli(["best-chain", str(demo), "--from", "a", "--to", "z", "--json"])
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    json_ok &= payload["chain"] == ["a", "b", "c", "d", "z"]
    json_ok &= payload["efficiency"] == 0.93168306

    round_trip = True
    for path in (demo, triangle, split):
        net = parse_network(path.read_text(encoding="utf-8"))
        round_trip &= parse_network(render_network(net)) == net

    _report(
        "criterion 8: CLI exit codes 0/1/2/3 across the fixture matrix and "
        "file round-trip identity",
        codes_ok and json_ok and round_trip,
    )
