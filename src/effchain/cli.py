"""Command-line front end.

Subcommands operate on edge-list files (see the io module for the
format).  Exit codes: 0 success, 1 no qualifying chain exists, 2 bad
input or arguments, 3 structural precondition failed (network not
symmetric or not connected), 141 standard output closed by its reader
(128 + SIGPIPE, as a shell reports a command killed by a broken pipe).
"""

import argparse
import json
import os
import sys

from . import __version__
from .algebra import _check_base, to_lossiness
from .errors import (
    EffchainError,
    NotConnected,
    NotSymmetric,
    SomePairUnreachable,
)
from .guarantee import guaranteed_min_all_pairs, guaranteed_min_by_tree
from .io import read_network, to_dot
from .network import classify
from .routing import best_chain_multiplicative, best_chain_via_lossiness


def _cmd_best_chain(args) -> int:
    # --json reports the lossiness in this base on either route.
    _check_base(args.base)
    net = read_network(args.file)
    if args.method == "lossiness":
        chain = best_chain_via_lossiness(
            net, args.from_node, args.to_node, base=args.base, tie_break=args.tie_break
        )
    else:
        chain = best_chain_multiplicative(
            net, args.from_node, args.to_node, tie_break=args.tie_break
        )
    if chain is None:
        print(f"no chain from {args.from_node} to {args.to_node}", file=sys.stderr)
        return 1
    if args.json:
        total = to_lossiness(chain.efficiency, base=args.base)
        print(
            json.dumps(
                {
                    "chain": list(chain.nodes),
                    "efficiency": round(chain.efficiency, 8),
                    "lossiness_total": round(total.value, 8),
                    "base": args.base,
                }
            )
        )
    else:
        print(f"{' '.join(chain.nodes)}  {chain.efficiency:.8f}")
    return 0


def _cmd_guaranteed_min(args) -> int:
    net = read_network(args.file)
    if args.method == "all-pairs":
        level = guaranteed_min_all_pairs(net)
    else:
        level = guaranteed_min_by_tree(net)
    if args.json:
        payload: dict = {"value": round(level.value, 8), "method": level.method}
        if level.tree is not None:
            payload["tree"] = [
                [tail, head, eta] for tail, head, eta, _ in level.tree._arc_rows()
            ]
        if level.worst_pair is not None:
            payload["worst_pair"] = list(level.worst_pair)
            payload["worst_chain"] = list(level.worst_chain.nodes)
        print(json.dumps(payload))
    else:
        print(f"{level.value:.8f}")
        print(f"method: {level.method}")
        if level.tree is not None:
            edges = " ".join(f"{tail}--{head}" for tail, head, *_ in level.tree._arc_rows())
            print(f"tree: {edges}")
        if level.worst_pair is not None:
            u, v = level.worst_pair
            print(f"worst pair: {u} -> {v}")
            print(f"chain: {' '.join(level.worst_chain.nodes)}")
    return 0


def _cmd_classify(args) -> int:
    net = read_network(args.file)
    kind = classify(net)
    if args.json:
        print(
            json.dumps(
                {
                    "kind": kind.value,
                    "nodes": len(net.nodes),
                    "arcs": len(net._effs),  # counted without building Arcs
                }
            )
        )
    else:
        print(kind.value)
    return 0


def _cmd_lossiness(args) -> int:
    t = to_lossiness(args.efficiency, base=args.base)
    if args.json:
        print(
            json.dumps(
                {
                    "efficiency": args.efficiency,
                    "lossiness": round(t.value, 8),
                    "base": t.base,
                }
            )
        )
    else:
        print(f"{t.value:.8f}")
    return 0


def _cmd_dot(args) -> int:
    net = read_network(args.file)
    # Unbuffered (PYTHONUNBUFFERED, python -u), stdout hands text to a raw
    # file whose write takes only part of it when the reader leaves, and
    # drops the rest without an error.  Writing the bytes until none are
    # left reaches the closed pipe and raises BrokenPipeError instead; the
    # other commands print, and print's separate newline write does so.
    sys.stdout.flush()
    data = memoryview(to_dot(net).encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[sys.stdout.buffer.write(data) :]
    return 0


def _cmd_version(args) -> int:
    print(__version__)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effchain",
        description="Maximum-efficiency chains and guaranteed service levels "
        "in arc-weighted networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "best-chain", help="find the maximum-efficiency chain between two nodes"
    )
    p.add_argument("file", help="edge-list file")
    p.add_argument("--from", dest="from_node", required=True, metavar="NODE")
    p.add_argument("--to", dest="to_node", required=True, metavar="NODE")
    p.add_argument(
        "--method",
        choices=("product", "lossiness"),
        default="product",
        help="maximize the product directly, or minimize total lossiness",
    )
    p.add_argument(
        "--base", type=float, default=2.0, help="logarithm base for lossiness"
    )
    p.add_argument("--tie-break", choices=("low", "high"), default="low")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_best_chain)

    p = sub.add_parser(
        "guaranteed-min",
        help="certify a floor on chain efficiency over all node pairs",
    )
    p.add_argument("file", help="edge-list file")
    p.add_argument(
        "--method",
        choices=("tree", "all-pairs"),
        default="tree",
        help="spanning-tree bound (symmetric networks) or exact sweep",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_guaranteed_min)

    p = sub.add_parser("classify", help="report the network's symmetry class")
    p.add_argument("file", help="edge-list file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser(
        "lossiness", help="convert an efficiency to its lossiness value"
    )
    p.add_argument("efficiency", type=float)
    p.add_argument("--base", type=float, default=2.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lossiness)

    p = sub.add_parser("dot", help="emit the network in DOT format")
    p.add_argument("file", help="edge-list file")
    p.set_defaults(func=_cmd_dot)

    p = sub.add_parser("version", help="print the package version")
    p.set_defaults(func=_cmd_version)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotConnected, NotSymmetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SomePairUnreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        raise  # a closed stdout is not bad input; main() reports it
    except (EffchainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_cli()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone.  Point stdout at the null device so the
        # interpreter's flush at exit does not fail again, and exit as a
        # process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
