"""effchain benchmark: one workload per call, or all of them.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Run from anywhere; it measures the effchain sources in ``src/`` beside
this directory.  Steps of one call:

1. generate.py writes the seeded inputs in a process of its own;
2. worker.py, a second process, loads them (``setup_s``) and waits;
3. rounds run until ``--seconds`` have passed.  A round is a list of
   passes; each pass asks the CLI its share of queries from this small
   process, then has the worker run its share of the in-process steps;
4. the worker checks every output against the reference solver.

The CLI children start from this process, which never loads a network, so
their peak RSS is the CLI's own.  All load comes from one client, one
operation at a time.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer ones with ``--trace 1``.  A traced run also
writes its spans to ``perfbench/out/trace-<workload>-<seed>.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from generate import WORKLOADS
from spans import Tracer, self_by_name, with_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_PROBES = 5
CLI = "from effchain.cli import main; main()"


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_cli(args):
    """Run the CLI as a child; returns (stdout, exit status, wall s, peak RSS MB)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", CLI, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=child_env(),
        text=True,
    )
    stdout = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return stdout, child.returncode, wall, usage.ru_maxrss / 1024


def ask(worker, command):
    worker.stdin.write(json.dumps(command) + "\n")
    worker.stdin.flush()
    return receive(worker)


def receive(worker):
    line = worker.stdout.readline()
    if not line:
        raise RuntimeError(f"worker exited with status {worker.wait()}")
    return json.loads(line)


def run_workload(workload, seed, seconds, trace):
    """Generate, measure and check one workload; returns the result object."""
    workdir = HERE / "out" / f"{workload}-{seed}-{os.getpid()}"
    try:
        return measure(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, seed, seconds, trace, workdir):
    tracer = Tracer(trace, "o")
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(workdir)],
        check=True,
    )
    manifest = json.loads((workdir / "manifest.json").read_text(encoding="utf-8"))
    cli_file = str(workdir / manifest["files"]["chain"])
    a, z = manifest["cli_query"]
    cli_args = ["best-chain", cli_file, "--from", a, "--to", z]

    per_layer = {}
    if trace:
        imports = [
            tracer.call("cli.import", subprocess.run,
                        [sys.executable, "-c", "import effchain.cli"],
                        env=child_env(), check=True)[1]
            for _ in range(IMPORT_PROBES)
        ]
        per_layer["cli.import_s"] = statistics.median(imports)

    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(workdir), "1" if trace else "0"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=child_env(),
        text=True,
    )
    try:
        receive(worker)
        cli_results, cli_s, cli_rss = [], [], []
        start = time.perf_counter()
        while True:
            with tracer.span("round") as round_id:
                for index, step in enumerate(manifest["passes"]):
                    for _ in range(step["cli"]):
                        with tracer.span("cli.best_chain"):
                            stdout, status, wall, rss = run_cli(cli_args)
                        cli_results.append({"stdout": stdout, "status": status})
                        cli_s.append(wall)
                        cli_rss.append(rss)
                    ask(worker, {"cmd": "pass", "index": index, "parent": round_id})
            if time.perf_counter() - start >= seconds:
                break
        result = ask(worker, {"cmd": "end", "cli": cli_results})
        worker.stdin.close()
        worker.wait()
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()

    e2e = {
        "cli_s": statistics.median(cli_s),
        "cli_peak_rss_mb": statistics.median(cli_rss),
        **result["end_to_end"],
    }
    per_layer.update(result["per_layer"])
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if result["refused"]:
        print(f"refused (EffchainError, counted as correct): {result['refused']}", file=sys.stderr)
    if trace:
        spans = tracer.spans + result["spans"]
        trace_file = HERE / "out" / f"trace-{workload}-{seed}.json"
        trace_file.write_text(json.dumps({
            "workload": workload,
            "seed": seed,
            "end_to_end_traced": e2e,
            "self_by_name": self_by_name(spans),
            "spans": with_self_times(spans),
        }, indent=1), encoding="utf-8")
    measured = per_layer if trace else e2e
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"] + len(cli_results),
        "failed": result["failed"],
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in declared_metrics(trace).items()
        },
    }


def show(workload, trace, result):
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {workload}: {kind}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34} {metric['value']:>14.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "effchain" / "__init__.py").is_file():
        sys.exit(f"no effchain sources at {ROOT / 'src'}; run from a checkout of the repository")

    if args.workload:
        trace = bool(args.trace)
        result = run_workload(args.workload, args.seed, args.seconds, trace)
        show(args.workload, trace, result)
        print(json.dumps(result))
        return
    results = {}
    for workload in WORKLOADS:
        traces = (False, True) if args.trace is None else (bool(args.trace),)
        for trace in traces:
            result = run_workload(workload, args.seed, args.seconds, trace)
            show(workload, trace, result)
            results[f"{workload}/{'traced' if trace else 'untraced'}"] = result
    print(json.dumps(results))


if __name__ == "__main__":
    main()
