import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import effchain
from effchain import demo_energy_network, render_network
from effchain.cli import run_cli

TRIANGLE = "a,b,0.9,undir\nb,c,0.8,undir\na,c,0.7,undir\n"
DIRECTED_PAIR = "a,b,0.9\n"
DISCONNECTED = "a,b,0.9,undir\nc,d,0.9,undir\n"


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(render_network(demo_energy_network()), encoding="utf-8")
    return str(path)


def _write(tmp_path, text):
    path = tmp_path / "net.csv"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_best_chain_plain_output(demo_file, capsys):
    assert run_cli(["best-chain", demo_file, "--from", "a", "--to", "z"]) == 0
    out = capsys.readouterr().out
    assert out == "a b c d z  0.93168306\n"


def test_best_chain_reversed_tie_break(demo_file, capsys):
    rc = run_cli(
        ["best-chain", demo_file, "--from", "a", "--to", "z", "--tie-break", "high"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "a b c d z  0.93168306\n"


def test_best_chain_json(demo_file, capsys):
    rc = run_cli(["best-chain", demo_file, "--from", "a", "--to", "z", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chain"] == ["a", "b", "c", "d", "z"]
    assert payload["efficiency"] == 0.93168306
    assert payload["base"] == 2.0
    assert payload["lossiness_total"] > 0


def test_best_chain_lossiness_method(demo_file, capsys):
    rc = run_cli(
        ["best-chain", demo_file, "--from", "a", "--to", "z",
         "--method", "lossiness", "--base", "10"]
    )
    assert rc == 0
    assert capsys.readouterr().out == "a b c d z  0.93168306\n"


def test_best_chain_unreachable_exits_1(demo_file, capsys):
    rc = run_cli(["best-chain", demo_file, "--from", "z", "--to", "a"])
    assert rc == 1
    assert "no chain from z to a" in capsys.readouterr().err


def test_best_chain_unknown_node_exits_2(demo_file, capsys):
    rc = run_cli(["best-chain", demo_file, "--from", "a", "--to", "nope"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    rc = run_cli(["best-chain", str(tmp_path / "absent.csv"), "--from", "a", "--to", "b"])
    assert rc == 2


def test_malformed_csv_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "a,b\n")
    assert run_cli(["best-chain", path, "--from", "a", "--to", "b"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_non_utf8_file_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "net.csv"
    path.write_bytes(b"a,b,0.9\r\nb\x85,c,0.8\nc,d,0.7\n")
    assert run_cli(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_byte_order_mark_is_not_part_of_the_first_label(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b,0.5\nb,c,0.5\n")
    assert run_cli(["best-chain", str(path), "--from", "a", "--to", "c"]) == 0
    assert capsys.readouterr().out == "a b c  0.25000000\n"


# A long path: its DOT text outgrows the stdout buffer, so the first
# write to a closed pipe happens while the command runs, not at exit.
LONG_PATH = "".join(f"n{i:05d},n{i + 1:05d},0.5,undir\n" for i in range(2000))


def _cli_child(command, path, unbuffered=None):
    """Run main() in a child with ``src`` on its path, stdout to a pipe.

    PYTHONUNBUFFERED is dropped (stdout block-buffered) unless given.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(effchain.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    return subprocess.Popen(
        [sys.executable, "-c", "from effchain.cli import main; main()", command, path],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        bufsize=0,
    )


@pytest.mark.parametrize(
    "command, text",
    [("guaranteed-min", TRIANGLE), ("dot", TRIANGLE), ("dot", LONG_PATH)],
    ids=["guaranteed-min", "dot", "dot-long"],
)
def test_closed_stdout_exits_141_quietly(tmp_path, command, text):
    child = _cli_child(command, _write(tmp_path, text))
    # Close the reading end before the child writes, as a reader that
    # leaves at once would.
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == 141
    assert stderr == b""


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_reader_leaving_mid_write_exits_141_quietly(tmp_path, unbuffered):
    # LONG_PATH's DOT text (~120 KB) outgrows a pipe's 64 KiB, so the
    # child is still writing when the reader leaves.  Unbuffered, that
    # write returns a partial count instead of failing.
    child = _cli_child("dot", _write(tmp_path, LONG_PATH), unbuffered)
    assert child.stdout.read(10)
    child.stdout.close()
    _, stderr = child.communicate(timeout=60)
    assert child.returncode == 141
    assert stderr == b""


def test_guaranteed_min_tree_plain(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    assert run_cli(["guaranteed-min", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.72000000"
    assert out[1] == "method: tree"
    assert out[2] == "tree: a--b b--c"


def test_guaranteed_min_all_pairs_plain(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    assert run_cli(["guaranteed-min", path, "--method", "all-pairs"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "0.72000000"
    assert out[1] == "method: all-pairs"
    assert out[2] == "worst pair: a -> c"
    assert out[3] == "chain: a b c"


def test_guaranteed_min_json(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    assert run_cli(["guaranteed-min", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 0.72
    assert payload["method"] == "tree"
    assert payload["tree"] == [["a", "b", 0.9], ["b", "c", 0.8]]


def test_guaranteed_min_all_pairs_json(tmp_path, capsys):
    path = _write(tmp_path, TRIANGLE)
    assert run_cli(["guaranteed-min", path, "--method", "all-pairs", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"value": 0.72, "method": "all-pairs", "worst_pair": ["a", "c"], '
        '"worst_chain": ["a", "b", "c"]}\n'
    )


def test_guaranteed_min_tree_rejects_directed(tmp_path, capsys):
    path = _write(tmp_path, DIRECTED_PAIR)
    assert run_cli(["guaranteed-min", path]) == 3
    assert "error:" in capsys.readouterr().err


def test_guaranteed_min_tree_rejects_disconnected(tmp_path, capsys):
    path = _write(tmp_path, DISCONNECTED)
    assert run_cli(["guaranteed-min", path]) == 3


def test_guaranteed_min_all_pairs_unreachable_exits_1(tmp_path, capsys):
    path = _write(tmp_path, DISCONNECTED)
    assert run_cli(["guaranteed-min", path, "--method", "all-pairs"]) == 1


def test_classify(demo_file, tmp_path, capsys):
    assert run_cli(["classify", demo_file]) == 0
    assert capsys.readouterr().out == "mixed\n"
    path = _write(tmp_path, TRIANGLE)
    assert run_cli(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"kind": "symmetric-two-sided", "nodes": 3, "arcs": 3}


def test_lossiness_subcommand(capsys):
    assert run_cli(["lossiness", "0.5"]) == 0
    assert capsys.readouterr().out == "1.00000000\n"
    assert run_cli(["lossiness", "0.5", "--base", "4"]) == 0
    assert capsys.readouterr().out == "0.50000000\n"


def test_lossiness_json(capsys):
    assert run_cli(["lossiness", "0.5", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"efficiency": 0.5, "lossiness": 1.0, "base": 2.0}\n'
    )


def test_lossiness_rejects_bad_inputs(capsys):
    assert run_cli(["lossiness", "1.5"]) == 2
    assert run_cli(["lossiness", "0.5", "--base", "1"]) == 2


def test_nan_base_exits_2(demo_file, tmp_path, capsys):
    # Refused on either route and output, before the file is read.
    missing = str(tmp_path / "missing.csv")
    for path in (demo_file, missing):
        for method in ("lossiness", "product"):
            for json_flag in ([], ["--json"]):
                rc = run_cli(
                    ["best-chain", path, "--from", "a", "--to", "z",
                     "--method", method, "--base", "nan", *json_flag]
                )
                assert rc == 2
                assert capsys.readouterr() == ("", "error: log base must exceed 1, got nan\n")
    assert run_cli(["lossiness", "0.5", "--base", "nan"]) == 2


def test_dot_subcommand(demo_file, capsys):
    assert run_cli(["dot", demo_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "dir=none" in out


def test_version_subcommand(capsys):
    assert run_cli(["version"]) == 0
    assert capsys.readouterr().out.strip().count(".") == 2
