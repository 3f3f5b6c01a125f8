"""The in-process A/B timer runs two trees side by side and checks answers."""

import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))


def test_ab_runs_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT / "src"), str(ROOT / "src"),
         "--workload", "search", "--seed", "1", "--batches", "2"],
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["mode"] == "in-process" and result["correct"]
    labels = result["labels"]
    assert {"search tefx", "search tef1", "search atefx:1/2", "verify-paper", "all ops"} == set(labels)
    assert labels["all ops"]["ops_per_batch"] == sum(
        row["ops_per_batch"] for name, row in labels.items() if name != "all ops")
    for row in labels.values():
        assert sum(row["won"].values()) <= 2
        assert len(row["batch_sums_s"]["parent"]) == len(row["batch_sums_s"]["change"]) == 2


def test_batches_write_to_paths_of_their_own(tmp_path):
    # an op that truncates and rewrites a file the batch before just wrote
    # can stall on the flush of the old contents
    ab = importlib.import_module("ab")
    written = []

    def main(argv):
        written.append(argv[argv.index("-o") + 1])
        return 0

    case = SimpleNamespace(label="c", ops=[["solve", "alg"], ["check", "tefx"]],
                           expect=[{"exit": 0}, {"exit": 0}])
    sides = [ab.Side(name, ROOT, tmp_path / name, cli=SimpleNamespace(main=main))
             for name in ("parent", "change")]
    for batch in range(2):
        ab.run_batch(None, [case], [tmp_path / "c0.json"], sides, batch)
    assert len(written) == 8
    assert len(set(written)) == len(written)
