"""The in-process A/B timer runs two trees side by side and checks answers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
