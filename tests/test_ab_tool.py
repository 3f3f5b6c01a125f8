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
    # search runs through its search and verify-paper ops; share through
    # classify, solve and check, with worker's argv for each
    runs = [
        ("search", 2, {"search tefx": 210, "search tef1": 210, "search atefx:1/2": 210,
                       "verify-paper": 1, "all ops": 631}),
        ("share", 1, {"check tmms": 64, "classify": 64, "solve tefx-genbinary-two": 32,
                      "solve tefx-identical-days-scheduled-two": 32, "search tmms": 12,
                      "all ops": 204}),
    ]
    for workload, batches, ops_per_batch in runs:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT / "src"), str(ROOT / "src"),
             "--workload", workload, "--seed", "1", "--batches", str(batches)],
            stdout=subprocess.PIPE, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stdout
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["mode"] == "in-process" and result["correct"]
        labels = result["labels"]
        assert {name: row["ops_per_batch"] for name, row in labels.items()} == ops_per_batch
        for row in labels.values():
            assert sum(row["won"].values()) <= batches
            assert len(row["batch_sums_s"]["parent"]) == len(row["batch_sums_s"]["change"]) == batches


def fake_sides(ab, tmp_path, main_of):
    return [ab.Side(name, ROOT, tmp_path / name, cli=SimpleNamespace(main=main_of(name)))
            for name in ("parent", "change")]


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
    sides = fake_sides(ab, tmp_path, lambda name: main)
    for batch in range(2):
        ab.run_batch([(case, {"instance": tmp_path / "c0.json"})], sides, batch)
    assert len(written) == 8
    assert len(set(written)) == len(written)


def test_every_mismatch_is_counted(tmp_path):
    # worker.score lists only its first ten mismatches; the tool counts all
    ab = importlib.import_module("ab")
    case = SimpleNamespace(label="c", ops=[["classify"]] * 12, expect=[{"exit": 0}] * 12)
    sides = fake_sides(ab, tmp_path, lambda name: lambda argv: 1 if name == "change" else 0)
    mismatches = ab.run_batch([(case, {"instance": tmp_path / "c0.json"})], sides, 3)
    assert len(mismatches) == 12
    assert all(miss["side"] == "change" and miss["batch"] == 3 for miss in mismatches)


def test_a_known_defect_that_no_longer_raises_is_no_mismatch(tmp_path):
    ab = importlib.import_module("ab")
    case = SimpleNamespace(label="c", ops=[["solve", "alg"]],
                           expect=[{"raises": "RecursionError"}])
    sides = fake_sides(ab, tmp_path, lambda name: lambda argv: 0)
    assert ab.run_batch([(case, {"instance": tmp_path / "c0.json"})], sides, 0) == []
