"""The BENCH file writer summarizes alternating runs in the recorded shape."""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
bench_json = importlib.import_module("bench_json")

UNITS = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def write_run(out: Path, seed: int, trace: int, metrics: dict, correct=True) -> None:
    out.mkdir(exist_ok=True)
    doc = {"correct": correct, "attempted": 10, "failed": 0, "nproc": 2, "python": "3.11.7",
           "metrics": {name: {"value": value, "unit": UNITS.get(name, unit)}
                       for name, (value, unit) in metrics.items()}}
    (out / f"share-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def end_to_end(base: float) -> dict:
    return {name: (base, None) for name in UNITS}


def inputs(tmp_path, correct=True):
    parent, change = tmp_path / "p", tmp_path / "c"
    # wall times: parent 1, 2, 3, 4; change 0.5, 2.5, 1, 2 (lower in 3 of 4)
    for seed, (p, c) in enumerate([(1, 0.5), (2, 2.5), (3, 1), (4, 2)], 1):
        write_run(parent, seed, 0, end_to_end(p))
        write_run(change, seed, 0, end_to_end(c), correct=correct or seed != 3)
    for seed, (p, c) in enumerate([(0.2, 0.1), (0.4, 0.1)], 7):
        write_run(parent, seed, 1, {"solvers.x.s": (p, "s"), "search.nodes": (50, "count")})
        write_run(change, seed, 1, {"solvers.x.s": (c, "s"), "search.nodes": (50, "count")})
    labels = {"solve x": {"ops_per_batch": 3, "ratio": 0.5, "won": {"parent": 0, "change": 2},
                          "p50_ms": {"parent": 1.0, "change": 0.5},
                          "p90_ms": {"parent": 2.0, "change": 1.0}, "sum_s": {}}}
    ab = tmp_path / "ab.txt"
    ab.write_text("share  seed 5  2 batches\n" + json.dumps(
        {"mode": "in-process", "workload": "share", "seed": 5, "batches": 2,
         "correct": True, "mismatches": 0, "labels": labels}) + "\n")
    tier = tmp_path / "tier1.txt"
    tier.write_text("parent 20\nchange 18\nchange 19\nparent 18\n")
    return ["--parent-out", str(parent), "--change-out", str(change),
            "--runs", "share:1-4", "--traced", "share:7,8",
            "--layer", "solvers.x.s", "--layer", "search.nodes",
            "--ab", f"share={ab}", "--tier1", str(tier), "--parent-commit", "abc1234",
            "--claim", "share op_p90_ms", "-o", str(tmp_path / "BENCH.json")]


def test_writes_the_recorded_shape(tmp_path):
    assert bench_json.main(inputs(tmp_path)) == 0
    doc = json.loads((tmp_path / "BENCH.json").read_text())
    old = json.loads((ROOT / "BENCH_14.json").read_text())
    assert set(old) <= set(doc) and doc["parent"] == "abc1234" and doc["nproc"] == 2
    share = doc["workloads"]["share"]
    assert share["seeds"] == "1-4"
    old_share = old["workloads"]["share"]["end_to_end"]
    assert set(share["end_to_end"]) == set(old_share)
    for name, row in share["end_to_end"].items():
        assert set(row) == set(old_share[name]) and row["unit"] == UNITS[name]
        assert set(row["parent"]) == set(old_share[name]["parent"])
    wall = share["end_to_end"]["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "spread": 0.6, "runs": 4}
    assert wall["change"]["median"] == 1.5
    assert (wall["pairs_won"], wall["pairs"]) == (3, 4)
    traced = share["traced"]
    assert traced["seeds"] == "7,8"
    assert traced["solvers.x.s"]["parent"]["median"] == 0.30000000000000004
    assert traced["solvers.x.s"]["pairs_won"] == 2
    assert traced["search.nodes"] == {"unit": "count", "parent": 50, "change": 50,
                                      "equal_in_every_pair": True}
    ab = share["in_process"]
    assert ab["mode"] == "in-process" and ab["seed"] == 5
    assert ab["labels"]["solve x"]["ratio"] == 0.5 and "sum_s" not in ab["labels"]["solve x"]
    # the second parent run pairs with the second change run
    assert doc["tier1"]["pairs_won"] == 1 and doc["tier1"]["parent"]["median"] == 19


def test_refuses_a_run_not_as_recorded(tmp_path, capsys):
    assert bench_json.main(inputs(tmp_path, correct=False)) == 1
    assert "share-seed3-trace0.json" in capsys.readouterr().err
    assert not (tmp_path / "BENCH.json").exists()


def test_refuses_a_missing_run(tmp_path, capsys):
    args = inputs(tmp_path)
    args[args.index("share:1-4")] = "share:1-5"
    assert bench_json.main(args) == 1
    assert "share-seed5-trace0.json" in capsys.readouterr().err


def test_seed_ranges():
    assert bench_json.seeds_of("71-73,90") == [71, 72, 73, 90]


def test_refuses_a_tier1_line_of_no_side(tmp_path, capsys):
    args = inputs(tmp_path)
    (tmp_path / "tier1.txt").write_text("parent 20\nchild 18\n")
    assert bench_json.main(args) == 1
    assert "'child 18'" in capsys.readouterr().err
