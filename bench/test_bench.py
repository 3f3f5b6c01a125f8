"""Checks on the benchmark's own code.

    python3 -m pytest bench -q

The traced-run test starts two traced runs per workload and takes a few
minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from worker import BENCH_DIR, issue_ops, score, write_inputs  # puts src on the path

import tempfair.cli  # noqa: E402
import tempfair.solvers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Case, draw_cases, load_answers  # noqa: E402

ROOT = BENCH_DIR.parent
COUNTS = ("search.nodes", "search.space_bound", "fairness.mms_share.pool_max")


def _traced_layers(workload: str, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
         "--seed", "5", "--seconds", "20", "--workdir", str(workdir), "--trace"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["layers"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_runs_repeat_their_counts(workload, tmp_path):
    first = _traced_layers(workload, tmp_path / "a")
    second = _traced_layers(workload, tmp_path / "b")
    keys = [k for k in first if k.endswith(".calls") or k in COUNTS]
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert any(first[k] for k in keys)


def _bindings():
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "tempfair" or name.startswith("tempfair."):
            for key, value in vars(mod).items():
                if callable(value):
                    found[(name, key)] = value
    for name, entry in tempfair.solvers.SOLVERS.items():
        found[("SOLVERS", name)] = entry
    return found


def test_uninstall_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert tempfair.cli.main is not before[("tempfair.cli", "main")]
        assert tempfair.cli.main(["verify-paper", "-o", str(tmp_path / "v.json")]) == 1
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    total, _, calls = tracer.totals()
    assert calls["cli.main"] == 1 and calls["search.search"] == 10
    assert total["cli.main"] >= total["verification.verify_counterexamples"]


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(20000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    total, own, calls = tracer.totals()
    assert calls == {"outer": 1, "inner": 3}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])


def test_draws_follow_the_seed_and_the_strata():
    answers = load_answers("search")
    first = [c.label for c in draw_cases("search", 1, 10, answers)]
    assert first == [c.label for c in draw_cases("search", 1, 10, answers)]
    assert first != [c.label for c in draw_cases("search", 2, 10, answers)]
    for slot in WORKLOADS["search"]:
        drawn = [c.index for c in draw_cases("search", 3, 10, answers) if c.slot == slot]
        assert len(drawn) == slot.draws == len(set(drawn))


def test_a_wrong_answer_fails_the_op(tmp_path):
    slot = WORKLOADS["search"][0]
    record = load_answers("search")["slots"][slot.name][0]
    first, *rest = record["expect"]
    wrong = [dict(first, exists=not first["exists"]), *rest]
    cases = [Case(slot, record["index"], False, record["ops"], record["expect"]),
             Case(slot, record["index"], False, record["ops"], wrong)]
    done, _ = issue_ops(write_inputs(cases, tmp_path), tmp_path)
    result = score(done)
    ops = 2 * len(record["ops"])
    assert (result["attempted"], result["failed"], result["correct"]) == (ops, 1, False)


def test_baseline_records_machine_and_seed_commit_numbers():
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    with open(BENCH_DIR / "BASELINE.json") as fh:
        baseline = json.load(fh)
    assert baseline["nproc"] >= 1 and baseline["python"].count(".") == 2
    for workload in declared["workloads"]:
        numbers = baseline["workloads"][workload["name"]]
        for metric in declared["end_to_end"]:
            assert numbers["end_to_end"][metric["name"]]["median"] > 0
        assert set(numbers["per_layer"]) == {m["name"] for m in declared["per_layer"]}
