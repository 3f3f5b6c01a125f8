"""Record the case pools and the expected answer of every op in them.

    python3 bench/record.py certify share search

Runs every pool case of the named workloads through the CLI, in-process,
and writes ``answers/<workload>.json``: per slot, per pool index, the op
list, each op's answer and the case's cost in seconds: the least of
three timings, each with the share memo cleared, used only to sort the
pool into strata.  Twins are run too and must give their original's
answers under the twin rule, or recording stops.  Any op that raises stops
recording too, unless its slot names that exception as a known defect.

Run it only on a commit whose outputs are known to be right: its answers
are what every later run is checked against.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import BENCH_DIR, answer_of, generate_case, issue_ops, write_inputs
from workloads import ANSWERS_DIR, WORKLOADS, Case, twin_expect

import tempfair.fairness  # noqa: E402  (worker put src on the path)
import tempfair.solvers  # noqa: E402

# a case's cost is the least of this many timings of its original's ops
COST_REPEATS = 3


def case_ops(slot, instance) -> list:
    if slot.kind == "certify":
        ops = [["classify"], ["solve", slot.alg]]
        if slot.known_defect:
            return ops
        entry = tempfair.solvers.SOLVERS[slot.alg]
        concepts = [str(c) for c in entry.concepts(instance) if c.kind != "tmms"]
        kinds = {c.split(":")[0] for c in concepts}
        return ops + [["check", c] for c in concepts + [k for k in ("tef1", "tefx") if k not in kinds]]
    if slot.kind == "share":
        return [["classify"], ["solve", slot.alg], ["check", "tmms"]]
    if slot.kind == "search":
        return [["search", c, slot.scheduled] for c in slot.concepts]
    if slot.kind == "verify":
        return [["verify-paper"]]
    raise ValueError(f"unknown slot kind {slot.kind!r}")


def _cold_share_cache() -> None:
    # a case's cost is what a fresh process pays, so no share is memoized
    cached = getattr(tempfair.fairness, "_mms_share_search", None)
    if hasattr(cached, "cache_clear"):
        cached.cache_clear()


def record_case(slot, index: int, workdir: Path) -> dict:
    probe = Case(slot, index, False, [], [])
    ops = case_ops(slot, generate_case(probe))
    blank = [{}] * len(ops)
    cases = [Case(slot, index, False, ops, blank)]
    if slot.twin:
        cases.append(Case(slot, index, True, ops, blank))
    _cold_share_cache()
    done, _ = issue_ops(write_inputs(cases, workdir), workdir)
    answers = {False: [], True: []}
    for case, op, _, rc, raised, out_path, seconds in done:
        if raised is not None and raised != slot.known_defect:
            raise SystemExit(f"{case.label} {op}: raised {raised}")
        answers[case.twin].append(answer_of(op, rc, raised, out_path))
    if slot.twin:
        derived = [twin_expect(op, a) for op, a in zip(ops, answers[False])]
        if derived != answers[True]:
            raise SystemExit(f"{slot.name}#{index}: twin answers differ from the original's")
    costs = [sum(d[-1] for d in done if not d[0].twin)]
    for rep in range(1, COST_REPEATS):
        rerun = workdir / f"rep{rep}"
        rerun.mkdir()
        _cold_share_cache()
        again, _ = issue_ops(write_inputs(cases[:1], rerun), rerun)
        costs.append(sum(d[-1] for d in again))
    return {"index": index, "cost": round(min(costs), 4), "ops": ops, "expect": answers[False]}


def record(workload: str) -> None:
    slots = {}
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        for slot in WORKLOADS[workload]:
            pool = []
            for index in range(slot.pool):
                workdir = Path(tmp) / f"{len(pool)}-{slot.name.replace('/', '_')}"
                workdir.mkdir()
                pool.append(record_case(slot, index, workdir))
            slots[slot.name] = pool
            costs = sorted(c["cost"] for c in pool)
            print(f"{slot.name}: {len(pool)} cases, cost {costs[0]:.3f}..{costs[-1]:.3f} s, "
                  f"sum {sum(costs):.2f} s", file=sys.stderr, flush=True)
    ANSWERS_DIR.mkdir(exist_ok=True)
    with open(ANSWERS_DIR / f"{workload}.json", "w") as fh:
        json.dump({"workload": workload, "slots": slots}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
