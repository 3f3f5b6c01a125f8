"""Write a ``BENCH_*.json`` from alternating benchmark runs of two trees.

    python3 tools/bench_json.py --parent-out PARENT/bench/out --change-out bench/out \\
        --runs share:71-80 --runs certify:81-90 --traced share:1 \\
        --layer solvers.tefx-identical-days-scheduled-two.s --layer search.nodes \\
        --ab share=ab_share.txt --tier1 tier1.txt \\
        --parent-commit PARENT_SHA --claim "share op_p90_ms" -o BENCH_N.json

Inputs, all read, none written:
- ``bench/run.py`` results of both trees, as each checkout leaves them in
  its ``bench/out/`` (``W-seedN-trace0.json``; ``trace1`` for
  ``--traced``).  ``--runs W:SEEDS`` names the seeds run once on each side,
  the sides alternating; a seed is one pair.
- ``--ab W=FILE``: the standard output of ``tools/ab.py`` on workload W; its
  last line is the JSON result (``"mode": "in-process"``).
- ``--tier1 FILE``: Tier-1 wall times, one ``parent SECONDS`` or ``change
  SECONDS`` line per run, in the order run; the k-th of each side pair up.

Per metric and side the file gives the median, the inclusive quartiles q1
and q3, spread = (q3 - q1) / median and the run count, then how many pairs
the change read lower (``pairs_won``) out of ``pairs``.  Traced metrics
other than seconds (calls, nodes, ratios) are given as each side's median
and whether every pair read equal.  Exit code 0: written; 1: a run answered
other than as recorded, or an input is missing; 2: a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

NOTE = (
    "Alternating parent/change pairs of `python3 bench/run.py --workload W --seed N "
    "--seconds 20 --trace 0`, the side that runs first alternating pair by pair; seeds "
    "per workload below. `traced` holds pairs of the same command with `--trace 1`, "
    "whose per-layer seconds are self times. `in_process` is one `tools/ab.py` run per "
    "workload: per op label, change/parent ratio of summed op times, batches won and "
    "single-op p50/p90. `tier1` is alternating Tier-1 wall times. q1 and q3 are "
    "inclusive quartiles; spread is (q3 - q1) / median. pairs_won counts pairs where "
    "the change read lower. Every run answered as recorded (correct: true, failed: 0)."
)


class InputError(Exception):
    """A missing input, or a run that did not answer as recorded."""


def seeds_of(text: str) -> list[int]:
    """``71-80,90`` -> [71, ..., 80, 90]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def compared(unit: str, parent: list[float], change: list[float]) -> dict:
    return {"unit": unit, "parent": stats(parent), "change": stats(change),
            "pairs_won": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(parent)}


def load_run(out_dir: Path, workload: str, seed: int, trace: int) -> dict:
    path = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        with open(path) as fh:
            run = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InputError(f"no run result {path}") from exc
    if not run["correct"] or run["failed"]:
        raise InputError(f"{path}: correct {run['correct']}, failed {run['failed']}")
    return run


def pairs_of(args, workload: str, seeds: list[int], trace: int) -> list[tuple[dict, dict]]:
    return [(load_run(args.parent_out, workload, s, trace),
             load_run(args.change_out, workload, s, trace)) for s in seeds]


def end_to_end(pairs) -> dict:
    metrics = pairs[0][0]["metrics"]
    return {name: compared(metrics[name]["unit"],
                           [p["metrics"][name]["value"] for p, _ in pairs],
                           [c["metrics"][name]["value"] for _, c in pairs])
            for name in metrics}


def traced(pairs, layers: list[str]) -> dict:
    rows = {}
    for name in layers:
        if name not in pairs[0][0]["metrics"]:
            raise InputError(f"no traced metric {name!r}")
        unit = pairs[0][0]["metrics"][name]["unit"]
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        if unit == "s":
            rows[name] = compared(unit, parent, change)
        else:
            rows[name] = {"unit": unit, "parent": statistics.median(parent),
                          "change": statistics.median(change),
                          "equal_in_every_pair": parent == change}
    return rows


def in_process(path: Path) -> dict:
    """The summary of one ``tools/ab.py`` run from its standard output."""
    try:
        result = json.loads(path.read_text().strip().splitlines()[-1])
    except (OSError, IndexError, ValueError) as exc:
        raise InputError(f"no ab.py result line in {path}") from exc
    if result.get("mode") != "in-process":
        raise InputError(f"{path}: not an in-process ab.py result")
    if not result["correct"]:
        raise InputError(f"{path}: {result['mismatches']} answers not as recorded")
    labels = {label: {key: row[key] for key in ("ops_per_batch", "ratio", "won", "p50_ms", "p90_ms")}
              for label, row in result["labels"].items()}
    return {"mode": "in-process", "seed": result["seed"], "batches": result["batches"],
            "labels": labels}


def tier1(path: Path) -> dict:
    times = {"parent": [], "change": []}
    for line in path.read_text().splitlines():
        if line.strip():
            side, _, seconds = line.partition(" ")
            try:
                times[side].append(float(seconds))
            except (KeyError, ValueError) as exc:
                raise InputError(f"{path}: not 'parent|change SECONDS': {line!r}") from exc
    if not times["parent"] or len(times["parent"]) != len(times["change"]):
        raise InputError(f"{path}: needs as many parent as change times, at least one")
    return compared("s", times["parent"], times["change"])


def build(args) -> dict:
    workloads: dict[str, dict] = {}
    for spec in args.runs:
        workload, _, seeds = spec.partition(":")
        pairs = pairs_of(args, workload, seeds_of(seeds), 0)
        workloads[workload] = {"seeds": seeds, "end_to_end": end_to_end(pairs)}
        sample = pairs[0][1]
    for spec in args.traced:
        workload, _, seeds = spec.partition(":")
        entry = workloads.setdefault(workload, {})
        entry["traced"] = {"seeds": seeds,
                           **traced(pairs_of(args, workload, seeds_of(seeds), 1), args.layer)}
    for spec in args.ab:
        workload, _, path = spec.partition("=")
        workloads.setdefault(workload, {})["in_process"] = in_process(Path(path))
    doc = {"parent": args.parent_commit, "nproc": sample["nproc"], "python": sample["python"],
           "machine": args.machine, "note": NOTE, "claim": args.claim,
           "workloads": workloads}
    if args.tier1:
        doc["tier1"] = tier1(args.tier1)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-out", type=Path, required=True,
                        help="the parent checkout's bench/out")
    parser.add_argument("--change-out", type=Path, required=True,
                        help="the changed checkout's bench/out")
    parser.add_argument("--runs", action="append", default=[], metavar="W:SEEDS",
                        help="untraced pairs of one workload, e.g. share:71-80")
    parser.add_argument("--traced", action="append", default=[], metavar="W:SEEDS")
    parser.add_argument("--layer", action="append", default=[],
                        help="a per-layer metric to report from the traced pairs")
    parser.add_argument("--ab", action="append", default=[], metavar="W=FILE")
    parser.add_argument("--tier1", type=Path)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--claim", default="")
    parser.add_argument("--machine", default="")
    parser.add_argument("-o", "--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if not args.runs:
        parser.error("give at least one --runs")
    if args.traced and not args.layer:
        parser.error("--traced needs at least one --layer")
    try:
        doc = build(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.output, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
