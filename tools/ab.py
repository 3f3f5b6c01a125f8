"""Time two source trees against each other in one interpreter.

    python3 tools/ab.py PARENT_SRC CHANGE_SRC --workload search --seed 1 --batches 10

Run from anywhere; PARENT_SRC and CHANGE_SRC are ``src`` directories that
each hold a ``tempfair`` package (a second checkout's ``src``, or this
one's for an A/A run).  Each tree is imported as a package of its own, so
both live in one process and meet the same machine state.  The cases are
one batch of the benchmark workload at the seed (``bench/workloads.py``'s
``draw_cases``), with the answers recorded in ``bench/answers/``; nothing
else of the benchmark is used.  The parent tree generates the instances,
once, into a temporary directory.

A batch runs every op of the case list through each side's ``cli.main``
with ``-o`` files named by batch, the two sides one after the other on each
op.  The side that goes first alternates op by op, and the side that starts
a batch alternates from batch to batch (Kalibera and Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013).  Each batch starts with both
sides' share memo cleared.  After each batch, outside the timed region,
every answer of both sides is compared with the recorded one.

The report gives, per op label (the op and its concept or solver), each
side's summed op time over all batches, the change/parent ratio, the p50
and p90 of single op times, and how many batches each side won (had the
smaller sum for that label).  The last line of standard output is one JSON
object with the same numbers.  Exit code 0: every answer as recorded; 1: a
mismatch; 2: a usage error.  Interpreter start, set-up and memory are not
measured here; those need separate-process runs of ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import the file at ``path`` as module ``name``; with ``package_dir``,
    as a package whose submodules are found there."""
    spec = importlib.util.spec_from_file_location(
        name, path,
        submodule_search_locations=None if package_dir is None else [str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses and relative imports look it up
    spec.loader.exec_module(module)
    return module


@dataclass
class Side:
    """One tree: its package, its output directory and its timings."""

    name: str
    src: Path
    workdir: Path
    cli: object = None
    fairness: object = None
    generators: object = None
    # label -> per batch, that batch's op times in seconds
    times: dict = field(default_factory=dict)

    def load(self) -> None:
        package = f"tempfair_{self.name}"
        pkg_dir = self.src / "tempfair"
        load_module(package, pkg_dir / "__init__.py", pkg_dir)
        self.cli = importlib.import_module(f"{package}.cli")
        self.fairness = importlib.import_module(f"{package}.fairness")
        self.generators = importlib.import_module(f"{package}.generators")
        self.workdir.mkdir()

    def clear_memo(self) -> None:
        cached = getattr(self.fairness, "_mms_share_search", None)
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


def label_of(op: list) -> str:
    """``search tefx``, ``check tmms``, ``solve ALG``, ``classify`` ..."""
    return " ".join(map(str, op[:2]))


def op_argv(op: list, instance: Path, alloc: Path, out: Path) -> list[str]:
    kind = op[0]
    if kind == "classify":
        return ["classify", str(instance), "-o", str(out)]
    if kind == "solve":
        return ["solve", str(instance), "--alg", op[1], "-o", str(alloc)]
    if kind == "check":
        return ["check", str(instance), str(alloc), "--concept", op[1], "-o", str(out)]
    if kind == "search":
        return ["search", str(instance), "--concept", op[1],
                *(["--schedule"] if op[2] else []), "-o", str(out)]
    if kind == "verify-paper":
        return ["verify-paper", "-o", str(out)]
    raise ValueError(f"unknown op {op!r}")


def answer_of(workloads, op: list, rc, raised: str | None, path: Path) -> dict:
    """The part of an op's output that the recorded answer pins."""
    if raised is not None:
        return {"raises": raised}
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {"exit": rc}
    doc.pop("format", None)
    kind = op[0]
    if kind == "solve":
        return {"exit": rc, "sha256": workloads.digest(doc)}
    if kind == "check":
        doc.pop("concept", None)
        return {"exit": rc, "verdict": doc}
    if kind == "search":
        return {"exit": rc, "exists": doc["exists"], "witness": doc["witness"]}
    if kind == "verify-paper":
        for row in doc["fixtures"]:
            row.pop("seconds", None)
        return {"exit": rc, **doc}
    return {"exit": rc, "output": doc}


def write_inputs(workloads, generate, cases, inputs: Path) -> list[Path]:
    """Generate every case's instance once; a twin follows its original."""
    paths, instance = [], None
    for k, case in enumerate(cases):
        if not case.twin:
            shape = workloads.case_shape(case.slot, case.index)
            instance = None if shape is None else generate(**shape)
        path = inputs / f"c{k}.json"
        if instance is not None:
            scale = workloads.TWIN_SCALE if case.twin else 1
            with open(path, "w") as fh:
                json.dump(workloads.instance_json(instance, scale), fh)
        paths.append(path)
    return paths


def run_batch(workloads, cases, paths, sides: list[Side], batch: int) -> list:
    """Time every op on both sides and return the mismatches.  The side
    that runs an op first alternates op by op, starting with ``sides[0]``."""
    for side in sides:
        side.clear_memo()
        for times in side.times.values():
            times.append([])
    gc.collect()
    sink = io.StringIO()
    outputs, turn = [], 0
    for k, (case, path) in enumerate(zip(cases, paths)):
        for j, op in enumerate(case.ops):
            order = sides if turn % 2 == 0 else sides[::-1]
            turn += 1
            for side in order:
                # new names each batch: rewriting a file just written can
                # stall the op on a flush of the old contents
                out = side.workdir / f"b{batch}.c{k}.o{j}.json"
                alloc = side.workdir / f"b{batch}.c{k}.alloc.json"
                rc = raised = None
                t0 = perf_counter()
                try:
                    with contextlib.redirect_stderr(sink):
                        rc = side.cli.main(op_argv(op, path, alloc, out))
                except Exception as exc:  # a raised op is a result, checked below
                    raised = type(exc).__name__
                seconds = perf_counter() - t0
                sink.seek(0)
                sink.truncate()
                label = label_of(op)
                side.times.setdefault(label, [[] for _ in range(batch + 1)])[batch].append(seconds)
                outputs.append((side, case, op, case.expect[j], rc, raised,
                                alloc if op[0] == "solve" else out))
    mismatches = []
    for side, case, op, expected, rc, raised, out in outputs:
        actual = answer_of(workloads, op, rc, raised, out)
        if "raises" in expected and raised is None and rc == 0:
            continue  # a known defect that no longer raises
        if actual != expected:
            mismatches.append({"side": side.name, "batch": batch, "case": case.label,
                               "op": op, "expected": expected, "actual": actual})
    return mismatches


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (5 is the median) of one or more values."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q - 1]


def summary(parent: Side, change: Side) -> dict:
    """Per label, and for all ops together, the numbers the report shows."""
    labels = sorted(parent.times, key=lambda lab: -sum(map(sum, parent.times[lab])))
    n_batches = len(parent.times[labels[0]])
    rows = {}
    for label in [*labels, "all ops"]:
        chosen = labels if label == "all ops" else [label]
        row = {"ops_per_batch": sum(len(parent.times[lab][0]) for lab in chosen)}
        for key in ("sum_s", "batch_sums_s", "p50_ms", "p90_ms", "won"):
            row[key] = {}
        for side in (parent, change):
            sums = [sum(sum(side.times[lab][b]) for lab in chosen) for b in range(n_batches)]
            ops = [t for lab in chosen for batch in side.times[lab] for t in batch]
            row["batch_sums_s"][side.name] = sums
            row["sum_s"][side.name] = sum(sums)
            row["p50_ms"][side.name] = 1000 * quantile(ops, 5)
            row["p90_ms"][side.name] = 1000 * quantile(ops, 9)
        pairs = list(zip(row["batch_sums_s"][parent.name], row["batch_sums_s"][change.name]))
        row["won"] = {parent.name: sum(p < c for p, c in pairs),
                      change.name: sum(c < p for p, c in pairs)}
        row["ratio"] = row["sum_s"][change.name] / row["sum_s"][parent.name]
        rows[label] = row
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path, help="src directory of the parent tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batches", type=int, default=10)
    args = parser.parse_args(argv)

    for src in (args.parent_src, args.change_src):
        if not (src / "tempfair" / "__init__.py").is_file():
            print(f"error: no tempfair package under {src}", file=sys.stderr)
            return 2
    if args.batches < 1:
        print("error: --batches must be at least 1", file=sys.stderr)
        return 2
    workloads = load_module("ab_bench_workloads", ROOT / "bench" / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    answers = workloads.load_answers(args.workload)
    cases = workloads.draw_cases(args.workload, args.seed, workloads.BATCH_SECONDS, answers)

    with tempfile.TemporaryDirectory(prefix="tempfair-ab-") as tmp:
        parent = Side("parent", args.parent_src.resolve(), Path(tmp) / "parent")
        change = Side("change", args.change_src.resolve(), Path(tmp) / "change")
        parent.load()
        change.load()
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        paths = write_inputs(workloads, parent.generators.generate, cases, inputs)
        mismatches = []
        for batch in range(args.batches):
            first = [parent, change] if batch % 2 == 0 else [change, parent]
            mismatches += run_batch(workloads, cases, paths, first, batch)

    rows = summary(parent, change)
    print(f"{args.workload}  seed {args.seed}  {args.batches} batches  "
          f"parent {parent.src}  change {change.src}")
    print(f"  {'label':40} {'ops':>5} {'parent s':>9} {'change s':>9} {'ratio':>6} "
          f"{'p50 ms':>15} {'p90 ms':>15} {'won':>7}")
    for label, row in rows.items():
        p, c = parent.name, change.name
        print(f"  {label:40} {row['ops_per_batch']:>5} {row['sum_s'][p]:>9.4f} "
              f"{row['sum_s'][c]:>9.4f} {row['ratio']:>6.3f} "
              f"{row['p50_ms'][p]:>7.3f}/{row['p50_ms'][c]:<7.3f} "
              f"{row['p90_ms'][p]:>7.3f}/{row['p90_ms'][c]:<7.3f} "
              f"{row['won'][p]:>3}/{row['won'][c]:<3}")
    print(f"  answers: {'all as recorded' if not mismatches else f'{len(mismatches)} MISMATCHES'}")
    for miss in mismatches[:10]:
        print(f"    mismatch: {json.dumps(miss)}")
    print(json.dumps({
        "mode": "in-process", "workload": args.workload, "seed": args.seed,
        "batches": args.batches, "parent": str(parent.src), "change": str(change.src),
        "correct": not mismatches, "mismatches": len(mismatches), "labels": rows,
    }))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
