"""One benchmark run, in a fresh interpreter started by ``run.py``.

Set-up imports the package from the checkout's ``src``, draws the run's
cases, generates their instances and writes them as JSON.  The op loop
then calls ``tempfair.cli.main(argv)`` once per pipeline step, one op after
the other (a closed loop with one client), with ``-o`` files in the work
directory.  Answers are read back and compared with the recorded ones only
after the loop, so the timed region holds nothing but the ops.

The last line of standard output is one JSON object with the timings,
counts and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import sys
from pathlib import Path
from time import monotonic, perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(SRC))

import tempfair.cli  # noqa: E402
import tempfair.generators  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CERTIFY_SOLVERS,
    TWIN_SCALE,
    Case,
    case_shape,
    digest,
    draw_cases,
    instance_json,
    load_answers,
)

# an op still running after this long is stopped and counted as failed
OP_LIMIT_S = 60.0


class OpTimeout(Exception):
    """Raised into an op that ran past OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def generate_case(case: Case):
    """The case's instance, from the package's own seeded generator."""
    shape = case_shape(case.slot, case.index)
    return None if shape is None else tempfair.generators.generate(**shape)


def write_inputs(cases: list[Case], workdir: Path) -> list[tuple[Case, dict]]:
    """Generate and write every instance; return each case's file paths."""
    plan = []
    instance = None
    for k, case in enumerate(cases):
        files = {"instance": workdir / f"c{k}.json", "alloc": workdir / f"c{k}.alloc.json"}
        if not case.twin:  # a twin directly follows its original
            instance = generate_case(case)
        if instance is not None:
            scale = TWIN_SCALE if case.twin else 1
            with open(files["instance"], "w") as fh:
                json.dump(instance_json(instance, scale), fh)
        plan.append((case, files))
    return plan


def op_argv(op: list, files: dict, out: Path) -> list[str]:
    kind = op[0]
    inst, alloc = str(files["instance"]), str(files["alloc"])
    if kind == "classify":
        return ["classify", inst, "-o", str(out)]
    if kind == "solve":
        return ["solve", inst, "--alg", op[1], "-o", alloc]
    if kind == "check":
        return ["check", inst, alloc, "--concept", op[1], "-o", str(out)]
    if kind == "search":
        flags = ["--schedule"] if op[2] else []
        return ["search", inst, "--concept", op[1], *flags, "-o", str(out)]
    if kind == "verify-paper":
        return ["verify-paper", "-o", str(out)]
    raise ValueError(f"unknown op {op!r}")


def answer_of(op: list, rc, raised: str | None, path: Path) -> dict:
    """The part of an op's output that must match the recorded answer."""
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
        return {"exit": rc, "sha256": digest(doc)}
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


def issue_ops(plan, workdir: Path) -> tuple[list, float]:
    """Issue every op in order and time each; return them and the wall time.

    Each entry is (case, op, expected, exit code, raised type, output path,
    seconds).
    """
    cli = tempfair.cli  # look main up per call, so a tracer sees it
    sink = io.StringIO()
    done = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    started = perf_counter()
    try:
        for k, (case, files) in enumerate(plan):
            for j, (op, expected) in enumerate(zip(case.ops, case.expect)):
                out = workdir / f"c{k}.o{j}.json"
                argv = op_argv(op, files, out)
                rc = raised = None
                t0 = perf_counter()
                signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
                try:
                    with contextlib.redirect_stderr(sink):
                        rc = cli.main(argv)
                except Exception as exc:  # every failure is a counted result
                    raised = type(exc).__name__
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                seconds = perf_counter() - t0
                sink.seek(0)
                sink.truncate()
                out_path = files["alloc"] if op[0] == "solve" else out
                done.append((case, op, expected, rc, raised, out_path, seconds))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return done, perf_counter() - started


def score(done: list) -> dict:
    """Compare every op's answer with the recorded one and count failures.

    An op fails if it raised, ran past the limit or answered differently.
    Raising the recorded exception of a known defect is the recorded
    answer, so it keeps the run correct while it counts as failed.
    """
    errors: dict[str, int] = {}
    mismatches = []
    failed = 0
    for case, op, expected, rc, raised, out_path, seconds in done:
        actual = answer_of(op, rc, raised, out_path)
        if "raises" in expected and raised is None and rc == 0:
            matched = True  # the known defect no longer raises
        else:
            matched = actual == expected
        if raised is not None:
            errors[raised] = errors.get(raised, 0) + 1
        if raised is not None or not matched:
            failed += 1
        if not matched:
            mismatches.append({"case": case.label, "op": op, "expected": expected, "actual": actual})
    return {
        "latencies_s": [d[-1] for d in done],
        "attempted": len(done),
        "failed": failed,
        "errors": errors,
        "correct": not mismatches,
        "mismatches": mismatches[:10],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=False)
    tracer = Tracer() if args.trace else None
    try:
        cases = draw_cases(args.workload, args.seed, args.seconds, load_answers(args.workload))
        if tracer is not None:
            tracer.install()
        try:
            plan = write_inputs(cases, workdir)
            if args.setup_only:
                # set-up ends here; cleaning up after it is not part of it
                print(json.dumps({"ready": monotonic()}), flush=True)
                return 0
            done, wall = issue_ops(plan, workdir)
            result = {"wall_s": wall, **score(done)}
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(CERTIFY_SOLVERS)
        result["spans"] = len(tracer.span_name)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
