"""tempfair benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads: ``certify`` (every solver's
output checked at every prefix), ``share`` (maximin-share certification
and search) and ``search`` (envy-based existence search).  See NOTES.md.

``--trace 0`` times set-up several times in fresh interpreters, then runs
the op batch once in another fresh interpreter, and reports the end-to-end
metrics.  ``--trace 1`` runs the batch untraced and then traced, each in a
fresh interpreter, and reports the per-layer metrics and the tracing
overhead.  Every op's answer is checked against the recorded one.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with the machine's core count and Python version, is also
written to ``bench/out/``.  Exit code 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ANSWERS_DIR, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = BENCH_DIR / "out"
WORK_DIR = BENCH_DIR / "work"

SETUP_REPEATS = 5
# the whole run, set-up included, must end well inside three minutes
RUN_LIMIT_S = 170.0


class RunFailed(Exception):
    """A worker died, timed out or printed no result."""


def _worker(args, extra: list[str], workdir: Path, deadline: float) -> str:
    """Run one worker in a fresh interpreter; return its standard output."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("no time left for the next worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker ran past the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return proc.stdout


def _result(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("worker printed no result")
    return json.loads(lines[-1])


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _setup_seconds(args, workdir: Path, deadline: float) -> float:
    """From spawning a worker until it has written the run's inputs."""
    spawned = time.monotonic()  # one system-wide clock for both processes
    return _result(_worker(args, ["--setup-only"], workdir, deadline))["ready"] - spawned


def end_to_end(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    setups = [_setup_seconds(args, workdir / f"setup{k}", deadline)
              for k in range(SETUP_REPEATS)]
    run = _result(_worker(args, [], workdir / "run", deadline))
    lat = sorted(run["latencies_s"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": run["wall_s"],
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[-1],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "wall_s": f"{run['attempted']} ops",
        "op_p50_ms": f"n={len(lat)}",
        "op_p90_ms": f"n={len(lat)}, {len(lat) - int(0.9 * len(lat))} beyond",
    }
    return run, {"values": values, "notes": notes, "setups_s": setups}


def per_layer(args, workdir: Path, deadline: float) -> tuple[dict, dict]:
    plain = _result(_worker(args, [], workdir / "plain", deadline))
    traced = _result(_worker(args, ["--trace"], workdir / "traced", deadline))
    values = dict(traced.pop("layers"))
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    run = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "correct": plain["correct"] and traced["correct"],
        "errors": {k: plain["errors"].get(k, 0) + traced["errors"].get(k, 0)
                   for k in {*plain["errors"], *traced["errors"]}},
        "mismatches": plain["mismatches"] + traced["mismatches"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans": traced["spans"],
    }
    notes = {"trace.overhead_ratio": f"base: untraced wall_s {plain['wall_s']:.3f} s"}
    return run, {"values": values, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tempfair" / "__init__.py").is_file():
        print(f"error: no tempfair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ANSWERS_DIR / f"{args.workload}.json").is_file():
        print(f"error: no recorded answers for {args.workload}", file=sys.stderr)
        return 2
    declared = _declared()
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK_DIR / str(os.getpid())
    try:
        measure = per_layer if args.trace else end_to_end
        run, found = measure(args, workdir, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made

    values = found["values"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    error_rate = run["failed"] / run["attempted"]
    errors = ", ".join(f"{k} x{v}" for k, v in sorted(run["errors"].items())) or "none raised"
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(python {platform.python_version()}, nproc {os.cpu_count()})")
    for name, metric in metrics.items():
        note = found["notes"].get(name)
        print(f"  {name:44} {metric['value']:>14.6g} {metric['unit']:6}"
              + (f"  ({note})" if note else ""))
    print(f"  {'error_rate':44} {error_rate:>14.6g} {'':6}  "
          f"({run['failed']} of {run['attempted']} ops failed; {errors})")
    print(f"  {'answers':44} {'all as recorded' if run['correct'] else 'MISMATCH':>14}")
    for miss in run["mismatches"]:
        print(f"    mismatch: {json.dumps(miss)}")

    result = {
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "error_rate": error_rate, "errors": run["errors"],
                   "nproc": os.cpu_count(), "python": platform.python_version(),
                   "run": {k: v for k, v in run.items() if k != "latencies_s"},
                   "setups_s": found.get("setups_s")}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
