"""Command line front end.

Every subcommand prints a single JSON document on stdout so output can be
piped or pinned in golden files.  Exit code 0 means success and a true
verdict, 1 a false verdict (a failed check, a non-existent allocation, a
fixture mismatch, a solver dead end), 2 a usage or validation problem.
``main`` may be called repeatedly in one process; the argument parser is
built on the first call and reused.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import SolverFailure, TempfairError
from .fairness import Concept, check_temporal
from .generators import generate
from .model import (
    allocation_to_json,
    classify,
    instance_to_json,
    load_allocation,
    load_instance,
)
from .search import search
from .solvers import SOLVERS
from .verification import verify_counterexamples

FORMAT = "tempfair.v1"

SETTING_FLAGS = {
    "general": {},
    "identical-days": {"identical_days": True},
    "generalized-binary": {"generalized_binary": True},
    "bi-valued": {"bi_valued": True},
    "identical-valuation": {"identical_valuation": True},
    "house": {"house_allocation": True},
}


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_classify(args) -> int:
    instance = load_instance(args.instance)
    setting = classify(instance)
    _emit(
        {
            "format": FORMAT,
            "agents": instance.n_agents,
            "rounds": instance.horizon,
            "goods": len(instance.goods),
            "buffer": instance.buffer,
            "setting": setting.flags(),
        },
        args.output,
    )
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    entry = SOLVERS.get(args.alg)
    if entry is None:
        known = ", ".join(sorted(SOLVERS))
        print(f"error: unknown algorithm {args.alg!r}; one of: {known}",
              file=sys.stderr)
        return 2
    trace: list | None = [] if args.trace else None
    allocation = entry.run(instance, trace=trace)
    payload = {"format": FORMAT, **allocation_to_json(allocation)}
    if trace is not None:
        payload["trace"] = trace
    _emit(payload, args.output)
    return 0


def _cmd_check(args) -> int:
    instance = load_instance(args.instance)
    allocation = load_allocation(args.allocation)
    concept = Concept.from_string(args.concept)
    verdict = check_temporal(instance, allocation, concept)
    _emit(
        {"format": FORMAT, "concept": str(concept), **verdict.to_json()},
        args.output,
    )
    return 0 if verdict.holds else 1


def _cmd_search(args) -> int:
    instance = load_instance(args.instance)
    concept = Concept.from_string(args.concept)
    outcome = search(instance, concept, use_scheduling=args.schedule)
    _emit(
        {
            "format": FORMAT,
            "concept": str(concept),
            "scheduled": args.schedule,
            **outcome.to_json(),
        },
        args.output,
    )
    return 0 if outcome.exists else 1


def _cmd_gen(args) -> int:
    flags = SETTING_FLAGS[args.setting]
    instance = generate(
        args.agents,
        args.rounds,
        args.per_round,
        args.cap,
        args.seed,
        min_value=args.min_value,
        buffer=args.buffer,
        **flags,
    )
    _emit({"format": FORMAT, **instance_to_json(instance)}, args.output)
    return 0


def _cmd_verify_paper(args) -> int:
    rows = verify_counterexamples()
    payload = {
        "format": FORMAT,
        "ok": all(r.ok for r in rows),
        "fixtures": [r.to_json() for r in rows],
    }
    _emit(payload, args.output)
    if payload["ok"]:
        return 0
    mismatched = ", ".join(r.name for r in rows if not r.ok)
    print(f"verification failed: {mismatched}", file=sys.stderr)
    return 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared afterwards.

    Parsing leaves no state behind in it, so ``main`` may be called any
    number of times in one process; callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="tempfair",
        description="Round-by-round fair division: solve, check, search, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write the JSON result here instead of stdout")

    p = sub.add_parser("classify", help="report an instance's structure flags")
    p.add_argument("instance", help="instance JSON file")
    add_output(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("solve", help="run a registered algorithm")
    p.add_argument("instance")
    p.add_argument("--alg", required=True,
                   help="algorithm name; see the registry in the README")
    p.add_argument("--trace", action="store_true",
                   help="include per-step decisions in the output")
    add_output(p)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("check", help="check an allocation at every prefix")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--concept", required=True,
                   help="tef1 | tefx | atefx:<alpha> | tmms (alpha exact, e.g. 1/2)")
    add_output(p)
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("search", help="exhaustively decide existence")
    p.add_argument("instance")
    p.add_argument("--concept", required=True)
    p.add_argument("--schedule", action="store_true",
                   help="also enumerate placements within the buffer window")
    add_output(p)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--setting", choices=sorted(SETTING_FLAGS), default="general")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--per-round", type=int, default=1,
                   help="goods per round (ignored for house)")
    p.add_argument("--cap", type=int, required=True, help="largest drawn value")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--min-value", type=int, default=0,
                   help="smallest drawn value (1 forces positive)")
    p.add_argument("--buffer", type=int, default=1,
                   help="placement window width for scheduling")
    add_output(p)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser(
        "verify-paper",
        help="re-derive the bundled existence verdicts by exhaustive search",
    )
    add_output(p)
    p.set_defaults(handler=_cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SolverFailure as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    except (TempfairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
