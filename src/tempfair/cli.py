"""Command line front end.

Every subcommand handler returns its result and an exit code, plus an
optional note for stderr; ``main`` alone writes that result as one JSON
document, tagged with ``FORMAT``, to the ``-o`` file or stdout, and prints
the note only after that write succeeds.  Documents carry no timings, so
each can be piped or pinned in golden files.  Exit code 0 means success
and a true verdict, 1 a false verdict (a failed check, a non-existent
allocation, a fixture mismatch, a solver dead end), 2 a usage or
validation problem, an unwritable ``-o`` file included.  ``main`` may be
called repeatedly in one process; the argument parser is built on the
first call and reused.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import SolverFailure, TempfairError, ValidationError
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


def _cmd_classify(args) -> tuple[dict, int]:
    instance = load_instance(args.instance)
    return {
        "agents": instance.n_agents,
        "rounds": instance.horizon,
        "goods": len(instance.arrival),
        "buffer": instance.buffer,
        "setting": classify(instance).flags(),
    }, 0


def _cmd_solve(args) -> tuple[dict, int]:
    instance = load_instance(args.instance)
    entry = SOLVERS.get(args.alg)
    if entry is None:
        known = ", ".join(sorted(SOLVERS))
        raise ValidationError(f"unknown algorithm {args.alg!r}; one of: {known}")
    trace: list | None = [] if args.trace else None
    payload = allocation_to_json(entry.run(instance, trace=trace))
    if trace is not None:
        payload["trace"] = trace
    return payload, 0


def _cmd_check(args) -> tuple[dict, int]:
    instance = load_instance(args.instance)
    allocation = load_allocation(args.allocation)
    concept = Concept.from_string(args.concept)
    verdict = check_temporal(instance, allocation, concept)
    return {"concept": str(concept), **verdict.to_json()}, 0 if verdict.holds else 1


def _cmd_search(args) -> tuple[dict, int]:
    instance = load_instance(args.instance)
    concept = Concept.from_string(args.concept)
    outcome = search(instance, concept, use_scheduling=args.schedule)
    payload = {"concept": str(concept), "scheduled": args.schedule, **outcome.to_json()}
    return payload, 0 if outcome.exists else 1


def _cmd_gen(args) -> tuple[dict, int]:
    instance = generate(
        args.agents, args.rounds, args.per_round, args.cap, args.seed,
        min_value=args.min_value, buffer=args.buffer, **SETTING_FLAGS[args.setting],
    )
    return instance_to_json(instance), 0


def _cmd_verify_paper(args) -> tuple:
    rows = verify_counterexamples()
    bad = [r.name for r in rows if not r.ok]
    payload = {"ok": not bad, "fixtures": [r.to_json() for r in rows]}
    if bad:
        return payload, 1, f"verification failed: {', '.join(bad)}"
    return payload, 0


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

    p = sub.add_parser("classify", help="report an instance's structure flags")
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("solve", help="run a registered algorithm")
    p.add_argument("instance")
    p.add_argument("--alg", required=True,
                   help="algorithm name; see the registry in the README")
    p.add_argument("--trace", action="store_true",
                   help="include per-step decisions in the output")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("check", help="check an allocation at every prefix")
    p.add_argument("instance")
    p.add_argument("allocation")
    p.add_argument("--concept", required=True,
                   help="tef1 | tefx | atefx:<alpha> | tmms (alpha exact, e.g. 1/2)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("search", help="exhaustively decide existence")
    p.add_argument("instance")
    p.add_argument("--concept", required=True)
    p.add_argument("--schedule", action="store_true",
                   help="also enumerate placements within the buffer window")
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
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser(
        "verify-paper",
        help="re-derive the bundled existence verdicts by exhaustive search",
    )
    p.set_defaults(handler=_cmd_verify_paper)

    for p in sub.choices.values():
        p.add_argument("-o", "--output", metavar="FILE",
                       help="write the JSON result here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code, *note = args.handler(args)
        text = json.dumps({"format": FORMAT, **payload}, indent=2)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)  # before the note, whatever the buffering
        for line in note:
            print(line, file=sys.stderr)
        return code
    except SolverFailure as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 1
    except (TempfairError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
