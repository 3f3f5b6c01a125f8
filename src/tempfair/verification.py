"""Machine checks of the bundled existence and impossibility examples.

Each fixture is a small hand-constructed instance together with the
existence verdict claimed for it (does any allocation satisfy the concept
at every prefix, with or without the placement buffer).  The suite settles
every claim by exhaustive search and reports expected against actual, so a
wrong claim shows up as a mismatched row rather than being silently
trusted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .fairness import Concept
from .model import TemporalInstance
from .search import search


@dataclass(frozen=True)
class FixtureReport:
    """One verified claim: the fixture's verdict versus the search's."""

    name: str
    concept: str
    scheduled: bool
    expected_exists: bool
    actual_exists: bool
    nodes_visited: int
    seconds: float  # wall time; left out of to_json so documents repeat

    @property
    def ok(self) -> bool:
        return self.expected_exists == self.actual_exists

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "concept": self.concept,
            "scheduled": self.scheduled,
            "expected_exists": self.expected_exists,
            "actual_exists": self.actual_exists,
            "ok": self.ok,
            "nodes_visited": self.nodes_visited,
        }


def _identical_pair_rounds(day_values, horizon):
    day = [(v, v) for v in day_values]
    return [list(day) for _ in range(horizon)]


def _binary_three_agents() -> TemporalInstance:
    """Two agents share every positive good; the third misses some.

    Thirteen goods over twelve rounds: a pair up front, then singletons.
    Goods fall into three kinds: valued by everyone, valued by the first
    two agents only, and valued by nobody.
    """
    everyone = (1, 1, 1)
    first_two = (1, 1, 0)
    nobody = (0, 0, 0)
    kind = {
        1: first_two, 2: first_two, 11: first_two,
        5: nobody, 6: nobody,
        3: everyone, 4: everyone, 7: everyone, 8: everyone,
        9: everyone, 10: everyone, 12: everyone, 13: everyone,
    }
    rounds = [[kind[1], kind[2]]] + [[kind[k]] for k in range(3, 14)]
    return TemporalInstance.from_value_rounds(rounds)


def _pair_then_large(horizon: int) -> TemporalInstance:
    """Two unit goods at round 1, one double good at the last round.

    Middle rounds are empty, and the buffer stops one round short of the
    horizon, so the pair is always handed out before the large good.
    """
    rounds = [[(1, 1), (1, 1)]]
    rounds += [[] for _ in range(horizon - 2)]
    rounds += [[(2, 2)]]
    return TemporalInstance.from_value_rounds(rounds, buffer=max(horizon - 1, 1))


def _trap_stream() -> TemporalInstance:
    vals = [1, 1, 100, 10]
    rounds = [[(v, v)] for v in vals]
    return TemporalInstance.from_value_rounds(rounds, buffer=2)


def _run(name, instance, concept, scheduled, expected) -> FixtureReport:
    started = time.perf_counter()
    outcome = search(instance, concept, use_scheduling=scheduled)
    return FixtureReport(
        name=name,
        concept=str(concept),
        scheduled=scheduled,
        expected_exists=expected,
        actual_exists=outcome.exists,
        nodes_visited=outcome.nodes_visited,
        seconds=time.perf_counter() - started,
    )


def verify_counterexamples() -> tuple[FixtureReport, ...]:
    """Run every bundled fixture and report expected versus found."""
    tefx = Concept("tefx")
    tmms = Concept("tmms")
    half = Concept("atefx", Fraction(1, 2))
    rows = [
        _run(
            "tefx-identical-days-three-rounds",
            TemporalInstance.from_value_rounds(
                _identical_pair_rounds((0, 1, 3), 3)
            ),
            tefx, False, expected=False,
        ),
        _run(
            "tefx-binary-three-agents",
            _binary_three_agents(),
            tefx, False, expected=False,
        ),
        _run(
            "tmms-identical-days-three-rounds",
            TemporalInstance.from_value_rounds(
                _identical_pair_rounds((1, 3, 10), 3)
            ),
            tmms, False, expected=False,
        ),
        _run(
            "tefx-buffered-pair-then-large-t2",
            _pair_then_large(2), tefx, True, expected=False,
        ),
        _run(
            "tefx-buffered-pair-then-large-t3",
            _pair_then_large(3), tefx, True, expected=False,
        ),
        _run(
            "tmms-buffered-pair-then-large-t2",
            _pair_then_large(2), tmms, True, expected=False,
        ),
        _run(
            "tmms-buffered-pair-then-large-t3",
            _pair_then_large(3), tmms, True, expected=False,
        ),
        _run(
            "half-tefx-unit-pair-then-triple",
            TemporalInstance.from_value_rounds(
                [[(1, 1), (1, 1)], [(3, 3)]]
            ),
            half, False, expected=False,
        ),
        _run(
            "tefx-trap-stream-plain",
            _trap_stream(), tefx, False, expected=False,
        ),
        _run(
            "tefx-trap-stream-buffered",
            _trap_stream(), tefx, True, expected=True,
        ),
    ]
    return tuple(rows)
