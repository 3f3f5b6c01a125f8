"""The half-TEFX router for {0, b} values: its routes pinned by digest, and
the memory a long route holds."""

import hashlib
import json
import random
import tracemalloc

import pytest

from tempfair import solvers
from tempfair.errors import SolverFailure
from tempfair.fairness import Concept, check_temporal
from tempfair.generators import generate
from tempfair.model import TemporalInstance, allocation_to_json

# SHA-256 of the JSON of [allocation, trace] (or the SolverFailure text) of
# every draw, in order; and the number of draws whose walk backtracked
DRAWS = 3000
DRAWS_DIGEST = "d5d01d6fccdce759f1ed2b2055b6c6ad3bbe6f877621b07d265d1d5722ef7e5e"
BACKTRACKED = 74

# the same digest of each 1000-good route, generate(4, 200, 5, 9, seed=s)
LONG_DIGESTS = {
    1: "5d4223b20e26cf3aa80de79bc03020eefbdff7958301bf5be8e7d429e5f68112",
    2: "b64b27ae6b49a42ceb301fb323e01bb368adb0d296ae9b24df3391e1169459eb",
    3: "be1340db6f4b599de63635e7f37757ac6f82c5323f175eff69d0f6163a14550d",
}


def draw(seed):
    """2-5 agents, 1-7 rounds of 1-5 goods, each value b or 0, with a
    per-draw chance of b."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    b = rng.choice([1, 2, 9])
    p = rng.random()
    return TemporalInstance.from_value_rounds(
        [[[b if rng.random() < p else 0 for _ in range(n)] for _ in range(rng.randint(1, 5))]
         for _ in range(rng.randint(1, 7))])


def route_json(instance):
    trace = []
    try:
        alloc = solvers.solve_half_tefx_genbinary(instance, trace=trace)
    except SolverFailure as exc:
        return json.dumps(str(exc)), None
    return json.dumps([allocation_to_json(alloc), trace]), alloc


def test_routes_match_their_digest(monkeypatch):
    walked = []
    first_plan = solvers._first_plan

    def counting(depth, moves, start):
        calls = []

        def counted(p, state):
            calls.append(p)
            return moves(p, state)
        plan = first_plan(depth, counted, start)
        # a walk that never backtracks enters each stage once
        walked.append(len(calls) > depth)
        return plan

    monkeypatch.setattr(solvers, "_first_plan", counting)
    digest = hashlib.sha256()
    for seed in range(DRAWS):
        digest.update(route_json(draw(seed))[0].encode())
    assert sum(walked) == BACKTRACKED >= 50
    assert digest.hexdigest() == DRAWS_DIGEST


@pytest.mark.parametrize("seed", sorted(LONG_DIGESTS))
def test_long_routes_match_their_digest(seed):
    instance = generate(4, 200, 5, 9, seed=seed, generalized_binary=True)
    text, alloc = route_json(instance)
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_DIGESTS[seed]
    assert check_temporal(instance, alloc, Concept.from_string("atefx:1/2")).holds


def test_long_route_memory():
    # a stage holds its try order and the state it was entered with, so
    # 1000 stages of 4 agents stay within 1.2 MB of traced memory
    instance = generate(4, 200, 5, 9, seed=2, generalized_binary=True)
    solvers.solve_half_tefx_genbinary(instance)  # fills the instance's caches
    tracemalloc.start()
    try:
        solvers.solve_half_tefx_genbinary(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_200_000, peak
