"""Round robin, envy-cycle elimination and rr-bivalued against the naive
oracles, which scan the whole pool for each pick and re-sum every bundle
for each envy graph, on seeded draws larger than the golden's."""

import random
import zlib

import pytest

from tempfair.generators import generate
from tempfair.single_round import envy_cycle_elimination, round_robin
from tempfair.solvers import SOLVERS

from oracles import (
    naive_envy_cycle_elimination,
    naive_global_round_robin,
    naive_round_robin,
    values_of,
)

DRAWS = 200


def draw(routine, k, sizes=(20, 60)):
    """1-6 agents in sorted, reversed or shuffled order, goods with ids of
    mixed length (every fourth draw repeats one id), values up to 1, 2, 5
    or 20."""
    rng = random.Random(zlib.crc32(f"{routine}/{k}".encode()))
    agents = list(range(1, rng.randint(1, 6) + 1))
    if k % 3 == 1:
        agents.reverse()
    elif k % 3 == 2:
        rng.shuffle(agents)
    goods = [f"g{x}" for x in rng.sample(range(1, 200), rng.randint(*sizes))]
    if k % 4 == 0 and goods:
        goods.append(rng.choice(goods))
        rng.shuffle(goods)
    cap = rng.choice([1, 2, 5, 20])
    values = {i: {g: rng.randint(0, cap) for g in goods} for i in agents}
    return goods, values, agents


def test_round_robin_matches_oracle():
    for k in range(DRAWS):
        goods, values, order = draw("round_robin", k)
        trace = []
        got = round_robin(goods, values, order, trace=trace)
        bundles, expected = naive_round_robin(goods, values, order)
        assert (list(got.items()), trace) == (list(bundles.items()), expected), k


@pytest.mark.parametrize("sizes, draws, min_rotations", [((20, 60), DRAWS, 0), ((0, 12), 2000, 1)])
def test_envy_cycle_elimination_matches_oracle(sizes, draws, min_rotations):
    # with 20 goods or more the envy graph never had a cycle in these
    # draws, so small pools (a few percent rotate) cover the rotations
    rotations = 0
    for k in range(draws):
        goods, values, agents = draw(f"envy_cycle_elimination/{sizes}", k, sizes)
        trace = []
        got = envy_cycle_elimination(goods, values, agents, trace=trace)
        bundles, expected, rotated = naive_envy_cycle_elimination(goods, values, agents)
        assert (list(got.items()), trace) == (list(bundles.items()), expected), k
        rotations += rotated
    assert rotations >= min_rotations


def test_repeated_id_is_handed_out_once():
    values = {1: {"a": 1, "b": 2}, 2: {"a": 2, "b": 1}}
    goods = ["a", "b", "a", "a"]
    for routine in (round_robin, envy_cycle_elimination):
        got = routine(goods, values, [1, 2])
        assert sorted(g for b in got.values() for g in b) == ["a", "b"]


def test_rr_bivalued_matches_oracle():
    # rounds whose size is no multiple of the agent count, so the turn
    # carries from one round into the next
    for k in range(DRAWS):
        rng = random.Random(zlib.crc32(f"rr-bivalued/{k}".encode()))
        n = rng.randint(2, 5)
        per_round = rng.choice([p for p in range(2, 8) if p % n])
        inst = generate(n, rng.randint(2, 8), per_round, rng.choice([2, 5, 20]),
                        seed=k, bi_valued=True)
        trace = []
        alloc = SOLVERS["rr-bivalued"].run(inst, trace=trace)
        owner, expected = naive_global_round_robin(inst.rounds, values_of(inst), n)
        assert alloc.placement == {g.id: g.arrival for g in inst.goods}, k
        assert (alloc.owner, trace) == (owner, expected), k
