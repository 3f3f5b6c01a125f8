"""Empty bundles and zero values against the naive oracles.

An empty bundle can be envied by no one, and a good worth nothing to the
envious agent is still a removal under the up-to-any-good notions but
never binds under up-to-one-good.  Each case compares ``check_temporal``
prefix by prefix, and ``search`` existence, with ``naive_ef1``,
``naive_efx`` and ``naive_alpha_efx``: all-zero tables, zero-valued goods
in an envied bundle, one agent, the two-agent split test with one pile
still empty, per-agent alphas, and rational twins, where only the
shortfall scales.  An instance with no goods at all has empty value
columns; it classifies, checks and searches like any other.  With many
agents and two goods almost every bundle is empty, and the envy check's
memory stays near its n * n worth state.
"""

import itertools
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

from tempfair import (
    Concept, TemporalAllocation, TemporalInstance, check_temporal, classify, instance_from_json, search,
)
from tempfair.solvers import _split_ok

from oracles import naive_alpha_efx, naive_ef1, naive_efx, naive_mms_share, values_of

CONCEPTS = ["tef1", "tefx", "atefx:1/2", "atefx:1/2,1,2/3"]


def naive_holds(values, bundles, concept):
    kind, _, alpha = concept.partition(":")
    if kind == "tef1":
        return naive_ef1(values, bundles)
    if kind == "tefx":
        return naive_efx(values, bundles)
    alphas = [F(a) for a in alpha.split(",")]
    alphas = alphas * len(bundles) if len(alphas) == 1 else alphas
    return naive_alpha_efx(values, bundles, alphas)


def naive_first_failure(instance, owner, placement, concept):
    """The first round whose prefix breaks the concept, or None."""
    values = values_of(instance)
    for t in range(1, instance.horizon + 1):
        bundles = {i: [g for g in owner if owner[g] == i and placement[g] <= t]
                   for i in instance.agents}
        if not naive_holds(values, bundles, concept):
            return t
    return None


def allocations(instance, scheduled):
    """Every allocation, at arrival or anywhere in the buffer."""
    goods = instance.goods
    windows = [range(g.arrival, min(g.arrival + instance.buffer - 1, instance.horizon) + 1)
               if scheduled else [g.arrival] for g in goods]
    for owners in itertools.product(instance.agents, repeat=len(goods)):
        for rounds in itertools.product(*windows):
            yield ({g.id: i for g, i in zip(goods, owners)},
                   {g.id: t for g, t in zip(goods, rounds)})


def assert_matches_oracles(instance, concepts=CONCEPTS, scheduled=False):
    """``check_temporal`` fails at the oracle's first failing round on every
    allocation, and ``search`` finds one exactly when the oracle does."""
    outcomes = {}
    for concept in concepts:
        if concept.count(",") + 1 not in (1, instance.n_agents):
            continue
        c = Concept.from_string(concept)
        exists = False
        for owner, placement in allocations(instance, scheduled):
            failed = naive_first_failure(instance, owner, placement, concept)
            verdict = check_temporal(instance, TemporalAllocation(placement, owner), c)
            assert verdict.round == failed and verdict.holds == (failed is None), \
                (concept, owner, placement)
            outcomes.setdefault(concept, set()).add(failed is None)
            exists = exists or failed is None
        assert search(instance, c, scheduled).exists == exists, concept
    return outcomes


def test_all_zero_tables():
    for n, shape in itertools.product((1, 2, 3), ([2], [1, 2], [1, 1, 1])):
        inst = TemporalInstance.from_value_rounds([[(0,) * n] * k for k in shape], buffer=2)
        for scheduled in (False, True):
            outcomes = assert_matches_oracles(inst, scheduled=scheduled)
            assert all(seen == {True} for seen in outcomes.values())


def test_no_goods():
    # one empty round: the column map is empty and every fold reads nothing
    inst = instance_from_json({"agents": 2, "rounds": [[]], "values": {}})
    assert classify(inst).flags() == {
        "identical_days": True, "generalized_binary": True, "bi_valued": False,
        "identical_valuation": True, "house_allocation": False,
    }
    for text in ("tef1", "tefx", "atefx:1/2", "tmms"):
        concept = Concept.from_string(text)
        assert check_temporal(inst, TemporalAllocation({}, {}), concept).holds
        outcome = search(inst, concept)
        assert (outcome.exists, outcome.nodes_visited, outcome.space_bound) == (True, 0, 1)
    # with no good neither the loader nor a directly built instance cuts
    # rows, so nothing is sized by the agent count: a list of 10**6
    # references would take 8 MB; nor is the arrival check sized by the
    # horizon
    for build in (lambda: instance_from_json({"agents": 10**6, "rounds": [[]], "values": {}}),
                  lambda: TemporalInstance(10**6, 1, ()),
                  lambda: TemporalInstance(1, 10**12, ())):
        tracemalloc.start()
        try:
            many = build()
            columns = many.columns
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (many.scale, columns, peak < 100_000) == (1, {}, True)


def test_zero_valued_goods_in_envied_bundle():
    # agent 2 sees (1, 0) in agent 1's two goods: up to one good, dropping
    # the 1 settles the envy; up to any good, the 0 is a removal that does not
    held = TemporalAllocation({"g1": 1, "g2": 1}, {"g1": 1, "g2": 1})
    inst = TemporalInstance.from_value_rounds([[(1, 1), (0, 0)]])
    assert check_temporal(inst, held, Concept("tef1")).holds
    verdict = check_temporal(inst, held, Concept("tefx"))
    assert (verdict.envious, verdict.envied, verdict.removed_good, verdict.shortfall) \
        == (2, 1, "g2", 1)
    rng = random.Random(7)
    differ = 0
    for _ in range(30):
        n = rng.randint(2, 3)
        rounds = [[tuple(rng.choice((0, 0, 1, 3)) for _ in range(n))
                   for _ in range(rng.randint(1, 2))] for _ in range(rng.randint(1, 2))]
        inst = TemporalInstance.from_value_rounds(rounds, buffer=2)
        outcomes = assert_matches_oracles(inst, scheduled=rng.random() < 0.5)
        differ += outcomes["tef1"] != outcomes["tefx"]
    assert differ


def test_one_agent():
    for rounds in ([[(0,)]], [[(3,), (0,)], [(5,)]], [[(F(1, 2),)], [(0,)], [(2,)]]):
        inst = TemporalInstance.from_value_rounds(rounds, buffer=2)
        for scheduled in (False, True):
            outcomes = assert_matches_oracles(inst, scheduled=scheduled)
            assert all(seen == {True} for seen in outcomes.values())
            for concept in ("tef1", "tefx", "atefx:1/2"):
                out = search(inst, Concept.from_string(concept), scheduled)
                assert out.nodes_visited == len(inst.goods)


def test_split_ok_with_one_pile_empty():
    # two agents' piles, one of them empty more often than not: the split
    # passes exactly when neither envies the other past any good and both
    # piles meet their maximin share of the pool
    rng = random.Random(11)
    verdicts = set()
    for _ in range(400):
        goods = [f"g{k}" for k in range(rng.randint(0, 5))]
        values = {i: {g: rng.choice((0, 1, 2, 5)) for g in goods} for i in (1, 2)}
        cut = rng.choice((0, len(goods), rng.randint(0, len(goods))))
        bundles = {1: goods[:cut], 2: goods[cut:]}
        totals = tuple(sum(values[i].values()) for i in (1, 2))
        shares = tuple(naive_mms_share(list(values[i].values()), 2) for i in (1, 2))
        a1 = [sum(values[i][g] for g in bundles[1]) for i in (1, 2)]
        min2_in_a1 = min((values[2][g] for g in bundles[1]), default=None)
        min1_in_a2 = min((values[1][g] for g in bundles[2]), default=None)
        expected = (naive_efx(values, bundles)
                    and a1[0] >= shares[0] and totals[1] - a1[1] >= shares[1])
        assert _split_ok(totals, shares, *a1, min2_in_a1, min1_in_a2) == expected, bundles
        verdicts.add((expected, cut in (0, len(goods))))
    assert verdicts == {(True, True), (False, True), (True, False), (False, False)}


def test_per_agent_alphas():
    rng = random.Random(13)
    seen = set()
    for _ in range(12):
        rounds = [[tuple(rng.choice((0, 1, 2, 4)) for _ in range(3))
                   for _ in range(rng.randint(1, 2))] for _ in range(2)]
        inst = TemporalInstance.from_value_rounds(rounds)
        seen |= assert_matches_oracles(inst, ["atefx:1/2,1,2/3"])["atefx:1/2,1,2/3"]
    assert seen == {True, False}


def test_twins_scale_only_the_shortfall():
    rng = random.Random(17)
    scale = F(3, 7)
    failures = 0
    for _ in range(12):
        n = rng.randint(2, 3)
        rounds = [[tuple(rng.choice((0, 1, 2, 5)) for _ in range(n))
                   for _ in range(rng.randint(1, 2))] for _ in range(2)]
        inst = TemporalInstance.from_value_rounds(rounds, buffer=2)
        twin = TemporalInstance.from_value_rounds(
            [[tuple(v * scale for v in vec) for vec in r] for r in rounds], buffer=2)
        assert_matches_oracles(twin, scheduled=True)
        for concept in CONCEPTS:
            if concept.count(",") + 1 not in (1, n):
                continue
            c = Concept.from_string(concept)
            for owner, placement in allocations(inst, True):
                alloc = TemporalAllocation(placement, owner)
                plain, scaled = check_temporal(inst, alloc, c), check_temporal(twin, alloc, c)
                if not plain.holds:
                    failures += 1
                    assert scaled.shortfall == plain.shortfall * scale
                    plain = replace(plain, shortfall=scaled.shortfall)
                assert scaled == plain
            assert search(twin, c, True) == search(inst, c, True)
    assert failures


def test_many_agents_two_goods_bounded_memory():
    # 300 agents under tefx: a worth state list is 0.7 MB and search holds a
    # few of them; a list of every (envious, envied) pair would take about
    # 35 MB.  1000 agents under tmms: the share test reads the hand-outs and
    # keeps no n * n state, which would take tens of MB
    for n, concept, nodes, bound in ((300, "tefx", 3, 12_000_000), (1000, "tmms", 2, 2_000_000)):
        instance = TemporalInstance.from_value_rounds([[(1,) * n], [(2,) * n]])
        allocation = TemporalAllocation({"g1": 1, "g2": 2}, {"g1": 1, "g2": 2})
        tracemalloc.start()
        try:
            outcome = search(instance, Concept(concept))
            verdict = check_temporal(instance, allocation, Concept(concept))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (outcome.exists, outcome.nodes_visited, verdict.holds) == (True, nodes, True)
        assert peak < bound
