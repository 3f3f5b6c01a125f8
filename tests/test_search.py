"""Existence search: pruning soundness, witness validity, determinism."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from tempfair import (
    Concept,
    SearchCapExceeded,
    TemporalAllocation,
    TemporalInstance,
    check_temporal,
    search,
)
from tempfair.generators import generate
from tempfair.model import allocation_to_json
from tempfair.search import goods_cap


def exhaustive_exists(instance, concept, use_scheduling=False):
    """Unpruned reference: try every complete assignment outright."""
    goods = sorted(instance.goods, key=lambda g: (g.arrival, g.id))
    windows = []
    for g in goods:
        if use_scheduling:
            last = min(g.arrival + instance.buffer - 1, instance.horizon)
        else:
            last = g.arrival
        windows.append([(t, i) for t in range(g.arrival, last + 1)
                        for i in instance.agents])
    for combo in itertools.product(*windows):
        owner = {g.id: i for g, (t, i) in zip(goods, combo)}
        placement = {g.id: t for g, (t, i) in zip(goods, combo)}
        alloc = TemporalAllocation(placement=placement, owner=owner)
        verdict = check_temporal(instance, alloc, concept)
        if verdict.holds:
            return True, alloc
    return False, None


CONCEPTS = [
    Concept("tef1"),
    Concept("tefx"),
    Concept("atefx", Fraction(1, 2)),
    Concept("tmms"),
]


@pytest.mark.parametrize("concept", CONCEPTS, ids=str)
def test_agrees_with_unpruned_enumeration(concept):
    rng = random.Random(f"search-{concept}")
    for trial in range(40):
        n = rng.randint(1, 3)
        inst = generate(
            n,
            rng.randint(1, 3),
            rng.randint(1, 2),
            rng.randint(1, 6),
            seed=trial * 13 + 1,
        )
        out = search(inst, concept)
        expected, _ = exhaustive_exists(inst, concept)
        assert out.exists == expected, (concept, trial)
        if out.exists:
            assert check_temporal(inst, out.witness, concept).holds


def _small_scheduled_instances(rng):
    """Scheduled instances whose raw space stays small enough to enumerate:
    generated ones, identical days at buffer 2, three agents on two
    identical days where the search meets an exhausted round-2 state again,
    and hand-built rounds where round 2 has no arrivals, so the goods of
    round 1 close several rounds and a deferred one lands in a round that
    nothing arrives in."""
    for trial in range(25):
        yield generate(
            rng.randint(1, 3),
            rng.randint(1, 3),
            rng.randint(1, 2),
            rng.randint(1, 6),
            seed=trial * 17 + 3,
            buffer=rng.randint(1, 3),
        )
    for trial in range(8):
        yield generate(2, rng.randint(2, 3), rng.randint(1, 2), rng.randint(2, 9),
                       seed=trial * 5 + 1, identical_days=True, buffer=2)
    # a day of one good x and two equal goods y: either y can be the one
    # placed at round 1 and the other the one held back, so the states at
    # round 2 recur and the memo of exhausted states skips them (under
    # tefx for every pair, under atefx:1/2 for the first six)
    for x, y in [((0, 4, 4), (3, 0, 0)), ((4, 5, 3), (3, 0, 0)),
                 ((1, 2, 2), (1, 0, 0)), ((0, 4, 1), (5, 0, 0)),
                 ((2, 4, 2), (4, 0, 0)), ((4, 4, 5), (4, 0, 0)),
                 ((4, 3, 5), (5, 1, 0)), ((2, 1, 5), (2, 0, 2))]:
        yield TemporalInstance.from_value_rounds([[x, y, y]] * 2, buffer=2)
    made = 0
    while made < 12:
        n = rng.randint(1, 3)
        shape = [rng.randint(1, 2), 0] + [rng.choice([0, 1, 2]) for _ in range(rng.randint(0, 2))]
        rounds = [[tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(c)] for c in shape]
        inst = TemporalInstance.from_value_rounds(rounds, buffer=rng.randint(2, 3))
        if search(inst, Concept("tef1"), use_scheduling=True).space_bound <= 1500:
            made += 1
            yield inst


@pytest.mark.parametrize("concept", CONCEPTS[:3], ids=str)
def test_agrees_with_unpruned_enumeration_scheduled(concept):
    rng = random.Random(f"sched-{concept}")
    for trial, inst in enumerate(_small_scheduled_instances(rng)):
        out = search(inst, concept, use_scheduling=True)
        expected, _ = exhaustive_exists(inst, concept, use_scheduling=True)
        assert out.exists == expected, (concept, trial)
        if out.exists:
            assert check_temporal(inst, out.witness, concept).holds


def test_first_witness_matches_unpruned_order():
    # symmetry reduction must not change which witness comes out first,
    # with or without scheduling
    rng = random.Random("witness-order")
    cases = [(Concept("tef1"), False, 1)] * 30 + [
        (concept, True, buffer)
        for concept in CONCEPTS[:3] for buffer in (2, 3) for _ in range(8)
    ]
    for trial, (concept, use_scheduling, buffer) in enumerate(cases):
        n = rng.randint(2, 3)
        inst = generate(
            n, rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 4),
            seed=trial * 7 + 2,
            identical_valuation=bool(trial % 2),
            buffer=buffer,
        )
        out = search(inst, concept, use_scheduling)
        expected, witness = exhaustive_exists(inst, concept, use_scheduling)
        assert out.exists == expected, (concept, trial)
        if expected:
            assert dict(out.witness.owner) == dict(witness.owner)
            assert dict(out.witness.placement) == dict(
                witness.placement
            )


def test_single_good_always_exists():
    inst = TemporalInstance.from_value_rounds([[(Fraction(5), Fraction(2))]])
    for concept in CONCEPTS:
        out = search(inst, concept)
        assert out.exists
        assert out.witness.owner == {"g1": 1}
        assert out.space_bound == 2


def test_scheduling_strictly_helps_on_trap_stream():
    # two small goods then a large one: splitting early is forced, and the
    # big arrival then breaks every unscheduled continuation
    one = Fraction(1)
    rounds = [[(one, one)], [(one, one)], [(Fraction(100), Fraction(100))],
              [(Fraction(10), Fraction(10))]]
    inst = TemporalInstance.from_value_rounds(rounds, buffer=2)
    plain = search(inst, Concept("tefx"))
    scheduled = search(inst, Concept("tefx"), use_scheduling=True)
    assert not plain.exists
    assert scheduled.exists
    assert check_temporal(inst, scheduled.witness, Concept("tefx")).holds
    moved = [g for g, t in scheduled.witness.placement.items()
             if t != inst.goods_by_id[g].arrival]
    assert moved, "the rescue needs at least one delayed good"


def test_nodes_and_bound_accounting():
    inst = generate(2, 2, 2, 5, seed=9)
    out = search(inst, Concept("tef1"))
    assert out.space_bound == 2**4
    assert 0 < out.nodes_visited <= out.space_bound * 4


def test_cap_rejects_oversized():
    assert goods_cap(2) == 18
    assert goods_cap(3) == 14
    assert goods_cap(4) < 14
    inst = generate(3, 15, 1, 5, seed=0)
    with pytest.raises(SearchCapExceeded):
        search(inst, Concept("tef1"))
    big = generate(2, 19, 1, 5, seed=0)
    with pytest.raises(SearchCapExceeded):
        search(big, Concept("tef1"))


def test_identical_valuations_reduction_still_finds_witness():
    inst = generate(3, 2, 2, 6, seed=4, identical_valuation=True)
    out = search(inst, Concept("tef1"))
    assert out.exists
    # with all agents interchangeable the first good pins to agent 1
    assert out.witness.owner["g1"] == 1


# Nonexistence proofs on identical days (both agents value each good alike)
# at buffer 2 with scheduling, the paper's negative results.  The search
# meets the same round-boundary states again and again here; it skips each
# one it has exhausted, in milliseconds for all three, and adds the
# decisions the skipped subtree made, so these counts are those of the
# full pruned, symmetry-reduced tree.
@pytest.mark.parametrize(
    "days,horizon,concept,nodes",
    [
        ((0, 2, 9), 5, "tefx", 623_518),
        ((0, 2, 9), 5, "atefx:1,1", 623_518),
        ((5, 7), 7, "tmms", 130_588),
    ],
    ids=["029x5-tefx", "029x5-atefx", "57x7-tmms"],
)
def test_nonexistence_proofs(days, horizon, concept, nodes):
    inst = TemporalInstance.from_value_rounds(
        [[(v, v) for v in days]] * horizon, buffer=2
    )
    out = search(inst, Concept.from_string(concept), use_scheduling=True)
    assert not out.exists and out.witness is None
    assert out.nodes_visited == nodes


@pytest.mark.parametrize(
    "shape,use_scheduling,calls,nodes,bound",
    [
        (dict(n_agents=4, horizon=2, goods_per_round=3, value_cap=9, seed=1), False, 111, 253, 4**6),
        (dict(n_agents=3, horizon=3, goods_per_round=2, value_cap=9, seed=22,
              identical_valuation=True, buffer=2), True, 267, 1018, 6**4 * 3**2),
    ],
    ids=["general-4-agents", "scheduled-identical-valuation-none"],
)
def test_round_end_skip_counts(monkeypatch, shape, use_scheduling, calls, nodes, bound):
    """At a good that closes its round, an agent that already envies at the
    open round's state dooms every child that does not hand the good to
    them, so search checks those children no more.  These two searches
    called ``prefix_violation`` 191 and 345 times before the skip; the
    outcome, witness and node count are the same as before it."""
    module = importlib.import_module("tempfair.search")
    real, made = module.prefix_violation, []

    def counted(*args, **kwargs):
        made.append(args[2].kind)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "prefix_violation", counted)
    inst = generate(**shape)
    out = search(inst, Concept("tefx"), use_scheduling)
    assert len(made) == calls and set(made) == {"tefx"}
    exists, witness = exhaustive_exists(inst, Concept("tefx"), use_scheduling)
    assert out.to_json() == {
        "exists": exists,
        "witness": allocation_to_json(witness) if witness else None,
        "nodes_visited": nodes,
        "space_bound": bound,
    }
    assert exists is not use_scheduling  # one witness find, one proof of none


@pytest.mark.parametrize(
    "shape,exists,nodes,folds",
    [
        (dict(n_agents=3, horizon=4, goods_per_round=2, value_cap=9, seed=2,
              identical_valuation=True, buffer=2), False, 5068, 285),
        (dict(n_agents=3, horizon=5, goods_per_round=2, value_cap=9, seed=2,
              identical_valuation=True, buffer=2), False, 12022, 369),
        (dict(n_agents=3, horizon=6, goods_per_round=2, value_cap=9, seed=1, buffer=2),
         True, 806, 147),
    ],
    ids=["proof-4-rounds", "proof-5-rounds", "witness-6-rounds"],
)
def test_search_folds_only_rounds_it_enters(monkeypatch, shape, exists, nodes, folds):
    """A round's state is built when the search enters the round, after the
    memo lookup at its first good misses, so a memo hit folds nothing.
    Opening each round as soon as the one before passed took 396 and 483
    ``folded`` calls on the two proofs; the witness search meets no memo
    hit and folds as often either way."""
    module = importlib.import_module("tempfair.search")
    real, made = module.folded, []

    def counted(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "folded", counted)
    out = search(generate(**shape), Concept("tefx"), use_scheduling=True)
    assert (out.exists, out.nodes_visited, len(made)) == (exists, nodes, folds)
