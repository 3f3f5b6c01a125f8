"""Per-setting solvers: precondition gates, certified concepts, structure."""

import collections
import functools
import itertools
import random
import zlib
from fractions import Fraction as F

import pytest

from tempfair import solvers
from tempfair.errors import PreconditionError, SolverFailure
from tempfair.fairness import check_temporal
from tempfair.generators import generate
from tempfair.model import TemporalInstance, prefix
from tempfair.solvers import SOLVERS, _first_plan

from oracles import naive_efx, naive_mms_share, reference_pool_splits, values_of


def make_instance(value_rounds, buffer=1):
    return TemporalInstance.from_value_rounds(value_rounds, buffer=buffer)


def pool_splits(instance, search=solvers._search_pool_splits):
    """The two-agent solver's pool-split triples on an odd horizon, from
    ``search`` (the solver's own by default)."""
    T = instance.horizon
    pools = [(instance.rounds[0], 1)] + [
        (instance.rounds[t - 2] + instance.rounds[t - 1], t) for t in range(3, T + 1, 2)]
    return search(instance, pools, solvers._placed_bounds(instance))


def certify(name, instance):
    entry = SOLVERS[name]
    alloc = entry.run(instance)
    for concept in entry.concepts(instance):
        verdict = check_temporal(instance, alloc, concept)
        assert verdict.holds, (name, str(concept), verdict, instance)
    return alloc


@functools.lru_cache(maxsize=None)
def two_part_share(vals):
    return naive_mms_share(vals, 2)


def tefx_tmms_exists(instance):
    """Whether some owner and placement of every good, two agents, is
    envy-free up to any good and maximin-share fair at every prefix:
    plain enumeration, each distinct prefix judged once."""
    values = values_of(instance)
    goods = instance.goods
    windows = [range(g.arrival, min(g.arrival + instance.buffer - 1, instance.horizon) + 1)
               for g in goods]
    verdicts = {}

    def fair(prefix):
        if prefix not in verdicts:
            bundles = {i: [g for g, o in prefix if o == i] for i in (1, 2)}
            verdicts[prefix] = naive_efx(values, bundles) and all(
                sum(values[i][g] for g in bundles[i])
                >= two_part_share(tuple(sorted(values[i][g] for g, _ in prefix)))
                for i in (1, 2)
            )
        return verdicts[prefix]

    return any(
        all(fair(tuple((g.id, o) for g, o, r in zip(goods, owners, rounds) if r <= t))
            for t in range(1, instance.horizon + 1))
        for owners in itertools.product((1, 2), repeat=len(goods))
        for rounds in itertools.product(*windows)
    )


def test_registry_names():
    assert sorted(SOLVERS) == [
        "alpha-tefx-identical-valuation",
        "alpha-tefx-positive",
        "half-tefx-genbinary",
        "half-tefx-identical-days-two",
        "rr-bivalued",
        "tef1-house-t3",
        "tef1-identical-days-scheduled",
        "tefx-genbinary-identical",
        "tefx-genbinary-two",
        "tefx-identical-days-scheduled-two",
    ]
    for entry in SOLVERS.values():
        assert entry.summary
    # on seeded draws every solver succeeds somewhere, and only the two
    # scheduled ones ever place a good after its arrival, each at least once
    rng = random.Random(zlib.crc32(b"test_registry_names"))
    solved, delayed = set(), set()
    for _ in range(200):
        flag = rng.choice(["identical_days", "generalized_binary", "bi_valued",
                           "identical_valuation", "house_allocation"])
        inst = generate(rng.randint(2, 3), rng.randint(2, 5), rng.randint(1, 3), 9,
                        rng.randrange(10**6), buffer=rng.randint(1, 3), **{flag: True})
        arrival = {g.id: g.arrival for g in inst.goods}
        for name, entry in SOLVERS.items():
            try:
                alloc = entry.run(inst)
            except (PreconditionError, SolverFailure):
                continue
            solved.add(name)
            if any(t > arrival[g] for g, t in alloc.placement.items()):
                delayed.add(name)
    assert solved == set(SOLVERS)
    assert delayed == {
        "tef1-identical-days-scheduled",
        "tefx-identical-days-scheduled-two",
    }


class TestPreconditions:
    def test_house_t3_gates(self):
        day = [(1, 2), (2, 1)]
        with pytest.raises(PreconditionError):
            SOLVERS["tef1-house-t3"].run(make_instance([day] * 4))
        with pytest.raises(PreconditionError):
            # identical days but only one good per round for two agents
            SOLVERS["tef1-house-t3"].run(make_instance([[(1, 2)]] * 3))
        with pytest.raises(PreconditionError):
            # right shape, days differ
            SOLVERS["tef1-house-t3"].run(
                make_instance([[(1, 2), (2, 1)], [(3, 1), (2, 1)], day])
            )

    def test_genbinary_two_gates(self):
        with pytest.raises(PreconditionError):
            SOLVERS["tefx-genbinary-two"].run(make_instance([[(2, 2, 2)]]))
        with pytest.raises(PreconditionError):
            SOLVERS["tefx-genbinary-two"].run(make_instance([[(2, 3)]]))

    def test_genbinary_identical_gates(self):
        run = SOLVERS["tefx-genbinary-identical"].run
        with pytest.raises(PreconditionError, match=r"^needs identical valuations$"):
            run(make_instance([[(2, 0)]]))
        # neither {0, b} nor identical: the {0, b} gate speaks first
        with pytest.raises(PreconditionError, match=r"^needs all values in \{0, b\}$"):
            run(make_instance([[(2, 3)]]))
        with pytest.raises(PreconditionError, match=r"^needs all values in \{0, b\}$"):
            run(make_instance([[(2, 2), (3, 3)]]))

    def test_half_genbinary_gate(self):
        with pytest.raises(PreconditionError):
            SOLVERS["half-tefx-genbinary"].run(make_instance([[(2, 3)]]))

    def test_positive_gate(self):
        with pytest.raises(PreconditionError):
            SOLVERS["alpha-tefx-positive"].run(
                make_instance([[(0, 2), (1, 1)]])
            )
        with pytest.raises(PreconditionError):
            # a round thinner than the agent count sinks the ratio
            SOLVERS["alpha-tefx-positive"].run(
                make_instance([[(2, 2), (1, 3)], [(4, 1)]])
            )

    def test_identical_days_two_gates(self):
        with pytest.raises(PreconditionError):
            SOLVERS["half-tefx-identical-days-two"].run(
                make_instance([[(1, 2, 3)]])
            )
        with pytest.raises(PreconditionError):
            SOLVERS["half-tefx-identical-days-two"].run(
                make_instance([[(1, 2)], [(2, 1)]])
            )

    def test_identical_valuation_gate(self):
        with pytest.raises(PreconditionError):
            SOLVERS["alpha-tefx-identical-valuation"].run(
                make_instance([[(1, 2)]])
            )

    def test_bivalued_gates(self):
        with pytest.raises(PreconditionError):
            SOLVERS["rr-bivalued"].run(make_instance([[(0, 2)]]))
        with pytest.raises(PreconditionError):
            SOLVERS["rr-bivalued"].run(make_instance([[(1, 2), (3, 1)]]))

    def test_bivalued_bound_gates(self):
        # the concept list reads the two levels, so it refuses the same
        # instances the solver does
        with pytest.raises(PreconditionError, match="two positive value levels"):
            SOLVERS["rr-bivalued"].concepts(make_instance([[(0, 1)]]))

    def test_positive_bound_gates(self):
        # the ratio bound reads each agent's extreme values, so a zero value
        # and an instance with no goods at all are refused alike
        concepts = SOLVERS["alpha-tefx-positive"].concepts
        for instance in (make_instance([[(0, 2), (1, 1)]]),
                         TemporalInstance(n_agents=2, horizon=1, goods=())):
            with pytest.raises(PreconditionError, match=r"^needs strictly positive values$"):
                concepts(instance)

    def test_scheduled_identical_days_gates(self):
        day = [(1, 2, 3)]
        with pytest.raises(PreconditionError):
            # needs buffer >= 2 for three agents
            SOLVERS["tef1-identical-days-scheduled"].run(
                make_instance([day] * 3, buffer=1)
            )
        with pytest.raises(PreconditionError):
            SOLVERS["tef1-identical-days-scheduled"].run(
                make_instance([[(1, 2)], [(2, 1)]], buffer=1)
            )

    def test_scheduled_two_gates(self):
        day = [(1, 2)]
        with pytest.raises(PreconditionError):
            SOLVERS["tefx-identical-days-scheduled-two"].run(
                make_instance([day] * 3, buffer=1)
            )
        with pytest.raises(PreconditionError):
            SOLVERS["tefx-identical-days-scheduled-two"].run(
                make_instance([[(1, 2, 3)]] * 2, buffer=2)
            )


def conforming(name, seed, rng):
    """One random instance satisfying the named solver's precondition."""
    T = rng.randint(1, 6)
    gpr = rng.randint(1, 4)
    cap = rng.randint(1, 10)
    if name == "tef1-house-t3":
        return generate(rng.randint(1, 4), 3, 0, cap, seed,
                        identical_days=True, house_allocation=True)
    if name == "tefx-genbinary-two":
        return generate(2, T, gpr, cap, seed, generalized_binary=True)
    if name == "tefx-genbinary-identical":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        generalized_binary=True, identical_valuation=True)
    if name == "half-tefx-genbinary":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        generalized_binary=True)
    if name == "alpha-tefx-positive":
        n = rng.randint(1, 4)
        return generate(n, T, n + rng.randint(0, 2), cap, seed, min_value=1)
    if name == "half-tefx-identical-days-two":
        return generate(2, T, gpr, cap, seed, identical_days=True)
    if name == "alpha-tefx-identical-valuation":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        identical_valuation=True)
    if name == "rr-bivalued":
        return generate(rng.randint(1, 4), T, gpr, max(cap, 2), seed,
                        bi_valued=True)
    if name == "tef1-identical-days-scheduled":
        n = rng.randint(1, 4)
        return generate(n, T, gpr, cap, seed, identical_days=True,
                        buffer=(n + 1) // 2)
    if name == "tefx-identical-days-scheduled-two":
        return generate(2, T, gpr, cap, seed, identical_days=True, buffer=2)
    raise AssertionError(name)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_certifies_advertised_concepts(name):
    rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
    for k in range(60):
        instance = conforming(name, seed=k * 997 + 13, rng=rng)
        certify(name, instance)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_deterministic(name):
    rng = random.Random(1)
    state = rng.getstate()
    instance = conforming(name, seed=424242, rng=rng)
    first = SOLVERS[name].run(instance)
    rng.setstate(state)
    instance2 = conforming(name, seed=424242, rng=rng)
    second = SOLVERS[name].run(instance2)
    assert first.owner == second.owner
    assert first.placement == second.placement


def test_genbinary_identical_is_the_least_total_rule():
    # one positive level: least total first deals the positive goods to
    # agents 1..n in turn, and both solvers park zero goods with agent n
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        instance = generate(n, rng.randint(1, 6), rng.randint(1, 4),
                            rng.choice([1, 9, 10**6]), seed,
                            generalized_binary=True, identical_valuation=True)
        traces = {name: [] for name in ("tefx-genbinary-identical",
                                        "alpha-tefx-identical-valuation")}
        owners = [SOLVERS[name].run(instance, trace=trace).owner
                  for name, trace in traces.items()]
        dealt = itertools.count()
        cyclic = {g.id: next(dealt) % n + 1 if g.values[0] > 0 else n
                  for g in instance.goods}
        assert owners == [cyclic, cyclic], seed
        assert list(traces.values()) == [[], []]


def test_half_genbinary_routes_past_the_recursion_limit():
    # 1000 goods: a route one level deep per good, past the interpreter's
    # default recursion limit
    instance = generate(4, 200, 5, 9, seed=1, generalized_binary=True)
    certify("half-tefx-genbinary", instance)


class TestFirstPlan:
    def test_no_stages(self):
        assert _first_plan(0, None, "start") == []

    def test_no_plan(self):
        def moves(p, state):  # every path dies at stage 2
            if p < 2:
                yield from ((m, state + m) for m in (0, 1))
        assert _first_plan(3, moves, 0) is None

    def test_failed_state_is_walked_once(self):
        calls = collections.Counter()

        def moves(p, state):
            calls[p, state] += 1
            if p == 0:  # a and b reach the same dead state
                yield from (("a", 1), ("b", 1), ("c", 2))
            elif state == 2:
                yield "z", 0
        assert _first_plan(2, moves, 0) == ["c", "z"]
        assert calls == {(0, 0): 1, (1, 1): 1, (1, 2): 1}

    def test_deep_chain(self):
        # one stage per link, far past the interpreter's recursion limit,
        # each stage trying a dead end first
        depth = 5000

        def moves(p, state):
            if state >= 0:
                if p + 1 < depth:
                    yield "dead", -1
                yield p, state + 1
        assert _first_plan(depth, moves, 0) == list(range(depth))


class TestHouseT3Structure:
    def test_one_good_per_agent_per_round(self):
        day = [(3, 1, 4), (1, 5, 9), (2, 6, 5)]
        instance = make_instance([day] * 3)
        alloc = certify("tef1-house-t3", instance)
        for t in range(1, 4):
            placed = [
                g for g, r in alloc.placement.items() if r == t
            ]
            owners = sorted(alloc.owner[g] for g in placed)
            assert owners == [1, 2, 3], alloc

    def test_pinned_pairing(self):
        # agent 3 picks both copies of the third good; agents 1 and 2 pick
        # g1, g2 and g4, g5, so picks and copies form a four-good cycle
        instance = make_instance([[(5, 5, 1), (1, 1, 0), (0, 0, 5)]] * 3)
        alloc = certify("tef1-house-t3", instance)
        assert alloc.placement == {
            "g1": 1, "g2": 1, "g3": 1, "g4": 2, "g5": 2, "g6": 2,
            "g7": 3, "g8": 3, "g9": 3,
        }
        assert alloc.owner == {
            "g1": 1, "g2": 2, "g3": 3, "g4": 2, "g5": 1, "g6": 3,
            "g7": 2, "g8": 1, "g9": 3,
        }

    def test_no_delays(self):
        day = [(2, 7), (7, 2)]
        instance = make_instance([day] * 3)
        alloc = certify("tef1-house-t3", instance)
        for g, r in alloc.placement.items():
            assert r == instance.goods_by_id[g].arrival


class TestScheduledBlocks:
    def test_envy_free_at_block_boundaries(self):
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(2, 4)
            day = [
                tuple(F(rng.randint(0, 9)) for _ in range(n))
                for _ in range(rng.randint(1, 3))
            ]
            T = rng.randint(n, 3 * n)
            instance = make_instance([day] * T, buffer=(n + 1) // 2)
            alloc = certify("tef1-identical-days-scheduled", instance)
            values = values_of(instance)
            for t in range(n, T + 1, n):
                bundles = prefix(instance, alloc, t)
                for i in instance.agents:
                    mine = sum(values[i][g] for g in bundles[i - 1])
                    for j in instance.agents:
                        theirs = sum(values[i][g] for g in bundles[j - 1])
                        assert mine >= theirs, (t, i, j, alloc)

    def test_single_agent_degenerates_to_arrival(self):
        instance = make_instance([[(3,), (1,)]] * 4, buffer=1)
        alloc = certify("tef1-identical-days-scheduled", instance)
        assert set(alloc.owner.values()) == {1}


class TestScheduledTwoAgents:
    def test_even_horizon_is_exactly_equal_at_pool_rounds(self):
        day = [(1, 4), (6, 2), (3, 3)]
        instance = make_instance([day] * 4, buffer=2)
        alloc = certify("tefx-identical-days-scheduled-two", instance)
        values = values_of(instance)
        for t in (2, 4):
            bundles = prefix(instance, alloc, t)
            for i in (1, 2):
                assert sum(values[i][g] for g in bundles[0]) == \
                    sum(values[i][g] for g in bundles[1]), (t, alloc)

    def test_odd_horizon_with_skewed_day(self):
        # one cheap and one expensive good per day forces uneven splits
        day = [(1, 1), (10, 10)]
        instance = make_instance([day] * 5, buffer=2)
        certify("tefx-identical-days-scheduled-two", instance)

    def test_long_odd_horizon(self):
        # 1 000 pooled rounds, one search stage each: far past the
        # interpreter's recursion limit
        instance = generate(2, 1999, 1, 9, 1, identical_days=True, buffer=2)
        certify("tefx-identical-days-scheduled-two", instance)

    @pytest.mark.parametrize("day, horizon, buffer, steps", [
        ([(5, 5), (3, 3)], 5, 2,
         "g02:2@1 g01:1@1 g04:2@2 g06:2@3 g03:1@3 g05:1@4 g07:2@4 g08:2@5 "
         "g10:2@5 g09:1@5"),
        ([(0, 0), (5, 5), (3, 3)], 5, 2,
         "g01:2@1 g03:2@1 g02:1@1 g04:2@2 g07:2@3 g06:2@3 g09:2@3 g05:1@3 "
         "g10:2@4 g08:1@4 g11:2@4 g13:2@5 g12:2@5 g15:2@5 g14:1@5"),
        ([(3, 3), (7, 7), (12, 12)], 3, 2,
         "g1:2@1 g2:1@1 g4:2@2 g3:1@2 g6:2@2 g7:2@3 g5:1@3 g8:1@3 g9:2@3"),
        ([(5, 5), (7, 7)], 7, 3,
         "g01:2@1 g02:1@1 g03:2@2 g05:2@3 g04:1@3 g07:2@4 g06:1@4 g08:1@5 "
         "g10:2@5 g09:2@7 g11:2@7 g13:2@7 g12:1@7 g14:1@7"),
    ], ids=["day0", "day1", "day2", "day3"])
    def test_odd_horizon_needs_single_good_delays(self, day, horizon, buffer, steps):
        # no split of whole pools (day 1, then pairs of days landing on odd
        # rounds) passes, and those pools are the only placements on odd
        # rounds alone; a witness exists once goods land on even rounds too.
        # The window search's first witness is pinned step by step as
        # good:agent@round, in trace order.
        instance = make_instance([day] * horizon, buffer=buffer)
        trace = []
        alloc = SOLVERS["tefx-identical-days-scheduled-two"].run(instance, trace=trace)
        certify("tefx-identical-days-scheduled-two", instance)
        assert {row["rule"] for row in trace} == {"window-split"}
        assert " ".join(
            f"{row['good']}:{row['agent']}@{alloc.placement[row['good']]}" for row in trace
        ) == steps
        assert alloc.owner == {row["good"]: row["agent"] for row in trace}
        pooled_rounds = set(range(1, horizon + 1, 2))
        assert set(alloc.placement.values()) - pooled_rounds

    def test_odd_horizon_without_witness_fails_loudly(self):
        # no placement within buffer 2 gives both agents their maximin
        # share at every round: search(..., Concept("tmms"),
        # use_scheduling=True) exhausts 130588 nodes without a witness
        instance = make_instance([[(5, 5), (7, 7)]] * 7, buffer=2)
        with pytest.raises(SolverFailure, match="nor any placement"):
            SOLVERS["tefx-identical-days-scheduled-two"].run(instance)

    def test_fails_exactly_when_no_allocation_exists(self):
        # three rounds at buffer 2, three goods a day: 2**9 owners times
        # 2**6 placements.  About one draw in twenty takes the window
        # search, so draws go on until three have
        window_cases = 0
        for seed in itertools.count():
            instance = generate(2, 3, 3, 12, seed=seed, identical_days=True,
                                identical_valuation=True, buffer=2)
            trace = []
            try:
                SOLVERS["tefx-identical-days-scheduled-two"].run(instance, trace=trace)
            except SolverFailure:
                assert not tefx_tmms_exists(instance), seed
                continue
            assert tefx_tmms_exists(instance), seed
            window_cases += trace[0]["rule"] == "window-split"
            if window_cases == 3:
                break

    @pytest.mark.parametrize("seed", [*range(40), pytest.param(None, id="all-zero")])
    def test_pool_splits_match_the_plain_mask_loop(self, seed):
        # the share slot's shape: odd horizons 7-11, five goods a day, buffer 2;
        # on all-zero days an empty pile's key meets a held one's
        instance = (make_instance([[(0, 0)] * 5] * 7, buffer=2) if seed is None else
                    generate(2, 7 + 2 * (seed % 3), 5, 20, seed, identical_days=True, buffer=2))
        assert pool_splits(instance) == pool_splits(instance, reference_pool_splits)

    @pytest.mark.parametrize("instance, stages", [
        # seed 368 runs stage 1 dry and the walk backs up to stage 0
        (generate(2, 11, 5, 20, 368, identical_days=True, buffer=2), [1]),
        # days {5, 7}: every stage runs dry, and no pool split passes
        (make_instance([[(5, 5), (7, 7)]] * 7, buffer=2), [3, 3, 2, 2, 1, 1, 0]),
    ], ids=["backs-up", "exhausts"])
    def test_pool_splits_match_when_stages_run_dry(self, instance, stages, monkeypatch):
        dry = []
        first_plan = solvers._first_plan

        def watched(depth, moves, start):
            def stage(p, state):
                yield from moves(p, state)
                dry.append(p)
            return first_plan(depth, stage, start)

        monkeypatch.setattr(solvers, "_first_plan", watched)
        placed = pool_splits(instance)
        assert dry == stages
        monkeypatch.setattr(solvers, "_first_plan", first_plan)
        assert placed == pool_splits(instance, reference_pool_splits)
        assert (placed is None) == (stages[-1] == 0)

    def test_wider_buffer_reaches_two_round_waits(self):
        # the days above do admit an allocation once goods may wait two
        # rounds, and every witness then uses such a wait
        instance = make_instance([[(5, 5), (7, 7)]] * 7, buffer=3)
        alloc = certify("tefx-identical-days-scheduled-two", instance)
        waits = {
            r - instance.goods_by_id[g].arrival
            for g, r in alloc.placement.items()
        }
        assert 2 in waits

    def test_huge_values_split_like_small_ones(self):
        # "no good yet" must not be a finite sentinel that large values
        # can pass
        day = [(0, 1), (1, 5), (2, 10)]
        scale = 10**31
        small = make_instance([day] * 3, buffer=2)
        big = make_instance(
            [[(a * scale, b * scale) for a, b in day]] * 3, buffer=2
        )
        first = certify("tefx-identical-days-scheduled-two", small)
        second = certify("tefx-identical-days-scheduled-two", big)
        assert first.owner == second.owner
        assert first.placement == second.placement

    def test_two_rounds_without_buffer(self):
        day = [(1, 1), (10, 10)]
        instance = make_instance([day] * 2, buffer=1)
        alloc = certify("tefx-identical-days-scheduled-two", instance)
        for g, r in alloc.placement.items():
            assert r == instance.goods_by_id[g].arrival


class TestTraces:
    @pytest.mark.parametrize("name", sorted(SOLVERS))
    def test_trace_collects_steps(self, name):
        rng = random.Random(9)
        instance = conforming(name, seed=77, rng=rng)
        trace = []
        SOLVERS[name].run(instance, trace=trace)
        for row in trace:
            assert set(row) == {"step", "agent", "good", "rule"}
        steps = [row["step"] for row in trace]
        assert steps == sorted(steps)
