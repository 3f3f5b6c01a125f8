"""Single-pool building blocks: picking sequences and envy bookkeeping."""

import random
from fractions import Fraction as F

import pytest

from tempfair.errors import ValidationError
from tempfair.single_round import (
    envy_cycle_elimination,
    envy_ordered_pick_rounds,
    round_robin,
)

from oracles import naive_ef1


def table(raw):
    """{agent: {good: int}} -> Fractions."""
    return {i: {g: F(v) for g, v in row.items()} for i, row in raw.items()}


def random_table(rng, goods, agents, cap=7):
    return {
        i: {g: F(rng.randint(0, cap)) for g in goods} for i in agents
    }


class TestRoundRobin:
    def test_picks_best_in_turn(self):
        values = table({
            1: {"a": 3, "b": 1, "c": 2},
            2: {"a": 2, "b": 5, "c": 1},
        })
        got = round_robin(["a", "b", "c"], values, order=[1, 2])
        assert got == {1: ["a", "c"], 2: ["b"]}

    def test_tie_breaks_to_smallest_id(self):
        values = table({1: {"a": 2, "b": 2}, 2: {"a": 2, "b": 2}})
        got = round_robin(["b", "a"], values, order=[1, 2])
        assert got == {1: ["a"], 2: ["b"]}

    def test_trace_records_picks(self):
        values = table({1: {"a": 1}, 2: {"a": 1}})
        trace = []
        round_robin(["a"], values, order=[2, 1], trace=trace)
        assert trace == [{"step": 1, "agent": 2, "good": "a", "rule": "rr"}]

    def test_ef1_from_scratch(self):
        rng = random.Random(3)
        agents = [1, 2, 3]
        for _ in range(200):
            goods = [f"x{k}" for k in range(rng.randint(1, 7))]
            values = random_table(rng, goods, agents)
            got = round_robin(goods, values, order=agents)
            assert naive_ef1(values, got), (values, got)


class TestEnvyCycleElimination:
    def test_max_pick_rule(self):
        values = table({
            1: {"a": 1, "b": 9},
            2: {"a": 9, "b": 1},
        })
        got = envy_cycle_elimination(["a", "b"], values, [1, 2])
        assert got == {1: ["b"], 2: ["a"]}

    def test_ef1_property(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 4)
            agents = list(range(1, n + 1))
            goods = [f"x{k}" for k in range(rng.randint(0, 7))]
            values = random_table(rng, goods, agents)
            got = envy_cycle_elimination(goods, values, agents)
            assert naive_ef1(values, got), (values, got)

    def test_cycle_rotation_example(self):
        # 1 takes a, then 2 (envying 1) takes b and, still unenvied, c,
        # which 2 values at nothing; now each envies the other's pile, and
        # the final rotation swaps the piles
        values = table({
            1: {"a": 5, "b": 5, "c": 4},
            2: {"a": 6, "b": 3, "c": 0},
        })
        got = envy_cycle_elimination(["a", "b", "c"], values, [1, 2])
        assert got == {1: ["b", "c"], 2: ["a"]}
        assert naive_ef1(values, got)
        # everything is allocated exactly once
        handed = sorted(g for b in got.values() for g in b)
        assert handed == ["a", "b", "c"]


class TestEnvyOrderedPickRounds:
    def test_rejects_more_copies_than_agents(self):
        values = table({1: {"a": 1, "b": 1}})
        with pytest.raises(ValidationError):
            envy_ordered_pick_rounds([["a", "b"]], values, [1])

    def test_rejects_unequal_vectors_within_class(self):
        values = table({1: {"a": 1, "b": 2}, 2: {"a": 1, "b": 2}})
        with pytest.raises(ValidationError):
            envy_ordered_pick_rounds([["a", "b"]], values, [1, 2])

    def test_positive_valuers_first_zeros_parked(self):
        # class A valued by agents 1 and 2 only, one copy spare
        values = table({
            1: {"a1": 3, "a2": 3, "a3": 3},
            2: {"a1": 3, "a2": 3, "a3": 3},
            3: {"a1": 0, "a2": 0, "a3": 0},
        })
        got = envy_ordered_pick_rounds([["a1", "a2", "a3"]], values, [1, 2, 3])
        assert sorted(len(b) for b in got.values()) == [1, 1, 1]
        # the zero-value agent took the spare copy
        assert len(got[3]) == 1

    def test_ef1_property_many_classes(self):
        rng = random.Random(41)
        for _ in range(400):
            n = rng.randint(2, 5)
            agents = list(range(1, n + 1))
            copies = rng.choice([(n + 1) // 2, n // 2]) or 1
            n_classes = rng.randint(1, 6)
            goods = []
            copy_class = {}
            values = {i: {} for i in agents}
            for c in range(n_classes):
                vec = [F(rng.randint(0, 6)) for _ in agents]
                for k in range(copies):
                    gid = f"c{c}k{k}"
                    goods.append(gid)
                    copy_class[gid] = c
                    for i in agents:
                        values[i][gid] = vec[i - 1]
            got = envy_ordered_pick_rounds(
                [[g for g in goods if copy_class[g] == c] for c in range(n_classes)],
                values, agents,
            )
            handed = sorted(g for b in got.values() for g in b)
            assert handed == sorted(goods)
            for agent, bundle in got.items():
                classes = [copy_class[g] for g in bundle]
                assert len(classes) == len(set(classes))
            assert naive_ef1(values, got), (values, got)

    def test_trace_rule_tag(self):
        values = table({1: {"a": 2}, 2: {"a": 2}})
        trace = []
        envy_ordered_pick_rounds([["a"]], values, [1, 2], trace=trace)
        assert trace and all(r["rule"] == "envy-order" for r in trace)
