"""Fairness checkers against brute-force definitional oracles.

The oracles below re-state each fairness notion directly from its
definition with no shared code: plain loops over agents, goods, and
removals, and full partition enumeration for shares.  The checkers must
agree with them on exhaustively enumerated small allocations.
"""

import itertools
import random
import re
import time
from fractions import Fraction as F

import pytest

from tempfair.errors import ValidationError
from tempfair.fairness import (
    REMOVAL,
    Concept,
    ShareCapExceeded,
    Verdict,
    _envy_violation,
    _own_worth,
    _worth,
    _worth_entry,
    check_temporal,
    envy_rows,
    fold,
    folded,
    is_alpha_efx,
    is_ef1,
    is_efx,
    is_mms,
    mms_share,
    prefix_violation,
)
from tempfair.generators import generate
from tempfair.model import (
    TemporalAllocation,
    TemporalInstance,
    good_key,
    instance_from_json,
    prefix,
)
from tempfair.search import search

from oracles import (
    dp_mms_share,
    naive_alpha_efx,
    naive_ef1,
    naive_efx,
    naive_envies,
    naive_mms_share,
    naive_tmms,
    values_of,
)


def make_instance(value_rounds, buffer=1):
    return TemporalInstance.from_value_rounds(value_rounds, buffer=buffer)


def arrival_placement(inst):
    return {g.id: g.arrival for g in inst.goods}


def enumerate_allocations(goods, n_agents):
    for assignment in itertools.product(range(1, n_agents + 1), repeat=len(goods)):
        bundles = {i: [] for i in range(1, n_agents + 1)}
        for g, a in zip(goods, assignment):
            bundles[a].append(g)
        yield bundles


def random_values(rng, goods, n_agents, cap=6):
    return {
        i: {g: rng.randint(0, cap) for g in goods}
        for i in range(1, n_agents + 1)
    }


def single_round_instance(values, goods, n_agents):
    """All goods arriving at round 1 with the given integer values."""
    vecs = [[tuple(values[i][g] for i in range(1, n_agents + 1))] for g in goods]
    return TemporalInstance.from_value_rounds([[v[0] for v in vecs]])


def as_frozensets(inst, bundles):
    ordered = sorted(inst.goods_by_id)
    remap = dict(zip(sorted(bundles_keys_goods(bundles)), ordered))
    return tuple(
        frozenset(remap[g] for g in bundles.get(i, []))
        for i in range(1, inst.n_agents + 1)
    )


def bundles_keys_goods(bundles):
    return [g for b in bundles.values() for g in b]


# --- checker vs oracle, exhaustive on small cases ------------------------------

@pytest.mark.parametrize("n_agents,n_goods", [(2, 3), (2, 4), (3, 3)])
def test_ef1_efx_match_oracles(n_agents, n_goods):
    rng = random.Random(100 * n_agents + n_goods)
    goods = [chr(ord("a") + k) for k in range(n_goods)]
    for _ in range(25):
        values = random_values(rng, goods, n_agents)
        inst = single_round_instance(values, goods, n_agents)
        for bundles in enumerate_allocations(goods, n_agents):
            packed = as_frozensets(inst, bundles)
            assert is_ef1(inst, packed) == naive_ef1(values, bundles)
            assert is_efx(inst, packed) == naive_efx(values, bundles)


@pytest.mark.parametrize("alpha", [F(1, 2), F(1, 3), F(1)])
def test_alpha_efx_matches_oracle(alpha):
    rng = random.Random(int(alpha * 1000))
    goods = ["a", "b", "c", "d"]
    for _ in range(25):
        values = random_values(rng, goods, 2)
        inst = single_round_instance(values, goods, 2)
        for bundles in enumerate_allocations(goods, 2):
            packed = as_frozensets(inst, bundles)
            assert is_alpha_efx(inst, packed, alpha) == naive_alpha_efx(
                values, bundles, [alpha, alpha]
            )


def test_alpha_efx_per_agent_bounds():
    # goods g1..g3 all worth (2, 4, 4) to agent 1 and (1, 1, 1) to agent 2
    values = {1: {"a": 2, "b": 4, "c": 4}, 2: {"a": 1, "b": 1, "c": 1}}
    inst = single_round_instance(values, ["a", "b", "c"], 2)
    packed = (frozenset({"g1"}), frozenset({"g2", "g3"}))
    # agent 1 sees 2 against 8: removal leaves 4, so only alpha <= 1/2 holds
    assert is_alpha_efx(inst, packed, [F(1, 2), F(1)])
    assert not is_alpha_efx(inst, packed, [F(2, 3), F(1)])


def test_alpha_validation():
    values = {1: {"a": 1}, 2: {"a": 1}}
    inst = single_round_instance(values, ["a"], 2)
    packed = (frozenset({"a"}), frozenset())
    with pytest.raises(ValidationError):
        is_alpha_efx(inst, packed, F(0))
    with pytest.raises(ValidationError):
        is_alpha_efx(inst, packed, F(3, 2))
    with pytest.raises(ValidationError):
        is_alpha_efx(inst, packed, [F(1, 2)])  # wrong length


@pytest.mark.parametrize("goods", [0, 2])
def test_alpha_list_length_checked_once_per_call(goods):
    # the alphas are read before any prefix, so the length is checked even
    # when no prefix is examined
    inst = instance_from_json({
        "agents": 2,
        "rounds": [[f"g{k}" for k in range(1, goods + 1)]],
        "values": {f"g{k}": ["1", "1"] for k in range(1, goods + 1)},
    })
    owner = {g.id: 1 for g in inst.goods}
    alloc = TemporalAllocation(placement=arrival_placement(inst), owner=owner)
    concept = Concept("atefx", (F(1), F(1), F(1)))
    with pytest.raises(ValidationError, match="3 alpha values for 2 agents"):
        check_temporal(inst, alloc, concept)
    with pytest.raises(ValidationError, match="3 alpha values for 2 agents"):
        search(inst, concept)


def test_tmms_matches_oracle():
    rng = random.Random(11)
    for n_agents, n_goods in [(2, 4), (3, 4)]:
        goods = [chr(ord("a") + k) for k in range(n_goods)]
        for _ in range(10):
            values = random_values(rng, goods, n_agents)
            inst = single_round_instance(values, goods, n_agents)
            for bundles in enumerate_allocations(goods, n_agents):
                packed = as_frozensets(inst, bundles)
                assert is_mms(inst, packed) == naive_tmms(
                    values, bundles, n_agents
                ), (values, bundles)


FIXED_CHECKERS = pytest.mark.parametrize(
    "checker",
    [is_ef1, is_efx, lambda inst, b: is_alpha_efx(inst, b, F(1, 2)), is_mms],
    ids=["ef1", "efx", "alpha-efx", "mms"],
)


@FIXED_CHECKERS
def test_checkers_read_one_shot_bundles(checker):
    # each bundle may be an iterator, read once, with the list's verdict
    rng = random.Random(31)
    goods = ["a", "b", "c"]
    verdicts = set()
    for _ in range(10):
        values = random_values(rng, goods, 2)
        inst = single_round_instance(values, goods, 2)
        for bundles in enumerate_allocations(["g1", "g2", "g3"], 2):
            lists = [bundles[1], bundles[2]]
            verdict = checker(inst, lists)
            assert checker(inst, [iter(b) for b in lists]) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


@FIXED_CHECKERS
@pytest.mark.parametrize(
    "bundles", [[["g1"], ["g2"], ["g3"]], [["g1", "g2", "g3"]]], ids=["three", "one"]
)
def test_checkers_reject_a_wrong_bundle_count(checker, bundles):
    # one bundle per agent: a third bundle is not silently pooled or
    # indexed past the agents, and a missing one is not read as empty
    inst = make_instance([[(1, 1), (5, 5), (1, 1)]])
    with pytest.raises(ValidationError, match=f"{len(bundles)} bundles for 2 agents"):
        checker(inst, bundles)


@FIXED_CHECKERS
@pytest.mark.parametrize(
    "bundles,message",
    [([["zz"], [], []], "unknown good 'zz'"),
     ([["g1"], ["g1"], []], "repeated good 'g1'"),
     ([["g1", "g1"], [], []], "repeated good 'g1'"),
     ([[["g1"]], [], []], re.escape("unknown good ['g1']"))],
    ids=["unknown", "in-two-bundles", "twice-in-one", "unhashable"],
)
def test_checkers_reject_bundles_that_are_no_division(checker, bundles, message):
    # as validate does for an allocation: an id the instance lacks is not a
    # bare KeyError (nor, when unhashable, a bare TypeError), and a good
    # listed twice is not counted twice (nor put twice into is_mms's pool)
    inst = generate(3, 2, 4, 9, seed=1)
    with pytest.raises(ValidationError, match=message):
        checker(inst, bundles)


# --- maximin shares -----------------------------------------------------------

class TestMmsShare:
    def test_known_two_agent_examples(self):
        assert mms_share([F(1), F(3), F(10)], 2) == F(4)
        assert mms_share([F(1), F(1), F(2)], 2) == F(2)

    def test_single_part_takes_everything(self):
        assert mms_share([F(2), F(5)], 1) == F(7)

    def test_fewer_goods_than_parts(self):
        assert mms_share([F(9)], 3) == F(0)

    def test_bool_part_count_rejected(self):
        # True is an int equal to 1, so it would read as one part
        with pytest.raises(ValidationError, match="n_parts must be an integer, got True"):
            mms_share([1, 2], True)

    def test_float_part_count_rejected(self):
        with pytest.raises(ValidationError, match="n_parts must be an integer, got 2.0"):
            mms_share([1, 2], 2.0)

    def test_three_parts_example(self):
        # 3+3, 2+4, 1+5: perfect split of 1..5 plus a 3 into thirds of 6
        assert mms_share([F(v) for v in (1, 2, 3, 3, 4, 5)], 3) == F(6)

    def test_matches_bruteforce(self):
        rng = random.Random(5)
        for _ in range(60):
            n_parts = rng.randint(2, 3)
            vals = [rng.randint(0, 8) for _ in range(rng.randint(1, 6))]
            assert mms_share([F(v) for v in vals], n_parts) == F(
                naive_mms_share(vals, n_parts)
            )

    def test_matches_dp_oracle_on_larger_pools(self):
        # 9-13 goods, where the greedy start and the load cap of the 3+-part
        # search do most of their work; seeded, so it runs without Hypothesis
        rng = random.Random(0x5A)
        draws = {
            "random": lambda k, a, b: [rng.randint(0, 20) for _ in range(k)],
            "bi-valued": lambda k, a, b: [rng.choice((a, b)) for _ in range(k)],
            "zero-or-b": lambda k, a, b: [rng.choice((0, b)) for _ in range(k)],
            "all-equal": lambda k, a, b: [a] * k,
        }
        for n_parts in (3, 4, 5):
            for kind, draw in draws.items():
                for _ in range(12):
                    a, b = sorted(rng.sample(range(1, 21), 2))
                    vals = draw(rng.randint(9, 13), a, b)
                    assert mms_share(vals, n_parts) == dp_mms_share(vals, n_parts), (
                        kind, vals, n_parts)

    def test_three_parts_of_1100_goods_without_recursion(self):
        # the 3+-part branch and bound walks one explicit stack, so an
        # uncapped pool deeper than the recursion limit still gets its share
        for seed, share in ((0, 1367), (1, 1392)):
            r = random.Random(seed)
            pool = [r.choice((2, 4, 6, 3)) for _ in range(1100)]
            start = time.perf_counter()
            assert mms_share(pool, 3, cap=None) == share
            assert time.perf_counter() - start < 1.0

    def test_cap_guard(self):
        vals = [F(1)] * 17
        with pytest.raises(ShareCapExceeded):
            mms_share(vals, 3, cap=16)
        # two parts never hit the cap
        assert mms_share(vals, 2, cap=16) == F(8)
        # and the cap can be lifted
        assert mms_share(vals, 3, cap=None) == F(5)

    def test_wide_two_part_pool_skips_the_bitset(self):
        # half the total needs about 2**63 bits as a bitset; the 2**18
        # reachable sums fit a set
        rng = random.Random(60)
        vals = [rng.getrandbits(60) | 1 << 59 | 1 for _ in range(18)]
        expected = naive_mms_share(vals, 2)
        start = time.perf_counter()
        got = mms_share([F(v) for v in vals], 2, cap=None)
        assert time.perf_counter() - start < 1.0
        assert got == F(expected)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            mms_share([F(-1)], 2)

    def test_rejects_zero_parts(self):
        with pytest.raises(ValidationError):
            mms_share([F(1)], 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TemporalInstance.from_value_rounds([[(0.1, 0.2)]]),
        lambda: TemporalInstance.from_value_rounds([[(True, 1)]]),
        lambda: mms_share([0.1, 0.2, 0.3], 2),
        lambda: mms_share([True, 2], 2),
        lambda: is_alpha_efx(make_instance([[(1, 1)]]), ({"g1"}, set()), [0.5, 1.0]),
        lambda: is_alpha_efx(make_instance([[(1, 1)]]), ({"g1"}, set()), 0.5),
        lambda: is_alpha_efx(make_instance([[(1, 1)]]), ({"g1"}, set()), None),
    ],
    ids=["float-value", "bool-value", "float-pool", "bool-pool",
         "float-alphas", "float-alpha", "no-alpha"],
)
def test_python_entry_points_reject_floats_and_bools(call):
    with pytest.raises(ValidationError):
        call()


def test_python_entry_points_take_ints_fractions_and_strings():
    inst = TemporalInstance.from_value_rounds([[(1, F(1, 2), "1/3")]])
    assert inst.goods[0].values == (F(1), F(1, 2), F(1, 3))
    assert mms_share([1, F(1, 2), "1/2"], 2) == F(1)
    assert is_alpha_efx(inst, ({"g1"}, set(), set()), ["1/2", F(1), 1])


# --- concept parsing ------------------------------------------------------------

class TestConcept:
    @pytest.mark.parametrize("text", ["tef1", "tefx", "tmms"])
    def test_plain_kinds(self, text):
        assert str(Concept.from_string(text)) == text

    def test_alpha_parses_fractions(self):
        c = Concept.from_string("atefx:1/2")
        assert c.kind == "atefx"
        assert c.alpha == F(1, 2)
        assert str(c) == "atefx:1/2"

    def test_alpha_list(self):
        c = Concept.from_string("atefx:1/2,2/3")
        assert c.alpha == (F(1, 2), F(2, 3))
        assert str(c) == "atefx:1/2,2/3"

    @pytest.mark.parametrize(
        "bad", ["atefx:0", "atefx:3/2", "atefx:x", "atefx:", "efx", "tef2",
                "atefx:1e999999999"]
    )
    def test_rejects_bad_text(self, bad):
        with pytest.raises(ValidationError):
            Concept.from_string(bad)

    @pytest.mark.parametrize("alpha, text", [
        ("1/2", "atefx:1/2"), (1, "atefx:1"), (F(2, 3), "atefx:2/3"),
        (["1/2", 1], "atefx:1/2,1"), ((F(1, 3), "2/3"), "atefx:1/3,2/3"),
    ])
    def test_direct_alpha_is_normalized(self, alpha, text):
        # any alpha the checkers accept is stored as from_string stores it,
        # so it prints as text that parses back to an equal concept
        c = Concept("atefx", alpha)
        assert str(c) == text
        assert c == Concept.from_string(text)

    @pytest.mark.parametrize("alpha", [0, "3/2", 0.5, True, ["1/2", "0"]])
    def test_direct_alpha_is_checked(self, alpha):
        with pytest.raises(ValidationError):
            Concept("atefx", alpha)

    @pytest.mark.parametrize("kind, alpha", [
        ("atefx", None), ("bogus", None), ("tefx", F(1, 2)), ("tmms", F(1)),
    ])
    def test_rejects_bad_fields(self, kind, alpha):
        # built directly, a concept is checked as from_string checks text:
        # an unchecked one would fail later with a TypeError, or hold
        # vacuously on a goodless instance
        with pytest.raises(ValidationError):
            Concept(kind, alpha)


# --- temporal checking ----------------------------------------------------------

class TestCheckTemporal:
    def test_reports_first_failing_round(self):
        # round 1 splits evenly, round 2 tips agent 2 into envy beyond one good
        inst = make_instance([
            [(1, 2), (3, 1)],
            [(2, 2)],
        ])
        alloc = TemporalAllocation(
            placement=arrival_placement(inst),
            owner={"g1": 1, "g2": 2, "g3": 1},
        )
        verdict = check_temporal(inst, alloc, Concept("tef1"))
        assert not verdict.holds
        assert verdict.round == 2
        assert verdict.envious == 2
        assert verdict.envied == 1
        assert verdict.removed_good == "g1"
        assert verdict.shortfall == F(1)

    def test_holds_overall(self):
        inst = make_instance([[(1, 2), (3, 1)]])
        alloc = TemporalAllocation(
            placement=arrival_placement(inst),
            owner={"g1": 2, "g2": 1},
        )
        verdict = check_temporal(inst, alloc, Concept("tef1"))
        assert verdict.holds
        assert verdict.round is None

    def test_checks_only_placement_rounds(self):
        # violation visible at round 1 if checked, but nothing is placed
        # until round 2, so the prefix at round 1 is all-empty
        inst = make_instance([[(5, 5)], [(5, 5)]], buffer=2)
        alloc = TemporalAllocation(
            placement={"g1": 2, "g2": 2},
            owner={"g1": 1, "g2": 2},
        )
        verdict = check_temporal(inst, alloc, Concept("tefx"))
        assert verdict.holds

    def test_scheduling_can_rescue_strong_envy(self):
        # same ownership, at-arrival placement fails but a delay repairs it
        inst = make_instance([[(2, 2), (2, 2)], [(4, 4)]], buffer=2)
        owner = {"g1": 1, "g2": 1, "g3": 2}
        at_arrival = TemporalAllocation(
            placement=arrival_placement(inst), owner=owner
        )
        assert not check_temporal(inst, at_arrival, Concept("tefx")).holds
        delayed = TemporalAllocation(
            placement={"g1": 1, "g2": 2, "g3": 2}, owner=owner
        )
        assert check_temporal(inst, delayed, Concept("tefx")).holds

    def test_tmms_verdict(self):
        inst = make_instance([[(3, 3), (3, 3)]])
        alloc = TemporalAllocation(
            placement=arrival_placement(inst),
            owner={"g1": 1, "g2": 1},
        )
        verdict = check_temporal(inst, alloc, Concept("tmms"))
        assert not verdict.holds
        assert verdict.envious == 2
        assert verdict.envied is None
        assert verdict.shortfall == F(3)

    def test_alpha_concept(self):
        inst = make_instance([[(1, 1), (1, 1), (4, 4)]])
        alloc = TemporalAllocation(
            placement=arrival_placement(inst),
            owner={"g1": 1, "g2": 2, "g3": 2},
        )
        # agent 1 holds 1 against 5; dropping the cheap good leaves 4
        assert check_temporal(inst, alloc, Concept("atefx", F(1, 4))).holds
        assert not check_temporal(inst, alloc, Concept("atefx", F(1))).holds

    def test_rejects_invalid_allocation(self):
        inst = make_instance([[(1, 1), (2, 2)]])
        alloc = TemporalAllocation(
            placement={"g1": 1},
            owner={"g1": 1},
        )
        with pytest.raises(ValidationError):
            check_temporal(inst, alloc, Concept("tef1"))

    def test_rejects_placement_of_unknown_good(self):
        # the stray round must not surface as a prefix-range error
        inst = make_instance([[(1, 1)], [(2, 2)]])
        alloc = TemporalAllocation(
            placement={"g1": 1, "g2": 2, "zz": 9},
            owner={"g1": 1, "g2": 2},
        )
        with pytest.raises(ValidationError, match="unknown goods in placement"):
            check_temporal(inst, alloc, Concept("tef1"))

    def test_random_agreement_with_per_round_oracle(self):
        # buffered placements, ids whose good_key order is not arrival
        # order (g10 before g9, b before a) and few value levels, so ties
        # are common: the verdict and its witness must match a from-scratch
        # look at every prefix
        rng = random.Random(23)
        schemes = [lambda k: f"g{k + 1}", lambda k: "bazyxc"[k % 6] * (1 + k // 6)]
        for _ in range(150):
            n_agents = rng.randint(2, 3)
            horizon = rng.randint(1, 3)
            buffer = rng.randint(1, 3)
            scheme = rng.choice(schemes)
            ids = [scheme(k) for k in rng.sample(range(12), rng.randint(1, 6))]
            palette = rng.sample(["0", "1", "2", "1/2", "3/2"], rng.randint(2, 3))
            rounds = [[] for _ in range(horizon)]
            for gid in ids:
                rounds[rng.randint(1, horizon) - 1].append(gid)
            inst = instance_from_json({
                "agents": n_agents,
                "buffer": buffer,
                "rounds": rounds,
                "values": {g: [rng.choice(palette) for _ in range(n_agents)] for g in ids},
            })
            alloc = TemporalAllocation(
                placement={
                    g.id: rng.randint(g.arrival, min(g.arrival + buffer - 1, horizon))
                    for g in inst.goods
                },
                owner={g.id: rng.randint(1, n_agents) for g in inst.goods},
            )
            concept = rng.choice([
                Concept("tef1"),
                Concept("tefx"),
                Concept("atefx", F(1, 2)),
                Concept("atefx", tuple(rng.choice([F(1, 2), F(2, 3), F(1)])
                                       for _ in range(n_agents))),
                Concept("tmms"),
            ])
            values = values_of(inst)
            agents = list(inst.agents)
            alphas = [1] * n_agents
            if isinstance(concept.alpha, tuple):
                alphas = list(concept.alpha)
            elif concept.alpha is not None:
                alphas = [concept.alpha] * n_agents

            def bundles_at(t):
                return {i: b for i, b in zip(agents, prefix(inst, alloc, t))}

            def first_violation(t):
                """(envious, envied) in index order, (agent, None) for shares."""
                bundles = bundles_at(t)
                if concept.kind == "tmms":
                    pool = [g for b in bundles.values() for g in b]
                    short = next(
                        ((i, None) for i in agents
                         if sum(values[i][g] for g in bundles[i])
                         < naive_mms_share([values[i][g] for g in pool], n_agents)),
                        None,
                    )
                    assert (short is None) == naive_tmms(values, bundles, n_agents)
                    return short
                kind = "ef1" if concept.kind == "tef1" else "efx"
                return next(
                    ((i, j) for i in agents for j in agents
                     if naive_envies(values, bundles, i, j, kind, alphas[i - 1])),
                    None,
                )

            rounds_hit = [t for t in range(1, horizon + 1) if first_violation(t)]
            verdict = check_temporal(inst, alloc, concept)
            assert verdict.holds == (not rounds_hit)
            if verdict.holds:
                continue
            t = verdict.round
            assert t == rounds_hit[0]
            i, j = first_violation(t)
            assert (verdict.envious, verdict.envied) == (i, j)
            bundles = bundles_at(t)
            mine = sum(values[i][g] for g in bundles[i])
            if concept.kind == "tmms":
                pool = [g for b in bundles.values() for g in b]
                share = naive_mms_share([values[i][g] for g in pool], n_agents)
                assert verdict.removed_good is None
                assert verdict.shortfall == share - mine
                continue
            pick = max if concept.kind == "tef1" else min
            binding = pick(values[i][g] for g in bundles[j])
            assert verdict.removed_good == min(
                (g for g in bundles[j] if values[i][g] == binding), key=good_key
            )
            theirs = sum(values[i][g] for g in bundles[j])
            assert verdict.shortfall == alphas[i - 1] * (theirs - binding) - mine


# one good per round worth (4/3, 3/7, 3/2), (2, 0, 3) and (2, 5/3, 9/7);
# agent 1 takes the first and last, agent 2 the middle one
PINNED_ROUNDS = [
    [(F(4, 3), F(3, 7), F(3, 2))],
    [(F(2), F(0), F(3))],
    [(F(2), F(5, 3), F(9, 7))],
]


@pytest.mark.parametrize(
    "concept,expected",
    [
        ("tef1", {"envious": 2, "envied": 1, "removed_good": "g3", "shortfall": "3/7"}),
        ("tefx", {"envious": 2, "envied": 1, "removed_good": "g1", "shortfall": "5/3"}),
        ("atefx:1/2,2/3,3/7",
         {"envious": 2, "envied": 1, "removed_good": "g1", "shortfall": "10/9"}),
        ("tmms", {"envious": 3, "envied": None, "removed_good": None, "shortfall": "9/7"}),
    ],
)
def test_pinned_witness_on_rational_values(concept, expected):
    inst = make_instance(PINNED_ROUNDS)
    alloc = TemporalAllocation(
        placement=arrival_placement(inst), owner={"g1": 1, "g2": 2, "g3": 1}
    )
    verdict = check_temporal(inst, alloc, Concept.from_string(concept))
    assert verdict.to_json() == {"holds": False, "round": 3, **expected}


def test_verdict_json():
    verdict = Verdict(
        holds=False, round=2, envious=1, envied=2,
        removed_good="g1", shortfall=F(1, 2),
    )
    data = verdict.to_json()
    assert data["holds"] is False
    assert data["shortfall"] == "1/2"
    ok = Verdict(holds=True)
    assert ok.to_json()["holds"] is True


def test_prefix_violation_dispatch():
    # one valuable and one worthless good, both held by agent 1:
    # dropping the valuable one settles the up-to-one-good check, but the
    # worthless removal does not settle the up-to-any-good check
    values = {1: {"a": 1, "b": 0}, 2: {"a": 1, "b": 0}}
    inst = single_round_instance(values, ["a", "b"], 2)
    packed = [[(0, "g1"), (0, "g2")]]  # one round of (bundle index, good id) hand-outs
    assert prefix_violation(inst, packed, Concept("tef1")) is None
    assert prefix_violation(inst, packed, Concept("tefx")) is not None
    # equal positive goods split evenly: shares are met; hoarded: they fail
    even = single_round_instance({1: {"a": 1, "b": 1}, 2: {"a": 1, "b": 1}}, ["a", "b"], 2)
    assert prefix_violation(even, [[(0, "g1")], [(1, "g2")]], Concept("tmms")) is None
    assert prefix_violation(even, [[(0, "g1"), (0, "g2")]], Concept("tmms")) is not None
    # a worth state grown one good at a time, in place or into copies,
    # gives the violation of one folded from the hand-outs; each copy
    # leaves the state it was made from as it was, which search relies on
    # when it puts a round's saved state back
    rng = random.Random(41)
    concepts = [Concept("tef1"), Concept("tefx"), Concept("atefx", (F(1, 2), F(1), F(2, 3)))]
    seen = set()
    for _ in range(60):
        inst = make_instance([[tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(5)]])
        owner = {g.id: rng.randint(1, 3) for g in inst.goods}
        rounds = [[(owner[g] - 1, g) for g in owner]]
        for concept in concepts:
            pick = REMOVAL[concept.kind]
            worth = _worth(inst, [], pick)
            copied = _worth(inst, [], pick)
            for gid in rng.sample(sorted(owner), len(owner)):
                fold(*worth, owner[gid] - 1, inst.columns[gid], pick)
                before = tuple(map(list, copied))
                grown = folded(copied, owner[gid] - 1, inst.columns[gid], pick)
                assert copied == before
                copied = grown
            assert worth == copied == _worth(inst, rounds, pick)
            built = prefix_violation(inst, rounds, concept)
            assert prefix_violation(inst, rounds, concept, envy_rows(3, concept), worth) == built
            assert prefix_violation(inst, rounds, concept, envy_rows(3, concept), copied) == built
            seen.add(built is None)
    assert seen == {True, False}


def test_worth_reads_match_bundle_sums_and_picks():
    # each agent's own worth and every entry (i, j) of a folded state, read
    # through fairness, against plain per-bundle sums and picks, with some
    # bundles empty; an empty bundle is never envied under any envy concept
    rng = random.Random("worth-reads")
    seen = set()
    for n in range(1, 5):
        concepts = {max: [Concept("tef1")],
                    min: [Concept("tefx"), Concept("atefx", tuple(F(rng.randint(1, 4), 4)
                                                                   for _ in range(n)))]}
        for _ in range(40):
            inst = make_instance([[tuple(rng.randint(0, 5) for _ in range(n))
                                   for _ in range(rng.randint(1, 5))]])
            owner = {g: rng.randrange(n) for g in inst.columns}
            bundles = [[g for g in owner if owner[g] == j] for j in range(n)]
            for pick in (max, min):
                worth = _worth(inst, [[(j, g) for g, j in owner.items()]], pick)
                own = [sum(inst.columns[g][i] for g in bundles[i]) for i in range(n)]
                assert list(_own_worth(worth, n)) == own
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        values = [inst.columns[g][i - 1] for g in bundles[j - 1]]
                        total, removal = _worth_entry(worth, n, i, j)
                        assert total == sum(values)
                        if values:
                            assert removal == pick(values)
                        else:
                            assert total - removal <= 0
                            seen.add((n, pick))
                for concept in concepts[pick]:
                    for row in envy_rows(n, concept):
                        hit = _envy_violation(*worth, [row])
                        assert hit is None or bundles[hit[1] - 1], (concept, hit, bundles)
                # the same reads on a copy made of tuples, as the half-TEFX router keeps
                frozen = folded(worth, 0, (0,) * n, pick, tuple)
                assert {frozen} and _own_worth(frozen, n) == tuple(own)  # it hashes
    assert seen == {(n, pick) for n in range(2, 5) for pick in (max, min)}


def test_prefix_violation_with_no_rows_checks_no_agent():
    # an empty row list is a check of no agent, not a request for all rows
    values = {1: {"a": 1, "b": 0}, 2: {"a": 1, "b": 0}}
    inst = single_round_instance(values, ["a", "b"], 2)
    packed = [[(0, "g1"), (0, "g2")]]
    assert prefix_violation(inst, packed, Concept("tefx")) is not None
    assert prefix_violation(inst, packed, Concept("tefx"), rows=[]) is None
    assert prefix_violation(inst, packed, Concept("tefx"), rows=[], worth=_worth(inst, packed, min)) is None


def test_an_envious_agent_stays_envious_unless_given_the_good():
    """The rule search's round-end skip rests on: if agent i violates at a
    worth state, folding any good into any bundle but i's own leaves i
    violating.  Folding never lowers total - removal of an entry, under
    either removal, and only the receiver's own worth rises.  Bundles are
    often empty, so the removal sentinel is folded over too."""
    rng = random.Random("envious-stays-envious")
    seen = set()
    for _ in range(400):
        n = rng.randint(2, 4)
        alphas = tuple(F(rng.randint(1, 4), 4) for _ in range(n))
        concepts = [Concept("tef1"), Concept("tefx"), Concept("atefx", F(1, 2)),
                    Concept("atefx", alphas)]
        goods = rng.randint(1, 5)
        inst = make_instance([[tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(goods)]])
        *held, good = sorted(inst.columns, key=good_key)
        rounds = [[(rng.randrange(n), g) for g in held]]
        for concept in concepts:
            envy, pick = envy_rows(n, concept), REMOVAL[concept.kind]
            total, removal = _worth(inst, rounds, pick)
            hit = _envy_violation(total, removal, envy)
            if hit is None:
                continue
            i = hit[0]
            for j in range(n):
                if j == i - 1:
                    continue
                grown = total[:], removal[:]
                fold(*grown, j, inst.columns[good], pick)
                assert _envy_violation(*grown, envy[i - 1:i]) is not None, (concept, i, j)
                seen.add((concept.kind, all(b != j for b, _ in rounds[0])))
    assert seen == {(kind, empty) for kind in ("tef1", "tefx", "atefx") for empty in (True, False)}
