"""Instance and allocation plumbing: construction, validation, JSON."""

import json
import time
from dataclasses import fields
from fractions import Fraction as F

import pytest

from tempfair.errors import BufferViolation, ValidationError
from tempfair.generators import generate
from tempfair.model import (
    Good,
    TemporalAllocation,
    TemporalInstance,
    allocation_from_json,
    allocation_to_json,
    classify,
    good_key,
    instance_from_json,
    instance_to_json,
    parse_rational,
    prefix,
    validate,
)


def make_instance(value_rounds, buffer=1):
    return TemporalInstance.from_value_rounds(value_rounds, buffer=buffer)


class TestGoodKey:
    def test_orders_by_length_then_text(self):
        ids = ["g10", "g2", "g1", "h1"]
        assert sorted(ids, key=good_key) == ["g1", "g2", "h1", "g10"]


class TestParseRational:
    def test_accepts_int_and_strings(self):
        assert parse_rational(3) == F(3)
        assert parse_rational("3") == F(3)
        assert parse_rational("7/2") == F(7, 2)
        assert parse_rational("1.5") == F(3, 2)

    @pytest.mark.parametrize("bad", [3.5, True, False, None, [1]])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValidationError):
            parse_rational(bad)

    def test_rejects_bad_literal(self):
        with pytest.raises(ValidationError):
            parse_rational("three")

    def test_rejects_exponent_notation(self):
        # Fraction would build 10**999999999 before any size check
        start = time.perf_counter()
        with pytest.raises(ValidationError):
            parse_rational("1e999999999")
        assert time.perf_counter() - start < 1
        with pytest.raises(ValidationError):
            parse_rational("2E3")


class TestInstanceConstruction:
    def test_ids_are_zero_padded_in_arrival_order(self):
        inst = make_instance([[(1, 2)] * 4, [(3, 4)] * 4, [(5, 6)] * 4])
        assert [g.id for g in inst.goods] == [
            "g01", "g02", "g03", "g04", "g05", "g06",
            "g07", "g08", "g09", "g10", "g11", "g12",
        ]
        assert inst.horizon == 3
        assert inst.n_agents == 2

    def test_rounds_groups_by_arrival(self):
        inst = make_instance([[(1, 1), (2, 2)], [(3, 3)]])
        assert inst.rounds == (("g1", "g2"), ("g3",))
        # each round in good_key order, whatever the document's order
        ids = ["g10", "aa", "\u00e9", "b", "g2", "zz", "\u00e41"]
        inst = instance_from_json({"agents": 1, "rounds": [ids, ["g1"]],
                                   "values": dict.fromkeys([*ids, "g1"], ["1"])})
        assert inst.rounds == (tuple(sorted(ids, key=good_key)), ("g1",))
        assert inst.rounds[0] == ("b", "\u00e9", "aa", "g2", "zz", "\u00e41", "g10")

    def test_equality_follows_instance_order(self):
        a, b = Good("a", 1, (F(1), F(1, 2))), Good("b", 2, (F(2), F(0)))
        forward, backward = TemporalInstance(2, 2, (a, b)), TemporalInstance(2, 2, (b, a))
        assert forward.rounds == backward.rounds and forward.columns == backward.columns
        assert forward != backward
        again = TemporalInstance(2, 2, [a, b])
        assert forward == again and hash(forward) == hash(again)
        assert len({forward, backward, again}) == 2
        assert forward != TemporalInstance(2, 2, (a, b), buffer=2)

    def test_value_lookup(self):
        # denominators 2, 3 and 1 give a scale of 6
        inst = make_instance([[(F(1, 2), F(1, 3))], [(3, F(1, 2))]])
        assert inst.scale == 6
        assert inst.value_table == {1: {"g1": 3, "g2": 18}, 2: {"g1": 2, "g2": 3}}
        rows = inst.value_table.values()
        assert all(type(v) is int for row in rows for v in row.values())
        # the table itself: one tuple per good, in agent order
        assert inst.columns == {"g1": (3, 2), "g2": (18, 3)}
        assert all(type(v) is int for column in inst.columns.values() for v in column)

    def test_agents_are_one_based(self):
        inst = make_instance([[(1, 2, 3)]])
        assert list(inst.agents) == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            make_instance([])
        with pytest.raises(ValidationError):
            make_instance([[], []])

    def test_rejects_duplicate_ids(self):
        goods = (
            Good("a", 1, (F(1),)),
            Good("a", 1, (F(2),)),
        )
        with pytest.raises(ValidationError):
            TemporalInstance(n_agents=1, horizon=1, goods=goods)

    def test_rejects_out_of_range_arrival(self):
        goods = (Good("a", 5, (F(1),)),)
        with pytest.raises(ValidationError):
            TemporalInstance(n_agents=1, horizon=2, goods=goods)

    def test_rejects_wrong_vector_length(self):
        goods = (Good("a", 1, (F(1), F(2))),)
        with pytest.raises(ValidationError):
            TemporalInstance(n_agents=3, horizon=1, goods=goods)

    def test_rejects_negative_value(self):
        goods = (Good("a", 1, (F(-1),)),)
        with pytest.raises(ValidationError):
            TemporalInstance(n_agents=1, horizon=1, goods=goods)

    def test_rejects_bad_buffer(self):
        with pytest.raises(ValidationError):
            make_instance([[(1,)]], buffer=0)

    def test_rejects_non_fraction_value(self):
        goods = (Good("a", 1, (1,)),)
        with pytest.raises(ValidationError, match="good 'a' has non-Fraction value 1"):
            TemporalInstance(n_agents=1, horizon=1, goods=goods)

    @pytest.mark.parametrize("changes, message", [
        ({"agents": 0}, "need at least one agent"),
        ({"rounds": [], "values": {}}, "horizon must be at least 1"),
        ({"rounds": [[1]]}, "good id 1 is not a string"),
        ({"rounds": [["g2"]]}, "good 'g2' has no value vector"),
    ], ids=["no-agents", "no-rounds", "id-not-string", "id-without-vector"])
    def test_loader_rejects(self, changes, message):
        with pytest.raises(ValidationError, match=message):
            instance_from_json(_instance_json(**changes))


@pytest.mark.parametrize("build", [
    lambda: make_instance([[(1,)]], buffer=True),
    lambda: make_instance([[(1,)]], buffer=1.5),
    lambda: generate(2, 3, 1, 5, 1, buffer=2.5),
    lambda: TemporalInstance(n_agents=True, horizon=1, goods=()),
    lambda: TemporalInstance(n_agents=1, horizon=1.0, goods=()),
    lambda: TemporalInstance(n_agents=1, horizon=1, goods=(), buffer=False),
], ids=["value-rounds-buffer-bool", "value-rounds-buffer-float", "generate-buffer-float",
        "agents-bool", "horizon-float", "buffer-false"])
def test_instance_counts_must_be_ints(build):
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


class TestPrefixAndValidate:
    def make_alloc(self, inst, owner, placement=None):
        if placement is None:
            placement = {g.id: g.arrival for g in inst.goods}
        return TemporalAllocation(placement=placement, owner=owner)

    def test_prefix_accumulates(self):
        inst = make_instance([[(1, 1), (2, 2)], [(3, 3)]])
        alloc = self.make_alloc(inst, {"g1": 1, "g2": 2, "g3": 1})
        assert prefix(inst, alloc, 0) == (frozenset(), frozenset())
        assert prefix(inst, alloc, 1) == (frozenset({"g1"}), frozenset({"g2"}))
        assert prefix(inst, alloc, 2) == (
            frozenset({"g1", "g3"}),
            frozenset({"g2"}),
        )

    def test_prefix_respects_placements(self):
        inst = make_instance([[(1, 1)], [(2, 2)]], buffer=2)
        alloc = self.make_alloc(
            inst, {"g1": 1, "g2": 1}, placement={"g1": 2, "g2": 2}
        )
        assert prefix(inst, alloc, 1) == (frozenset(), frozenset())
        assert prefix(inst, alloc, 2) == (frozenset({"g1", "g2"}), frozenset())

    def test_prefix_rejects_bad_round(self):
        inst = make_instance([[(1, 1)]])
        alloc = self.make_alloc(inst, {"g1": 1})
        with pytest.raises(ValidationError):
            prefix(inst, alloc, 2)

    def test_validate_accepts_good_allocation(self):
        inst = make_instance([[(1, 1)], [(2, 2)]], buffer=2)
        alloc = self.make_alloc(
            inst, {"g1": 2, "g2": 1}, placement={"g1": 2, "g2": 2}
        )
        validate(inst, alloc)

    def test_validate_rejects_missing_good(self):
        inst = make_instance([[(1, 1), (2, 2)]])
        alloc = self.make_alloc(inst, {"g1": 1}, placement={"g1": 1})
        with pytest.raises(ValidationError):
            validate(inst, alloc)

    def test_validate_rejects_unknown_agent(self):
        inst = make_instance([[(1, 1)]])
        alloc = self.make_alloc(inst, {"g1": 5})
        with pytest.raises(ValidationError):
            validate(inst, alloc)

    def test_validate_rejects_owner_of_unknown_good(self):
        inst = make_instance([[(1, 1)], [(2, 2)]])
        alloc = self.make_alloc(inst, {"g1": 1, "g2": 2, "zz": 1})
        with pytest.raises(ValidationError, match=r"unknown goods in allocation: \['zz'\]"):
            validate(inst, alloc)

    def test_validate_rejects_unplaced_good(self):
        inst = make_instance([[(1, 1)], [(2, 2)]])
        alloc = self.make_alloc(inst, {"g1": 1, "g2": 2}, placement={"g1": 1})
        with pytest.raises(ValidationError, match="good 'g2' has no placement round"):
            validate(inst, alloc)

    def test_validate_rejects_placement_of_unknown_good(self):
        inst = make_instance([[(1, 1)], [(2, 2)]])
        alloc = self.make_alloc(
            inst, {"g1": 1, "g2": 2}, placement={"g1": 1, "g2": 2, "zz": 9}
        )
        with pytest.raises(ValidationError, match="zz"):
            validate(inst, alloc)

    def test_validate_rejects_placement_before_arrival(self):
        inst = make_instance([[(1, 1)], [(2, 2)]], buffer=2)
        alloc = self.make_alloc(
            inst, {"g1": 1, "g2": 1}, placement={"g1": 1, "g2": 1}
        )
        with pytest.raises(BufferViolation):
            validate(inst, alloc)

    def test_validate_rejects_placement_beyond_buffer(self):
        cases = [
            # past the buffer window
            ([[(1, 1)], [(2, 2)], [(3, 3)]], 1, {"g1": 2, "g2": 2, "g3": 3}),
            # inside the window but past the horizon
            ([[(1, 1)], [(2, 2)]], 5, {"g1": 1, "g2": 3}),
        ]
        for value_rounds, buffer, placement in cases:
            inst = make_instance(value_rounds, buffer=buffer)
            owner = {gid: 1 for gid in placement}
            alloc = self.make_alloc(inst, owner, placement=placement)
            with pytest.raises(BufferViolation):
                validate(inst, alloc)


class TestClassify:
    def test_identical_days_up_to_order(self):
        # same multiset of vectors per round, listed in different orders
        inst = make_instance([
            [(1, 2), (3, 4)],
            [(3, 4), (1, 2)],
        ])
        assert classify(inst).identical_days

    def test_different_days(self):
        inst = make_instance([[(1, 2)], [(2, 1)]])
        assert not classify(inst).identical_days

    def test_generalized_binary_with_level(self):
        inst = make_instance([[(0, 3), (3, 3)], [(3, 0)]])
        got = classify(inst)
        assert got.generalized_binary
        assert not got.bi_valued

    def test_all_zero_counts_as_binary(self):
        inst = make_instance([[(0, 0)]])
        got = classify(inst)
        assert got.generalized_binary

    def test_two_positive_levels_not_binary(self):
        inst = make_instance([[(2, 3)]])
        got = classify(inst)
        assert not got.generalized_binary
        assert got.bi_valued
        assert got.bi_valued_levels == (F(2), F(3))

    def test_bi_valued_excludes_zeros(self):
        inst = make_instance([[(0, 3), (2, 3)]])
        assert not classify(inst).bi_valued

    def test_no_goods_is_not_bi_valued(self):
        got = classify(instance_from_json({"agents": 2, "rounds": [[], []], "values": {}}))
        assert not got.bi_valued
        assert got.bi_valued_levels is None

    def test_single_positive_level_is_both(self):
        inst = make_instance([[(4, 4), (4, 4)]])
        got = classify(inst)
        assert got.bi_valued
        assert got.bi_valued_levels == (F(4), F(4))
        assert got.generalized_binary

    def test_identical_valuation(self):
        inst = make_instance([[(2, 2), (5, 5)], [(0, 0)]])
        assert classify(inst).identical_valuation
        inst = make_instance([[(2, 3)]])
        assert not classify(inst).identical_valuation

    def test_house_allocation_counts(self):
        inst = make_instance([[(1, 2), (3, 4)], [(5, 6), (7, 8)]])
        assert classify(inst).house_allocation
        inst = make_instance([[(1, 2), (3, 4)], [(5, 6)]])
        assert not classify(inst).house_allocation

    def test_flags_dict(self):
        inst = make_instance([[(1, 1)]])
        flags = classify(inst).flags()
        assert set(flags) == {
            "identical_days",
            "generalized_binary",
            "bi_valued",
            "identical_valuation",
            "house_allocation",
        }


class TestJson:
    def test_instance_round_trip(self):
        inst = make_instance([[(1, 2), (F(7, 2), 0)], [(3, 4)]], buffer=2)
        data = instance_to_json(inst)
        # str round trip: values serialized exactly
        again = instance_from_json(json.loads(json.dumps(data)))
        assert again == inst

    def test_instance_json_shape(self):
        inst = make_instance([[(1, F(1, 3))]])
        data = instance_to_json(inst)
        assert data["agents"] == 2
        assert data["buffer"] == 1
        assert data["rounds"] == [["g1"]]
        assert data["values"]["g1"] == ["1", "1/3"]

    def test_rejects_float_values(self):
        data = {
            "agents": 1,
            "buffer": 1,
            "rounds": [["g1"]],
            "values": {"g1": [1.5]},
        }
        with pytest.raises(ValidationError):
            instance_from_json(data)

    def test_rejects_orphan_value_vector(self):
        data = {
            "agents": 1,
            "buffer": 1,
            "rounds": [["g1"]],
            "values": {"g1": ["1"], "g2": ["2"]},
        }
        with pytest.raises(ValidationError):
            instance_from_json(data)

    def test_rejects_non_list_round(self):
        data = {
            "agents": 1,
            "buffer": 1,
            "rounds": ["g1"],
            "values": {"g1": ["1"]},
        }
        with pytest.raises(ValidationError):
            instance_from_json(data)

    def test_rejects_missing_field(self):
        with pytest.raises(ValidationError):
            instance_from_json({"agents": 1})

    def test_allocation_round_trip(self):
        inst = make_instance([[(1, 1)], [(2, 2)]], buffer=2)
        alloc = TemporalAllocation(
            placement={"g1": 2, "g2": 2},
            owner={"g1": 1, "g2": 2},
        )
        data = allocation_to_json(alloc)
        again = allocation_from_json(json.loads(json.dumps(data)))
        assert again.placement == {"g1": 2, "g2": 2}
        assert again.owner == {"g1": 1, "g2": 2}

    def test_allocation_rejects_mismatched_keys(self):
        data = {"placement": {"g1": 1}, "owner": {"g2": 1}}
        with pytest.raises(ValidationError):
            allocation_from_json(data)


def _instance_json(**changes):
    data = {"agents": 2, "buffer": 1, "rounds": [["g1"]],
            "values": {"g1": ["1", "2"]}}
    data.update(changes)
    return data


def _allocation_json(**changes):
    data = {"placement": {"g1": 1}, "owner": {"g1": 1}}
    data.update(changes)
    return data


@pytest.mark.parametrize("load, data", [
    (instance_from_json, _instance_json(values={"g1": "12"})),
    (instance_from_json, _instance_json(values={"g1": 5})),
    (instance_from_json, _instance_json(values=["g1"])),
    (instance_from_json, _instance_json(agents=True, values={"g1": ["1"]})),
    (instance_from_json, _instance_json(buffer=True)),
    (instance_from_json, _instance_json(rounds=3)),
    # a bool beside an equal literal: True == 1 and both hash alike
    (instance_from_json, _instance_json(values={"g1": ["1", True]})),
    (instance_from_json, _instance_json(values={"g1": [True, "1"]})),
    (instance_from_json, _instance_json(values={"g1": [1, True]})),
    (make_instance, [[(1, 1)], [(True, 1)]]),
    (allocation_from_json, _allocation_json(placement=[1])),
    (allocation_from_json, _allocation_json(owner=[1])),
    (allocation_from_json, _allocation_json(placement={"g1": True})),
    (allocation_from_json, _allocation_json(owner={"g1": True})),
], ids=[
    "vector-string", "vector-int", "values-list", "agents-bool",
    "buffer-bool", "rounds-int", "str-then-bool", "bool-then-str",
    "int-then-bool", "value-rounds-int-then-bool", "placement-list", "owner-list",
    "placement-bool", "owner-bool",
])
def test_loaders_reject_malformed_shapes(load, data):
    with pytest.raises(ValidationError):
        load(data)


@pytest.mark.parametrize("literal, message", [
    (1.5, "float value 1.5 rejected; use a string like '1/3'"),
    ("1e3", "exponent notation rejected: '1e3'"),
    ("2/0", "bad rational literal '2/0'"),
    ("x", "bad rational literal 'x'"),
    # PEP 515 underscores: Fraction(str) takes them from 3.11 on, 3.10 not
    ("1_000", "bad rational literal '1_000'"),
    ("1_0/2_0", "bad rational literal '1_0/2_0'"),
])
def test_loaders_keep_literal_messages(literal, message):
    for load, data in [
        (instance_from_json, _instance_json(values={"g1": ["1", literal]})),
        (make_instance, [[("1", "1")], [("1", literal)]]),
    ]:
        with pytest.raises(ValidationError) as exc:
            load(data)
        assert str(exc.value) == message


def test_literal_spellings_load_equal():
    want = instance_from_json(_instance_json(values={"g1": ["3", "3"]}))
    for vec in ([" 3 ", 3], [3, " 3 "], ["3", 3]):
        assert instance_from_json(_instance_json(values={"g1": vec})) == want


def test_values_are_parse_rational_of_each_literal():
    # repeats and different spellings of one value, in both loaders
    literals = ["1/2", "2/4", "0.5", " 1/2", "3", 3, " 3 ", "0", "-0",
                "7/3", "7/3", "1.50", F(5, 6), "5/6"]
    vectors = [(a, b) for a, b in zip(literals, reversed(literals))]
    ids = [f"g{k}" for k in range(1, len(vectors) + 1)]
    data = {"agents": 2, "rounds": [ids],
            "values": {gid: list(vec) for gid, vec in zip(ids, vectors)}}
    for inst in (instance_from_json(data), make_instance([vectors])):
        for g, vec in zip(inst.goods, vectors):
            assert g.values == tuple(parse_rational(v) for v in vec)
            assert all(type(v) is F for v in g.values)


def _documents():
    """A seeded document with string literals, with JSON ints, with the
    x3/7 twin's literals, and with the twin's Fractions, as
    ``from_value_rounds`` hands them to the loader."""
    inst = generate(3, 4, 3, 9, seed=5, buffer=2)
    data = instance_to_json(inst)
    yield data
    yield {**data, "values": {g.id: [int(v) for v in g.values] for g in inst.goods}}
    yield {**data, "values": {g.id: [str(v * F(3, 7)) for v in g.values] for g in inst.goods}}
    yield {**data, "values": {g.id: [v * F(3, 7) for v in g.values] for g in inst.goods}}
    yield {"agents": 4, "rounds": [[], []], "values": {}}


@pytest.mark.parametrize("data", list(_documents()),
                         ids=["str", "int", "twin", "fractions", "no-goods"])
def test_loaded_tables_equal_the_lazy_ones(data):
    # the loader and direct construction of the same goods store the same
    # fields, and agree on every table built from them
    loaded = instance_from_json(data)
    stored = set(vars(loaded))
    direct = TemporalInstance(loaded.n_agents, loaded.horizon, loaded.goods, loaded.buffer)
    assert set(vars(direct)) == stored == {f.name for f in fields(TemporalInstance)}
    assert direct == loaded
    for name in ("scale", "columns", "arrival", "rounds", "value_table", "goods", "goods_by_id"):
        assert getattr(direct, name) == getattr(loaded, name), name


def test_load_shares_one_fraction_per_distinct_literal():
    data = _instance_json(agents=3, rounds=[["g1", "g2"]],
                          values={"g1": [2, "1/2", 2], "g2": ["1/2", 2, " 1/2"]})
    (a, b, c), (d, e, f) = (g.values for g in instance_from_json(data).goods)
    assert a is c is e  # the int literal 2
    assert b is d is f  # '1/2' twice and ' 1/2': one value, one Fraction

