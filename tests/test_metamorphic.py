"""Metamorphic properties of the whole toolkit, drawn with Hypothesis.

Instances have at most 8 goods, 2 or 3 agents and rational values with
denominators up to 12, often with the structure some solver asks for
(identical days, identical valuations, {0, b} or two positive levels).
Each property transforms an instance in a way the definitions cannot see
and compares every layer's output before and after:

* scaling every value by one positive rational c scales each shortfall by
  c and changes nothing else;
* renaming goods in an order-preserving way changes nothing but the ids;
* relabelling agents keeps each verdict's outcome and round and each
  search's existence, and each relabelled witness is a real violation;
* instance and allocation JSON round-trip exactly.

One more property draws values with large prime denominators: the integer
``columns``, ``value_table`` and ``classify`` agree with their Fraction
references.
"""

import dataclasses
import json
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tempfair.errors import TempfairError
from tempfair.fairness import Concept, check_temporal
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
    prefix,
)
from tempfair.search import search
from tempfair.solvers import SOLVERS

from oracles import (
    naive_alpha_efx,
    naive_classify,
    naive_ef1,
    naive_efx,
    naive_mms_share,
    values_of,
)

MAX_GOODS = 8
rationals = st.fractions(min_value=0, max_value=12, max_denominator=12)
positives = st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12)
alphas = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)


# large prime denominators, so the scale is a product of several of them
coprime_values = st.builds(
    F, st.integers(0, 10**12), st.sampled_from([1, 7919, 104729, 999983, 2**31 - 1])
)
coprime_levels = coprime_values.filter(bool)


@st.composite
def instances(draw, rationals=rationals, positives=positives):
    """An instance, often with one of the structures the solvers need."""
    n = draw(st.integers(2, 3))
    horizon = draw(st.integers(1, 4))
    palette = draw(st.sampled_from(["any", "binary", "bivalued"]))
    if palette == "binary":
        value = st.sampled_from([F(0), draw(positives)])
    elif palette == "bivalued":
        value = st.sampled_from([draw(positives), draw(positives)])
    else:
        value = rationals
    same_valuation = draw(st.booleans())

    def vector():
        if same_valuation:
            return (draw(value),) * n
        return tuple(draw(value) for _ in range(n))

    per_round = MAX_GOODS // horizon
    if draw(st.booleans()):  # identical days
        day = [vector() for _ in range(draw(st.integers(1, per_round)))]
        rounds = [day] * horizon
    else:
        rounds = [
            [vector() for _ in range(draw(st.integers(t == 0, per_round)))]
            for t in range(horizon)
        ]
    return TemporalInstance.from_value_rounds(rounds, buffer=draw(st.integers(1, 3)))


@st.composite
def cases(draw):
    """An instance, an allocation of it, and per-agent alphas."""
    inst = draw(instances())
    owner = {g.id: draw(st.integers(1, inst.n_agents)) for g in inst.goods}
    placement = {
        g.id: draw(st.integers(g.arrival, min(g.arrival + inst.buffer - 1, inst.horizon)))
        for g in inst.goods
    }
    per_agent = tuple(draw(alphas) for _ in inst.agents)
    return inst, TemporalAllocation(placement, owner), per_agent


def concepts(per_agent):
    return [Concept("tef1"), Concept("tefx"), Concept("atefx", per_agent), Concept("tmms")]


def rebuild(inst, scale=1, ids=None, perm=None):
    """``inst`` with values times ``scale``, good ids renamed by ``ids`` and
    agent i's values moved to agent ``perm[i]``."""
    ids = ids or {g.id: g.id for g in inst.goods}
    perm = perm or {i: i for i in inst.agents}
    goods = []
    for g in inst.goods:
        vals = [None] * inst.n_agents
        for i in inst.agents:
            vals[perm[i] - 1] = g.values[i - 1] * scale
        goods.append(Good(ids[g.id], g.arrival, tuple(vals)))
    return TemporalInstance(inst.n_agents, inst.horizon, tuple(goods), inst.buffer)


def move(alloc, ids=None, perm=None):
    """``alloc`` with good ids renamed and owners relabelled."""
    ids = ids or {g: g for g in alloc.owner}
    perm = perm or {i: i for i in set(alloc.owner.values())}
    return TemporalAllocation(
        {ids[g]: t for g, t in alloc.placement.items()},
        {ids[g]: perm[i] for g, i in alloc.owner.items()},
    )


def solved(inst):
    """Per solver: allocation JSON, trace and certified concepts, or the
    error it raised."""
    out = {}
    for name, entry in SOLVERS.items():
        trace = []
        try:
            alloc = entry.run(inst, trace=trace)
        except TempfairError as exc:
            out[name] = (type(exc).__name__, str(exc))
            continue
        out[name] = (
            allocation_to_json(alloc), trace, [str(c) for c in entry.concepts(inst)]
        )
    return out


def searched(inst, concept):
    return search(inst, concept, use_scheduling=inst.buffer > 1)


def increasing_ids(inst, numbers):
    """Good ids in canonical order mapped to ``x<number>`` for increasing
    numbers, which keeps the canonical order."""
    old = sorted((g.id for g in inst.goods), key=good_key)
    return {g: f"x{k}" for g, k in zip(old, sorted(numbers))}


@settings(max_examples=120)
@given(cases(), positives, st.sampled_from(["tef1", "tefx", "tmms"]))
def test_scaling_values_scales_only_the_shortfall(case, c, kind):
    inst, alloc, per_agent = case
    scaled = rebuild(inst, scale=c)
    assert classify(scaled).flags() == classify(inst).flags()
    for concept in concepts(per_agent):
        before = check_temporal(inst, alloc, concept)
        after = check_temporal(scaled, alloc, concept)
        assert after.holds == before.holds
        assert (after.round, after.envious, after.envied, after.removed_good) == (
            before.round, before.envious, before.envied, before.removed_good
        )
        if before.shortfall is not None:
            assert after.shortfall == before.shortfall * c
    assert solved(scaled) == solved(inst)
    concept = Concept(kind)
    assert searched(scaled, concept).to_json() == searched(inst, concept).to_json()


@settings(max_examples=120)
@given(
    cases(),
    st.lists(st.integers(0, 10**6), min_size=MAX_GOODS, max_size=MAX_GOODS, unique=True),
    st.sampled_from(["tef1", "tefx", "tmms"]),
)
def test_renaming_goods_in_order_changes_only_ids(case, numbers, kind):
    inst, alloc, per_agent = case
    ids = increasing_ids(inst, numbers[: len(inst.goods)])
    renamed = rebuild(inst, ids=ids)
    assert classify(renamed).flags() == classify(inst).flags()
    moved = move(alloc, ids=ids)
    for concept in concepts(per_agent):
        before = check_temporal(inst, alloc, concept).to_json()
        if before["removed_good"] is not None:
            before["removed_good"] = ids[before["removed_good"]]
        assert check_temporal(renamed, moved, concept).to_json() == before

    expected = {}
    for name, result in solved(inst).items():
        if isinstance(result[0], str):  # an error names no good
            expected[name] = result
            continue
        placement_owner, trace, certified = result
        expected[name] = (
            allocation_to_json(move(allocation_from_json(placement_owner), ids=ids)),
            [{**row, "good": ids[row["good"]]} for row in trace],
            certified,
        )
    assert solved(renamed) == expected

    concept = Concept(kind)
    before, after = searched(inst, concept), searched(renamed, concept)
    assert (after.exists, after.nodes_visited, after.space_bound) == (
        before.exists, before.nodes_visited, before.space_bound
    )
    if before.exists:
        assert after.witness == move(before.witness, ids=ids)


def is_violation(inst, alloc, concept, t, i, j):
    """Agent i fails the concept at round t, against agent j for envy, by
    the naive oracles."""
    values = values_of(inst)
    packed = prefix(inst, alloc, t)
    if concept.kind == "tmms":
        pool = [g for b in packed for g in b]
        mine = sum(values[i][g] for g in packed[i - 1])
        return mine < naive_mms_share([values[i][g] for g in pool], inst.n_agents)
    # only i can envy: j's values are all zero
    pair = {i: sorted(packed[i - 1]), j: sorted(packed[j - 1])}
    pair_values = {i: values[i], j: {g: 0 for g in values[j]}}
    if concept.kind == "tef1":
        return not naive_ef1(pair_values, pair)
    if concept.kind == "tefx":
        return not naive_efx(pair_values, pair)
    return not naive_alpha_efx(pair_values, pair, list(concept.alpha))


@settings(max_examples=120)
@given(cases(), st.permutations([1, 2, 3]), st.sampled_from(["tef1", "tefx", "tmms"]))
def test_relabelling_agents_keeps_outcomes(case, order, kind):
    inst, alloc, per_agent = case
    perm = {i: p for i, p in zip(inst.agents, [a for a in order if a <= inst.n_agents])}
    back = {p: i for i, p in perm.items()}
    relabelled = rebuild(inst, perm=perm)
    assert classify(relabelled).flags() == classify(inst).flags()
    moved = move(alloc, perm=perm)
    moved_alphas = tuple(per_agent[back[p] - 1] for p in inst.agents)
    for concept, moved_concept in zip(concepts(per_agent), concepts(moved_alphas)):
        before = check_temporal(inst, alloc, concept)
        after = check_temporal(relabelled, moved, moved_concept)
        assert (after.holds, after.round) == (before.holds, before.round)
        if not after.holds:
            envied = back[after.envied] if after.envied else None
            assert is_violation(inst, alloc, concept, after.round, back[after.envious], envied)

    concept = Concept(kind)
    before, after = searched(inst, concept), searched(relabelled, concept)
    assert after.exists == before.exists
    if after.exists:
        assert check_temporal(inst, move(after.witness, perm=back), concept).holds


@settings(max_examples=120)
@given(cases())
def test_json_round_trips(case):
    inst, alloc, _ = case
    text = json.dumps(instance_to_json(inst))
    assert instance_from_json(json.loads(text)) == inst
    assert json.dumps(instance_to_json(instance_from_json(json.loads(text)))) == text
    data = json.loads(json.dumps(allocation_to_json(alloc)))
    assert allocation_from_json(data) == alloc


@settings(max_examples=200)
@given(instances(coprime_values, coprime_levels))
def test_integer_table_and_classify_match_fraction_references(inst):
    scale = inst.scale
    assert inst.value_table == {
        i: {g.id: int(g.values[i - 1] * scale) for g in inst.goods} for i in inst.agents
    }
    assert inst.columns == {g.id: tuple(int(v * scale) for v in g.values) for g in inst.goods}
    assert dataclasses.asdict(classify(inst)) == naive_classify(inst)
