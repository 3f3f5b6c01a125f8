"""Generator contract: determinism, structural flags, rejection of bad asks."""

import random

import pytest

from tempfair.errors import ValidationError
from tempfair.generators import generate
from tempfair.model import classify, instance_to_json

from oracles import values_of


def test_same_seed_same_instance():
    a = generate(3, 4, 2, 9, seed=41)
    b = generate(3, 4, 2, 9, seed=41)
    assert instance_to_json(a) == instance_to_json(b)


def test_different_seed_usually_differs():
    hits = sum(
        instance_to_json(generate(3, 4, 2, 9, seed=s))
        == instance_to_json(generate(3, 4, 2, 9, seed=s + 1))
        for s in range(20)
    )
    assert hits == 0


def test_shape():
    inst = generate(4, 5, 3, 7, seed=0)
    assert inst.n_agents == 4
    assert inst.horizon == 5
    assert all(len(r) == 3 for r in inst.rounds)
    assert inst.buffer == 1


def test_buffer_passthrough():
    assert generate(2, 3, 2, 5, seed=0, buffer=3).buffer == 3


def test_value_bounds_respected():
    inst = generate(3, 6, 3, 5, seed=7, min_value=2)
    vals = [v for row in values_of(inst).values() for v in row.values()]
    assert all(2 <= v <= 5 for v in vals)


def test_house_overrides_goods_per_round():
    inst = generate(3, 4, 99, 6, seed=1, house_allocation=True)
    assert all(len(r) == 3 for r in inst.rounds)
    assert classify(inst).house_allocation


def test_rejects_contradictory_palettes():
    with pytest.raises(ValidationError):
        generate(2, 2, 2, 5, seed=0, generalized_binary=True, bi_valued=True)


def test_rejects_binary_with_positive_floor():
    with pytest.raises(ValidationError):
        generate(2, 2, 2, 5, seed=0, generalized_binary=True, min_value=1)


def test_rejects_degenerate_shapes():
    with pytest.raises(ValidationError):
        generate(0, 2, 2, 5, seed=0)
    with pytest.raises(ValidationError):
        generate(2, 0, 2, 5, seed=0)
    with pytest.raises(ValidationError):
        generate(2, 2, 0, 5, seed=0)
    with pytest.raises(ValidationError):
        generate(2, 2, 2, 0, seed=0)
    with pytest.raises(ValidationError):
        generate(2, 2, 2, 1, seed=0, min_value=2)


def test_house_ignores_zero_goods_per_round():
    inst = generate(2, 2, 0, 5, seed=0, house_allocation=True)
    assert all(len(r) == 2 for r in inst.rounds)


# every structural request must survive into the classifier's verdict
FLAG_SETS = [
    dict(),
    dict(identical_days=True),
    dict(generalized_binary=True),
    dict(bi_valued=True),
    dict(identical_valuation=True),
    dict(house_allocation=True),
    dict(identical_days=True, generalized_binary=True),
    dict(identical_days=True, bi_valued=True),
    dict(identical_days=True, house_allocation=True),
    dict(generalized_binary=True, identical_valuation=True),
    dict(bi_valued=True, identical_valuation=True),
    dict(identical_days=True, bi_valued=True, identical_valuation=True),
    dict(min_value=1),
    dict(identical_days=True, min_value=1),
]


@pytest.mark.parametrize("flags", FLAG_SETS, ids=lambda f: "+".join(sorted(f)) or "plain")
def test_requested_flags_never_lost(flags):
    rng = random.Random(str(sorted(flags)))
    for trial in range(80):
        n = rng.randint(1, 4)
        inst = generate(
            n,
            rng.randint(1, 5),
            rng.randint(1, 4),
            rng.randint(max(flags.get("min_value", 0), 1), 9),
            seed=trial * 31 + 5,
            **flags,
        )
        setting = classify(inst)
        for name, wanted in flags.items():
            if name == "min_value":
                assert all(
                    v >= wanted
                    for row in values_of(inst).values()
                    for v in row.values()
                )
            elif wanted:
                assert getattr(setting, name), (flags, trial, instance_to_json(inst))
