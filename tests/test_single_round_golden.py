"""Exact outputs of envy-cycle elimination and the envy-ordered pick rounds.

Both routines rotate bundles along envy cycles, and which cycle a
depth-first search finds first decides who ends with what.  The seeded
draws below give ties (values capped at 1, 2, 5 or 20) and rotations:
envy-cycle elimination on 1 to 6 agents, some with their list shuffled,
and pick rounds over copy classes that some agents value at zero, a few
of them malformed.  Each draw's bundles (in agent order) and trace, or
its error text, are compared with ``golden/single_round.json``.

``PYTHONPATH=src python tests/test_single_round_golden.py`` rewrites the
golden file; do so only for a change meant to alter these outputs.
"""

import json
import random
from pathlib import Path

from tempfair.errors import ValidationError
from tempfair.single_round import envy_cycle_elimination, envy_ordered_pick_rounds

GOLDEN = Path(__file__).parent / "golden" / "single_round.json"
# Plain draws are seeds 0 .. 199 and 0 .. 149.  Rotations are rare in
# them, so each routine also replays the first 100 (50) seeds from 1000
# up whose draw rotates bundles along an envy cycle at least once.
ECE_SEEDS = [*range(200),
    1076, 1077, 1110, 1259, 1280, 1326, 1329, 1338, 1376, 1444, 1450, 1459,
    1486, 1502, 1541, 1550, 1601, 1656, 1756, 1792, 1858, 1862, 1866, 1898,
    1954, 2013, 2020, 2033, 2046, 2064, 2178, 2246, 2315, 2375, 2492, 2544,
    2662, 2740, 2778, 2825, 2863, 2866, 2883, 2889, 2909, 2915, 3094, 3108,
    3183, 3200, 3344, 3368, 3405, 3418, 3464, 3626, 3644, 3645, 3743, 3796,
    3972, 3996, 4061, 4099, 4100, 4130, 4156, 4201, 4339, 4418, 4428, 4453,
    4600, 4637, 4657, 4792, 4845, 4876, 4909, 4924, 5013, 5061, 5136, 5149,
    5180, 5203, 5212, 5237, 5246, 5283, 5304, 5326, 5375, 5383, 5466, 5475,
    5540, 5619, 5625, 5674,
]
PICK_SEEDS = [*range(150),
    1066, 1164, 1172, 1213, 1341, 1369, 1406, 1487, 1591, 1663, 1685, 1689,
    1767, 1812, 1948, 2011, 2020, 2048, 2060, 2172, 2174, 2204, 2250, 2311,
    2405, 2406, 2432, 2440, 2465, 2506, 2544, 2581, 2605, 2638, 2672, 2757,
    2762, 2880, 2970, 3027, 3057, 3165, 3181, 3271, 3281, 3286, 3289, 3455,
    3508, 3510,
]


def ece_case(seed):
    """Goods in arrival order, value table and agent list for a seed."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    agents = list(range(1, n + 1))
    if rng.random() < 0.3:
        rng.shuffle(agents)
    cap = rng.choice([1, 2, 5, 20])
    goods = [f"g{k}" for k in rng.sample(range(1, 13), rng.randint(0, 8))]
    values = {i: {g: rng.randint(0, cap) for g in goods} for i in agents}
    return goods, values, agents


def pick_case(seed):
    """Copy classes, value table and agent list for a seed: every copy of
    a class carries one value vector, zero for some agents, except that a
    few draws break a class's vector or give it a copy too many."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    agents = list(range(1, n + 1))
    if rng.random() < 0.3:
        rng.shuffle(agents)
    cap = rng.choice([1, 2, 5, 20])
    ids = iter(f"g{k}" for k in rng.sample(range(1, 40), 31))
    classes = []
    values = {i: {} for i in agents}
    for _ in range(rng.randint(1, 5)):
        vec = {i: 0 if rng.random() < 0.3 else rng.randint(1, cap) for i in agents}
        members = [next(ids) for _ in range(rng.randint(1, n))]
        classes.append(members)
        for g in members:
            for i in agents:
                values[i][g] = vec[i]
    flaw = rng.random()
    if flaw < 0.04:
        members = [next(ids) for _ in range(n + 1)]
        classes.append(members)
        for g in members:
            for i in agents:
                values[i][g] = 1
    elif flaw < 0.08:
        odd = next(ids)
        classes[-1].append(odd)
        for i in agents:
            values[i][odd] = values[i][classes[-1][0]]
        values[agents[0]][odd] += 1
    return classes, values, agents


def outcome(run):
    """Bundles as [agent, bundle] pairs and the trace, or the error text."""
    trace = []
    try:
        bundles = run(trace)
    except ValidationError as exc:
        return {"error": str(exc)}
    return {"bundles": [[i, b] for i, b in bundles.items()], "trace": trace}


def regenerate():
    out = {}
    for seed in ECE_SEEDS:
        goods, values, agents = ece_case(seed)
        out[f"ece-{seed}"] = outcome(
            lambda trace: envy_cycle_elimination(goods, values, agents, trace=trace)
        )
    for seed in PICK_SEEDS:
        classes, values, agents = pick_case(seed)
        out[f"picks-{seed}"] = outcome(
            lambda trace: envy_ordered_pick_rounds(classes, values, agents, trace=trace)
        )
    return out


def test_single_round_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = regenerate()
    assert list(fresh) == list(golden)
    for name, expected in golden.items():
        assert fresh[name] == expected, name


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in regenerate().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
