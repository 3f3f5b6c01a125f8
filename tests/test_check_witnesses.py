"""Verdict witnesses where good order is not arrival order.

A witness names the removed good, and ties between equally valued goods
break toward the smallest id (length first, then lexicographic).  The
cases below make that order differ from the order goods are handed out:
ids such as ``g10`` arrive before ``g9`` and ``b`` before ``a``, values
repeat often, and buffered placements move goods to later rounds.  Each
case is rebuilt from its seed and its verdicts for ``tef1``, ``tefx``,
per-agent ``atefx`` and ``tmms`` are compared with
``golden/check_witnesses.json``.

``PYTHONPATH=src python tests/test_check_witnesses.py`` rewrites the golden
file.
"""

import json
import random
from pathlib import Path

from tempfair.fairness import Concept, check_temporal
from tempfair.model import (
    TemporalAllocation,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
)

GOLDEN = Path(__file__).parent / "golden" / "check_witnesses.json"
N_SEEDED = 60

# agent 1 gets g10 at round 1 and g9 at round 2, both worth 1 to both
# agents; at round 2 agent 2 envies, and the removed good is g9
MINIMAL = (
    {"agents": 2, "rounds": [["g10"], ["g9"]], "values": {"g10": ["1", "1"], "g9": ["1", "1"]}},
    {"placement": {"g10": 1, "g9": 2}, "owner": {"g10": 1, "g9": 1}},
    "atefx:1,1",
)

ID_SCHEMES = [
    lambda k: f"g{k + 1}",  # g1..g12: g10 may arrive before g9
    lambda k: "abcdefghijkl"[k],
    lambda k: ["b", "a", "aa", "c", "ab", "d", "ba", "e", "z", "y", "ca", "x"][k],
]


def seeded_case(seed):
    """Instance JSON, allocation JSON and per-agent atefx concept for a seed."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    horizon = rng.randint(2, 4)
    buffer = rng.randint(1, 3)
    scheme = ID_SCHEMES[seed % len(ID_SCHEMES)]
    ids = [scheme(k) for k in rng.sample(range(12), rng.randint(3, 9))]
    palette = rng.sample(["0", "1", "2", "1/2", "3/2", "2/3"], rng.randint(2, 3))
    rounds = [[] for _ in range(horizon)]
    arrival = {}
    for gid in ids:  # shuffled ids, so arrival order differs from id order
        arrival[gid] = rng.randint(1, horizon)
        rounds[arrival[gid] - 1].append(gid)
    same = rng.random() < 0.4
    values = {}
    for gid in ids:
        level = rng.choice(palette)
        values[gid] = [level if same else rng.choice(palette) for _ in range(n)]
    placement = {
        gid: rng.randint(arrival[gid], min(arrival[gid] + buffer - 1, horizon))
        for gid in ids
    }
    owner = {gid: rng.randint(1, n) for gid in ids}
    alphas = ",".join(rng.choice(["1/2", "2/3", "3/4", "1"]) for _ in range(n))
    instance = {"agents": n, "buffer": buffer, "rounds": rounds, "values": values}
    return instance, {"placement": placement, "owner": owner}, f"atefx:{alphas}"


def cases():
    yield "minimal", MINIMAL
    for seed in range(N_SEEDED):
        yield f"seed-{seed}", seeded_case(seed)


def record(instance_data, allocation_data, atefx):
    inst = instance_from_json(instance_data)
    alloc = TemporalAllocation(allocation_data["placement"], allocation_data["owner"])
    return {
        "instance": instance_to_json(inst),
        "allocation": allocation_to_json(alloc),
        "verdicts": {
            text: check_temporal(inst, alloc, Concept.from_string(text)).to_json()
            for text in ("tef1", "tefx", atefx, "tmms")
        },
    }


def regenerate():
    return {name: record(*case) for name, case in cases()}


def test_witnesses_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = regenerate()
    assert list(fresh) == list(golden)
    for name, expected in golden.items():
        assert fresh[name] == expected, name


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in regenerate().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
