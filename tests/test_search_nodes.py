"""Exact node counts of searches where round-boundary states recur.

``search`` skips a round-boundary state whose subtree it has already
exhausted, and adds the decisions that subtree made to ``nodes_visited``,
so the count is the one a search without the skip makes.  The cases are
identical-days and identical-valuation instances with 2 to 4 agents at
buffers 2 and 3, where different assignments reach the same bundles; each
is searched under one of the four concepts, with or without scheduling,
and ``exists``, the witness, ``nodes_visited`` and ``space_bound`` are
compared with ``golden/search_nodes.json``.  The golden was recorded by a
search that had no such skip.

``PYTHONPATH=src python tests/test_search_nodes.py`` rewrites the golden
file; do so only for a change meant to alter these searches.
"""

import json
import random
from pathlib import Path

from tempfair import Concept, search
from tempfair.generators import generate

GOLDEN = Path(__file__).parent / "golden" / "search_nodes.json"
CONCEPTS = ["tef1", "tefx", "atefx:9/10", "tmms"]
# For each concept and scheduling flag, the first nine seeds below 10 000
# whose search revisits an exhausted state at least twice.  No tef1 search
# below 10 000 revisits one, so tef1 keeps three plain seeds per flag.
SEEDS = (
    0, 8, 16, 4, 12, 20,
    2121, 2545, 3633, 5553, 6361, 8921, 9353, 9785, 9953,
    469, 845, 1181, 1389, 1621, 2445, 3173, 3893, 3909,
    2034, 2210, 2410, 3906, 4434, 4578, 9170, 9202, 9658,
    246, 622, 702, 1966, 2318, 2430, 2574, 3014, 3158,
    123, 275, 571, 667, 723, 1091, 1651, 2107, 2179,
    79, 175, 263, 359, 375, 455, 623, 711, 759,
)


def seeded_case(seed):
    """Instance, concept text and scheduling flag for a seed; the concept
    and the flag cycle through their eight pairs with the seed."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    horizon = {2: rng.choice([3, 5, 7]), 3: rng.choice([3, 4]), 4: 3}[n]
    identical_days = rng.random() < 0.5
    instance = generate(
        n,
        horizon,
        rng.randint(1, 2 if horizon == 7 else 3),
        rng.randint(2, 12),
        seed=seed,
        identical_days=identical_days,
        identical_valuation=not identical_days,
        buffer=rng.randint(2, 3),
    )
    return instance, CONCEPTS[seed % 4], bool(seed // 4 % 2)


def record(instance, concept, scheduled):
    return {"concept": concept, "scheduled": scheduled,
            **search(instance, Concept.from_string(concept), scheduled).to_json()}


def regenerate():
    return {f"seed-{seed}": record(*seeded_case(seed)) for seed in SEEDS}


def test_node_counts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    fresh = regenerate()
    assert list(fresh) == list(golden)
    for name, expected in golden.items():
        assert fresh[name] == expected, name


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in regenerate().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
