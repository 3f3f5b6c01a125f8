"""Workload definitions: which cases a run draws, and what each op expects.

A workload is a list of slots.  A slot names one kind of case (a solver on
its own setting, or a search on one instance class) and owns a fixed pool
of cases, each pinned by ``(slot name, pool index)``.  The pool and the
expected answer of every op in it are recorded once in ``answers/`` by
``record.py``; a run draws its cases from the pools with the workload seed.

Draws are stratified: each slot's pool is sorted by the cost recorded for
it and cut into as many strata of neighbouring cost as the slot draws per
batch (see ``strata``), and each draw takes one case from its own stratum.
Every run therefore gets inputs of nearly the same cost, while the seed
decides which inputs.

Nothing here imports the package under test: ``case_shape`` gives the
``generate`` arguments and the caller builds the instance.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ANSWERS_DIR = BENCH_DIR / "answers"

# one batch is sized to take about this long on the reference machine; a
# run makes round(seconds / BATCH_SECONDS) batches, at least one
BATCH_SECONDS = 20

# every value of a twin instance is the original's times this factor
TWIN_SCALE = Fraction(3, 7)

CERTIFY_SOLVERS = (
    "tef1-house-t3",
    "tefx-genbinary-two",
    "tefx-genbinary-identical",
    "half-tefx-genbinary",
    "alpha-tefx-positive",
    "half-tefx-identical-days-two",
    "alpha-tefx-identical-valuation",
    "rr-bivalued",
    "tef1-identical-days-scheduled",
    "tefx-identical-days-scheduled-two",
)


@dataclass(frozen=True)
class Slot:
    """One kind of case with its pool size and draws per batch.

    ``shape`` maps a case's private random stream to ``generate`` keyword
    arguments (``None`` for the instance-free ``verify-paper`` op).  ``kind``
    selects the op list: ``certify`` (classify, solve, the recorded checks),
    ``share`` (classify, solve, check tmms), ``search`` (one search per
    concept in ``concepts``, on the same instance) or ``verify``.
    ``known_defect`` names the exception the solve op raises at the seed
    commit; such a case runs no checks.
    """

    name: str
    kind: str
    draws: int
    pool: int
    shape: Callable[[random.Random], dict] | None = None
    alg: str | None = None
    concepts: tuple[str, ...] = ()
    scheduled: bool = False
    twin: bool = False
    known_defect: str | None = None


def _gen(**fixed):
    """Shape helper: fixed generate() flags plus a drawn value seed."""

    def shape(rng: random.Random) -> dict:
        kwargs = {k: (v(rng) if callable(v) else v) for k, v in fixed.items()}
        kwargs["seed"] = rng.randrange(2**31)
        return kwargs

    return shape


def _between(lo, hi):
    return lambda rng: rng.randint(lo, hi)


def _odd(lo, hi):
    return lambda rng: rng.randrange(lo, hi + 1, 2)


def _scheduled_tef1(rng: random.Random) -> dict:
    # the solver needs a buffer of at least ceil(n/2)
    n = rng.randint(2, 6)
    return _gen(
        n_agents=n, horizon=_between(15, 30), goods_per_round=_between(2, 6),
        value_cap=20, identical_days=True, buffer=(n + 1) // 2,
    )(rng)


def _certify_slots() -> list[Slot]:
    shapes = {
        "tef1-house-t3": _gen(
            n_agents=_between(2, 6), horizon=3, goods_per_round=1,
            value_cap=20, house_allocation=True, identical_days=True,
        ),
        "tefx-genbinary-two": _gen(
            n_agents=2, horizon=_between(22, 45), goods_per_round=4,
            value_cap=9, generalized_binary=True,
        ),
        "tefx-genbinary-identical": _gen(
            n_agents=_between(3, 5), horizon=_between(18, 38),
            goods_per_round=4, value_cap=9, generalized_binary=True,
            identical_valuation=True,
        ),
        "half-tefx-genbinary": _gen(
            n_agents=_between(3, 4), horizon=_between(18, 38),
            goods_per_round=5, value_cap=9, generalized_binary=True,
        ),
        "alpha-tefx-positive": _gen(
            n_agents=_between(2, 4), horizon=_between(18, 38),
            goods_per_round=4, value_cap=20, min_value=1,
        ),
        "half-tefx-identical-days-two": _gen(
            n_agents=2, horizon=_between(18, 38), goods_per_round=5,
            value_cap=20, identical_days=True,
        ),
        "alpha-tefx-identical-valuation": _gen(
            n_agents=_between(2, 6), horizon=_between(18, 38),
            goods_per_round=5, value_cap=20, identical_valuation=True,
        ),
        "rr-bivalued": _gen(
            n_agents=_between(2, 5), horizon=_between(18, 38),
            goods_per_round=5, value_cap=20, bi_valued=True,
        ),
        "tef1-identical-days-scheduled": _scheduled_tef1,
        # the solver tail: an odd horizon searches split masks per pooled pair
        "tefx-identical-days-scheduled-two": _gen(
            n_agents=2, horizon=_odd(9, 11), goods_per_round=5,
            value_cap=20, identical_days=True, buffer=2,
        ),
    }
    slots = [
        Slot(f"certify/{alg}", "certify", draws=8, pool=24, shape=shapes[alg],
             alg=alg, twin=True)
        for alg in CERTIFY_SOLVERS
    ]
    # 1000-good allocations checked at every prefix
    slots.append(Slot(
        "certify/tefx-genbinary-two-1000", "certify", draws=2, pool=6,
        shape=_gen(n_agents=2, horizon=250, goods_per_round=4, value_cap=9,
                   generalized_binary=True),
        alg="tefx-genbinary-two", twin=True,
    ))
    # known defect: the router recurses once per good and overflows the
    # interpreter stack at 1000 goods (4 agents, 200 rounds of 5)
    slots.append(Slot(
        "certify/half-tefx-genbinary-1000", "certify", draws=1, pool=3,
        shape=_gen(n_agents=4, horizon=200, goods_per_round=5, value_cap=9,
                   generalized_binary=True),
        alg="half-tefx-genbinary", known_defect="RecursionError",
    ))
    return slots


def _share_slots() -> list[Slot]:
    return [
        # a wide value cap gives every instance its own level b
        Slot("share/tefx-genbinary-two", "share", draws=32, pool=96,
             shape=_gen(n_agents=2, horizon=_between(20, 32),
                        goods_per_round=4, value_cap=10**6,
                        generalized_binary=True),
             alg="tefx-genbinary-two"),
        Slot("share/tefx-identical-days-scheduled-two", "share", draws=32,
             pool=96,
             shape=_gen(n_agents=2, horizon=_odd(7, 11), goods_per_round=5,
                        value_cap=20, identical_days=True, buffer=2),
             alg="tefx-identical-days-scheduled-two"),
        Slot("share/search-bi-valued", "search", draws=6, pool=18,
             shape=_gen(n_agents=3, horizon=_between(12, 13),
                        goods_per_round=1, value_cap=9, bi_valued=True),
             concepts=("tmms",)),
        Slot("share/search-identical-days", "search", draws=6, pool=18,
             shape=_gen(n_agents=3, horizon=4, goods_per_round=3,
                        value_cap=9, identical_days=True),
             concepts=("tmms",)),
    ]


def _search_slots() -> list[Slot]:
    concepts = ("tefx", "tef1", "atefx:1/2")
    return [
        Slot("search/scheduled-identical-valuation", "search", draws=90,
             pool=270,
             shape=_gen(n_agents=3, horizon=4, goods_per_round=2, value_cap=9,
                        identical_valuation=True, buffer=2),
             concepts=concepts, scheduled=True),
        Slot("search/general", "search", draws=120, pool=360,
             shape=_gen(n_agents=_between(3, 4), horizon=3,
                        goods_per_round=3, value_cap=9),
             concepts=concepts),
        Slot("search/verify-paper", "verify", draws=1, pool=1),
    ]


WORKLOADS: dict[str, list[Slot]] = {
    "certify": _certify_slots(),
    "share": _share_slots(),
    "search": _search_slots(),
}


def case_shape(slot: Slot, index: int) -> dict | None:
    """``generate`` arguments of one pool case, from a stream of its own."""
    if slot.shape is None:
        return None
    return slot.shape(random.Random(f"{slot.name}#{index}"))


def load_answers(workload: str) -> dict:
    path = ANSWERS_DIR / f"{workload}.json"
    with open(path) as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Case:
    """One drawn case: a pool entry, possibly as its rational twin."""

    slot: Slot
    index: int
    twin: bool
    ops: list  # op specs, as recorded
    expect: list  # expected answer per op, twin-adjusted

    @property
    def label(self) -> str:
        return f"{self.slot.name}#{self.index}{'~twin' if self.twin else ''}"


def strata(pool: list[dict], count: int) -> list[list[dict]]:
    """Cut a pool into ``count`` runs of neighbouring cost, each about an
    equal share of the pool's total cost.

    Cut from the costly end, each stratum takes cases until it holds its
    share of what is left, so a case far costlier than the rest is a
    stratum of its own and is drawn by every run, while cheap cases share
    strata and are drawn by some.
    """
    ordered = sorted(pool, key=lambda c: (-c["cost"], c["index"]))
    left = sum(c["cost"] for c in ordered)
    cut: list[list[dict]] = []
    pos = 0
    for k in range(count, 0, -1):
        share = left / k
        stratum = [ordered[pos]]
        pos += 1
        while (len(ordered) - pos >= k and
               sum(c["cost"] for c in stratum) + ordered[pos]["cost"] / 2 <= share):
            stratum.append(ordered[pos])
            pos += 1
        if k == 1:
            stratum += ordered[pos:]
        left -= sum(c["cost"] for c in stratum)
        cut.append(stratum)
    return cut


def draw_cases(workload: str, seed: int, seconds: float, answers: dict) -> list[Case]:
    """The cases of one run, in run order, drawn from the recorded pools."""
    rng = random.Random(f"{workload}:{seed}")
    n_batches = max(1, round(seconds / BATCH_SECONDS))
    picked: list[list[tuple[Slot, dict]]] = [[] for _ in range(n_batches)]
    for slot in WORKLOADS[workload]:
        for stratum in strata(answers["slots"][slot.name], slot.draws):
            # without replacement until a stratum runs dry
            order = rng.sample(stratum, len(stratum))
            for b in range(n_batches):
                picked[b].append((slot, order[b % len(order)]))
    cases = []
    for batch in picked:
        rng.shuffle(batch)
        for slot, rec in batch:
            cases.append(Case(slot, rec["index"], False, rec["ops"], rec["expect"]))
            if slot.twin:
                cases.append(Case(
                    slot, rec["index"], True, rec["ops"],
                    [twin_expect(op, exp) for op, exp in zip(rec["ops"], rec["expect"])],
                ))
    return cases


def twin_expect(op: list, expected: dict) -> dict:
    """A twin's answer: the same, with a verdict shortfall scaled."""
    if op[0] != "check" or expected.get("verdict", {}).get("shortfall") is None:
        return expected
    verdict = dict(expected["verdict"])
    verdict["shortfall"] = str(Fraction(verdict["shortfall"]) * TWIN_SCALE)
    return {**expected, "verdict": verdict}


def digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def instance_json(instance, scale: Fraction = Fraction(1)) -> dict:
    """The tempfair.v1 instance document, every value times ``scale``."""
    return {
        "format": "tempfair.v1",
        "agents": instance.n_agents,
        "buffer": instance.buffer,
        "rounds": [list(r) for r in instance.rounds],
        "values": {
            g.id: [str(v * scale) for v in g.values] for g in instance.goods
        },
    }
