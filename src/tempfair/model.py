"""Core data model for temporal fair division instances.

Goods arrive over a horizon of ``T`` rounds.  Every good carries one value
per agent: an exact Fraction at the boundary (floats and bools are
rejected wherever values enter), and inside an integer, that value times
the instance's ``scale``, the LCM of all value denominators.  Every layer
sums and compares the integers of ``columns``, one tuple per good in agent
order, ``classify`` included; ``value_table`` is their agent-major view.
The loader checks a document in whole-document scans, parses each distinct
literal once with ``parse_rational`` and fills ``scale``, ``columns`` and
``goods_by_id``; its good-by-good walk runs only to word a rejection.  An
allocation maps each good to the round it is handed out (its placement, at
most ``buffer - 1`` rounds after arrival) and to the agent who owns it.

Agents are indexed 1..n in the public API.  Internally bundles are kept as
tuples indexed 0..n-1; helpers here do the translation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, count, repeat
from typing import Mapping, Sequence

from .errors import BufferViolation, ValidationError


def good_key(good_id: str) -> tuple[int, str]:
    """Sort key for good ids: length first, then lexicographic.

    Makes ``g2`` sort before ``g10`` without requiring numeric suffixes.
    """
    return (len(good_id), good_id)


def parse_rational(text) -> Fraction:
    """Parse a rational from a string like '3', '2/7' or '1.5'.

    Ints and Fractions pass through.  Floats and bools are rejected:
    exactness is load-bearing for every checker here.  So is exponent
    notation: ``Fraction('1e999999999')`` builds the power before any check.
    ASCII digit strings ``p`` and ``p/q`` skip ``Fraction(str)``'s regex;
    every other spelling goes through it.
    """
    if isinstance(text, str):
        if "e" in text or "E" in text:
            raise ValidationError(f"exponent notation rejected: {text!r}")
        if "_" in text:  # Fraction(str) takes PEP 515 underscores from 3.11 on
            raise ValidationError(f"bad rational literal {text!r}")
        p, slash, q = text.partition("/")
        try:
            if text.isascii() and p.isdigit() and (q.isdigit() or not slash):
                return Fraction(int(p), int(q)) if slash else Fraction(int(p))
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {text!r}") from exc
    if isinstance(text, bool):
        raise ValidationError(f"not a rational value: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, float):
        raise ValidationError(
            f"float value {text!r} rejected; use a string like '1/3'"
        )
    raise ValidationError(f"not a rational value: {text!r}")


@dataclass(frozen=True)
class Good:
    """One indivisible good: an id, an arrival round, and per-agent values."""

    id: str
    arrival: int
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class TemporalInstance:
    """An arrival sequence of goods plus the number of agents and the buffer.

    ``buffer`` is the width of the placement window: a good arriving at
    round t may be handed out at any round in [t, t + buffer - 1] that does
    not exceed the horizon.  ``buffer == 1`` means goods are handed out on
    arrival, which is the plain (unscheduled) model.
    """

    n_agents: int
    horizon: int
    goods: tuple[Good, ...]
    buffer: int = 1

    def __post_init__(self):
        """Check the instance.  The loader's ``_scan`` builds instances
        without this method, so it must enforce every check made here."""
        for field in ("n_agents", "horizon", "buffer"):
            _json_int(getattr(self, field), field)
        if self.n_agents < 1:
            raise ValidationError("need at least one agent")
        if self.horizon < 1:
            raise ValidationError("horizon must be at least 1")
        if self.buffer < 1:
            raise ValidationError("buffer must be at least 1")
        seen = set()
        for g in self.goods:
            if g.id in seen:
                raise ValidationError(f"duplicate good id {g.id!r}")
            seen.add(g.id)
            if not 1 <= g.arrival <= self.horizon:
                raise ValidationError(
                    f"good {g.id!r} arrives at round {g.arrival}, "
                    f"outside 1..{self.horizon}"
                )
            if len(g.values) != self.n_agents:
                raise ValidationError(
                    f"good {g.id!r} has {len(g.values)} values for "
                    f"{self.n_agents} agents"
                )
            for v in g.values:
                if not isinstance(v, Fraction):
                    raise ValidationError(
                        f"good {g.id!r} has non-Fraction value {v!r}"
                    )
                if v.numerator < 0:
                    raise ValidationError(f"good {g.id!r} has negative value")

    @property
    def agents(self) -> range:
        """Agent indices, 1-based."""
        return range(1, self.n_agents + 1)

    @cached_property
    def goods_by_id(self) -> dict[str, Good]:
        return {g.id: g for g in self.goods}

    @cached_property
    def rounds(self) -> tuple[tuple[str, ...], ...]:
        """Good ids grouped by arrival round, each group in canonical order."""
        buckets: list[list[str]] = [[] for _ in range(self.horizon)]
        for g in self.goods:
            buckets[g.arrival - 1].append(g.id)
        return tuple(tuple(sorted(b, key=good_key)) for b in buckets)

    @cached_property
    def scale(self) -> int:
        """LCM of every value denominator; 1 when there are no goods."""
        return math.lcm(*(v.denominator for g in self.goods for v in g.values))

    @cached_property
    def columns(self) -> dict[str, tuple[int, ...]]:
        """The integer table: good id, in instance order, to its values times
        ``scale`` in agent order, cut ``n_agents`` at a time (none with no good).
        The loader fills it; a directly built instance computes it here."""
        scale, width = self.scale, (self.n_agents if self.goods else 0)
        ints = iter([v.numerator * (scale // v.denominator) for g in self.goods for v in g.values])
        return dict(zip((g.id for g in self.goods), zip(*[ints] * width)))

    @cached_property
    def value_table(self) -> dict[int, dict[str, int]]:
        """The agent-major view of ``columns``, keyed by 1-based agent then
        good id, for the routines that read ``values[i][g]``."""
        return {i: {g: column[i - 1] for g, column in self.columns.items()} for i in self.agents}

    @classmethod
    def from_value_rounds(
        cls,
        value_rounds: Sequence[Sequence[Sequence]],
        buffer: int = 1,
    ) -> "TemporalInstance":
        """Build an instance from per-round lists of per-agent value vectors.

        ``value_rounds[t][k]`` is the value vector of the k-th good arriving
        at round t+1.  Ids are generated as g1, g2, ... zero-padded so the
        canonical good order matches creation order; ``instance_from_json``
        then reads each value by ``parse_rational`` and checks the instance.
        """
        total = sum(len(r) for r in value_rounds)
        if not total:
            raise ValidationError("instance has no goods")
        ids = (f"g{k:0{len(str(total))}d}" for k in range(1, total + 1))
        rounds = [[next(ids) for _ in r] for r in value_rounds]
        vectors = [list(vec) for r in value_rounds for vec in r]
        return instance_from_json({
            "agents": len(vectors[0]),
            "buffer": buffer,
            "rounds": rounds,
            "values": dict(zip((gid for r in rounds for gid in r), vectors)),
        })


@dataclass(frozen=True)
class TemporalAllocation:
    """A full outcome: when each good is handed out and to whom.

    ``placement`` maps good id to the round it is handed out; ``owner``
    maps good id to a 1-based agent index.
    """

    placement: Mapping[str, int]
    owner: Mapping[str, int]


def prefix(
    instance: TemporalInstance,
    allocation: TemporalAllocation,
    t: int,
) -> tuple[frozenset[str], ...]:
    """Per-agent bundles of goods handed out in rounds 1..t.

    t = 0 gives empty bundles.  Index i-1 of the result is agent i's bundle.
    """
    if not 0 <= t <= instance.horizon:
        raise ValidationError(
            f"round {t} outside 0..{instance.horizon}"
        )
    bundles: list[set[str]] = [set() for _ in range(instance.n_agents)]
    for gid, agent in allocation.owner.items():
        if allocation.placement[gid] <= t:
            bundles[agent - 1].add(gid)
    return tuple(frozenset(b) for b in bundles)


def validate(instance: TemporalInstance, allocation: TemporalAllocation) -> None:
    """Check an allocation against the instance; raise on any defect.

    Every good must be owned by a valid agent and placed inside its delay
    window, no later than the horizon; owner and placement may name no
    other goods.
    """
    owned = set(allocation.owner)
    all_ids = set(instance.goods_by_id)
    missing = all_ids - owned
    if missing:
        raise ValidationError(f"goods never allocated: {sorted(missing, key=good_key)}")
    extra = owned - all_ids
    if extra:
        raise ValidationError(f"unknown goods in allocation: {sorted(extra, key=good_key)}")
    stray = set(allocation.placement) - all_ids
    if stray:
        raise ValidationError(f"unknown goods in placement: {sorted(stray, key=good_key)}")
    for gid, agent in allocation.owner.items():
        if not 1 <= agent <= instance.n_agents:
            raise ValidationError(f"good {gid!r} owned by invalid agent {agent}")
        placed = allocation.placement.get(gid)
        if placed is None:
            raise ValidationError(f"good {gid!r} has no placement round")
        arrival = instance.goods_by_id[gid].arrival
        if placed < arrival:
            raise BufferViolation(
                f"good {gid!r} placed at round {placed} before arrival {arrival}"
            )
        if placed > arrival + instance.buffer - 1:
            raise BufferViolation(
                f"good {gid!r} placed at round {placed}, window ends at "
                f"{arrival + instance.buffer - 1}"
            )
        if placed > instance.horizon:
            raise BufferViolation(
                f"good {gid!r} placed past horizon at round {placed}"
            )


@dataclass(frozen=True)
class SettingClass:
    """Which structured valuation classes an instance belongs to.

    ``generalized_binary`` means values all lie in {0, b} for one b; an
    all-zero instance counts.  ``bi_valued_levels`` is the (low, high) pair
    when all values are positive and take at most two distinct levels; a
    single positive level means low == high.
    """

    identical_days: bool
    generalized_binary: bool
    bi_valued: bool
    bi_valued_levels: tuple[Fraction, Fraction] | None
    identical_valuation: bool
    house_allocation: bool

    def flags(self) -> dict[str, bool]:
        return {
            "identical_days": self.identical_days,
            "generalized_binary": self.generalized_binary,
            "bi_valued": self.bi_valued,
            "identical_valuation": self.identical_valuation,
            "house_allocation": self.house_allocation,
        }


def classify(instance: TemporalInstance) -> SettingClass:
    """Detect which structured classes an instance falls into.

    Reads the integer ``columns``: ``scale > 0`` is a common factor of
    every entry, so equality and order are those of the values, and the
    levels are returned as ``Fraction(level, scale)``.  Identical days
    compares the multiset of value vectors round by round.  House shape
    means exactly n goods arrive each round.
    """
    columns = instance.columns
    day_multisets = [
        sorted(columns[gid] for gid in round_ids) for round_ids in instance.rounds
    ]
    identical_days = all(m == day_multisets[0] for m in day_multisets[1:])

    distinct = set().union(*columns.values())
    positive = sorted(v for v in distinct if v > 0)
    gen_binary = len(positive) <= 1
    bi_valued = 0 not in distinct and len(distinct) >= 1 and len(positive) <= 2
    if bi_valued and positive:
        levels = (Fraction(positive[0], instance.scale), Fraction(positive[-1], instance.scale))
    else:
        levels = None

    # every agent values each good alike: one distinct value per column
    identical_valuation = all(len(set(column)) == 1 for column in columns.values())
    house = all(
        len(round_ids) == instance.n_agents for round_ids in instance.rounds
    )
    return SettingClass(
        identical_days=identical_days,
        generalized_binary=gen_binary,
        bi_valued=bi_valued,
        bi_valued_levels=levels,
        identical_valuation=identical_valuation,
        house_allocation=house,
    )


# --- JSON round-tripping ---------------------------------------------------

def instance_to_json(instance: TemporalInstance) -> dict:
    return {
        "agents": instance.n_agents,
        "buffer": instance.buffer,
        "rounds": [list(r) for r in instance.rounds],
        "values": {
            g.id: [str(v) for v in g.values] for g in instance.goods
        },
    }


def _json_int(value, what: str) -> int:
    """An int, but not a bool: bools are ints in Python but not here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def instance_from_json(data: dict) -> TemporalInstance:
    """Read an instance document: ``_scan`` builds it, checked, in
    whole-document passes; only when a scan fails does ``_walk`` read it
    good by good, to raise its first error in document order."""
    try:
        n = data["agents"]
        rounds = data["rounds"]
        values = data["values"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"instance JSON missing field: {exc}") from exc
    n = _json_int(n, "'agents'")
    buffer = _json_int(data.get("buffer", 1), "'buffer'")
    if not isinstance(rounds, list):
        raise ValidationError("'rounds' must be a list of rounds")
    if not isinstance(values, dict):
        raise ValidationError("'values' must map good ids to value vectors")
    instance = _scan(n, rounds, values, buffer)
    return _walk(n, rounds, values, buffer) if instance is None else instance


def _scan(n: int, rounds: list, values: dict, buffer: int) -> TemporalInstance | None:
    """The instance, or None when a check fails.  Each distinct literal is
    parsed once and gives one table integer; the per-value checks of
    ``__post_init__`` are not run again."""
    if n < 1 or buffer < 1 or not rounds or not set(map(type, rounds)) <= {list}:
        return None
    ids = list(chain.from_iterable(rounds))
    if not set(map(type, ids)) <= {str}:
        return None
    id_set = set(ids)
    if len(id_set) < len(ids) or values.keys() != id_set:
        return None
    vectors = list(map(values.__getitem__, ids))
    if not set(map(type, vectors)) <= {list} or not set(map(len, vectors)) <= {n}:
        return None
    flat = list(chain.from_iterable(vectors))
    # no bool or float, which equal and hash like ints, may key the dicts below
    if not set(map(type, flat)) <= {str, int, Fraction}:
        return None
    try:
        fractions = {v: parse_rational(v) for v in set(flat)}
    except ValidationError:
        return None
    scale = math.lcm(*{f.denominator for f in fractions.values()})
    ints = {v: f.numerator * (scale // f.denominator) for v, f in fractions.items()}
    if min(ints.values(), default=0) < 0:
        return None
    # n values per good, cut from one pass over the literals; with no good
    # there is nothing to cut, whatever n is
    width = n if flat else 0
    vals = zip(*[map(fractions.__getitem__, flat)] * width)
    arrivals = chain.from_iterable(map(repeat, count(1), map(len, rounds)))
    goods = tuple(map(Good, ids, arrivals, vals))
    instance = object.__new__(TemporalInstance)
    instance.__dict__.update(
        n_agents=n, horizon=len(rounds), goods=goods, buffer=buffer, scale=scale,
        columns=dict(zip(ids, zip(*[map(ints.__getitem__, flat)] * width))),
        goods_by_id=dict(zip(ids, goods)),
    )
    return instance


def _walk(n: int, rounds: list, values: dict, buffer: int) -> TemporalInstance:
    """The document read good by good and checked by ``TemporalInstance``,
    so that a rejected document raises its first error in document order."""
    goods = []
    for t, round_ids in enumerate(rounds, start=1):
        if not isinstance(round_ids, list):
            raise ValidationError(f"round {t} is not a list of good ids")
        for gid in round_ids:
            if not isinstance(gid, str):
                raise ValidationError(f"good id {gid!r} is not a string")
            if gid not in values:
                raise ValidationError(f"good {gid!r} has no value vector")
            vec = values[gid]
            if not isinstance(vec, list):
                raise ValidationError(f"value vector of {gid!r} is not a list")
            goods.append(Good(gid, t, tuple(map(parse_rational, vec))))
    orphans = set(values) - {g.id for g in goods}
    if orphans:
        raise ValidationError(
            f"value vectors for goods not in any round: {sorted(orphans, key=good_key)}"
        )
    return TemporalInstance(
        n_agents=n, horizon=len(rounds), goods=tuple(goods), buffer=buffer
    )


def allocation_to_json(allocation: TemporalAllocation) -> dict:
    return {
        "placement": dict(sorted(
            allocation.placement.items(), key=lambda kv: good_key(kv[0])
        )),
        "owner": dict(sorted(
            allocation.owner.items(), key=lambda kv: good_key(kv[0])
        )),
    }


def allocation_from_json(data: dict) -> TemporalAllocation:
    try:
        placement = data["placement"]
        owner = data["owner"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"allocation JSON missing field: {exc}") from exc
    for field, mapping in (("placement", placement), ("owner", owner)):
        if not isinstance(mapping, dict):
            raise ValidationError(f"'{field}' must map good ids to integers")
        if not set(map(type, mapping.values())) <= {int}:  # word the first bad entry
            for gid, value in mapping.items():
                _json_int(value, f"{field} of {gid!r}")
    if set(placement) != set(owner):
        raise ValidationError("placement and owner cover different goods")
    return TemporalAllocation(placement=dict(placement), owner=dict(owner))


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except (RecursionError, ValueError) as exc:  # JSONDecodeError, bad bytes, huge ints
            raise ValidationError(f"bad JSON in {path}: {exc}") from exc


def load_instance(path) -> TemporalInstance:
    return instance_from_json(_read_json(path))


def load_allocation(path) -> TemporalAllocation:
    return allocation_from_json(_read_json(path))
