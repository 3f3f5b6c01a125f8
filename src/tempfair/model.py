"""Core data model for temporal fair division instances.

Goods arrive over a horizon of ``T`` rounds, each with one value per agent:
an exact Fraction at the boundary (floats and bools are rejected wherever
values enter).  An instance stores its integer table: ``arrival``, each good
id in instance order to its round, and ``columns``, each id to its values
times ``scale`` (the LCM of every value denominator) in agent order.  Every
layer sums and compares those integers; ``value_table`` is their agent-major
view, and ``goods`` holds the Fractions, built on first read.  One check,
``_checked``, guards the constructor and the loader alike; the loader scans
a document in whole-document passes and parses each distinct literal once,
and walks it good by good only to word a rejection.  An allocation maps each
good to the round it is handed out (its placement, at most ``buffer - 1``
rounds after arrival) and to the agent who owns it.

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


@dataclass(frozen=True, init=False, eq=False)
class TemporalInstance:
    """An arrival sequence of goods plus the number of agents and the buffer.

    ``buffer`` is the width of the placement window: a good arriving at
    round t may be handed out at any round in [t, t + buffer - 1] that does
    not exceed the horizon.  ``buffer == 1`` means goods are handed out on
    arrival, which is the plain (unscheduled) model.

    The instance stores its integer table: ``arrival`` maps each good id, in
    instance order, to its arrival round, and ``columns`` maps it to its
    values times ``scale`` in agent order.  Two instances are equal when
    their counts and their goods, in instance order, are.
    """

    n_agents: int
    horizon: int
    buffer: int
    arrival: dict[str, int]
    columns: dict[str, tuple[int, ...]]
    scale: int

    def __init__(self, n_agents: int, horizon: int, goods: Sequence[Good] = (), buffer: int = 1):
        """Store and check the table of ``goods``, whose values must be Fractions."""
        for g in goods:
            for v in g.values:
                if not isinstance(v, Fraction):
                    raise ValidationError(f"good {g.id!r} has non-Fraction value {v!r}")
        values = [v for g in goods for v in g.values]
        scale = math.lcm(*{v.denominator for v in values})
        _checked(self, n_agents, horizon, buffer, [g.id for g in goods],
                 [g.arrival for g in goods], [len(g.values) for g in goods],
                 [v.numerator * (scale // v.denominator) for v in values], scale)

    def _key(self) -> tuple:
        return (self.n_agents, self.horizon, self.buffer, self.scale,
                tuple(self.arrival.items()), tuple(self.columns.items()))

    def __eq__(self, other):
        return isinstance(other, TemporalInstance) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def agents(self) -> range:
        """Agent indices, 1-based."""
        return range(1, self.n_agents + 1)

    @cached_property
    def goods(self) -> tuple[Good, ...]:
        """The goods in instance order, built on first read; each value is
        ``Fraction(c, scale)``, one Fraction per distinct table integer c."""
        columns = self.columns.values()
        fraction = {c: Fraction(c, self.scale) for c in set().union(*columns)}
        values = map(fraction.__getitem__, chain.from_iterable(columns))
        return tuple(map(Good, self.arrival, self.arrival.values(),
                         zip(*[values] * (self.n_agents if columns else 0))))

    @cached_property
    def goods_by_id(self) -> dict[str, Good]:
        return dict(zip(self.arrival, self.goods))

    @cached_property
    def rounds(self) -> tuple[tuple[str, ...], ...]:
        """Good ids grouped by arrival round, each group in canonical order
        (``good_key``'s: by length, then text)."""
        buckets: list[list[str]] = [[] for _ in range(self.horizon)]
        for gid, a in self.arrival.items():
            buckets[a - 1].append(gid)
        return tuple(tuple(sorted(sorted(b), key=len)) for b in buckets)

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
    owned, all_ids = set(allocation.owner), set(instance.arrival)
    for what, ids in (("goods never allocated", all_ids - owned),
                      ("unknown goods in allocation", owned - all_ids),
                      ("unknown goods in placement", set(allocation.placement) - all_ids)):
        if ids:
            raise ValidationError(f"{what}: {sorted(ids, key=good_key)}")
    for gid, agent in allocation.owner.items():
        if not 1 <= agent <= instance.n_agents:
            raise ValidationError(f"good {gid!r} owned by invalid agent {agent}")
        placed = allocation.placement.get(gid)
        if placed is None:
            raise ValidationError(f"good {gid!r} has no placement round")
        arrival = instance.arrival[gid]
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
    if bi_valued:
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
    return {"agents": instance.n_agents, "buffer": instance.buffer,
            "rounds": [list(r) for r in instance.rounds],
            "values": {g.id: [str(v) for v in g.values] for g in instance.goods}}


def _json_int(value, what: str) -> int:
    """An int, but not a bool: bools are ints in Python but not here."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _checked(instance, n_agents, horizon, buffer, ids, arrivals, lengths, table, scale):
    """Check a table and store it in ``instance``, which is returned.  Good
    k is ``ids[k]``, arrives at ``arrivals[k]`` and has the next
    ``lengths[k]`` integers of ``table``, its values times ``scale``.  The
    counts come first; then whole-table scans, and only when one fails a
    walk of the goods in order, to raise the first error."""
    counts = {"n_agents": n_agents, "horizon": horizon, "buffer": buffer}
    for what, value in counts.items():
        _json_int(value, what)
    for value, message in zip(counts.values(), ("need at least one agent",
                              "horizon must be at least 1", "buffer must be at least 1")):
        if value < 1:
            raise ValidationError(message)
    arrival = dict(zip(ids, arrivals))
    if (len(arrival) < len(ids) or min(arrivals, default=1) < 1
            or max(arrivals, default=1) > horizon or not set(lengths) <= {n_agents}
            or min(table, default=0) < 0):
        seen, end = set(), 0
        for gid, a, length in zip(ids, arrivals, lengths):
            if gid in seen:
                raise ValidationError(f"duplicate good id {gid!r}")
            seen.add(gid)
            if not 1 <= a <= horizon:
                raise ValidationError(f"good {gid!r} arrives at round {a}, outside 1..{horizon}")
            if length != n_agents:
                raise ValidationError(f"good {gid!r} has {length} values for {n_agents} agents")
            end += length
            if min(table[end - length:end]) < 0:
                raise ValidationError(f"good {gid!r} has negative value")
    # n integers per good, cut from one pass over the table; with no good
    # there is nothing to cut, whatever n is
    columns = dict(zip(ids, zip(*[iter(table)] * (n_agents if ids else 0))))
    instance.__dict__.update(n_agents=n_agents, horizon=horizon, buffer=buffer,
                             arrival=arrival, columns=columns, scale=scale)
    return instance


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
    """The instance, or None when a document scan fails: the rounds and
    vectors are lists, the ids strings that key ``values`` and the literals
    str, int or Fraction, each distinct one parsed once into one table
    integer.  ``_checked`` checks the table."""
    if not set(map(type, rounds)) <= {list}:
        return None
    ids = list(chain.from_iterable(rounds))
    if not set(map(type, ids)) <= {str} or values.keys() != set(ids):
        return None
    vectors = list(map(values.__getitem__, ids))
    if not set(map(type, vectors)) <= {list}:
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
    arrivals = list(chain.from_iterable(map(repeat, count(1), map(len, rounds))))
    return _checked(object.__new__(TemporalInstance), n, len(rounds), buffer, ids, arrivals,
                    list(map(len, vectors)), list(map(ints.__getitem__, flat)), scale)


def _walk(n: int, rounds: list, values: dict, buffer: int) -> TemporalInstance:
    """The document read good by good and checked by ``TemporalInstance``,
    so that a document that fails a scan raises its first error in
    document order."""
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
            f"value vectors for goods not in any round: {sorted(orphans, key=good_key)}")
    return TemporalInstance(n, len(rounds), goods, buffer)


def allocation_to_json(allocation: TemporalAllocation) -> dict:
    return {field: dict(sorted(getattr(allocation, field).items(), key=lambda kv: good_key(kv[0])))
            for field in ("placement", "owner")}


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
