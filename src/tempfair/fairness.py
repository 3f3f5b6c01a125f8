"""Fairness checkers, both on fixed bundles and round by round.

All comparisons are exact: they sum the integers of the instance's
``columns`` (each value times the instance's ``scale``), and only a
witness's shortfall turns back into a Fraction, divided by ``scale``.  The
temporal variants demand the property at every prefix: the goods handed
out in rounds 1..t, for each t up to the horizon.  A prefix is recorded
as its rounds of hand-outs, each a ``(bundle index j, good id)`` pair for
agent j + 1; each prefix is the one before plus the hand-outs of round t,
so the checker appends one round, and for the envy notions folds it into
a flat worth state (see ``_worth``).  Ties between equal removals are
broken once, at the witness.

Three envy notions on bundles, each with the removal quantified over the
envied bundle:

* up-to-one: some single removal kills the envy (the best one suffices);
* up-to-any: every single removal kills the envy, including goods the
  envious agent values at zero, so the binding removal is the cheapest;
* alpha scaled up-to-any: own value at least alpha times the envied
  bundle after the cheapest removal, for a fixed alpha in (0, 1].

The share-based notion compares each agent's bundle against their maximin
share over the pool of goods handed out so far, with empty bundles allowed
in the defining partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import ShareCapExceeded, ValidationError
from .model import (
    TemporalAllocation,
    TemporalInstance,
    _json_int,
    good_key,
    parse_rational,
    validate,
)

Bundles = Sequence[Iterable[str]]


@dataclass(frozen=True)
class Concept:
    """A fairness concept name plus its parameter when it has one."""

    kind: str  # "tef1" | "tefx" | "atefx" | "tmms"
    alpha: Fraction | tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("tef1", "tefx", "atefx", "tmms"):
            raise ValidationError(f"unknown concept kind {self.kind!r}")
        if (self.alpha is None) == (self.kind == "atefx"):
            raise ValidationError(f"{self.kind} with alpha {self.alpha}: atefx alone needs one")
        if self.alpha is not None:
            # one alpha for every agent, or a sequence of them in agent order
            alpha = (_alpha(self.alpha) if isinstance(self.alpha, _SCALARS)
                     else tuple(_alpha(a) for a in self.alpha))
            object.__setattr__(self, "alpha", alpha)

    @classmethod
    def from_string(cls, text: str) -> "Concept":
        if text in ("tef1", "tefx", "tmms"):
            return cls(text)
        if text.startswith("atefx:"):
            parts = text.split(":", 1)[1].split(",")
            # a comma list gives one bound per agent, in agent order
            return cls("atefx", parts[0] if len(parts) == 1 else tuple(parts))
        raise ValidationError(
            f"unknown concept {text!r}; expected tef1, tefx, atefx:<alpha>, or tmms"
        )

    def __str__(self) -> str:
        if self.kind == "atefx":
            if isinstance(self.alpha, Fraction):
                return f"atefx:{self.alpha}"
            return "atefx:" + ",".join(str(a) for a in self.alpha)
        return self.kind


# alpha specs read as one value for every agent
_SCALARS = (Fraction, int, float, str)


def _alpha(value) -> Fraction:
    """One alpha, read by ``parse_rational`` and checked to lie in (0, 1]."""
    alpha = parse_rational(value)
    if not 0 < alpha <= 1:
        raise ValidationError(f"alpha must be in (0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class Verdict:
    """Outcome of a temporal check.

    When the property fails, ``round`` is the first prefix where it does and
    the remaining fields describe one witnessing violation.  For share-based
    failures there is no envied agent or removed good; ``shortfall`` is how
    far the envious agent's value falls below the requirement.
    """

    holds: bool
    round: int | None = None
    envious: int | None = None
    envied: int | None = None
    removed_good: str | None = None
    shortfall: Fraction | None = None

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "round": self.round,
            "envious": self.envious,
            "envied": self.envied,
            "removed_good": self.removed_good,
            "shortfall": str(self.shortfall) if self.shortfall is not None else None,
        }


# how each envy concept keeps its binding removal: up to one good removes
# the best good, up to any good the cheapest
REMOVAL = {"tef1": max, "tefx": min, "atefx": min}


def fold(total, removal, j, column, pick):
    """Fold a good into bundle j + 1 of a worth state, in place: one column
    update, ``column[i]`` being agent i + 1's value of the good."""
    n, e = len(column), j
    if pick is max:
        for value in column:
            total[e] += value
            if value > removal[e]:
                removal[e] = value
            e += n
    else:
        for value in column:
            total[e] += value
            if value < removal[e]:
                removal[e] = value
            e += n


def folded(worth, j, column, pick, kind=None):
    """``fold`` into a copy of a worth state, made of lists, or of ``kind`` if given."""
    total, removal = [*worth[0]], [*worth[1]]
    fold(total, removal, j, column, pick)
    return (kind(total), kind(removal)) if kind else (total, removal)


def _own_worth(worth, n):
    """Each agent's total of their own bundle, in agent order."""
    return worth[0][::n + 1]


def _worth_entry(worth, n, i, j):
    """Agent i's (total, removal) of bundle j, both counted from 1."""
    return worth[0][(i - 1) * n + j - 1], worth[1][(i - 1) * n + j - 1]


def _worth(instance, rounds, pick):
    """The worth state of rounds of hand-outs, each good's column of
    ``instance.columns`` folded once: lists of n * n totals and removals,
    entry i * n + j for agent i + 1's view of bundle j + 1 (a layout no
    other module reads), an empty bundle's removal 0 under max, the top value under min."""
    n, columns = instance.n_agents, instance.columns
    top = 0 if pick is max else max(map(max, columns.values()), default=0)
    total, removal = [0] * (n * n), [top] * (n * n)
    for handouts in rounds:
        for j, g in handouts:
            fold(total, removal, j, columns[g], pick)
    return total, removal


def _per_agent(instance, bundles):
    """Fixed bundles as one round of hand-outs, after checking there is one
    per agent and that they list goods of the instance, each once."""
    bundles = list(bundles)
    if len(bundles) != instance.n_agents:
        raise ValidationError(f"{len(bundles)} bundles for {instance.n_agents} agents")
    handouts = [(j, g) for j, bundle in enumerate(bundles) for g in bundle]
    seen = set()
    for _, g in handouts:
        if not isinstance(g, str) or g not in instance.columns:
            raise ValidationError(f"unknown good {g!r} in bundles")
        if g in seen:
            raise ValidationError(f"repeated good {g!r} in bundles")
        seen.add(g)
    return [handouts]


def envy_rows(n, concept: Concept):
    """An envy check's rows, one per agent i in index order: i, their own
    bundle's entry, alpha_i = num/den (1 outside ``atefx``) and the entries
    of their view of bundles 1..n; their own never fails (values >= 0, alpha <= 1)."""
    alpha = concept.alpha
    alphas = alpha if isinstance(alpha, tuple) else (alpha or Fraction(1),) * n
    if len(alphas) != n:
        raise ValidationError(f"{len(alphas)} alpha values for {n} agents")
    return [(i, (i - 1) * (n + 1), *alphas[i - 1].as_integer_ratio(), range((i - 1) * n, i * n))
            for i in range(1, n + 1)]


def _envy_violation(total, removal, rows):
    """First (envious, envied, gap, den) along ``rows``, or None: i envies
    j past its removal when ``gap = num * (total - removal) - den * own > 0``."""
    for i, own, num, den, view in rows:
        mine = den * total[own]
        for e in view:
            if num * (total[e] - removal[e]) > mine:
                return (i, e - view.start + 1, num * (total[e] - removal[e]) - mine, den)
    return None


_TWO_AGENT_ROWS = envy_rows(2, Concept("tefx"))


def _split_ok(totals, shares, a1v1, a1v2, min2_in_a1, min1_in_a2):
    """Two-agent envy-freeness up to any good plus maximin shares.

    ``totals`` and ``shares`` hold each agent's value of the placed pool
    and maximin share of it; the ``a1`` values are both agents' values of
    agent 1's pile, and the minima are each agent's cheapest good in the
    other's pile, None while that pile is empty: it is worth 0, so a
    removal of 0 keeps it unenvied.  The four views form one worth state.
    """
    total = (a1v1, totals[0] - a1v1, a1v2, totals[1] - a1v2)
    removal = (0, min1_in_a2 or 0, min2_in_a1 or 0, 0)
    return (_envy_violation(total, removal, _TWO_AGENT_ROWS) is None
            and a1v1 >= shares[0] and totals[1] - a1v2 >= shares[1])


def is_ef1(instance: TemporalInstance, bundles: Bundles) -> bool:
    """Envy-free up to the removal of some one good from the envied bundle."""
    return prefix_violation(instance, _per_agent(instance, bundles), Concept("tef1")) is None


def is_efx(instance: TemporalInstance, bundles: Bundles) -> bool:
    """Envy-free up to the removal of any one good from the envied bundle.

    The removal is quantified over every good of the envied bundle, zero
    valued ones included, so only the cheapest removal needs checking.
    """
    return prefix_violation(instance, _per_agent(instance, bundles), Concept("tefx")) is None


def is_alpha_efx(instance: TemporalInstance, bundles: Bundles, alpha) -> bool:
    """Scaled version of is_efx: own value >= alpha * (envied minus any good).

    ``alpha`` is a Fraction in (0, 1] or a per-agent sequence of them.
    """
    concept = Concept("atefx", alpha)
    return prefix_violation(instance, _per_agent(instance, bundles), concept) is None


def mms_share(values: Sequence[int | Fraction], n_parts: int, cap: int | None = 16) -> Fraction:
    """Maximin share of one agent over a pool, split into n_parts bundles.

    ``values`` lists the agent's values for every good in the pool: ints and
    Fractions as they are, anything else read by ``parse_rational`` (so floats
    and bools are rejected).  Parts may be empty.  The values, scaled by the
    LCM of their denominators, go to ``_int_share``, the entry the checkers and
    solvers call with table integers.  It drops zeros and divides by the GCD,
    so pools that differ by one positive factor share a memo entry.  Two parts
    run a subset-sum sweep with no size limit: a bitset of the sums up to half
    the total, or a set of reachable sums when the bitset would be wider than
    the 2**k sums k goods reach.  Three or more parts, at most ``cap`` goods
    with zeros (None lifts the cap; the worst case is exponential), run branch
    and bound on one explicit stack, so with no recursion limit, from the
    greedy split (largest good into the lightest part), loading no part past
    what leaves the others above the best split so far.  Both stop once a split
    reaches floor(total / n_parts), which none can beat.  ``n_parts`` must be
    an int, not a bool or a float.
    """
    if _json_int(n_parts, "n_parts") < 1:
        raise ValidationError("need at least one part")
    vals = [v if type(v) in (int, Fraction) else parse_rational(v) for v in values]
    if any(v < 0 for v in vals):
        raise ValidationError("negative value in pool")
    lcm = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (lcm // v.denominator) for v in vals]
    return Fraction(_int_share(ints, n_parts, cap), lcm)


def _int_share(ints: list[int], n_parts: int, cap: int | None) -> int:
    """Maximin share of non-negative integers, as ``mms_share`` rules."""
    if n_parts == 1:
        return sum(ints)
    if len(ints) < n_parts:
        return 0
    if n_parts >= 3 and cap is not None and len(ints) > cap:
        raise ShareCapExceeded(
            f"pool of {len(ints)} goods exceeds the exact-search cap {cap}"
        )
    positive = [v for v in ints if v]
    if len(positive) < n_parts:
        return 0
    gcd = math.gcd(*positive)
    # shares recur across prefixes and across allocations of one pool, so
    # the pure search below is memoized on the sorted coprime pool
    key = tuple(sorted((v // gcd for v in positive), reverse=True))
    return _mms_share_search(key, n_parts) * gcd


@lru_cache(maxsize=4096)
def _mms_share_search(vals: tuple[int, ...], n_parts: int) -> int:
    """Maximin share of positive ints, sorted in descending order."""
    total = sum(vals)
    bound = total // n_parts  # no part's minimum can exceed this
    if n_parts == 2:
        # a bitset costs bound/64 words per good, a set up to 2**k sums
        if bound >> 6 <= 1 << len(vals):
            mask = (1 << (bound + 1)) - 1
            reach = 1
            for v in vals:
                reach |= (reach << v) & mask
                if reach >> bound:
                    return bound
            return reach.bit_length() - 1
        sums = {0}
        for v in vals:
            sums |= {s + v for s in sums if s + v <= bound}
            if bound in sums:
                return bound
        return max(sums)
    parts = [0] * n_parts
    for v in vals:  # the greedy split, largest good into the lightest part
        parts[parts.index(min(parts))] += v
    best = min(parts)
    if best == bound:
        return best
    parts = [0] * n_parts
    at = [-1] * len(vals)  # the part good k sits in, -1 before its first
    k = 0
    while k >= 0:  # depth first: move good k to its next part, or back up
        v, p = vals[k], at[k]
        if p >= 0:
            parts[p] -= v
        limit = total - (n_parts - 1) * (best + 1) - v  # the others must beat best
        p += 1
        # an earlier part of equal load was tried already, or failed a looser limit
        while p < n_parts and (parts[p] > limit or parts.index(parts[p]) < p):
            p += 1
        if p == n_parts:
            at[k], k = -1, k - 1
            continue
        at[k] = p
        parts[p] += v
        rest = total - sum(parts)  # the goods after k
        if min(parts) + rest > best:  # funneling them all into the min part could win
            if rest:
                k += 1
            elif (best := min(parts)) == bound:
                return best
    return best


class _TwoShares:
    """Two-part maximin shares of a growing pool, one per agent.

    ``columns[i]`` lists agent i + 1's values of every good the pool will
    ever hold.  Per agent: the GCD of that column, which divides every
    prefix's values; the running total ``total[i]``; and the subset sums
    reached, in GCD units, as a bitset truncated at half the final total
    (Bellman's recursion, as in ``_mms_share_search``).  A share is the
    highest set bit at or below half the current total, times the GCD.
    Past the bitset width ``_mms_share_search`` allows, an agent keeps the
    pool's values for ``_int_share`` instead.
    """

    def __init__(self, columns):
        self.gcd = [math.gcd(*column) or 1 for column in columns]
        self.total = [0] * len(columns)
        self.reach, self.mask, self.pool = [], [], []
        for column, gcd in zip(columns, self.gcd):
            half = sum(column) // gcd // 2
            wide = half >> 6 > 1 << sum(1 for v in column if v)
            self.reach.append(1)
            self.mask.append(None if wide else (2 << half) - 1)
            self.pool.append([] if wide else None)

    def add(self, column):
        """Fold one good in, ``column[i]`` being agent i + 1's value of it."""
        for i, v in enumerate(column):
            self.total[i] += v
            if self.pool[i] is not None:
                self.pool[i].append(v)
            elif v:
                self.reach[i] |= (self.reach[i] << v // self.gcd[i]) & self.mask[i]

    def share(self, i):
        """Agent i + 1's two-part maximin share of the pool so far."""
        if self.pool[i] is not None:
            return _int_share(self.pool[i], 2, None)
        half = self.total[i] // self.gcd[i] // 2
        return ((self.reach[i] & ((2 << half) - 1)).bit_length() - 1) * self.gcd[i]


def _mms_violation(instance, rounds, cap=16, state=None):
    """First agent whose bundle misses their maximin share over the pool of
    every hand-out in ``rounds``, as ``(agent, None, gap, 1)`` with the gap
    in table integers.  ``state`` is ``(share, have)``: ``share(i)`` gives
    agent i + 1's share and ``have`` the own totals.  Without it, or with
    ``have`` None, one pass over the hand-outs gives the own totals and
    the pool whose shares ``_int_share`` computes."""
    share, have = state or (None, None)
    if have is None:
        pool, have = [], [0] * instance.n_agents
        for handouts in rounds:
            for j, g in handouts:
                pool.append(column := instance.columns[g])
                have[j] += column[j]
        share = share or (lambda i: _int_share([c[i] for c in pool], instance.n_agents, cap))
    for i, mine in enumerate(have):
        gap = share(i) - mine
        if gap > 0:
            return (i + 1, None, gap, 1)
    return None


def is_mms(instance: TemporalInstance, bundles: Bundles, cap: int | None = 16) -> bool:
    """Each agent's bundle is worth at least their maximin share of the pool.

    The pool is the union of the given bundles.
    """
    return _mms_violation(instance, _per_agent(instance, bundles), cap=cap) is None


def prefix_violation(instance, rounds, concept: Concept, rows=None, worth=None):
    """Violation at one prefix, or None; shared by checker and search.

    The prefix is ``rounds``, its rounds of ``(bundle index j, good id)``
    hand-outs.  A violation is ``(envious, envied, gap, den)``, shortfall
    gap/(den*scale); a share-based one has no envied agent.  Callers that
    examine many prefixes pass ``envy_rows`` once as ``rows`` and the
    prefix's grown state as ``worth``: a worth state (``_worth``) for an envy
    concept, ``_mms_violation``'s ``(share, have)`` for ``tmms``.  Without
    them both are built here; ``rounds`` is read only for a state not given.
    """
    if concept.kind == "tmms":
        return _mms_violation(instance, rounds, state=worth)
    if rows is None:
        rows = envy_rows(instance.n_agents, concept)  # checks the alphas first
    return _envy_violation(*(worth or _worth(instance, rounds, REMOVAL[concept.kind])), rows)


def check_temporal(
    instance: TemporalInstance,
    allocation: TemporalAllocation,
    concept: Concept,
) -> Verdict:
    """Check a fairness concept at every round prefix of an allocation.

    The allocation is validated first (ownership, placement windows), so
    it places every good.  Returns the first failing round with a witness,
    or a holding verdict.  ``landing[t]`` lists the hand-outs placed at
    round t; one sweep over those rounds appends each to the prefix once,
    and folds its goods into the worth state of an envy concept or, under
    ``tmms`` with two agents, into running own totals and a ``_TwoShares``
    over every good that grows each agent's share (more agents get each
    prefix's shares from its pool).  Prefixes only change on rounds where
    something is handed out, so only those are examined.  The removed good
    is found once, at the witness: the smallest id, among the envied
    agent's hand-outs, with the binding value.
    """
    validate(instance, allocation)
    n = instance.n_agents
    pick = REMOVAL.get(concept.kind)
    rows = envy_rows(n, concept) if pick else None
    columns = instance.columns
    landing: dict[int, list[tuple[int, str]]] = {}
    for gid, t in allocation.placement.items():
        landing.setdefault(t, []).append((allocation.owner[gid] - 1, gid))
    rounds: list[list[tuple[int, str]]] = []
    worth = grown = None
    if pick:
        worth = _worth(instance, rounds, pick)
    elif n == 2:
        grown = _TwoShares(list(zip(*columns.values())))
        worth = (grown.share, [0, 0])
    for t in sorted(landing):
        rounds.append(landing[t])
        if pick:
            for j, gid in landing[t]:
                fold(*worth, j, columns[gid], pick)
        elif grown:
            for j, gid in landing[t]:
                grown.add(columns[gid])
                worth[1][j] += columns[gid][j]
        hit = prefix_violation(instance, rounds, concept, rows, worth)
        if hit is not None:
            envious, envied, gap, den = hit
            removed = None if envied is None else min(
                (g for handouts in rounds for j, g in handouts if j == envied - 1
                 and columns[g][envious - 1] == _worth_entry(worth, n, envious, envied)[1]),
                key=good_key)
            return Verdict(holds=False, round=t, envious=envious, envied=envied,
                           removed_good=removed, shortfall=Fraction(gap, den * instance.scale))
    return Verdict(holds=True)
