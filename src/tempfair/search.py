"""Exhaustive existence search for temporally fair allocations.

Small instances only: the assignment space is every way to hand each good
to an agent (and, in scheduling mode, every legal placement round for it).
Depth-first with prefix pruning: once all goods arriving by round t are
decided, the bundle prefix at t is final, so a violation there kills the
whole branch.  Prefixes whose bundles did not change inherit the previous
verdict and are skipped.  A prefix is the hand-outs listed under rounds
1..t; for an envy concept, only rounds up to the one whose arrivals are
being decided hold a worth state, and a later round's is built from the
one before when the search reaches it.  A state at a round boundary whose
subtree held no witness is skipped when the search meets it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

from .errors import SearchCapExceeded
from .fairness import REMOVAL, Concept, _int_share, _worth, envy_rows, folded, prefix_violation
from .model import TemporalAllocation, TemporalInstance, allocation_to_json


# 3^14 assignments is the reference budget; caps for other agent counts
# are chosen so n^m stays within it (two agents get the larger 2^18).
_BUDGET = 3**14


def goods_cap(n_agents: int) -> int:
    """Largest good count search accepts for this many agents."""
    if n_agents <= 2:
        return 18
    m = 1
    while n_agents ** (m + 1) <= _BUDGET:
        m += 1
    return m


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an existence search.

    ``exists`` with a witness allocation, or a proof by exhaustion: every
    assignment in the pruned space was covered.  ``space_bound`` is the raw
    assignment count before pruning and symmetry reduction.
    ``nodes_visited`` counts the single-good decisions of the pruned,
    symmetry-reduced tree up to the witness; a subtree the search skips as
    already exhausted counts the decisions it made the first time, so the
    number is the same with or without that memo.
    """

    exists: bool
    witness: TemporalAllocation | None
    nodes_visited: int
    space_bound: int

    def to_json(self) -> dict:
        return {
            "exists": self.exists,
            "witness": (
                allocation_to_json(self.witness) if self.witness else None
            ),
            "nodes_visited": self.nodes_visited,
            "space_bound": self.space_bound,
        }


def search(
    instance: TemporalInstance,
    concept: Concept,
    use_scheduling: bool = False,
) -> SearchOutcome:
    """Decide whether any allocation satisfies the concept at every prefix.

    Goods are decided in arrival order (id order within a round); each
    decision is a placement round (arrival only, unless ``use_scheduling``)
    and an owner.  Placements enumerate in increasing round order and
    owners in increasing index, so the first witness found is the
    lexicographically least one.  Among agents whose bundles are still
    empty, those with identical valuation rows are interchangeable, so only
    the lowest-indexed one of each group is tried; this loses no outcomes
    and returns the same first witness the unreduced order would.  Each
    decision is a hand-out ``(bundle index, good id)`` listed under its
    placement round, and backtracking pops it; the prefix at round t is
    the hand-outs of rounds 1..t, which the share test reads directly.
    Without scheduling that pool is every good arriving by t, so each
    agent's share of it is computed at most once per call.
    For an envy concept, rounds up to the open round (the arrival round of the
    good being decided) also hold a worth state, never changed in place: a good
    placed at the open round is folded into a copy (``fairness.folded``).  A
    round opens, its hand-outs folded into the state before it, only once the
    search enters it, past the memo lookup at its first good.  At a good that
    closes its round, the open round's state is checked first: an agent who
    violates there still does after any hand-out but the good to them at that
    round, so every other child is counted in ``nodes_visited`` and skipped
    (forward checking), and all are when a second agent violates too.

    Every verdict from round a on, and the empty-agent rule, reads only the
    value vectors each agent holds by round a - 1 and the decided goods
    that land at a or later, with owner and round.  So at the first good of
    each round the search records each such state whose subtree held no
    witness, with the decisions made there (nogood recording); meeting it
    again, it adds those decisions to ``nodes_visited`` and backtracks.
    The outcome, the first witness and the count are those of the search
    without this memo, which lives for one call.
    """
    # arrival order, then good_key order within a round
    ids = sorted(instance.arrival, key=lambda g: (instance.arrival[g], len(g), g))
    arrivals = list(map(instance.arrival.__getitem__, ids))
    m = len(ids)
    n = instance.n_agents
    cap = goods_cap(n)
    if m > cap:
        raise SearchCapExceeded(
            f"{m} goods with {n} agents exceeds the search cap of {cap}"
        )

    horizon = instance.horizon
    windows: list[range] = []
    for a in arrivals:
        if use_scheduling:
            last = min(a + instance.buffer - 1, horizon)
        else:
            last = a
        windows.append(range(a, last + 1))
    space_bound = prod(n * len(w) for w in windows) if m else 1

    # good k closes rounds arrival(k) .. arrival(k+1)-1: no good left to
    # decide can land in them, so their prefixes are final and checkable
    closes = list(map(range, arrivals, arrivals[1:] + [horizon + 1]))

    columns = instance.columns
    rows = list(zip(*map(columns.__getitem__, ids)))  # agent by agent, in search order
    # landed[t]: the (bundle j, good id) hand-outs placed at round t; count[j]:
    # agent j + 1's good count; for an envy concept, worth[t]: round t's worth
    # state up to the open round, at first one empty state.
    landed: list[list[tuple[int, str]]] = [[] for _ in range(horizon + 1)]
    count = [0] * n
    pick = REMOVAL.get(concept.kind)
    envy = envy_rows(n, concept) if pick else None
    worth = [_worth(instance, [], pick) if pick else None] * (horizon + 1)
    if concept.kind == "tmms" and not use_scheduling:
        # round s's pool is every good arriving by s, whoever holds it, so
        # each agent's share of it is computed once, when first asked
        def shares(s: int):
            arrived = sum(1 for a in arrivals if a <= s)
            return cache(lambda i: _int_share(rows[i][:arrived], n, 16))

        worth = [(shares(s), None) for s in range(horizon + 1)]
    # goods with one value vector are interchangeable in every verdict:
    # kind[id] is the index of the first good with that good's vector
    first: dict[tuple, int] = {}
    kind = {g: first.setdefault(columns[g], k) for k, g in enumerate(ids)}
    # exhausted[k]: the states at good k (a round's first) whose subtree
    # holds no witness, each with the decisions that subtree made
    exhausted: list[dict[tuple, int]] = [{} for _ in ids]
    nodes = 0

    def open_round(s: int) -> None:
        """Round s's worth state: round s - 1's, with landed[s] folded in."""
        worth[s] = worth[s - 1]
        for j, g in landed[s]:
            worth[s] = folded(worth[s], j, columns[g], pick)

    def final_ok(k: int) -> bool:
        """No violation at the rounds good k closes, each after its first opened."""
        for s in closes[k]:
            if pick and s > closes[k].start:
                open_round(s)
            if landed[s] and prefix_violation(instance, landed if pick else landed[:s + 1],
                                              concept, envy, worth[s]) is not None:
                return False
        return True

    def state(a: int) -> tuple:
        """What every verdict from round a on reads: one (kind, bundle,
        round) entry per hand-out, every round before a read as a - 1.  So
        it gives the kinds each agent holds by round a - 1 and the decided
        goods that land at a or later, with owner and round."""
        return tuple(sorted([(kind[g], j, max(t, a - 1))
                             for t, handouts in enumerate(landed) for j, g in handouts]))

    def descend(k: int) -> bool:
        nonlocal nodes
        if k == m:
            return True
        a = arrivals[k]
        key = memo = None
        if k and a > arrivals[k - 1]:
            memo = exhausted[k]
            if memo:  # no key is built before a state here is exhausted
                key = state(a)
                if key in memo:  # count the decisions the subtree made
                    nodes += memo[key]
                    return False
            start = nodes
            if pick:
                open_round(a)
        gid, closing, here = ids[k], closes[k], worth[a]
        only = None  # if set, every child but (round a, bundle only) fails
        if closing and pick and landed[a]:
            hit = prefix_violation(instance, landed, concept, envy, here)
            if hit is not None:  # only good k to the envious agent, at round a, can help
                rest = prefix_violation(instance, landed, concept, envy[hit[0]:], here)
                only = hit[0] - 1 if rest is None else -1
        for t in windows[k]:
            seen_rows = set()
            for j in range(n):
                if not count[j]:  # agent j + 1 holds nothing yet
                    if rows[j] in seen_rows:
                        continue
                    seen_rows.add(rows[j])
                nodes += 1
                if only is not None and (t != a or j != only):
                    continue  # doomed: it fails at round a, as final_ok would find
                count[j] += 1
                landed[t].append((j, gid))
                if pick:  # round a's state, as it was on entry unless t == a
                    worth[a] = folded(here, j, columns[gid], pick) if t == a else here
                if (not closing or final_ok(k)) and descend(k + 1):
                    return True
                count[j] -= 1
                landed[t].pop()
        if memo is not None:  # the state is as on entry again
            memo[key or state(a)] = nodes - start
        return False

    if descend(0):  # the decisions stay in landed
        witness = TemporalAllocation(
            placement={g: t for t, handouts in enumerate(landed) for _, g in handouts},
            owner={g: j + 1 for handouts in landed for j, g in handouts})
        return SearchOutcome(True, witness, nodes, space_bound)
    return SearchOutcome(False, None, nodes, space_bound)
