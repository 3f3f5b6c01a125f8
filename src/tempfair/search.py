"""Exhaustive existence search for temporally fair allocations.

Small instances only: the assignment space is every way to hand each good
to an agent (and, in scheduling mode, every legal placement round for it).
Depth-first with prefix pruning: once all goods arriving by round t are
decided, the bundle prefix at t is final, so a violation there kills the
whole branch.  Prefixes whose bundles did not change inherit the previous
verdict and are skipped.  Only rounds up to the one whose arrivals are
being decided hold a prefix; a later round is built from the one before
when the search reaches it.  A state at a round boundary whose subtree held
no witness is skipped when the search meets it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import SearchCapExceeded
from .fairness import REMOVAL, Concept, _worth, envy_rows, fold, prefix_violation
from .model import TemporalAllocation, TemporalInstance, allocation_to_json, good_key


# 3^14 assignments is the reference budget; caps for other agent counts
# are chosen so n^m stays within it (two agents get the larger 2^18).
_BUDGET = 3**14


def goods_cap(n_agents: int) -> int:
    """Largest good count search accepts for this many agents."""
    if n_agents <= 2:
        return 18
    if n_agents == 3:
        return 14
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
    and returns the same first witness the unreduced order would.  A good
    placed at its arrival round, the open round, is appended to its owner's
    bundle in that round's prefix and, for an envy concept, folded into a
    copy of that prefix's worth state (``fairness._worth``);
    backtracking pops it and puts the saved state back (a min cannot be
    popped).  A good placed later is only listed under its round.  A round
    opens once every good that arrives before it is decided: it copies the
    previous round's bundles and worth state and adds the goods listed
    under it.

    Every verdict from round a on, and the empty-agent rule, reads only the
    value vectors each agent holds by round a - 1 and the decided goods
    that land at a or later, with owner and round.  So at the first good of
    each round the search records each such state whose subtree held no
    witness, with the decisions made there (nogood recording); meeting it
    again, it adds those decisions to ``nodes_visited`` and backtracks.
    The outcome, the first witness and the count are those of the search
    without this memo, which lives for one call.
    """
    goods = sorted(instance.goods, key=lambda g: (g.arrival, good_key(g.id)))
    m = len(goods)
    n = instance.n_agents
    cap = goods_cap(n)
    if m > cap:
        raise SearchCapExceeded(
            f"{m} goods with {n} agents exceeds the search cap of {cap}"
        )

    horizon = instance.horizon
    windows: list[range] = []
    for g in goods:
        if use_scheduling:
            last = min(g.arrival + instance.buffer - 1, horizon)
        else:
            last = g.arrival
        windows.append(range(g.arrival, last + 1))
    space_bound = prod(n * len(w) for w in windows) if m else 1

    # good k closes rounds arrival(k) .. arrival(k+1)-1: no good left to
    # decide can land in them, so their prefixes are final and checkable
    closes = [
        range(g.arrival, goods[k + 1].arrival if k + 1 < m else horizon + 1)
        for k, g in enumerate(goods)
    ]

    rows = [tuple(row[g.id] for g in goods) for row in instance.value_table.values()]
    columns = list(zip(*rows))  # columns[k]: every agent's value of good k
    # landed[t]: the (bundle j, good k) pairs placed at round t; count[j]:
    # agent j + 1's good count.  Rounds up to the open round are prefixes:
    # held[s][j], agent j + 1's goods placed by s, and for an envy concept
    # worth[s], its worth state.
    landed: list[list[tuple[int, int]]] = [[] for _ in range(horizon + 1)]
    count = [0] * n
    held = [[[] for _ in range(n)] for _ in range(horizon + 1)]
    pick = REMOVAL.get(concept.kind)
    envy = envy_rows(n, concept) if pick else None
    # one empty state for every round: each fold goes into a fresh copy
    worth = [_worth(instance, held[0], pick) if pick else None] * (horizon + 1)
    # goods with one value vector are interchangeable in every verdict:
    # kind[id] is the index of the first good with that good's vector
    first: dict[tuple, int] = {}
    kind = {g.id: first.setdefault(vector, k)
            for k, (g, vector) in enumerate(zip(goods, columns))}
    # exhausted[k]: the states at good k (a round's first) whose subtree
    # holds no witness, each with the decisions that subtree made
    exhausted: list[dict[tuple, int]] = [{} for _ in goods]
    nodes = 0

    def open_round(s: int) -> None:
        """Make round s a prefix: round s - 1's plus the goods placed at s."""
        held[s] = [bundle[:] for bundle in held[s - 1]]
        if pick:
            worth[s] = (worth[s - 1][0][:], worth[s - 1][1][:])
        for j, k in landed[s]:
            held[s][j].append(goods[k].id)
            if pick:
                fold(*worth[s], j, columns[k], pick)

    def final_ok(k: int, a: int) -> bool:
        """No violation at the rounds good k closes, opening each past a."""
        for s in closes[k]:
            if s > a:
                open_round(s)
            if landed[s] and prefix_violation(
                    instance, held[s], concept, envy, worth[s]) is not None:
                return False
        return True

    def state(a: int) -> tuple:
        """What every verdict from round a on reads: the kinds each agent
        holds by round a - 1, and the decided goods that land at a or later."""
        return (tuple([tuple(sorted([kind[g] for g in bundle])) for bundle in held[a - 1]]),
                tuple(sorted([(kind[goods[k].id], j, t) for t in range(a, horizon + 1)
                              for j, k in landed[t]])))

    def descend(k: int) -> bool:
        nonlocal nodes
        if k == m:
            return True
        a = goods[k].arrival
        key = memo = None
        if k and a > goods[k - 1].arrival:
            memo = exhausted[k]
            if memo:  # no key is built before a state here is exhausted
                key = state(a)
                if key in memo:  # count the decisions the subtree made
                    nodes += memo[key]
                    return False
            start = nodes
            open_round(a)
        gid, column, closing = goods[k].id, columns[k], closes[k]
        for t in windows[k]:
            seen_rows = set()
            for j in range(n):
                if not count[j]:  # agent j + 1 holds nothing yet
                    if rows[j] in seen_rows:
                        continue
                    seen_rows.add(rows[j])
                nodes += 1
                count[j] += 1
                landed[t].append((j, k))
                if t == a:
                    held[a][j].append(gid)
                    if pick:
                        saved = worth[a]
                        total, removal = worth[a] = (saved[0][:], saved[1][:])
                        fold(total, removal, j, column, pick)
                if (not closing or final_ok(k, a)) and descend(k + 1):
                    return True
                count[j] -= 1
                landed[t].pop()
                if t == a:
                    held[a][j].pop()
                    if pick:
                        worth[a] = saved
        if memo is not None:  # the state is as on entry again
            memo[key or state(a)] = nodes - start
        return False

    if descend(0):
        # the decisions stay in landed; read them back in good order
        decided = sorted((k, j, t) for t, placed in enumerate(landed) for j, k in placed)
        witness = TemporalAllocation(
            placement={goods[k].id: t for k, _, t in decided},
            owner={goods[k].id: j + 1 for k, j, _ in decided})
        return SearchOutcome(True, witness, nodes, space_bound)
    return SearchOutcome(False, None, nodes, space_bound)
