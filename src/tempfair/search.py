"""Exhaustive existence search for temporally fair allocations.

Small instances only: the assignment space is every way to hand each good
to an agent (and, in scheduling mode, every legal placement round for it).
Depth-first with prefix pruning: once all goods arriving by round t are
decided, the bundle prefix at t is final, so a violation there kills the
whole branch.  Prefixes whose bundles did not change inherit the previous
verdict and are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import SearchCapExceeded
from .fairness import REMOVAL, Concept, concept_alphas, fold, prefix_violation
from .model import TemporalAllocation, TemporalInstance, good_key


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
    assignment count before pruning and symmetry reduction;
    ``nodes_visited`` counts attempted single-good decisions.
    """

    exists: bool
    witness: TemporalAllocation | None
    nodes_visited: int
    space_bound: int

    def to_json(self) -> dict:
        from .model import allocation_to_json

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
    decision appends the good to its owner's bundle in every prefix from
    its placement round on, and backtracking pops it: none is rebuilt.
    An envy concept also folds it into those prefixes' worth matrices, and
    backtracking puts back the entries it saved (a min cannot be popped).
    """
    goods = sorted(instance.goods, key=lambda g: (g.arrival, good_key(g.id)))
    m = len(goods)
    n = instance.n_agents
    cap = goods_cap(n)
    if m > cap:
        raise SearchCapExceeded(
            f"{m} goods with {n} agents exceeds the search cap of {cap}"
        )
    alphas = concept_alphas(instance, concept)

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

    rows = {
        i: tuple(row[g.id] for g in goods)
        for i, row in instance.value_table.items()
    }
    # held[t][i - 1]: agent i's goods placed by round t; landed[t]: goods
    # placed at t.  Each try overwrites owner and placed; a witness sets all.
    held = [[[] for _ in instance.agents] for _ in range(horizon + 1)]
    landed = [0] * (horizon + 1)
    owner: dict[str, int] = {}
    placed: dict[str, int] = {}
    # worth[t]: the worth matrix of the prefix at t, for envy concepts
    pick = REMOVAL.get(concept.kind)
    worth = [[[(0, None)] * n for _ in range(n)] if pick else None
             for _ in range(horizon + 1)]
    nodes = 0

    def descend(k: int) -> bool:
        nonlocal nodes
        if k == m:
            return True
        gid = goods[k].id
        for t in windows[k]:
            seen_rows = set()
            for i in instance.agents:
                if not held[horizon][i - 1]:  # i holds nothing yet
                    if rows[i] in seen_rows:
                        continue
                    seen_rows.add(rows[i])
                nodes += 1
                owner[gid] = i
                placed[gid] = t
                for bundles in held[t:]:
                    bundles[i - 1].append(gid)
                landed[t] += 1
                trail = []
                if pick:
                    for matrix in worth[t:]:
                        for row, values in zip(matrix, rows.values()):
                            trail.append((row, row[i - 1]))
                            fold(row, i - 1, values[k], pick)
                if all(not landed[s] or prefix_violation(
                        instance, held[s], concept, alphas, worth[s]) is None
                       for s in closes[k]) and descend(k + 1):
                    return True
                for bundles in held[t:]:
                    bundles[i - 1].pop()
                landed[t] -= 1
                for row, entry in trail:
                    row[i - 1] = entry
        return False

    if descend(0):
        witness = TemporalAllocation(placement=dict(placed), owner=dict(owner))
        return SearchOutcome(True, witness, nodes, space_bound)
    return SearchOutcome(False, None, nodes, space_bound)
