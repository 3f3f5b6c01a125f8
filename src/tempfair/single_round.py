"""One-shot allocation subroutines the temporal algorithms compose.

Everything here works on a plain pool: a collection of good ids plus a
value table ``values[agent][good_id]`` with 1-based agent keys.  Bundles
come back as ``dict[int, list[str]]`` in pick order.  Ties always break
toward the smallest good id (length-then-lexicographic) and the smallest
agent index, so every routine is deterministic.

Picks walk one preference order per agent (the pool by value, highest
first, smallest id on ties) past the goods already taken.  Envy is read
from a running worth matrix, ``worth[i][j]`` = agent i's value of j's
bundle, grown by each hand-out and permuted by each cycle rotation.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .model import good_key

ValueTable = Mapping[int, Mapping[str, int]]


def _record(trace: list | None, agent: int, good: str, rule: str) -> None:
    """Append one hand-out to the trace, when one is kept."""
    if trace is not None:
        trace.append({"step": len(trace) + 1, "agent": agent, "good": good, "rule": rule})


def _preferences(goods: Iterable[str], values: ValueTable, agents: Sequence[int]):
    """The pool without repeats, and each agent's pick order over it."""
    pool = sorted(set(goods), key=good_key)
    return pool, {i: iter(sorted(pool, key=lambda g, row=values[i]: -row[g])) for i in agents}


def _give(values: ValueTable, worth, bundles, agent: int, good: str) -> None:
    """Add a good to an agent's bundle and to every agent's worth of it."""
    bundles[agent].append(good)
    for i, row in worth.items():
        row[agent] += values[i][good]


def round_robin(
    goods: Iterable[str],
    values: ValueTable,
    order: Sequence[int],
    trace: list | None = None,
    rule: str = "rr",
) -> dict[int, list[str]]:
    """Agents pick in cyclic order; each takes their best remaining good.

    ``order`` fixes the cycle (it need not be sorted; reversing it gives the
    mirrored pass used by the two-pool schedulers).  ``rule`` labels the
    trace rows.
    """
    pool, prefs = _preferences(goods, values, order)
    bundles: dict[int, list[str]] = {i: [] for i in order}
    taken: set[str] = set()
    for step in range(len(pool)):
        agent = order[step % len(order)]
        g = next(g for g in prefs[agent] if g not in taken)
        taken.add(g)
        bundles[agent].append(g)
        _record(trace, agent, g, rule)
    return bundles


def _find_cycle(graph: dict[int, list[int]], agents: Sequence[int]):
    """First envy cycle of a depth-first search from each agent in turn,
    envied agents in ascending order, or None.  ``path`` maps each agent on
    the current path, in order, to the suspended iterator over whom they envy.
    """
    done: set[int] = set()
    for start in agents:
        path = {} if start in done else {start: iter(graph[start])}
        while path:
            for v in path[next(reversed(path))]:
                if v in path:
                    cycle = list(path)
                    return cycle[cycle.index(v):]
                if v not in done:
                    path[v] = iter(graph[v])
                    break
            else:
                done.add(path.popitem()[0])
    return None


def _decycle(worth, bundles: dict[int, list[str]], agents: Sequence[int]):
    """Rotate bundles along envy cycles until the envy graph is acyclic,
    and return that graph: each agent's envied agents, ascending.

    Each cycle member takes the bundle of the agent they envy.  Each
    rotation strictly raises the total utility sum, which bounds the loop;
    the assert guards against a rotation that fails to.
    """
    ranked = sorted(agents)
    while True:
        graph = {i: [j for j in ranked if worth[i][i] < worth[i][j]] for i in agents}
        cycle = _find_cycle(graph, agents)
        if cycle is None:
            return graph
        before = sum(worth[i][i] for i in agents)
        envied = cycle[1:] + cycle[:1]
        for i, bundle in zip(cycle, [bundles[j] for j in envied]):
            bundles[i] = bundle
        for row in worth.values():
            for i, w in zip(cycle, [row[j] for j in envied]):
                row[i] = w
        assert sum(worth[i][i] for i in agents) > before, \
            "envy cycle rotation must increase total utility"


def envy_cycle_elimination(
    goods: Iterable[str],
    values: ValueTable,
    agents: Sequence[int],
    trace: list | None = None,
) -> dict[int, list[str]]:
    """Give each next good to an agent nobody envies, rotating cycles away.

    The receiver is the smallest unenvied agent index and takes their own
    best remaining good (the variant that makes the two-identical-agents
    case envy-free up to any good).  The envy graph is read again after
    every change.
    """
    pool, prefs = _preferences(goods, values, agents)
    bundles: dict[int, list[str]] = {i: [] for i in agents}
    worth = {i: dict.fromkeys(agents, 0) for i in agents}
    taken: set[str] = set()
    for _ in pool:
        envied = {j for targets in _decycle(worth, bundles, agents).values() for j in targets}
        receiver = min(i for i in agents if i not in envied)
        g = next(g for g in prefs[receiver] if g not in taken)
        taken.add(g)
        _give(values, worth, bundles, receiver, g)
        _record(trace, receiver, g, "ece-max")
    _decycle(worth, bundles, agents)
    return bundles


def envy_ordered_pick_rounds(
    classes: Iterable[Iterable[str]],
    values: ValueTable,
    agents: Sequence[int],
    trace: list | None = None,
) -> dict[int, list[str]]:
    """Allocate identical copies class by class in envy order.

    ``classes`` lists each copy class as its good ids; classes are dealt
    in order of their smallest id, and each class's copies in id order.
    One class at a time: rotate envy cycles away, then let agents pick in a
    topological order of the envy graph (envious agents first).  The first
    ``copies`` agents in that order who value the class positively each take
    one copy; copies nobody wants go to zero-value agents.  Each class round
    preserves envy-freeness up to one good, because whenever i envies j,
    agent i picks first and picks at least as well.

    Copies of one class must carry identical value vectors; each agent ends
    with at most one copy of any class.
    """
    classes = sorted((sorted(c, key=good_key) for c in classes), key=lambda c: good_key(c[0]))
    for members in classes:
        if len({tuple(values[i][g] for i in agents) for g in members}) > 1:
            raise ValidationError(f"copy class {members[0]!r} mixes value vectors")
        if len(members) > len(agents):
            raise ValidationError(
                f"copy class {members[0]!r} has {len(members)} copies for "
                f"{len(agents)} agents"
            )

    bundles: dict[int, list[str]] = {i: [] for i in agents}
    worth = {i: dict.fromkeys(agents, 0) for i in agents}
    for members in classes:
        rep = members[0]
        graph = _decycle(worth, bundles, agents)
        # least topological order: the smallest agent nobody left envies
        sigma = []
        left = sorted(agents)
        while left:
            free = [j for j in left if not any(j in graph[i] for i in left)]
            assert free, "envy graph still cyclic after decycle"
            sigma.append(free[0])
            left.remove(free[0])
        # copies nobody values are parked with agents that skip envy math
        takers = ([i for i in sigma if values[i][rep] > 0]
                  + [i for i in agents if values[i][rep] == 0])[:len(members)]
        assert len(takers) == len(members), "more copies than agents"
        for g, i in zip(members, takers):
            _give(values, worth, bundles, i, g)
            _record(trace, i, g, "envy-order")
    return bundles
