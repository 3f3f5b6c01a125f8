"""One-shot allocation subroutines the temporal algorithms compose.

Everything here works on a plain pool: a collection of good ids plus a
value table ``values[agent][good_id]`` with 1-based agent keys.  Bundles
come back as ``dict[int, list[str]]`` in pick order.  Ties always break
toward the smallest good id (length-then-lexicographic) and the smallest
agent index, so every routine is deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import ValidationError
from .model import good_key

ValueTable = Mapping[int, Mapping[str, int]]


def _bundle_value(values: ValueTable, agent: int, bundle: Iterable[str]) -> int:
    return sum(values[agent][g] for g in bundle)


def _record(trace: list | None, agent: int, good: str, rule: str) -> None:
    """Append one hand-out to the trace, when one is kept."""
    if trace is not None:
        trace.append({"step": len(trace) + 1, "agent": agent, "good": good, "rule": rule})


def _best_good(values: ValueTable, agent: int, pool: Iterable[str]) -> str:
    """Max-valued good for an agent, smallest id on ties."""
    pool = list(pool)
    top = max(values[agent][g] for g in pool)
    return min((g for g in pool if values[agent][g] == top), key=good_key)


def round_robin(
    goods: Iterable[str],
    values: ValueTable,
    order: Sequence[int],
    trace: list | None = None,
) -> dict[int, list[str]]:
    """Agents pick in cyclic order; each takes their best remaining good.

    ``order`` fixes the cycle (it need not be sorted; reversing it gives the
    mirrored pass used by the two-pool schedulers).
    """
    bundles: dict[int, list[str]] = {i: [] for i in order}
    remaining = set(goods)
    step = 0
    while remaining:
        agent = order[step % len(order)]
        g = _best_good(values, agent, remaining)
        bundles[agent].append(g)
        remaining.discard(g)
        _record(trace, agent, g, "rr")
        step += 1
    return bundles


def _envy_edges(values: ValueTable, bundles: dict[int, list[str]], agents: Sequence[int]):
    """Strict envy digraph as sorted (envious, envied) pairs."""
    val = {i: _bundle_value(values, i, bundles[i]) for i in agents}
    edges = []
    for i in agents:
        for j in agents:
            if i != j and val[i] < _bundle_value(values, i, bundles[j]):
                edges.append((i, j))
    return edges


def _find_cycle(edges, agents):
    """Lexicographically first envy cycle by DFS from the smallest agent."""
    adj: dict[int, list[int]] = {i: [] for i in agents}
    for i, j in edges:
        adj[i].append(j)
    for i in agents:
        adj[i].sort()
    color: dict[int, int] = {}
    cycle = None

    def dfs(u, stack):
        nonlocal cycle
        color[u] = 1
        stack.append(u)
        for v in adj[u]:
            if cycle is not None:
                return
            if color.get(v) == 1:
                cycle = stack[stack.index(v):]
                return
            if v not in color:
                dfs(v, stack)
        if cycle is None:
            color[u] = 2
            stack.pop()

    for s in agents:
        if s not in color and cycle is None:
            dfs(s, [])
    return cycle


def _rotate_cycle(bundles: dict[int, list[str]], cycle: Sequence[int]) -> None:
    """Each cycle member takes the bundle of the agent they envy."""
    shifted = [bundles[cycle[(k + 1) % len(cycle)]] for k in range(len(cycle))]
    for agent, bundle in zip(cycle, shifted):
        bundles[agent] = bundle


def _decycle(values: ValueTable, bundles: dict[int, list[str]], agents: Sequence[int]):
    """Rotate bundles along envy cycles until the envy graph is acyclic,
    and return its final edges.

    Each rotation strictly raises the total utility sum, which bounds the
    loop; the assert guards against a rotation that fails to.
    """
    while True:
        edges = _envy_edges(values, bundles, agents)
        cycle = _find_cycle(edges, agents)
        if cycle is None:
            return edges
        before = sum(_bundle_value(values, i, bundles[i]) for i in agents)
        _rotate_cycle(bundles, cycle)
        after = sum(_bundle_value(values, i, bundles[i]) for i in agents)
        assert after > before, "envy cycle rotation must increase total utility"


def envy_cycle_elimination(
    goods: Iterable[str],
    values: ValueTable,
    agents: Sequence[int],
    trace: list | None = None,
) -> dict[int, list[str]]:
    """Give each next good to an agent nobody envies, rotating cycles away.

    The receiver is the smallest unenvied agent index and takes their own
    best remaining good (the variant that makes the two-identical-agents
    case envy-free up to any good).  The envy graph is rebuilt after every
    change.
    """
    bundles: dict[int, list[str]] = {i: [] for i in agents}
    remaining = set(goods)
    while remaining:
        envied = {j for _, j in _decycle(values, bundles, agents)}
        receiver = min(i for i in agents if i not in envied)
        g = _best_good(values, receiver, remaining)
        remaining.discard(g)
        bundles[receiver].append(g)
        _record(trace, receiver, g, "ece-max")
    _decycle(values, bundles, agents)
    return bundles


def envy_ordered_pick_rounds(
    goods: Iterable[str],
    copy_class: Mapping[str, object],
    values: ValueTable,
    agents: Sequence[int],
    trace: list | None = None,
) -> dict[int, list[str]]:
    """Allocate identical copies class by class in envy order.

    One class at a time: rotate envy cycles away, then let agents pick in a
    topological order of the envy graph (envious agents first).  The first
    ``copies`` agents in that order who value the class positively each take
    one copy; copies nobody wants go to zero-value agents.  Each class round
    preserves envy-freeness up to one good, because whenever i envies j,
    agent i picks first and picks at least as well.

    Copies of one class must carry identical value vectors; each agent ends
    with at most one copy of any class.
    """
    goods = sorted(goods, key=good_key)
    by_class: dict[object, list[str]] = {}
    for g in goods:
        by_class.setdefault(copy_class[g], []).append(g)
    for cls, members in by_class.items():
        vecs = {tuple(values[i][g] for i in agents) for g in members}
        if len(vecs) > 1:
            raise ValidationError(f"copy class {cls!r} mixes value vectors")
        if len(members) > len(agents):
            raise ValidationError(
                f"copy class {cls!r} has {len(members)} copies for "
                f"{len(agents)} agents"
            )
    class_order = sorted(by_class, key=lambda cls: good_key(by_class[cls][0]))

    bundles: dict[int, list[str]] = {i: [] for i in agents}
    for cls in class_order:
        members = by_class[cls]
        rep = members[0]
        edges = set(_decycle(values, bundles, agents))
        # least topological order: the smallest agent nobody left envies
        sigma = []
        left = sorted(agents)
        while left:
            free = [j for j in left if not any((i, j) in edges for i in left)]
            assert free, "envy graph still cyclic after decycle"
            sigma.append(free[0])
            left.remove(free[0])

        takers = []
        for i in sigma:
            if len(takers) == len(members):
                break
            if values[i][rep] > 0:
                takers.append(i)
        if len(takers) < len(members):
            # copies nobody values: park them with agents that skip envy math
            for i in agents:
                if len(takers) == len(members):
                    break
                if values[i][rep] == 0 and i not in takers:
                    takers.append(i)
        assert len(takers) == len(members), "more copies than agents"
        for g, i in zip(members, takers):
            bundles[i].append(g)
            _record(trace, i, g, "envy-order")
    return bundles
