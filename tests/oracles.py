"""Brute-force definitional fairness oracles shared by the test modules.

Deliberately naive: plain loops straight from the definitions, no reuse of
library code, small inputs only.  The one exception is
``reference_pool_splits``, the two-agent split search's plain mask loop,
kept as the reference for the pruned loop in the library.
"""

import itertools


def naive_ef1(values, bundles):
    """values[i][g]; bundles dict agent -> iterable of goods."""
    agents = sorted(bundles)
    for i in agents:
        mine = sum(values[i][g] for g in bundles[i])
        for j in agents:
            if i == j:
                continue
            theirs = sum(values[i][g] for g in bundles[j])
            if mine >= theirs:
                continue
            if not any(mine >= theirs - values[i][g] for g in bundles[j]):
                return False
    return True


def naive_efx(values, bundles):
    agents = sorted(bundles)
    for i in agents:
        mine = sum(values[i][g] for g in bundles[i])
        for j in agents:
            if i == j or not bundles[j]:
                continue
            theirs = sum(values[i][g] for g in bundles[j])
            # removing any single good, even a worthless one, must fix it
            for g in bundles[j]:
                if mine < theirs - values[i][g]:
                    return False
    return True


def naive_alpha_efx(values, bundles, alphas):
    agents = sorted(bundles)
    for i in agents:
        mine = sum(values[i][g] for g in bundles[i])
        for j in agents:
            if i == j or not bundles[j]:
                continue
            theirs = sum(values[i][g] for g in bundles[j])
            for g in bundles[j]:
                if mine < alphas[i - 1] * (theirs - values[i][g]):
                    return False
    return True


def naive_envies(values, bundles, i, j, kind, alpha=1):
    """Whether agent i's envy of agent j's bundle breaks the notion: for
    "ef1" no single removal settles it, for "efx" some removal does not;
    alpha scales the envied side."""
    if i == j or not bundles[j]:
        return False
    mine = sum(values[i][g] for g in bundles[i])
    theirs = sum(values[i][g] for g in bundles[j])
    unsettled = [mine < alpha * (theirs - values[i][g]) for g in bundles[j]]
    return all(unsettled) if kind == "ef1" else any(unsettled)


def naive_mms_share(vals, n_parts):
    """Max over all assignments of goods to labeled parts of the min part."""
    if len(vals) < n_parts:
        return 0
    best = None
    for assignment in itertools.product(range(n_parts), repeat=len(vals)):
        loads = [0] * n_parts
        for v, p in zip(vals, assignment):
            loads[p] += v
        worst = min(loads)
        if best is None or worst > best:
            best = worst
    return best


def dp_mms_share(vals, n_parts):
    """The same share by dynamic programming: keep every reachable sorted
    tuple of part loads, add each good to every part, and return the
    largest minimum load."""
    states = {(0,) * n_parts}
    for v in vals:
        states = {
            tuple(sorted(loads[:p] + (loads[p] + v,) + loads[p + 1:]))
            for loads in states
            for p in range(n_parts)
        }
    return max(loads[0] for loads in states)


def naive_tmms(values, bundles, n_agents):
    pool = sorted(g for b in bundles.values() for g in b)
    for i in sorted(bundles):
        mine = sum(values[i][g] for g in bundles[i])
        share = naive_mms_share([values[i][g] for g in pool], n_agents)
        if mine < share:
            return False
    return True


def values_of(instance):
    """values[i][g] for every agent and good, read off the goods' vectors."""
    return {
        i: {g.id: g.values[i - 1] for g in instance.goods}
        for i in instance.agents
    }


def naive_classify(instance):
    """The setting classes as a dict of SettingClass fields, read from the
    Fraction values: sorted value vectors per round, distinct levels and
    per-good value sets."""
    days = [sorted(instance.goods_by_id[gid].values for gid in ids)
            for ids in instance.rounds]
    distinct = {v for g in instance.goods for v in g.values}
    positive = sorted(v for v in distinct if v > 0)
    binary = len(positive) <= 1
    bi_valued = 0 not in distinct and len(distinct) >= 1 and len(positive) <= 2
    return {
        "identical_days": all(d == days[0] for d in days[1:]),
        "generalized_binary": binary,
        "bi_valued": bi_valued,
        "bi_valued_levels": (positive[0], positive[-1]) if bi_valued and positive else None,
        "identical_valuation": all(len(set(g.values)) == 1 for g in instance.goods),
        "house_allocation": all(len(ids) == instance.n_agents for ids in instance.rounds),
    }


def _naive_best(values, agent, pool):
    """The agent's highest-valued good in the pool, shortest then
    alphabetically first id on ties, by a scan of the whole pool."""
    top = max(values[agent][g] for g in pool)
    return min((g for g in pool if values[agent][g] == top), key=lambda g: (len(g), g))


def _naive_step(trace, agent, good, rule):
    trace.append({"step": len(trace) + 1, "agent": agent, "good": good, "rule": rule})


def naive_round_robin(goods, values, order):
    """Round robin in ``order``, each agent scanning the pool for their best
    good; returns (bundles, trace)."""
    bundles = {i: [] for i in order}
    trace = []
    remaining = set(goods)
    step = 0
    while remaining:
        agent = order[step % len(order)]
        g = _naive_best(values, agent, remaining)
        bundles[agent].append(g)
        remaining.discard(g)
        _naive_step(trace, agent, g, "rr")
        step += 1
    return bundles, trace


def naive_global_round_robin(rounds, values, n_agents):
    """One round robin over agents 1..n whose turn carries from round to
    round, each picker taking their best good of the current round;
    returns (owner, trace)."""
    owner = {}
    trace = []
    pointer = 0
    for round_ids in rounds:
        pool = set(round_ids)
        while pool:
            agent = pointer % n_agents + 1
            g = _naive_best(values, agent, pool)
            owner[g] = agent
            pool.discard(g)
            pointer += 1
            _naive_step(trace, agent, g, "rr-global")
    return owner, trace


def _naive_first_cycle(graph, agents):
    """First cycle met by a depth-first search from each agent in turn,
    following out-edges in the listed order, or None."""
    done = set()

    def visit(path):
        for v in graph[path[-1]]:
            if v in path:
                return path[path.index(v):]
            if v not in done:
                found = visit(path + [v])
                if found:
                    return found
        done.add(path[-1])
        return None

    for start in agents:
        if start not in done:
            found = visit([start])
            if found:
                return found
    return None


def naive_envy_cycle_elimination(goods, values, agents):
    """Envy-cycle elimination with every bundle re-summed for each envy
    graph: rotate cycles away, then the smallest unenvied agent takes their
    best remaining good; returns (bundles, trace, number of rotations)."""
    bundles = {i: [] for i in agents}
    trace = []
    rotations = 0

    def worth(i, j):
        return sum(values[i][g] for g in bundles[j])

    def decycle():
        nonlocal rotations
        while True:
            graph = {i: sorted(j for j in agents if j != i and worth(i, i) < worth(i, j))
                     for i in agents}
            cycle = _naive_first_cycle(graph, agents)
            if cycle is None:
                return graph
            taken = [bundles[j] for j in cycle[1:] + cycle[:1]]
            for i, bundle in zip(cycle, taken):
                bundles[i] = bundle
            rotations += 1

    remaining = set(goods)
    while remaining:
        envied = {j for targets in decycle().values() for j in targets}
        receiver = min(i for i in agents if i not in envied)
        g = _naive_best(values, receiver, remaining)
        remaining.discard(g)
        bundles[receiver].append(g)
        _naive_step(trace, receiver, g, "ece-max")
    decycle()
    return bundles, trace, rotations


def reference_pool_splits(instance, pools, bounds):
    """``solvers._search_pool_splits`` with every mask walked good by good:
    each split's key is built from scratch and goes to ``_split_ok``, and
    only the ``tried`` set skips a repeated key.  Same arguments and
    result: (good, owner, round) triples, or None."""
    from tempfair.model import good_key
    from tempfair.solvers import _by_vector, _first_plan, _split_ok

    v1, v2 = instance.value_table[1], instance.value_table[2]
    ordered_pools = [sorted(pool, key=good_key) for pool, _ in pools]
    idle = (0,) * len(_by_vector(instance, instance.rounds[0]))

    def moves(p, state):
        pool = ordered_pools[p]
        placed = bounds(pools[p][1], idle)
        tried = set()
        for mask in range(1 << len(pool)):
            n1v1, n1v2, nmin2, nmin1 = state
            for idx, g in enumerate(pool):
                if mask >> idx & 1:
                    n1v1 += v1[g]
                    n1v2 += v2[g]
                    if nmin2 is None or v2[g] < nmin2:
                        nmin2 = v2[g]
                elif nmin1 is None or v1[g] < nmin1:
                    nmin1 = v1[g]
            key = (n1v1, n1v2, nmin2, nmin1)
            if key in tried:
                continue
            tried.add(key)
            if _split_ok(*placed, *key):
                yield mask, key

    plan = _first_plan(len(ordered_pools), moves, (0, 0, None, None))
    if plan is None:
        return None
    return [(g, 1 if mask >> idx & 1 else 2, target)
            for (_, target), pool, mask in zip(pools, ordered_pools, plan)
            for idx, g in enumerate(pool)]
