"""Allocation algorithms for temporal instances, one per supported setting.

Every solver takes a validated TemporalInstance and returns a
TemporalAllocation whose ownership is total and whose placements respect
the buffer.  Solvers refuse instances outside their setting instead of
producing best-effort output; the registry records, per solver, which
fairness concepts the output is certified against (the property tests
re-check every one).

Only the last two solvers in the registry actually move goods to later
rounds; the rest hand everything out on arrival.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Sequence

from .errors import PreconditionError, SolverFailure
from .fairness import (Concept, _TwoShares, _envy_violation, _int_share, _own_worth,
                       _split_ok, _worth, envy_rows, folded)
from .model import (
    TemporalAllocation,
    TemporalInstance,
    classify,
    good_key,
    validate,
)
from .single_round import (
    _record,
    envy_cycle_elimination,
    envy_ordered_pick_rounds,
    round_robin,
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def _allocation(instance, owner, placement=None):
    if placement is None:
        placement = instance.arrival
    alloc = TemporalAllocation(placement=dict(placement), owner=dict(owner))
    validate(instance, alloc)
    return alloc


def _hand_out(bundles: dict[int, list[str]], owner, placement=None, at=None) -> None:
    """Record each bundle's goods as its agent's, placed at round ``at``
    when a placement mapping is given."""
    for agent, bundle in bundles.items():
        for g in bundle:
            owner[g] = agent
            if placement is not None:
                placement[g] = at


def _by_vector(instance, day_ids: Sequence[str]) -> dict[tuple, list[str]]:
    """Goods of one day grouped by their integer value vector (one table
    entry per agent), each group in id order."""
    groups: dict[tuple, list[str]] = {}
    for gid in sorted(day_ids, key=good_key):
        groups.setdefault(instance.columns[gid], []).append(gid)
    return groups


def _slot_copies(instance, days: Sequence[Sequence[str]]) -> dict[tuple, list[str]]:
    """The goods of each copy slot of the given days, in id order.

    Goods of a day that share a value vector are interchangeable copies;
    when a vector repeats within the day, its occurrences are numbered so
    that each slot (vector, occurrence) holds one good per day.  Slots are
    therefore comparable across days of an identical-days instance.  They
    come in the order the first day holding them lists them: grouped by
    vector, vectors in order of their smallest id, so day g1 (1,2),
    g2 (3,4), g3 (1,2) gives slots g1, g3, g2.
    """
    copies: dict[tuple, list[str]] = {}
    for day in days:
        for vec, members in _by_vector(instance, day).items():
            for idx, gid in enumerate(members):
                copies.setdefault((vec, idx), []).append(gid)
    return {slot: sorted(goods, key=good_key) for slot, goods in copies.items()}


# --- house shape, three rounds ----------------------------------------------

def solve_tef1_house_t3(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Identical days, n goods per round, exactly three rounds, no delays.

    Rounds 1 and 2 are solved as one pooled round robin; a 2-coloring of
    the graph whose edges pair each agent's two picks and each good with
    its other-round copy decides which pick is realized in round 1 (as the
    copy that actually arrived then) and which in round 2.  Round 3 is a
    round robin in reversed agent order, which keeps the cumulative
    allocation envy-free up to one good.
    """
    setting = classify(instance)
    _require(setting.house_allocation, "needs exactly n goods per round")
    _require(setting.identical_days, "needs identical days")
    _require(instance.horizon == 3, "needs a horizon of exactly 3 rounds")
    values = instance.value_table
    day1, day2, day3 = instance.rounds

    pooled = round_robin(
        list(day1) + list(day2), values, order=list(instance.agents), trace=trace
    )
    picked_by: dict[str, int] = {}
    _hand_out(pooled, picked_by)

    # each good has one pick mate (the same agent's other pick) and one
    # partner (its value-identical copy in the other round), so mate and
    # partner edges alternate around even cycles; walk each cycle from its
    # smallest good to 2-color it
    mate = {}
    for bundle in pooled.values():
        assert len(bundle) == 2, "2n goods over n agents give 2 picks each"
        a, b = bundle
        mate[a], mate[b] = b, a
    partner = {}
    for a, b in _slot_copies(instance, [day1, day2]).values():
        partner[a], partner[b] = b, a
    color: dict[str, int] = {}
    for start in sorted(partner, key=good_key):
        g = start
        while g not in color:
            color[g] = 0
            color[mate[g]] = 1
            g = partner[mate[g]]

    owner = {}
    placement = {}
    for o1 in day1:
        o2 = partner[o1]
        early, late = (o1, o2) if color[o1] == 0 else (o2, o1)
        # whoever picked the early-colored copy takes the round-1 arrival
        owner[o1] = picked_by[early]
        placement[o1] = 1
        owner[o2] = picked_by[late]
        placement[o2] = 2

    final = round_robin(
        day3, values, order=list(reversed(list(instance.agents))), trace=trace
    )
    _hand_out(final, owner, placement, 3)
    return _allocation(instance, owner, placement)


# --- generalized binary ------------------------------------------------------

def _supports(instance):
    """Each good's agents with a positive value, by good id in arrival order."""
    return {g: tuple(i for i, v in enumerate(instance.columns[g], 1) if v > 0)
            for round_ids in instance.rounds for g in round_ids}


def solve_tefx_genbinary_two(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Two agents, all values in {0, b}: exclusives go to their fan, shared
    goods alternate, worthless goods go to the designated laggard.

    The alternation starts with the agent whose first exclusive good
    arrives later; goods worth zero to both go to the other agent.
    """
    setting = classify(instance)
    _require(instance.n_agents == 2, "needs exactly two agents")
    _require(setting.generalized_binary, "needs all values in {0, b}")

    supports = _supports(instance)
    first_exclusive = {1: instance.horizon + 1, 2: instance.horizon + 1}
    for t, round_ids in enumerate(instance.rounds, start=1):
        for gid in round_ids:
            support = supports[gid]
            if len(support) == 1 and first_exclusive[support[0]] > t:
                first_exclusive[support[0]] = t
    # start shared goods with whoever waits longer for an exclusive
    j = 2 if first_exclusive[1] < first_exclusive[2] else 1
    laggard = 3 - j

    owner = {}
    for gid, support in supports.items():
        if len(support) == 1:
            owner[gid] = support[0]
        elif len(support) == 2:
            owner[gid] = j
            j = 3 - j
        else:
            owner[gid] = laggard
        _record(trace, owner[gid], gid, "binary-split")
    return _allocation(instance, owner)


def solve_tefx_genbinary_identical(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """All agents value goods identically at 0 or b: the least-total rule,
    which cycles the positive goods through agents 1..n and parks every
    zero good with agent n."""
    setting = classify(instance)
    _require(setting.generalized_binary, "needs all values in {0, b}")
    _require(setting.identical_valuation, "needs identical valuations")
    return _least_total_first(instance)


def solve_half_tefx_genbinary(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Any number of agents, values in {0, b}: route each good so every
    round prefix stays half-envy-free up to any good.

    Goods are routed in arrival order with backtracking.  A wanted good
    tries wanting agents that still have nothing of value, scarcest future
    supply first, then the poorest wanting agent, then anyone else as a
    parking spot; a worthless good tries agents with nothing first.  At
    each round boundary the exact pairwise conditions are enforced, so a
    returned allocation is fair by construction; if every routing dead
    ends, SolverFailure is raised rather than returning a bad allocation.
    ``_first_plan`` walks the goods, one stage per good and no depth
    limit, on a worth state of tuples of the table integers, from
    ``_worth``'s empty state.  A stage holds only its try order and the
    state it was entered with; each try folds into its own copy.
    """
    setting = classify(instance)
    _require(setting.generalized_binary, "needs all values in {0, b}")
    agents = list(instance.agents)
    n = instance.n_agents
    supports = _supports(instance)
    support = list(supports.values())
    columns = list(map(instance.columns.__getitem__, supports))
    # each round's last good, as its index in arrival order
    round_end = {k - 1 for k in accumulate(map(len, instance.rounds))}
    # per good, as tuples: its wanting agents and each agent's supply of
    # wanted goods after it
    supply_after = []
    running = [0] * n
    for s in reversed(support):
        supply_after.append(tuple(running))
        for i in s:
            running[i - 1] += 1
    supply_after.reverse()
    half = envy_rows(n, Concept("atefx", Fraction(1, 2)))

    def tries(k, worth):
        """Good k's receivers in the order to try them."""
        own = _own_worth(worth, n)
        if support[k]:
            hungry = sorted((i for i in support[k] if own[i - 1] == 0),
                            key=lambda i: (supply_after[k][i - 1], i))
            fed = sorted((i for i in support[k] if own[i - 1] > 0),
                         key=lambda i: (own[i - 1], i))
            return hungry + fed + [i for i in agents if i not in support[k]]
        return sorted(agents, key=lambda i: (own[i - 1] != 0, -i))

    def moves(k, worth):
        """Each receiver of good k that passes its round-end check, with
        the worth state after it."""
        for r in tries(k, worth):
            after = folded(worth, r - 1, columns[k], min, tuple)  # tuples hash
            if k not in round_end or _envy_violation(*after, half) is None:
                yield r, after

    picks = _first_plan(len(support), moves, tuple(map(tuple, _worth(instance, [], min))))
    if picks is None:
        raise SolverFailure(
            "no routing keeps every prefix half-envy-free up to any good"
        )
    owner = dict(zip(supports, picks))
    for g in supports:
        _record(trace, owner[g], g, "half-route")
    return _allocation(instance, owner)


# --- strictly positive values ------------------------------------------------

def solve_alpha_tefx_positive(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Every agent values every good positively and every round carries at
    least n goods: clear each round independently and accumulate.

    Each round runs envy-cycle elimination from scratch with the receiver
    taking their best remaining good.  With all values positive, agents
    holding nothing envy everyone holding anything, so each round seeds
    every agent with one good before anyone gets a second; each agent's
    per-round haul is then at least their cheapest good, which is what the
    advertised per-agent ratio rests on.  Rounds thinner than n would
    leave someone empty-handed in that round and sink the ratio, so they
    are refused.
    """
    _require(all(min(column) > 0 for column in instance.columns.values()),
             "needs strictly positive values")
    for t, round_ids in enumerate(instance.rounds, start=1):
        _require(
            len(round_ids) >= instance.n_agents,
            f"round {t} has fewer goods than agents",
        )
    values = instance.value_table
    agents = list(instance.agents)
    owner: dict[str, int] = {}
    for round_ids in instance.rounds:
        _hand_out(envy_cycle_elimination(round_ids, values, agents, trace=trace), owner)
    return _allocation(instance, owner)


def alpha_positive_bounds(instance: TemporalInstance) -> tuple[Fraction, ...]:
    """Per-agent certified ratio for the positive-values solver.

    With m_i and M_i the extreme good values for agent i, the ratio is
    m_i / (2 m_i + M_i); all goods equal gives 1/3.
    """
    bounds = []
    for row in instance.value_table.values():
        lo, hi = min(row.values(), default=0), max(row.values(), default=0)
        if lo <= 0:
            raise PreconditionError("needs strictly positive values")
        bounds.append(Fraction(lo, 2 * lo + hi))
    return tuple(bounds)


# --- identical days, two agents, no scheduling --------------------------------

def solve_half_tefx_identical_days_two(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Two agents, identical days: split each day under one agent's values
    and let the other agent choose their half, alternating the roles.

    Odd rounds are split by envy-cycle elimination as if both agents had
    agent 1's valuation; agent 2 then takes whichever half they weakly
    prefer.  Even rounds swap the roles.
    """
    setting = classify(instance)
    _require(instance.n_agents == 2, "needs exactly two agents")
    _require(setting.identical_days, "needs identical days")
    values = instance.value_table
    owner = {}
    for t, round_ids in enumerate(instance.rounds, start=1):
        cutter = 1 if t % 2 == 1 else 2
        chooser = 3 - cutter
        mirrored = {1: values[cutter], 2: values[cutter]}
        halves = envy_cycle_elimination(round_ids, mirrored, [1, 2])
        first, second = halves[1], halves[2]
        if sum(values[chooser][g] for g in first) >= sum(values[chooser][g] for g in second):
            taken, left = first, second
        else:
            taken, left = second, first
        _hand_out({chooser: taken, cutter: left}, owner)
        for g in sorted(round_ids, key=good_key):
            _record(trace, owner[g], g, "cut-and-choose")
    return _allocation(instance, owner)


# --- identical valuations ------------------------------------------------------

def solve_alpha_tefx_identical_valuation(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    _require(classify(instance).identical_valuation, "needs identical valuations")
    return _least_total_first(instance)


def _least_total_first(instance):
    """One shared valuation: every positive good goes to whoever currently
    has least, the lowest index on ties; zero goods go to agent n."""
    totals = {i: 0 for i in instance.agents}
    owner = {}
    for round_ids in instance.rounds:
        for gid in round_ids:
            v = instance.columns[gid][0]
            if v > 0:
                receiver = min(instance.agents, key=lambda i: (totals[i], i))
                totals[receiver] += v
            else:
                receiver = instance.n_agents
            owner[gid] = receiver
    return _allocation(instance, owner)


def alpha_identical_bound(instance: TemporalInstance) -> Fraction:
    """Certified ratio min+ / (max + min+); 1 when nothing has value."""
    shared = [column[0] for column in instance.columns.values()]  # agent 1's, shared by all
    positives = [v for v in shared if v > 0]
    if not positives:
        return Fraction(1)
    top, low = max(shared), min(positives)
    return Fraction(low, top + low)


# --- bi-valued ----------------------------------------------------------------

def solve_rr_bivalued(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Two positive value levels: one global round robin, the pointer
    carrying over from round to round, each picker taking their best good
    still available in the current round."""
    setting = classify(instance)
    _require(setting.bi_valued, "needs exactly two positive value levels")
    agents = list(instance.agents)
    owner = {}
    start = 0  # the pointer: index of the first picker of the round
    for round_ids in instance.rounds:
        order = agents[start:] + agents[:start]
        _hand_out(round_robin(round_ids, instance.value_table, order, trace, "rr-global"), owner)
        start = (start + len(round_ids)) % len(agents)
    return _allocation(instance, owner)


def bivalued_bound(instance: TemporalInstance) -> Fraction:
    setting = classify(instance)
    _require(setting.bi_valued, "needs exactly two positive value levels")
    low, high = setting.bi_valued_levels
    return low / high


# --- identical days with scheduling -------------------------------------------

def solve_tef1_identical_days_scheduled(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Identical days with a buffer of at least half the agent count: work
    in blocks of n rounds that end with everyone holding one full day copy.

    In each block, the first ceil(n/2) days are delayed to a shared mid
    round and dealt out class by class in envy order, so nobody holds two
    copies of a slot; the remaining days are delayed to the block's last
    round and complete every agent to exactly one copy of every slot,
    wiping all envy at the boundary.  A leftover partial block is squeezed
    into two pooled rounds: a round robin, then another in reversed order.
    """
    setting = classify(instance)
    _require(setting.identical_days, "needs identical days")
    n = instance.n_agents
    half_up = (n + 1) // 2
    _require(
        instance.buffer >= half_up,
        f"needs buffer >= {half_up} for {n} agents",
    )
    values = instance.value_table
    agents = list(instance.agents)
    T = instance.horizon
    owner: dict[str, int] = {}
    placement: dict[str, int] = {}

    full_blocks = T // n
    for k in range(full_blocks):
        base = k * n
        mid_round = base + half_up
        phase1_days = [instance.rounds[base + d] for d in range(half_up)]
        held = _slot_copies(instance, phase1_days)
        picked = envy_ordered_pick_rounds(held.values(), values, agents, trace=trace)
        _hand_out(picked, owner, placement, mid_round)

        phase2_days = [instance.rounds[base + d] for d in range(half_up, n)]
        end_round = base + n
        for slot, copies in _slot_copies(instance, phase2_days).items():
            holders = {owner[g] for g in held[slot]}
            lacking = [i for i in agents if i not in holders]
            assert len(lacking) == len(copies), "completion counts must match"
            for g, agent in zip(copies, lacking):
                owner[g] = agent
                placement[g] = end_round
                _record(trace, agent, g, "complete-copy")

    base = full_blocks * n
    remainder = T - base
    head = (remainder + 1) // 2
    for days, order in ((range(head), agents), (range(head, remainder), agents[::-1])):
        if days:
            pool = [g for d in days for g in instance.rounds[base + d]]
            bundles = round_robin(pool, values, order=order, trace=trace)
            _hand_out(bundles, owner, placement, base + days.stop)
    return _allocation(instance, owner, placement)


def solve_tefx_identical_days_scheduled_two(instance: TemporalInstance, trace=None) -> TemporalAllocation:
    """Two agents, identical days, buffer >= 2 (or a horizon of at most 2):
    pool days in pairs and search the splits.

    An even horizon pairs consecutive days, and handing each agent one copy
    of every slot keeps the agents exactly equal at every pooled round.  An
    odd horizon leaves day one on its own, so bundle values differ from
    round 1 on; the per-pool splits are then found by depth-first search
    over subsets, pruning any split that breaks envy-freeness up to any
    good or the maximin share test at its round, with failed states
    memoized.  A two-round horizon with no buffer keeps both days separate
    and searches the same way.

    Whole pools cannot delay a single good, and some odd horizons need
    that (days {5, 3} over five rounds, for one).  When no pool split
    passes, the search widens to the whole buffer window: at each round it
    picks which waiting goods are placed and how the goods placed then are
    split, under the same envy and share pruning and a memo of failed
    round states.  That search is exhaustive, so a SolverFailure from it
    proves that no allocation is TEFX and TMMS together; some odd horizons
    have none (days {5, 7} over seven rounds at buffer 2, for one).
    """
    setting = classify(instance)
    _require(instance.n_agents == 2, "needs exactly two agents")
    _require(setting.identical_days, "needs identical days")
    T = instance.horizon
    _require(
        T <= 2 or instance.buffer >= 2,
        "needs buffer >= 2 beyond two rounds",
    )
    owner: dict[str, int] = {}
    placement: dict[str, int] = {}

    if T % 2 == 0 and (T > 2 or instance.buffer >= 2):
        # pairs of identical days split one copy per agent: exact equality
        for k in range(T // 2):
            days = [instance.rounds[2 * k], instance.rounds[2 * k + 1]]
            for first, second in _slot_copies(instance, days).values():
                _hand_out({1: [first], 2: [second]}, owner, placement, 2 * k + 2)
        return _allocation(instance, owner, placement)

    if T == 2:  # buffer == 1 here: keep both days at arrival
        pools = [(instance.rounds[0], 1), (instance.rounds[1], 2)]
    else:  # odd horizon: lone first day, then pairs landing on odd rounds
        pools = [(instance.rounds[0], 1)] + [
            (instance.rounds[t - 2] + instance.rounds[t - 1], t) for t in range(3, T + 1, 2)]

    bounds = _placed_bounds(instance)
    placed = _search_pool_splits(instance, pools, bounds)
    if placed is not None:
        return _emit(instance, placed, "pool-split", trace)
    message = (
        "no split sequence satisfies the prefix checks; "
        f"pools at rounds {[r for _, r in pools]}"
    )
    # beyond two rounds the buffer is at least 2, so single goods can wait
    if T >= 3:
        placed = _search_window(instance, bounds)
        if placed is not None:
            return _emit(instance, placed, "window-split", trace)
        message += ", nor any placement within the buffer"
    raise SolverFailure(message)


def _emit(instance, placed, rule, trace):
    """Allocation from (good, owner, round) triples, traced in that order."""
    owner: dict[str, int] = {}
    placement: dict[str, int] = {}
    for g, agent, target in placed:
        owner[g] = agent
        placement[g] = target
        _record(trace, agent, g, rule)
    return _allocation(instance, owner, placement)


def _least(current, value):
    """Running minimum, where None means "no good yet"."""
    return value if current is None or value < current else current


def _placed_bounds(instance):
    """``bounds(t, waiting)``: both agents' totals and two-part maximin
    shares of the goods placed by round t of a two-agent identical-days
    instance, memoized.  ``waiting[k]`` counts the arrived copies of the
    k-th day vector, in sorted order, that are not placed yet.  With
    nothing waiting, a round past every one asked before grows one
    ``fairness._TwoShares`` by the days in between, so a walk along the
    pool rounds folds each day in once; other entries use their own pool."""
    day = _by_vector(instance, instance.rounds[0])
    vecs = sorted(day)
    copies = [v for v in vecs for _ in day[v]]  # one day's value vectors
    idle = (0,) * len(vecs)
    grown = _TwoShares([[v[a] for v in copies] * instance.horizon for a in (0, 1)])
    memo: dict[tuple, tuple] = {}
    reached = 0  # the days folded into grown

    def bounds(t, waiting):
        nonlocal reached
        key = (t, waiting)
        if key not in memo and waiting == idle and t > reached:
            for v in copies * (t - reached):
                grown.add(v)
            reached = t
            memo[key] = (tuple(grown.total), (grown.share(0), grown.share(1)))
        elif key not in memo:
            placed = [v for v, w in zip(vecs, waiting)
                      for _ in range(len(day[v]) * t - w)]
            columns = ([v[0] for v in placed], [v[1] for v in placed])
            memo[key] = (tuple(map(sum, columns)),
                         tuple(_int_share(c, 2, None) for c in columns))
        return memo[key]

    return bounds


def _first_plan(depth, moves, start):
    """The first moves, depth first, that take ``start`` through stages
    0 .. depth - 1, or None.  ``moves(p, state)`` yields stage p's passing
    (move, next state) pairs in the order to try them; a (stage, state)
    pair with no plan is memoized.

    The one depth-first walker of the solvers: the half-TEFX router, the
    pool-split search and the window search.  It keeps one suspended
    ``moves`` generator per stage on its own stack, so the depth has no
    limit.
    """
    if depth == 0:
        return []
    failed: set[tuple] = set()
    # (move into the stage, state, its moves) per stage on the current path
    path = [(None, start, moves(0, start))]
    while path:
        p = len(path) - 1
        _, state, options = path[-1]
        for move, after in options:
            if p + 1 == depth:
                return [m for m, _, _ in path[1:]] + [move]
            if (p + 1, after) not in failed:
                path.append((move, after, moves(p + 1, after)))
                break
        else:
            failed.add((p, state))
            path.pop()
    return None


def _search_pool_splits(instance, pools, bounds):
    """Depth-first split search over pooled rounds for two agents.

    State per depth: both agents' values of agent 1's pile plus the
    cheapest good each agent sees in the other's pile (what the
    any-good-removal check depends on).  ``_first_plan`` walks the pools,
    each split mask a move; splits failing envy or share checks at their
    pool's round are pruned.  Agent 1's pile values run from mask to mask
    like a binary counter, so a split that misses a maximin share is
    dropped before its minima, key or envy test.  Each pool holds whole
    days and lands on the round of its last day, so ``bounds`` sees
    nothing waiting there.
    Returns (good, owner, round) triples, pool by pool in id order, or None.
    """
    v1, v2 = instance.value_table[1], instance.value_table[2]
    ordered_pools = [sorted(pool, key=good_key) for pool, _ in pools]
    idle = (0,) * len(_by_vector(instance, instance.rounds[0]))

    def moves(p, state):
        pool = ordered_pools[p]
        placed = (totals, shares) = bounds(pools[p][1], idle)
        p1, p2 = [v1[g] for g in pool], [v2[g] for g in pool]
        below1, below2 = list(accumulate(p1, initial=0)), list(accumulate(p2, initial=0))
        n1v1, n1v2, min2, min1 = state
        tried = set()
        for mask in range(1 << len(pool)):
            if mask:  # a binary counter step: goods below `low` leave, `low` joins
                low = (mask & -mask).bit_length() - 1
                n1v1 += p1[low] - below1[low]
                n1v2 += p2[low] - below2[low]
            if n1v1 < shares[0] or totals[1] - n1v2 < shares[1]:
                continue  # fails _split_ok's share tests, whatever the minima
            nmin2, nmin1 = min2, min1
            for idx, g in enumerate(pool):
                if mask >> idx & 1:
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


def _search_window(instance, bounds):
    """Exhaustive depth-first search over every placement within the buffer,
    for two agents on identical days.

    Copies of one value vector are interchangeable and differ only in
    deadline, so placing the oldest waiting copies first loses nothing:
    a round's move is, per vector, how many waiting copies are placed and
    how many of those go to agent 1.  The state after a round is agent 1's
    pile values, the two cheapest-good minima and the waiting counts per
    vector and age; the placed pool, hence both totals and shares, follows
    from the round and the waiting counts, which ``bounds`` looks up.
    ``_first_plan`` walks the rounds.  Returns (good, owner, round) triples
    or None.
    """
    T = instance.horizon
    reach = min(instance.buffer, T) - 1  # the most rounds a good can wait
    day_ids = [_by_vector(instance, round_ids) for round_ids in instance.rounds]
    vecs = sorted(day_ids[0])
    count = [len(day_ids[0][v]) for v in vecs]

    def vector_moves(t, k, ages):
        """(placed, waiting ages after the round) for one vector.

        ``ages[a - 1]`` counts the copies that arrived a rounds ago and still
        wait; those at age ``reach`` are due now, and nothing waits past T.
        """
        cohorts = list(reversed(ages)) + [count[k]]  # oldest first
        total = sum(cohorts)
        due = total if t == T else cohorts[0]
        for placed in range(total, due - 1, -1):
            left = []
            rest = placed
            for size in cohorts:
                used = min(size, rest)
                rest -= used
                left.append(size - used)
            yield placed, tuple(reversed(left[1:]))

    def moves(p, state):
        """Distinct successor states of round p + 1 that pass its checks,
        each with its first move."""
        t = p + 1
        carry, split = state
        partial = {split + ((),): ()}
        for k, v in enumerate(vecs):
            options = list(vector_moves(t, k, carry[k]))
            grown = {}
            for (a1v1, a1v2, min2, min1, waits), picks in partial.items():
                for placed, ages in options:
                    for x in range(placed + 1):
                        key = (
                            a1v1 + x * v[0],
                            a1v2 + x * v[1],
                            _least(min2, v[1]) if x else min2,
                            _least(min1, v[0]) if x < placed else min1,
                            waits + (ages,),
                        )
                        if key not in grown:
                            grown[key] = picks + ((placed, x),)
            partial = grown
        for (*after, waits), picks in partial.items():
            totals, shares = bounds(t, tuple(sum(a) for a in waits))
            if _split_ok(totals, shares, *after):
                yield picks, (waits, tuple(after))

    plan = _first_plan(T, moves, (((0,) * reach,) * len(vecs), (0, 0, None, None)))
    if plan is None:
        return None
    placed = []
    waiting: dict[tuple, list[str]] = {v: [] for v in vecs}
    for t, picks in enumerate(plan, start=1):
        for v, (n_placed, x) in zip(vecs, picks):
            queue = waiting[v] + day_ids[t - 1][v]  # oldest first
            waiting[v] = queue[n_placed:]
            placed.extend(
                (g, 1 if idx < x else 2, t)
                for idx, g in enumerate(queue[:n_placed])
            )
    return placed


# --- registry -----------------------------------------------------------------

@dataclass(frozen=True)
class SolverEntry:
    """One registered algorithm with its certification contract."""

    name: str
    run: Callable
    summary: str
    concepts: Callable  # instance -> list[Concept]


def _fixed(*concepts):
    return lambda instance: list(concepts)


SOLVERS: dict[str, SolverEntry] = {
    entry.name: entry
    for entry in [
        SolverEntry(
            name="tef1-house-t3",
            run=solve_tef1_house_t3,
            summary="identical days, n goods per round, T=3; envy-free up to one good",
            concepts=_fixed(Concept("tef1")),
        ),
        SolverEntry(
            name="tefx-genbinary-two",
            run=solve_tefx_genbinary_two,
            summary="2 agents, values in {0,b}; envy-free up to any good and maximin-share fair",
            concepts=_fixed(Concept("tefx"), Concept("tmms")),
        ),
        SolverEntry(
            name="tefx-genbinary-identical",
            run=solve_tefx_genbinary_identical,
            summary="identical {0,b} valuations; envy-free up to any good",
            concepts=_fixed(Concept("tefx")),
        ),
        SolverEntry(
            name="half-tefx-genbinary",
            run=solve_half_tefx_genbinary,
            summary="values in {0,b}, any n; 1/2-scaled envy-free up to any good",
            concepts=_fixed(Concept("atefx", Fraction(1, 2))),
        ),
        SolverEntry(
            name="alpha-tefx-positive",
            run=solve_alpha_tefx_positive,
            summary="strictly positive values, rounds of n+ goods; per-agent scaled envy bound",
            concepts=lambda inst: [Concept("atefx", alpha_positive_bounds(inst))],
        ),
        SolverEntry(
            name="half-tefx-identical-days-two",
            run=solve_half_tefx_identical_days_two,
            summary="2 agents, identical days; 1/2-scaled envy-free up to any good",
            concepts=_fixed(Concept("atefx", Fraction(1, 2))),
        ),
        SolverEntry(
            name="alpha-tefx-identical-valuation",
            run=solve_alpha_tefx_identical_valuation,
            summary="one shared valuation; scaled envy bound from the value spread",
            concepts=lambda inst: [Concept("atefx", alpha_identical_bound(inst))],
        ),
        SolverEntry(
            name="rr-bivalued",
            run=solve_rr_bivalued,
            summary="two positive value levels a<=b; a/b-scaled envy bound via round robin",
            concepts=lambda inst: [Concept("atefx", bivalued_bound(inst))],
        ),
        SolverEntry(
            name="tef1-identical-days-scheduled",
            run=solve_tef1_identical_days_scheduled,
            summary="identical days, buffer >= ceil(n/2); envy-free up to one good, exact equality each block",
            concepts=_fixed(Concept("tef1")),
        ),
        SolverEntry(
            name="tefx-identical-days-scheduled-two",
            run=solve_tefx_identical_days_scheduled_two,
            summary="2 agents, identical days, buffer >= 2; envy-free up to any good and maximin-share fair "
                    "when such an allocation exists (some odd horizons have none, and the solver then fails)",
            concepts=_fixed(Concept("tefx"), Concept("tmms")),
        ),
    ]
}
