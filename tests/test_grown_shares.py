"""Maximin shares grown across prefixes, against per-prefix shares.

``fairness._GrownShares`` grows one subset-sum bitset per agent as goods
are added for two parts, and keeps the pool for any other part count; the
share at every prefix must equal ``_int_share`` of that prefix's pool.
Draws are seeded: columns with a common factor, zeros, prefixes with fewer
than two positive goods, and values large enough that the bitset would be
wider than the share kernel allows, so each share goes to ``_int_share``
instead; 1 and 3 parts run on the first 16 goods.  The same holds through
its two-part users, the two-agent ``tmms`` check and the zero-waiting
entries of ``solvers._placed_bounds``; counting ``_int_share`` calls shows
that neither rebuilds a share per prefix.
"""

import importlib
import random
from fractions import Fraction

import pytest

from tempfair import Concept, SOLVERS, TemporalAllocation, check_temporal, generate, search
from tempfair import fairness, solvers
from tempfair.fairness import SHARE_CAP, _GrownShares, _int_share, prefix_violation
from tempfair.model import TemporalInstance

TMMS = Concept("tmms")
STYLES = ("small", "sparse", "wide")
# wide pools stay small: the per-prefix reference keeps a set of up to
# 2**k sums for k positive goods
MOST_GOODS = {"small": 30, "sparse": 30, "wide": 12}


def _value(rng, style):
    if style == "wide":  # past the bitset width: the fallback
        return rng.choice([0, rng.randint(1, 2**40)])
    if style == "sparse":  # mostly zeros, so early prefixes hold < 2 positives
        return rng.choice([0] * 6 + [rng.randint(1, 9)])
    return rng.choice([0, rng.randint(1, 12)])


def _columns(rng, m, style):
    """Two agents' values of m goods; each column times its own factor."""
    factors = (rng.choice([1, 3, 7, 1000]), rng.choice([1, 2, 6]))
    return [[_value(rng, style) * f for _ in range(m)] for f in factors]


@pytest.mark.parametrize("seed", range(120))
def test_grown_share_matches_int_share_at_every_prefix(seed):
    rng = random.Random(seed)
    style = STYLES[seed % 3]
    columns = _columns(rng, rng.randint(0, MOST_GOODS[style]), style)
    # other part counts keep the pool, under the exact-search cap
    for parts, most in ((2, None), (1, SHARE_CAP), (3, SHARE_CAP)):
        pools = [column[:most] for column in columns]
        grown = _GrownShares(pools, parts)
        # two or more 40-bit values keep a bitset of about 2**39 bits: too wide
        assert [p is not None for p in grown.pool] == [
            parts != 2 or style == "wide" and sum(1 for v in c if v) >= 2 for c in pools]
        for k in range(len(pools[0]) + 1):
            if k:
                grown.add([c[k - 1] for c in pools])
            for i, column in enumerate(pools):
                assert grown.total[i] == sum(column[:k])
                assert grown.share(i) == _int_share(column[:k], parts, None)


def _instance(rng, style):
    """Two agents, up to 8 rounds of 0-4 goods (3 rounds of 0-3 if wide);
    agent 2's values share the factor 4."""
    horizon, most = (3, 3) if style == "wide" else (8, 4)
    rounds = [[(_value(rng, style) * rng.choice([1, 5]), _value(rng, style) * 4)
               for _ in range(rng.randint(t == 0, most))] for t in range(rng.randint(1, horizon))]
    return TemporalInstance.from_value_rounds(rounds, buffer=rng.randint(1, 3))


def _allocation(rng, instance):
    """Random owners, each good placed somewhere in its buffer window."""
    last = lambda g: min(g.arrival + instance.buffer - 1, instance.horizon)
    return TemporalAllocation(
        placement={g.id: rng.randint(g.arrival, last(g)) for g in instance.goods},
        owner={g.id: rng.randint(1, 2) for g in instance.goods})


def _per_prefix(instance, allocation):
    """The check with every prefix's shares built from its pool."""
    landing = {}
    for gid, t in allocation.placement.items():
        landing.setdefault(t, []).append((allocation.owner[gid] - 1, gid))
    rounds = []
    for t in sorted(landing):
        rounds.append(landing[t])
        hit = prefix_violation(instance, rounds, TMMS)
        if hit is not None:
            return t, hit
    return None


@pytest.mark.parametrize("seed", range(150))
def test_two_agent_check_matches_per_prefix_shares(seed):
    rng = random.Random(seed)
    instance = _instance(rng, STYLES[seed % 3])
    allocation = _allocation(rng, instance)
    verdict = check_temporal(instance, allocation, TMMS)
    expected = _per_prefix(instance, allocation)
    if expected is None:
        assert verdict.holds
    else:
        t, (envious, _, gap, _) = expected
        assert (verdict.round, verdict.envious, verdict.shortfall) == (
            t, envious, Fraction(gap, instance.scale))


def _pool_bounds(instance, t, waiting):
    """Totals and shares of the goods placed by round t, from that pool."""
    day = solvers._by_vector(instance, instance.rounds[0])
    placed = [v for v, w in zip(sorted(day), waiting) for _ in range(len(day[v]) * t - w)]
    columns = [[v[a] for v in placed] for a in (0, 1)]
    return tuple(map(sum, columns)), tuple(_int_share(c, 2, None) for c in columns)


@pytest.mark.parametrize("seed", range(60))
def test_placed_bounds_match_per_pool_shares(seed):
    rng = random.Random(seed)
    style = STYLES[seed % 3]
    day = [tuple(_value(rng, style) for _ in (1, 2))
           for _ in range(rng.randint(1, 2 if style == "wide" else 5))]
    horizon = rng.randint(1, 5 if style == "wide" else 12)
    instance = TemporalInstance.from_value_rounds([day] * horizon, buffer=2)
    bounds = solvers._placed_bounds(instance)
    idle = (0,) * len(set(day))
    # the pool rounds' chain first, then rounds below the grown one
    for t in [*range(1, horizon + 1, 2), *rng.sample(range(1, horizon + 1), horizon)]:
        assert bounds(t, idle) == _pool_bounds(instance, t, idle)


@pytest.fixture
def share_calls(monkeypatch):
    """Count the ``_int_share`` calls of the check, the solver and search."""
    calls = []

    def counted(ints, n_parts, cap):
        calls.append(n_parts)
        return _int_share(ints, n_parts, cap)

    # the package's ``search`` is the function; the module is imported
    for module in (fairness, solvers, importlib.import_module("tempfair.search")):
        monkeypatch.setattr(module, "_int_share", counted)
    return calls


def test_long_horizon_builds_no_share_per_prefix(share_calls):
    # 1000 pooled rounds: per-prefix shares cost two calls per pool and
    # two per examined prefix of the check
    instance = generate(2, 1999, 1, 9, 1, identical_days=True, buffer=2)
    fairness._mms_share_search.cache_clear()
    allocation = SOLVERS["tefx-identical-days-scheduled-two"].run(instance)
    assert share_calls == []
    assert check_temporal(instance, allocation, TMMS).holds
    assert share_calls == []


def test_unscheduled_search_asks_each_round_share_once(share_calls):
    instance = generate(3, 12, 1, 9, 3, bi_valued=True)
    outcome = search(instance, TMMS)
    assert outcome.nodes_visited > 3 * 12
    assert len(share_calls) <= 3 * 12
