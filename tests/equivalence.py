"""Digest what the loaders, the single-round routines, the solvers,
``search`` and ``check_temporal`` output, one line per case, to show that
two source trees behave the same.

    PYTHONPATH=src python tests/equivalence.py > digests.txt
    python tests/equivalence.py --compare OLD/src NEW/src

Each line is a stable case id and the SHA-256 of the case's output:
every field and table of the instance ``instance_from_json`` or
``from_value_rounds`` builds from a seeded document with 0-3 mutations,
or the allocation ``allocation_from_json`` reads and ``validate`` passes;
bundles (in the routine's agent order) and trace for ``round_robin``,
``envy_cycle_elimination`` and ``envy_ordered_pick_rounds``; allocation
JSON and trace for every registered solver on seeded ``generate`` draws;
``to_json`` of ``search``, node count included, under every concept with
and without scheduling; the verdict JSON, witness included, of
``check_temporal`` under every concept on solver outputs and on random
valid allocations; or, when the call raises, the exception's type and text.  Each family's
case count and the SHA-256 of its lines go to stderr.  ``--compare`` runs
every case on both trees and prints the first case whose digests differ,
with both outputs.  Seeds come from ``zlib.crc32`` of the case id, so the
cases are the same on every run and Python version.  Pytest does not
collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import zlib
from functools import lru_cache

ROUTINES = ("round_robin", "envy_cycle_elimination", "envy_ordered_pick_rounds")
LOADER_DRAWS = 6000
SEARCH_DRAWS = 600  # ten searches each
CHECK_DRAWS = 1000  # draws whose allocations are checked under every concept


def _rng(case: str) -> random.Random:
    return random.Random(zlib.crc32(case.encode()))


def _vector(rng, agents, cap):
    return {i: rng.randint(0, cap) for i in agents}


def _single_round(routine: str, case: str):
    """1-6 agents, 0-40 goods with ids of mixed length, values capped at 1,
    2, 5 or 20; round robin in forward or reversed order, the other two
    with a shuffled agent list 30 % of the time."""
    from tempfair import single_round

    rng = _rng(case)
    agents = list(range(1, rng.randint(1, 6) + 1))
    cap = rng.choice([1, 2, 5, 20])
    ids = [f"g{x}" for x in rng.sample(range(1, 100), rng.randint(0, 40))]
    if routine == "round_robin" and rng.random() < 0.5:
        agents.reverse()
    elif routine != "round_robin" and rng.random() < 0.3:
        rng.shuffle(agents)
    if routine == "envy_ordered_pick_rounds":
        # copy classes of 1..n goods sharing one value vector; a few hold
        # one copy too many or a copy with its own vector
        pool, values, ids = [], {i: {} for i in agents}, iter(ids)
        for _ in range(rng.randint(0, 8)):
            members = [next(ids, None) for _ in range(rng.randint(1, len(agents) + (rng.random() < 0.05)))]
            members = [g for g in members if g is not None]
            vector = _vector(rng, agents, cap)
            for g in members:
                row = _vector(rng, agents, cap) if rng.random() < 0.02 else vector
                for i in agents:
                    values[i][g] = row[i]
            if members:
                pool.append(members)
    else:
        pool = ids
        values = {i: {g: rng.randint(0, cap) for g in ids} for i in agents}
    trace: list = []
    bundles = getattr(single_round, routine)(pool, values, agents, trace=trace)
    return {"bundles": list(bundles.items()), "trace": trace}


@lru_cache(maxsize=1)
def _instance(k: int):
    """One seeded ``generate`` draw: 1-4 agents, 1-5 rounds of 1-5 goods,
    one structural flag or none, identical days or positive values on top
    about a third of the time each, buffer 1-3."""
    from tempfair.generators import generate

    rng = _rng(f"solvers/{k}")
    flag = rng.choice([None, "identical_days", "generalized_binary", "bi_valued",
                       "identical_valuation", "house_allocation"])
    flags = {flag: True} if flag else {}
    if rng.random() < 0.3:
        flags["identical_days"] = True
    if rng.random() < 0.3 and flag != "generalized_binary":
        flags["min_value"] = 1
    return generate(rng.randint(1, 4), rng.randint(1, 5), rng.randint(1, 5),
                    rng.choice([1, 2, 5, 9]), rng.randrange(10**6),
                    buffer=rng.randint(1, 3), **flags)


# one alpha for every agent, or one drawn per agent
ALPHAS = ("1/3", "1/2", "2/3", "9/10", "1")
TWIN_SCALE = "3/7"


def _concepts(rng, n: int) -> list[str]:
    """Every concept: atefx once with one alpha, once with one per agent."""
    per_agent = ",".join(rng.choice(ALPHAS) for _ in range(n))
    return ["tef1", "tefx", f"atefx:{rng.choice(ALPHAS)}", f"atefx:{per_agent}", "tmms"]


def _twin(instance):
    """The instance with every value times ``TWIN_SCALE``."""
    from fractions import Fraction

    from tempfair.model import instance_from_json

    scale = Fraction(TWIN_SCALE)
    return instance_from_json({
        "agents": instance.n_agents, "buffer": instance.buffer,
        "rounds": [list(r) for r in instance.rounds],
        "values": {g.id: [str(v * scale) for v in g.values] for g in instance.goods},
    })


@lru_cache(maxsize=1)
def _search_draw(k: int):
    """1-4 agents, at most 6, 14, 10 or 9 goods by agent count (about half
    that or more) over 1-6 rounds, one structural flag or none, buffer 1-3;
    one draw in three has 3 agents and 2-3 goods on each of 3-4 rounds, or
    4 agents and 2-3 goods on each of 3 rounds, where fair allocations are
    rarer.  The rational twin a third of the time; with its concepts."""
    from tempfair.generators import generate

    rng = _rng(f"search/{k}")
    if rng.random() < 1 / 3:
        n = rng.randint(3, 4)
        horizon, per_round = rng.randint(3, 7 - n), rng.randint(2, 3)
    else:
        n = rng.randint(1, 4)
        most = (6, 14, 10, 9)[n - 1]
        horizon = rng.randint(1, 6)
        per_round = max(1, rng.randint(most // 2, most) // horizon)
    flag = rng.choice([None, "identical_days", "generalized_binary", "identical_valuation"])
    instance = generate(n, horizon, per_round, rng.choice([1, 2, 5, 9]), rng.randrange(10**6),
                        buffer=rng.randint(1, 3), **({flag: True} if flag else {}))
    return (_twin(instance) if rng.random() < 1 / 3 else instance), _concepts(rng, n)


def _search(k: int, c: int, scheduled: bool):
    from tempfair.fairness import Concept
    from tempfair.search import search

    instance, concepts = _search_draw(k)
    return search(instance, Concept.from_string(concepts[c]), scheduled).to_json()


@lru_cache(maxsize=1)
def _check_draw(k: int):
    """A ``generate`` draw of the solver family, the rational twin a third
    of the time, with its concepts and allocations: each solver output and
    two random valid allocations."""
    from tempfair.model import TemporalAllocation
    from tempfair.solvers import SOLVERS

    rng = _rng(f"check/{k}")
    instance = _instance(k)
    if rng.random() < 1 / 3:
        instance = _twin(instance)
    allocations = {}
    for name in sorted(SOLVERS):
        try:
            allocations[name] = SOLVERS[name].run(instance)
        except Exception:  # no output to check
            pass
    windows = {g.id: (g.arrival, min(g.arrival + instance.buffer - 1, instance.horizon))
               for g in instance.goods}
    for r in range(2):
        allocations[f"random{r}"] = TemporalAllocation(
            placement={g: rng.randint(*w) for g, w in windows.items()},
            owner={g: rng.randint(1, instance.n_agents) for g in windows})
    return instance, _concepts(rng, instance.n_agents), allocations


def _check(k: int, source: str, c: int):
    from tempfair.fairness import Concept, check_temporal

    instance, concepts, allocations = _check_draw(k)
    concept = Concept.from_string(concepts[c])
    return check_temporal(instance, allocations[source], concept).to_json()


def _solve(name: str, k: int):
    from tempfair.model import allocation_to_json
    from tempfair.solvers import SOLVERS

    trace: list = []
    alloc = SOLVERS[name].run(_instance(k), trace=trace)
    return {"allocation": allocation_to_json(alloc), "trace": trace}


# literals that parse, with spellings of one value, and literals that do not
LITERALS = ("x", "2/0", "1e3", "1_000", "-3", "-0", "0.5", " 7/2 ", "3/6", "+2", "1/-2", "")
BAD_VALUES = (True, False, 1.5, None, [1], {"a": "1"})
# a bad literal ahead of a vector that is no list: the first error in document order
PINNED = {"agents": 2, "rounds": [["g1", "g2"]], "values": {"g1": ["1", "x"], "g2": "nolist"}}


def _mutate(rng, data: dict) -> None:
    """One mutation of an instance document, in place: a bad literal or
    value, a vector that is no list, missing, too short or too long, an
    orphan vector, a repeated or non-string id, a round that is no list,
    a bad ``agents`` or ``buffer``, or a missing or empty field."""
    rounds, values = data.get("rounds", []), data.get("values", {})
    lists = [r for r in rounds if isinstance(r, list)]
    vectors = [v for v in values.values() if isinstance(v, list) and v]
    kind = rng.randrange(12)
    if kind < 2 and vectors:
        vec = rng.choice(vectors)
        vec[rng.randrange(len(vec))] = rng.choice(BAD_VALUES if kind else LITERALS)
    elif kind == 2 and values:
        values[rng.choice(list(values))] = rng.choice(["12", 5, None, {"g1": "1"}])
    elif kind == 3 and values:
        del values[rng.choice(list(values))]
    elif kind == 4 and vectors:
        vec = rng.choice(vectors)
        if rng.random() < 0.5:
            vec.pop()
        else:
            vec.append(rng.choice(["1", 2]))
    elif kind == 5:
        values[f"z{rng.randrange(3)}"] = ["1"] * rng.randint(1, 4)
    elif kind == 6 and lists:
        ids = [g for r in lists for g in r]
        if ids:
            target = rng.choice(lists)
            target.insert(rng.randrange(len(target) + 1), rng.choice(ids))
    elif kind == 7 and any(lists):
        target = rng.choice([r for r in lists if r])
        target[rng.randrange(len(target))] = rng.choice([1, None, True, ["g1"]])
    elif kind == 8 and rounds:
        rounds[rng.randrange(len(rounds))] = rng.choice(["g1", 3, None, {"g1": 1}])
    elif kind == 9:
        n = data.get("agents")
        data["agents"] = rng.choice([0, -1, True, 2.0, "2", None, n + 1 if type(n) is int else 1])
    elif kind == 10:
        data["buffer"] = rng.choice([0, -2, True, 2.0, "1", None, 5])
    elif kind == 11:
        field = rng.choice(["agents", "rounds", "values", "buffer"])
        if rng.random() < 0.5:
            data.pop(field, None)
        elif field == "rounds":
            rounds[:] = rng.choice([[], [*rounds, []]])
        elif field == "values":
            values.clear()


def _vectors(instance, form: str) -> dict:
    """Each good's value vector written as strings, as JSON ints or as the
    strings of the rational twin."""
    from fractions import Fraction

    scale = Fraction(TWIN_SCALE)
    write = {"str": str, "int": int, "twin": lambda v: str(v * scale)}[form]
    return {g.id: [write(v) for v in g.values] for g in instance.goods}


def _loaded(instance) -> dict:
    """Every field of a loaded instance, ``scale`` and its three tables."""
    return {
        "n": instance.n_agents, "horizon": instance.horizon, "buffer": instance.buffer,
        "goods": [[g.id, g.arrival, repr(g.values)] for g in instance.goods],
        "scale": instance.scale, "columns": list(instance.columns.items()),
        "rounds": instance.rounds, "value_table": list(instance.value_table.items()),
    }


def _load(k: int):
    """A seeded ``generate`` draw with 1-4 agents and 1-4 rounds of 1-4
    goods at buffer 1-3, loaded one of four ways: its JSON document with
    string literals, JSON ints or the ×3/7 twin's literals, with 0-3
    mutations; or ``from_value_rounds`` on its Fractions, one of them
    replaced by a literal or a bad value a third of the time; or an
    allocation document for it, random and mostly valid, with 0-2
    defects, read by ``allocation_from_json`` and passed to ``validate``."""
    from fractions import Fraction

    from tempfair.generators import generate
    from tempfair.model import (TemporalInstance, allocation_from_json, allocation_to_json,
                                instance_from_json, validate)

    rng = _rng(f"loader/{k}")
    instance = generate(rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4),
                        rng.choice([1, 2, 5, 9]), rng.randrange(10**6), buffer=rng.randint(1, 3))
    way = rng.choice(["str", "int", "twin", "value_rounds", "allocation"])
    if way == "value_rounds":
        scale = Fraction(TWIN_SCALE) if rng.random() < 0.5 else 1
        value_rounds = [[[v * scale for v in instance.goods_by_id[g].values] for g in r]
                        for r in instance.rounds]
        if rng.random() < 1 / 3:
            vec = rng.choice([vec for r in value_rounds for vec in r])
            vec[rng.randrange(len(vec))] = rng.choice(LITERALS + BAD_VALUES)
        return _loaded(TemporalInstance.from_value_rounds(value_rounds, instance.buffer))
    if way == "allocation":
        n, horizon = instance.n_agents, instance.horizon
        placement = {g.id: min(g.arrival + rng.randrange(instance.buffer), horizon)
                     for g in instance.goods}
        owner = {g: rng.randint(1, n) for g in placement}
        data = {"placement": placement, "owner": owner}
        for _ in range(rng.choice([0, 1, 1, 2])):
            field = data[rng.choice(["placement", "owner"])]
            gid = rng.choice(list(field) or ["g1"])
            field["z1" if rng.random() < 0.2 else gid] = rng.choice(
                [0, -1, n + 1, horizon + 1, 1.0, True, "1", None])
            if rng.random() < 0.2:
                field.pop(gid, None)
        if rng.random() < 0.05:
            data[rng.choice(["placement", "owner"])] = [1]
        allocation = allocation_from_json(data)
        validate(instance, allocation)
        return allocation_to_json(allocation)
    data = {"agents": instance.n_agents, "buffer": instance.buffer,
            "rounds": [list(r) for r in instance.rounds], "values": _vectors(instance, way)}
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        _mutate(rng, data)
    return _loaded(instance_from_json(data))


def cases(draws: int, solver_draws: int):
    """Every (family, case id, thunk) in a fixed order.  The loader family
    comes first, so a replay of each family's first cases reaches it
    without drawing the whole ``check_temporal`` family."""
    from tempfair.model import instance_from_json
    from tempfair.solvers import SOLVERS

    yield "loader", "loader/pinned", lambda: _loaded(instance_from_json(PINNED))
    for k in range(LOADER_DRAWS):
        yield "loader", f"loader/{k}", lambda k=k: _load(k)
    for routine in ROUTINES:
        for k in range(draws):
            case = f"{routine}/{k}"
            yield routine, case, lambda r=routine, c=case: _single_round(r, c)
    for k in range(solver_draws):
        for name in sorted(SOLVERS):
            yield "solvers", f"solvers/{name}/{k}", lambda n=name, k=k: _solve(n, k)
    for k in range(SEARCH_DRAWS):
        for c in range(5):
            for scheduled in (False, True):
                yield ("search", f"search/{k}/{c}/{int(scheduled)}",
                       lambda k=k, c=c, s=scheduled: _search(k, c, s))
    for k in range(CHECK_DRAWS):
        for source in _check_draw(k)[2]:
            for c in range(5):
                yield ("check_temporal", f"check/{k}/{source}/{c}",
                       lambda k=k, s=source, c=c: _check(k, s, c))


def output(thunk) -> str:
    try:
        return json.dumps(thunk(), separators=(",", ":"))
    except Exception as exc:  # the error text is the output
        return f"{type(exc).__name__}: {exc}"


def line(case: str, thunk) -> str:
    """The case's digest line: its id and the SHA-256 of its output."""
    return f"{case} {hashlib.sha256(output(thunk).encode()).hexdigest()}\n"


def _run(src: str, argv: list[str]) -> str:
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv], env=env,
                          stdout=subprocess.PIPE, text=True, check=True).stdout


def compare(old: str, new: str, counts: list[str]) -> int:
    digests = [_run(src, counts).splitlines() for src in (old, new)]
    for a, b in zip(*digests):
        if a != b:
            case = a.split()[0]
            print(f"first difference: {case}")
            for src in (old, new):
                print(f"{src}:\n{_run(src, [*counts, '--show', case])}")
            return 1
    if len(digests[0]) != len(digests[1]):
        print(f"case counts differ: {len(digests[0])} and {len(digests[1])}")
        return 1
    print(f"{len(digests[0])} cases, every digest equal")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--draws", type=int, default=20000, help="draws per single-round routine")
    p.add_argument("--solver-draws", type=int, default=3000, help="generate draws for the solvers")
    p.add_argument("--show", metavar="CASE", help="print one case's output instead")
    p.add_argument("--compare", nargs=2, metavar=("OLD_SRC", "NEW_SRC"))
    args = p.parse_args(argv)
    counts = ["--draws", str(args.draws), "--solver-draws", str(args.solver_draws)]
    if args.compare:
        return compare(*args.compare, counts)
    families = {}
    for family, case, thunk in cases(args.draws, args.solver_draws):
        if args.show is None:
            digest = line(case, thunk)
            sys.stdout.write(digest)
            n, h = families.setdefault(family, (0, hashlib.sha256()))
            h.update(digest.encode())
            families[family] = (n + 1, h)
        elif case == args.show:
            print(output(thunk))
            return 0
    if args.show is not None:
        print(f"no case {args.show}", file=sys.stderr)
        return 2
    for family, (n, h) in families.items():
        print(f"{family} {n} {h.hexdigest()}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
