"""Acceptance battery: eight criteria, one test and one verdict line each.

Every criterion is asserted at exact rational arithmetic, with seeded
draws derived stably from fixed constants or names (zlib.crc32, never the
per-process string hash), so every run draws the same instances.  A
criterion whose original statement was refuted (1(b) and 7) asserts the
form that is proven instead, and keeps the refutation itself as an
assertion (the counterexample must still be found and must still check),
so it stays visible without turning the run red.
"""

import itertools
import random
import zlib
from fractions import Fraction

import pytest

from oracles import naive_ef1, naive_efx, naive_mms_share, values_of
from tempfair.fairness import (
    Concept,
    check_temporal,
    is_alpha_efx,
    is_ef1,
    is_efx,
    is_mms,
    mms_share,
)
from tempfair.generators import generate
from tempfair.model import (
    TemporalAllocation,
    TemporalInstance,
    prefix,
)
from tempfair.search import search
from tempfair.solvers import SOLVERS
from tempfair.verification import _binary_three_agents, verify_counterexamples


def report(num, slug, ok, detail=""):
    line = f"acceptance {num} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def reports():
    return {r.name: r for r in verify_counterexamples()}


LETTERED = [
    ("a", "tefx-identical-days-three-rounds"),
    ("b", "tefx-binary-three-agents"),
    ("c", "tmms-identical-days-three-rounds"),
    ("d", "tefx-buffered-pair-then-large-t3"),
    ("e", "tmms-buffered-pair-then-large-t3"),
    ("f", "half-tefx-unit-pair-then-triple"),
]


def naive_tefx_at_every_prefix(instance, allocation):
    """TEFX at rounds 1..T by the definitional oracle, not the library."""
    values = {
        i: {g.id: g.values[i - 1] for g in instance.goods}
        for i in instance.agents
    }
    for t in range(1, instance.horizon + 1):
        bundles = prefix(instance, allocation, t)
        if not naive_efx(values, {i: bundles[i - 1] for i in instance.agents}):
            return False
    return True


def test_criterion_1_impossibility_suite(reports):
    """Letters a and c-f verify as documented.  Letter b was documented as
    "no TEFX allocation exists", which search refutes with a witness; the
    row must keep reporting that refutation, and the witness must pass
    the naive EFX oracle at every prefix."""
    parts = []
    ok = True
    for letter, name in LETTERED:
        row = reports[name]
        if letter == "b":
            fixture = _binary_three_agents()
            witness = search(fixture, Concept("tefx")).witness
            witnessed = witness is not None and naive_tefx_at_every_prefix(
                fixture, witness
            )
            if row.expected_exists is False and row.actual_exists is True \
                    and witnessed:
                parts.append(f"{letter}=refuted, witness passes naive efx")
            else:
                ok = False
                parts.append(
                    f"{letter}=NOT REFUTED expected exists="
                    f"{row.expected_exists}, search proved exists="
                    f"{row.actual_exists}, witness tefx by oracle={witnessed}"
                )
        elif row.ok:
            parts.append(f"{letter}=ok")
        else:
            ok = False
            parts.append(
                f"{letter}=MISMATCH expected exists={row.expected_exists}, "
                f"search proved exists={row.actual_exists} "
                f"in {row.nodes_visited} nodes"
            )
    big = reports["tefx-binary-three-agents"]
    if big.seconds >= 60:
        ok = False
        parts.append(f"b exceeded 60s ({big.seconds}s)")
    if big.nodes_visited > 3**13:
        ok = False
        parts.append(f"b visited {big.nodes_visited} nodes > 3^13")
    total = sum(r.seconds for r in reports.values())
    if total >= 120:
        ok = False
        parts.append(f"suite exceeded 120s ({total}s)")
    line = report(1, "impossibility-suite", ok, "; ".join(parts))
    assert ok, line


def test_criterion_2_scheduling_rescue_fixture(reports):
    with_buffer = reports["tefx-trap-stream-buffered"].actual_exists
    without = reports["tefx-trap-stream-plain"].actual_exists
    ok = with_buffer is True and without is False
    line = report(2, "scheduling-rescue", ok,
                  f"with buffer={with_buffer}, without={without}")
    assert ok, line


def conforming(name, seed, rng):
    """One random instance inside the named solver's precondition.

    Shapes stay within n <= 4 agents, T <= 6 rounds, <= 4 goods per round,
    integer values <= 10.
    """
    T = rng.randint(1, 6)
    gpr = rng.randint(1, 4)
    cap = rng.randint(1, 10)
    if name == "tef1-house-t3":
        return generate(rng.randint(1, 4), 3, 0, cap, seed,
                        identical_days=True, house_allocation=True)
    if name == "tefx-genbinary-two":
        return generate(2, T, gpr, cap, seed, generalized_binary=True)
    if name == "tefx-genbinary-identical":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        generalized_binary=True, identical_valuation=True)
    if name == "half-tefx-genbinary":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        generalized_binary=True)
    if name == "alpha-tefx-positive":
        n = rng.randint(1, 4)
        return generate(n, T, rng.randint(n, 4), cap, seed, min_value=1)
    if name == "half-tefx-identical-days-two":
        return generate(2, T, gpr, cap, seed, identical_days=True)
    if name == "alpha-tefx-identical-valuation":
        return generate(rng.randint(1, 4), T, gpr, cap, seed,
                        identical_valuation=True)
    if name == "rr-bivalued":
        return generate(rng.randint(1, 4), T, gpr, max(cap, 2), seed,
                        bi_valued=True)
    if name == "tef1-identical-days-scheduled":
        n = rng.randint(1, 4)
        return generate(n, T, gpr, cap, seed, identical_days=True,
                        buffer=(n + 1) // 2)
    if name == "tefx-identical-days-scheduled-two":
        return generate(2, T, gpr, cap, seed, identical_days=True, buffer=2)
    raise AssertionError(name)


def test_criterion_3_solver_certification():
    failures = []
    runs = 0
    for name in sorted(SOLVERS):
        entry = SOLVERS[name]
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFFFF)
        for k in range(500):
            instance = conforming(name, seed=k * 7919 + 3, rng=rng)
            runs += 1
            try:
                allocation = entry.run(instance)
            except Exception as exc:
                failures.append((name, k, type(exc).__name__, str(exc)))
                continue
            for concept in entry.concepts(instance):
                verdict = check_temporal(instance, allocation, concept)
                if not verdict.holds:
                    failures.append((name, k, str(concept), verdict.round))
    ok = not failures
    line = report(3, "solver-certification", ok,
                  f"{runs} runs" if ok else f"failed: {failures[:5]}")
    assert ok, line


def test_criterion_4_bivalued_ratio_tight():
    one, two = Fraction(1), Fraction(2)
    instance = TemporalInstance.from_value_rounds(
        [[(one, one), (one, one)], [(two, two)]]
    )
    allocation = SOLVERS["rr-bivalued"].run(instance)
    final = prefix(instance, allocation, 2)
    values = values_of(instance)
    totals = [sum(values[i][g] for g in final[i - 1]) for i in instance.agents]
    weak = min(instance.agents, key=lambda i: totals[i - 1])
    rest_after_removal = max(
        sum(values[weak][h] for h in final[j - 1] if h != g)
        for j in instance.agents
        if j != weak
        for g in final[j - 1]
    )
    ratio = totals[weak - 1] / rest_after_removal
    every_prefix = all(
        is_alpha_efx(instance, prefix(instance, allocation, t), Fraction(1, 2))
        for t in (1, 2)
    )
    above = is_alpha_efx(instance, final, Fraction(501, 1000))
    ok = ratio == Fraction(1, 2) and every_prefix and above is False
    line = report(4, "bivalued-ratio-tight", ok,
                  f"ratio={ratio}, holds at 1/2: {every_prefix}, "
                  f"holds at 501/1000: {above}")
    assert ok, line


def test_criterion_5_block_boundary_envy():
    entry = SOLVERS["tef1-identical-days-scheduled"]
    tef1 = Concept.from_string("tef1")
    bad = []
    for k in range(200):
        rng = random.Random(9000 + k)
        n = rng.randint(2, 4)
        T = rng.randint(n, 6)
        instance = generate(n, T, rng.randint(1, 4), rng.randint(1, 10),
                            seed=31 * k + 7, identical_days=True,
                            buffer=(n + 1) // 2)
        allocation = entry.run(instance)
        if not check_temporal(instance, allocation, tef1).holds:
            bad.append((k, "tef1"))
            continue
        values = values_of(instance)
        for t in range(n, T + 1, n):
            bundles = prefix(instance, allocation, t)
            for i in instance.agents:
                mine = sum(values[i][g] for g in bundles[i - 1])
                for j in instance.agents:
                    if i != j and mine < sum(values[i][g] for g in bundles[j - 1]):
                        bad.append((k, f"envy at t={t}: {i} -> {j}"))
    ok = not bad
    line = report(5, "block-boundary-envy", ok,
                  "200 instances" if ok else f"failed: {bad[:5]}")
    assert ok, line


def test_criterion_6_checker_cross_validation():
    rng = random.Random(0xC6)
    n, m = 3, 8
    agents = (1, 2, 3)
    disagreements = []
    for trial in range(50):
        vecs = [tuple(Fraction(rng.randint(0, 10)) for _ in range(n))
                for _ in range(m)]
        instance = TemporalInstance.from_value_rounds([vecs])
        goods = [g.id for g in instance.goods]
        # the oracles add the drawn integers as ints: the same values,
        # still exact, without Fraction arithmetic in their inner loops
        values = {i: {g.id: int(g.values[i - 1]) for g in instance.goods}
                  for i in agents}
        shares = {i: naive_mms_share(list(values[i].values()), n)
                  for i in agents}
        for assignment in itertools.product(agents, repeat=m):
            bundles = {i: [] for i in agents}
            for g, who in zip(goods, assignment):
                bundles[who].append(g)
            blist = [bundles[i] for i in agents]
            checks = (
                ("ef1", is_ef1(instance, blist), naive_ef1(values, bundles)),
                ("efx", is_efx(instance, blist), naive_efx(values, bundles)),
                ("mms", is_mms(instance, blist),
                 all(sum(values[i][g] for g in bundles[i]) >= shares[i]
                     for i in agents)),
            )
            for label, lib, oracle in checks:
                if lib is not oracle:
                    disagreements.append((trial, assignment, label, lib))
    ok = not disagreements
    line = report(6, "checker-cross-validation", ok,
                  f"50 valuations x 3^{m} ownerships x 3 checkers"
                  if ok else f"disagreed: {disagreements[:5]}")
    assert ok, line


def split_instance(value_pairs, split):
    """One-round two-agent instance and the bundles of the given owners."""
    instance = TemporalInstance.from_value_rounds(
        [[tuple(Fraction(v) for v in pair) for pair in value_pairs]]
    )
    bundles = [[], []]
    for g, who in zip(instance.goods, split):
        bundles[who - 1].append(g.id)
    return instance, bundles


def test_criterion_7_efx_two_thirds_mms_two_agents():
    """Strong EFX does not imply MMS for two agents; what holds is:

    (i) every EFX split gives each agent at least 2/3 of their maximin
    share, and 2/3 is tight (Amanatidis, Birmpas, Markakis, IJCAI 2018);
    (ii) an agent whose values lie in {0, b} gets their full share: holding
    a of the k goods they value, EFX forces a >= k - a - 1, so
    a >= floor(k/2), which is the share.

    The refutation of the original claim stays asserted: identical values
    (2, 2, 3, 3) split {2,2} | {3,3} are EFX, yet 4 is short of the share 5.
    """
    two_thirds = Fraction(2, 3)
    rng = random.Random(0xC7)
    below_share = set()
    below_two_thirds = []
    ratios = []
    efx_true = 0
    for trial in range(1000):
        m = rng.randint(2, 10)
        vecs = [tuple(rng.randint(0, 10) for _ in range(2)) for _ in range(m)]
        split = [rng.randint(1, 2) for _ in range(m)]
        instance, bundles = split_instance(vecs, split)
        if not is_efx(instance, bundles):
            continue
        efx_true += 1
        values = values_of(instance)
        for i in instance.agents:
            share = mms_share(list(values[i].values()), 2, cap=None)
            own = sum(values[i][g] for g in bundles[i - 1])
            if own < share:
                below_share.add(trial)
                ratios.append(own / share)
            if own < two_thirds * share:
                below_two_thirds.append((trial, vecs, split))

    binary_rng = random.Random(zlib.crc32(b"efx-binary-mms"))
    binary_efx = 0
    binary_short = []
    for trial in range(1000):
        m = binary_rng.randint(2, 10)
        levels = [binary_rng.randint(1, 10) for _ in range(2)]
        vecs = [
            tuple(binary_rng.choice((0, b)) for b in levels) for _ in range(m)
        ]
        split = [binary_rng.randint(1, 2) for _ in range(m)]
        instance, bundles = split_instance(vecs, split)
        if not is_efx(instance, bundles):
            continue
        binary_efx += 1
        if not is_mms(instance, bundles, cap=None):
            binary_short.append((trial, vecs, split))

    refuted, refuted_bundles = split_instance(
        [(2, 2), (2, 2), (3, 3), (3, 3)], [1, 1, 2, 2]
    )
    refutation_kept = is_efx(refuted, refuted_bundles) and not is_mms(
        refuted, refuted_bundles, cap=None
    )
    tight, tight_bundles = split_instance(
        [(3, 3), (6, 6), (6, 6), (2, 2), (1, 1)], [2, 1, 1, 2, 2]
    )
    tight_share = mms_share([3, 6, 6, 2, 1], 2, cap=None)
    tight_values = values_of(tight)[2]
    tightness = is_efx(tight, tight_bundles) and \
        sum(tight_values[g] for g in tight_bundles[1]) == two_thirds * tight_share

    ok = (not below_two_thirds and not binary_short
          and refutation_kept and tightness)
    line = report(7, "efx-two-thirds-mms-n2", ok,
                  f"{efx_true} efx-true samples, {len(below_share)} below "
                  f"the share (worst ratio {min(ratios, default=None)}), "
                  f"{len(below_two_thirds)} below 2/3 of it; "
                  f"{binary_efx} efx-true {{0,b}} samples, "
                  f"{len(binary_short)} below the share; "
                  f"(2,2,3,3) refutation kept: {refutation_kept}; "
                  f"2/3 tight: {tightness}"
                  + (f", first below 2/3: {below_two_thirds[0]}"
                     if below_two_thirds else "")
                  + (f", first {{0,b}} short: {binary_short[0]}"
                     if binary_short else ""))
    assert ok, line


def test_criterion_8_zero_good_monotonicity():
    rng = random.Random(0xC8)
    tefx = Concept.from_string("tefx")
    flipped = []
    states = 0
    while states < 1000:
        n = rng.randint(2, 3)
        T = rng.randint(2, 3)
        shape = [rng.randint(1, 2) for _ in range(T)]
        value_rounds = [
            [tuple(Fraction(rng.randint(0, 5)) for _ in range(n))
             for _ in range(width)]
            for width in shape
        ]
        instance = TemporalInstance.from_value_rounds(value_rounds)
        owner = {g.id: rng.randint(1, n) for g in instance.goods}
        allocation = TemporalAllocation(
            {g.id: g.arrival for g in instance.goods}, owner
        )
        if check_temporal(instance, allocation, tefx).holds:
            continue
        states += 1
        zero = (Fraction(0),) * n
        for recipient in range(1, n + 1):
            for extra_round in (T, T + 1):
                grown = [list(day) for day in value_rounds]
                if extra_round > T:
                    grown.append([zero])
                else:
                    grown[-1].append(zero)
                bigger = TemporalInstance.from_value_rounds(grown)
                new_good = bigger.goods[-1].id
                new_owner = dict(owner)
                new_owner[new_good] = recipient
                new_alloc = TemporalAllocation(
                    {g.id: g.arrival for g in bigger.goods}, new_owner
                )
                if check_temporal(bigger, new_alloc, tefx).holds:
                    flipped.append((states, recipient, extra_round))
    ok = not flipped
    line = report(8, "zero-good-monotonicity", ok,
                  "1000 non-tefx states" if ok else f"flipped: {flipped[:5]}")
    assert ok, line
