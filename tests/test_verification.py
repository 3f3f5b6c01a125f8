"""Fixture suite: frozen verdicts, the known mismatch, derived variants."""

import time
from fractions import Fraction

from tempfair import Concept, TemporalInstance, check_temporal, search
from tempfair.verification import (
    _binary_three_agents,
    _identical_pair_rounds,
    _pair_then_large,
    verify_counterexamples,
)

EXPECTED_ROWS = [
    ("tefx-identical-days-three-rounds", False),
    ("tefx-binary-three-agents", False),
    ("tmms-identical-days-three-rounds", False),
    ("tefx-buffered-pair-then-large-t2", False),
    ("tefx-buffered-pair-then-large-t3", False),
    ("tmms-buffered-pair-then-large-t2", False),
    ("tmms-buffered-pair-then-large-t3", False),
    ("half-tefx-unit-pair-then-triple", False),
    ("tefx-trap-stream-plain", False),
    ("tefx-trap-stream-buffered", True),
]


def test_row_names_and_expectations_frozen():
    rows = verify_counterexamples()
    assert [(r.name, r.expected_exists) for r in rows] == EXPECTED_ROWS


def test_all_rows_verify_except_binary_three_agents():
    for row in verify_counterexamples():
        if row.name == "tefx-binary-three-agents":
            continue
        assert row.ok, row.name
        assert row.nodes_visited > 0


def test_binary_three_agents_claim_is_refuted_by_search():
    # the recorded verdict says no allocation can stay fair at every
    # prefix, but search finds one; the witness is checked independently
    # here so the mismatch row is backed by a concrete allocation
    inst = _binary_three_agents()
    out = search(inst, Concept("tefx"))
    assert out.exists
    assert check_temporal(inst, out.witness, Concept("tefx")).holds
    row = next(
        r for r in verify_counterexamples()
        if r.name == "tefx-binary-three-agents"
    )
    assert row.actual_exists and not row.expected_exists and not row.ok


def test_identical_days_families_flip_at_two_rounds():
    # the three-round impossibilities do not extend down to two rounds
    two_day_efx = TemporalInstance.from_value_rounds(
        _identical_pair_rounds((0, 1, 3), 2)
    )
    assert search(two_day_efx, Concept("tefx")).exists
    two_day_mms = TemporalInstance.from_value_rounds(
        _identical_pair_rounds((1, 3, 10), 2)
    )
    assert search(two_day_mms, Concept("tmms")).exists


def test_pair_then_large_needs_full_buffer_to_degenerate():
    # with the buffer reaching the horizon the instance collapses to a
    # single pool, where an even split settles both concepts
    inst = _pair_then_large(2)
    full = TemporalInstance(
        n_agents=inst.n_agents,
        horizon=inst.horizon,
        goods=inst.goods,
        buffer=inst.horizon,
    )
    assert search(full, Concept("tefx"), use_scheduling=True).exists
    assert search(full, Concept("tmms"), use_scheduling=True).exists


def test_trap_rescue_witness_delays_a_good():
    rows = {r.name: r for r in verify_counterexamples()}
    assert rows["tefx-trap-stream-buffered"].actual_exists
    inst = TemporalInstance.from_value_rounds(
        [[(Fraction(1), Fraction(1))], [(Fraction(1), Fraction(1))],
         [(Fraction(100), Fraction(100))], [(Fraction(10), Fraction(10))]],
        buffer=2,
    )
    out = search(inst, Concept("tefx"), use_scheduling=True)
    moved = [
        g for g, t in out.witness.placement.items()
        if t != inst.goods_by_id[g].arrival
    ]
    assert moved


def test_suite_runs_fast():
    started = time.perf_counter()
    verify_counterexamples()
    assert time.perf_counter() - started < 120


def test_report_json_shape():
    row = verify_counterexamples()[0]
    data = row.to_json()
    assert set(data) == {
        "name", "concept", "scheduled", "expected_exists",
        "actual_exists", "ok", "nodes_visited",
    }
    assert data["ok"] is True
