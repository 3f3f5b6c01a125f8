"""CLI: golden outputs, pipeline wiring, exit-code contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tempfair.cli import build_parser, main
from tempfair.model import load_instance

GOLDEN = Path(__file__).parent / "golden"
INSTANCE = GOLDEN / "instance_identical_days.json"
TRAP = GOLDEN / "instance_trap.json"


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.json"
    code = main([*argv, "-o", str(out)])
    return code, out


def test_gen_golden(tmp_path):
    code, out = run_to_file(tmp_path, [
        "gen", "--setting", "identical-days", "--agents", "2",
        "--rounds", "3", "--per-round", "3", "--cap", "9", "--seed", "5",
    ])
    assert code == 0
    assert out.read_text() == INSTANCE.read_text()


def test_classify_golden(tmp_path):
    code, out = run_to_file(tmp_path, ["classify", str(INSTANCE)])
    assert code == 0
    assert out.read_text() == (GOLDEN / "classify_identical_days.json").read_text()


def test_solve_trace_golden(tmp_path):
    code, out = run_to_file(tmp_path, [
        "solve", str(INSTANCE), "--alg", "half-tefx-identical-days-two",
        "--trace",
    ])
    assert code == 0
    assert out.read_text() == (GOLDEN / "solve_half_tefx_trace.json").read_text()


def test_check_golden(tmp_path):
    code, out = run_to_file(tmp_path, [
        "check", str(INSTANCE), str(GOLDEN / "solve_half_tefx_trace.json"),
        "--concept", "atefx:1/2",
    ])
    assert code == 0
    assert out.read_text() == (GOLDEN / "check_half_tefx.json").read_text()


def test_search_goldens(tmp_path):
    code, out = run_to_file(tmp_path, [
        "search", str(TRAP), "--concept", "tefx",
    ])
    assert code == 1
    assert out.read_text() == (GOLDEN / "search_trap_plain.json").read_text()
    code, out = run_to_file(tmp_path, [
        "search", str(TRAP), "--concept", "tefx", "--schedule",
    ])
    assert code == 0
    assert out.read_text() == (GOLDEN / "search_trap_buffered.json").read_text()


# classification is shape-derived, so identical-days with per-round = n
# is also a house instance, and identical-valuation with cap 1 is also
# binary-with-zeros; that covers the two solvers needing combined settings
SOLVER_CASES = {
    "tef1-house-t3": ["--setting", "identical-days", "--agents", "3",
                      "--rounds", "3", "--per-round", "3", "--cap", "7"],
    "tefx-genbinary-two": ["--setting", "generalized-binary", "--agents", "2",
                           "--rounds", "4", "--per-round", "2", "--cap", "7"],
    "tefx-genbinary-identical": ["--setting", "identical-valuation",
                                 "--agents", "3", "--rounds", "3",
                                 "--per-round", "2", "--cap", "1"],
    "half-tefx-genbinary": ["--setting", "generalized-binary", "--agents", "3",
                            "--rounds", "4", "--per-round", "2", "--cap", "7"],
    "alpha-tefx-positive": ["--agents", "2", "--rounds", "3",
                            "--per-round", "3", "--min-value", "1",
                            "--cap", "7"],
    "half-tefx-identical-days-two": ["--setting", "identical-days",
                                     "--agents", "2", "--rounds", "4",
                                     "--per-round", "2", "--cap", "7"],
    "alpha-tefx-identical-valuation": ["--setting", "identical-valuation",
                                       "--agents", "3", "--rounds", "3",
                                       "--per-round", "2", "--cap", "7"],
    "rr-bivalued": ["--setting", "bi-valued", "--agents", "3", "--rounds", "3",
                    "--per-round", "2", "--cap", "7"],
    "tef1-identical-days-scheduled": ["--setting", "identical-days",
                                      "--agents", "3", "--rounds", "5",
                                      "--per-round", "2", "--buffer", "2",
                                      "--cap", "7"],
    "tefx-identical-days-scheduled-two": ["--setting", "identical-days",
                                          "--agents", "2", "--rounds", "4",
                                          "--per-round", "2", "--buffer", "2",
                                          "--cap", "7"],
}


def test_every_solver_output_passes_its_own_check(tmp_path):
    # gen -> solve -> check round trip through files, per the registry
    from tempfair.solvers import SOLVERS

    assert set(SOLVER_CASES) == set(SOLVERS)
    for alg, gen_args in SOLVER_CASES.items():
        inst = tmp_path / f"{alg}.json"
        assert main(["gen", *gen_args, "--seed", "11", "-o", str(inst)]) == 0
        alloc = tmp_path / f"{alg}-alloc.json"
        assert main(["solve", str(inst), "--alg", alg, "-o", str(alloc)]) == 0
        for concept in SOLVERS[alg].concepts(load_instance(str(inst))):
            assert main(["check", str(inst), str(alloc),
                         "--concept", str(concept)]) == 0, (alg, str(concept))


def test_op_paths_build_no_good(tmp_path):
    # classify, every solver with its own check, and search read the
    # integer table; none of them builds the Fraction goods
    from tempfair import Concept, check_temporal, classify, search
    from tempfair.solvers import SOLVERS

    for alg, gen_args in SOLVER_CASES.items():
        path = tmp_path / f"{alg}.json"
        assert main(["gen", *gen_args, "--seed", "11", "-o", str(path)]) == 0
        instance = load_instance(str(path))
        classify(instance)
        allocation = SOLVERS[alg].run(instance)
        for concept in SOLVERS[alg].concepts(instance):
            assert check_temporal(instance, allocation, concept).holds
        if alg == "tefx-genbinary-two":
            assert search(instance, Concept("tefx"), use_scheduling=True).exists
        assert "goods" not in vars(instance), alg


# the ten cases above plus an odd horizon, whose splits take the
# pool-split path
TRACE_CASES = {
    **SOLVER_CASES,
    "tefx-identical-days-scheduled-two/5-rounds": [
        "--setting", "identical-days", "--agents", "2", "--rounds", "5",
        "--per-round", "2", "--buffer", "2", "--cap", "7",
    ],
}


def test_solve_traces_golden(tmp_path):
    golden = json.loads((GOLDEN / "solve_traces.json").read_text())
    assert set(golden) == set(TRACE_CASES)
    for case, gen_args in TRACE_CASES.items():
        inst = tmp_path / "inst.json"
        assert main(["gen", *gen_args, "--seed", "11", "-o", str(inst)]) == 0
        code, out = run_to_file(tmp_path, [
            "solve", str(inst), "--alg", case.split("/")[0], "--trace",
        ])
        assert code == 0
        assert json.loads(out.read_text()) == golden[case], case


def test_check_failing_allocation_exits_one(tmp_path, capsys):
    alloc = tmp_path / "hoard.json"
    data = json.loads(INSTANCE.read_text())
    owner = {g: 1 for r in data["rounds"] for g in r}
    placement = {g: t for t, r in enumerate(data["rounds"], start=1) for g in r}
    alloc.write_text(json.dumps({"placement": placement, "owner": owner}))
    code = main(["check", str(INSTANCE), str(alloc), "--concept", "tefx"])
    captured = json.loads(capsys.readouterr().out)
    assert code == 1
    assert captured["holds"] is False
    assert captured["round"] == 1


def test_verify_paper_reports_known_mismatch(tmp_path, capsys):
    code, out = run_to_file(tmp_path, ["verify-paper"])
    err = capsys.readouterr().err
    text = out.read_text()
    data = json.loads(text)
    assert code == 1
    assert data["ok"] is False
    bad = [r["name"] for r in data["fixtures"] if not r["ok"]]
    assert bad == ["tefx-binary-three-agents"]
    assert err == "verification failed: tefx-binary-three-agents\n"
    assert len(data["fixtures"]) == 10
    # no timings, so the whole document is pinned
    assert text == (GOLDEN / "verify_paper.json").read_text()


def merged_process(argv):
    """Exit code and stdout plus stderr of one CLI process, with stdout
    block-buffered as it is on a pipe."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        [sys.executable, "-m", "tempfair.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    return proc.returncode, proc.stdout


def test_verify_paper_note_follows_the_document(tmp_path):
    code, out = merged_process(["verify-paper"])
    assert code == 1
    document, note = out.rsplit("}\n", 1)
    assert document + "}\n" == (GOLDEN / "verify_paper.json").read_text()
    assert note == "verification failed: tefx-binary-three-agents\n"
    # the note is printed only after a successful write
    code, out = merged_process(["verify-paper", "-o", str(tmp_path / "no" / "v.json")])
    assert code == 2
    assert out.startswith("error: ") and out.count("\n") == 1


def test_solver_dead_end_exits_one(tmp_path, capsys):
    # days {5, 7} over seven rounds at buffer 2: no TEFX and TMMS allocation
    rounds = [[f"g{2 * t + 1}", f"g{2 * t + 2}"] for t in range(7)]
    values = {g: ["5", "5"] if int(g[1:]) % 2 else ["7", "7"] for r in rounds for g in r}
    inst = tmp_path / "odd.json"
    inst.write_text(json.dumps({"agents": 2, "buffer": 2, "rounds": rounds, "values": values}))
    assert main(["solve", str(inst), "--alg", "tefx-identical-days-scheduled-two"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("solver failed: no split sequence")
    assert captured.err.count("\n") == 1


def test_usage_and_validation_exit_two(tmp_path, capsys):
    assert main(["solve", str(INSTANCE), "--alg", "nope"]) == 2
    assert main(["check", str(INSTANCE), str(INSTANCE), "--concept", "tef2"]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    # solver precondition: wrong setting for the algorithm
    gen_ok = main(["gen", "--agents", "3", "--rounds", "2", "--per-round", "2",
                   "--cap", "9", "--seed", "1", "-o", str(tmp_path / "g.json")])
    assert gen_ok == 0
    assert main(["solve", str(tmp_path / "g.json"),
                 "--alg", "tefx-genbinary-two"]) == 2
    capsys.readouterr()


def test_unknown_algorithm_message(capsys):
    assert main(["solve", str(INSTANCE), "--alg", "nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown algorithm 'nope'; one of: alpha-tefx-identical-valuation, "
        "alpha-tefx-positive, half-tefx-genbinary, half-tefx-identical-days-two, "
        "rr-bivalued, tef1-house-t3, tef1-identical-days-scheduled, "
        "tefx-genbinary-identical, tefx-genbinary-two, "
        "tefx-identical-days-scheduled-two\n"
    )


def test_unwritable_output_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    assert main(["classify", str(INSTANCE), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


def test_search_cap_exit_two(tmp_path, capsys):
    inst = tmp_path / "big.json"
    assert main(["gen", "--agents", "2", "--rounds", "19", "--per-round", "1",
                 "--cap", "5", "--seed", "0", "-o", str(inst)]) == 0
    assert main(["search", str(inst), "--concept", "tef1"]) == 2
    assert "cap" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "tempfair.cli", *argv],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout


def test_repeated_calls_share_one_parser(tmp_path, capsys):
    # flags set on one call must not leak into the next, nor a usage error
    assert build_parser() is build_parser()
    solve = ["solve", str(INSTANCE), "--alg", "half-tefx-identical-days-two"]
    search = ["search", str(TRAP), "--concept", "tefx"]
    calls = [
        ([*solve, "--trace"], GOLDEN / "solve_half_tefx_trace.json"),
        (solve, None),
        ([*search, "--schedule"], GOLDEN / "search_trap_buffered.json"),
        (search, GOLDEN / "search_trap_plain.json"),
    ]
    for argv, golden in calls:
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        code, out = run_to_file(tmp_path, argv)
        if golden is None:
            fresh_code, fresh_out = fresh_process(argv)
            assert (code, out.read_text()) == (fresh_code, fresh_out)
        else:
            assert out.read_text() == golden.read_text()
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tempfair.cli", "classify", str(INSTANCE)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["setting"]["identical_days"] is True


@pytest.mark.parametrize("content", [
    pytest.param(b'{"agents": 2, "rounds": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 id="nested-100000-deep"),
    pytest.param(b'{"agents": 2, "rounds": [["g1"]], "values": {"g1": [' + b"7" * 5000 + b", 1]}}",
                 id="integer-of-5000-digits"),
    pytest.param(b'{"agents": 2, "rounds": [["g\xff"]], "values": {"g\xff": [1, 1]}}',
                 id="byte-0xff"),
])
def test_adversarial_json_exits_two(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out = merged_process(["classify", str(path)])
    assert code == 2
    assert out.startswith("error: bad JSON in ") and out.count("\n") == 1
    assert "Traceback" not in out
