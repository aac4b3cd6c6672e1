"""Smoke tests for the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q mqbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from spans import LAYERS, Tracer

TINY = {
    "report-n12": workloads.ReportWorkload(4),
    "fuzz-n4": workloads.FuzzWorkload(4, 2),
    "fuzz-n8": workloads.FuzzWorkload(5, 2),
    "mixed-m2to5": workloads.MixedWorkload((2, 3)),
    "oracle-n6": workloads.OracleWorkload(3),
}

mqinfo = run.import_program()


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workload)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture
def workdir():
    path = run.WORK / "smoke"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize(
    ("trace", "units"), [(0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)]
)
def test_every_metric_printed_with_unit(tiny, capsys, trace, units):
    assert run.main(["--workload", "all", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in TINY:
        for key, unit in units.items():
            assert result["metrics"][f"{name}/{key}"]["unit"] == unit
    text = "\n".join(lines[:-1])
    for key, unit in units.items():
        assert f" {unit}" in text and key in text
    assert "check_fail_ratio" in text


def _report_output(workdir):
    workload = TINY["report-n12"]
    inp = workload.prepare(7, 1, workdir)
    code, _, _ = workload.execute(inp, 0)
    assert code == 0
    with open(inp["out"]) as fh:
        obj = json.load(fh)
    workload.cleanup(inp)
    return obj, inp["amps"]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda o: o["info_table"]["entries"][0].update(I=o["info_table"]["entries"][0]["I"] + 1e-6),
        lambda o: o["tau_single"].update({"2": o["tau_single"]["2"] + 1e-6}),
        lambda o: o["tau_pair"].update({"1-3": o["tau_pair"]["1-3"] - 1e-6}),
        lambda o: o.update(I_nonlocal=o["I_nonlocal"] + 1e-6),
        lambda o: o.update(n_tangle=o["n_tangle"] * (1 + 1e-6)),
        lambda o: o["identities"][0].update(passed=False),
    ],
)
def test_report_check_fires_on_corrupted_value(workdir, corrupt):
    obj, amps = _report_output(workdir)
    clean = checks.Tally()
    checks.check_report(obj, amps, 4, clean)
    assert clean.failed == 0 and clean.attempted > 0
    corrupt(obj)
    tally = checks.Tally()
    checks.check_report(obj, amps, 4, tally)
    assert tally.failed >= 1


def test_fuzz_and_mixed_checks_fire_on_corrupted_summary():
    code, out, _ = workloads.run_cli(["fuzz", "--n", "4", "--trials", "2", "--format", "json"])
    rows = json.loads(out)
    clean = checks.Tally()
    checks.check_fuzz(rows, 4, 2, clean)
    assert code == 0 and clean.failed == 0
    rows[1]["max_residual"] = 2e-9
    tally = checks.Tally()
    checks.check_fuzz(rows, 4, 2, tally)
    assert tally.failed == 1

    code, out, _ = workloads.run_cli(["mixed-check", "--random", "--m", "2", "--trials", "4", "--format", "json"])
    rows = json.loads(out)
    clean = checks.Tally()
    checks.check_mixed(rows, 2, 4, clean)
    assert code == 0 and clean.failed == 0
    tally = checks.Tally()
    checks.check_mixed(rows[:1], 2, 4, tally)  # an identity went missing
    assert tally.failed == 1


def test_oracle_check_fires_on_corrupted_entry():
    psi = mqinfo.random_pure(3, 11)
    enum = dict(mqinfo.all_infos_enumerated(psi).entries)
    fast = mqinfo.all_infos_fast(psi).entries
    clean = checks.Tally()
    checks.check_oracle(enum, fast, psi.amplitudes, 3, clean)
    assert clean.failed == 0
    enum[(1, 3)] += 1e-6
    tally = checks.Tally()
    checks.check_oracle(enum, fast, psi.amplitudes, 3, tally)
    assert tally.failed == 1


def test_tracer_accounts_for_all_time_and_restores_names(workdir):
    original = mqinfo.reduction.subset_purity
    tracer = Tracer()
    tracer.install()
    try:
        assert mqinfo.measures.subset_purity is mqinfo.reduction.subset_purity is not original
        results = workloads.measure(TINY["report-n12"], 1, 60.0, workdir, checks.Tally(), tracer=tracer, count=2)
    finally:
        tracer.uninstall()
    assert mqinfo.measures.subset_purity is original and mqinfo.reduction.subset_purity is original
    totals = tracer.layer_totals([1.0] + [calibrated / t for t, calibrated, _ in results])
    assert set(totals) == {"bench", *LAYERS}
    wall = sum(calibrated for _, calibrated, _ in results)
    assert sum(s for s, _ in totals.values()) == pytest.approx(wall, rel=1e-9)
    assert totals["reduction"][1] > 0 and totals["identities"][1] > 0
    assert tracer.counts["identities.checks"] == 2 * 13  # 1 + 4 + 6 + 2 checks per n = 4 report


def test_fails_without_program_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "mqbench", bare / "mqbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "mqbench/run.py", "--workload", "fuzz-n4", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
