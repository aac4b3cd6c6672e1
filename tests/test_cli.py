import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mqinfo as mq
from mqinfo import cli
from mqinfo.cli import build_parser, main
from mqinfo.identities import EQ_TOL, IDENTITIES, MIXED_IDENTITIES, PURE_IDENTITIES, applicable
from mqinfo.statekit import PSD_TOL

from conftest import density_with_min_eigenvalue


class TestReport:
    def test_w3_json_values(self, capsys):
        assert main(["report", "--state", "w:3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        vals = sorted(e["I"] for e in obj["info_table"]["entries"])
        assert vals[:3] == pytest.approx([0, 0, 0], abs=1e-12)
        assert vals[3:6] == pytest.approx([1 / 9] * 3, abs=1e-12)
        assert vals[6] == pytest.approx(24 / 9, abs=1e-12)

    def test_ghz4_table(self, capsys):
        assert main(["report", "--state", "ghz:4"]) == 0
        out = capsys.readouterr().out
        assert "I_1-2-3-4" in out
        assert "(= 8)" in out
        assert "four-qubit-combination" in out
        assert "FAIL" not in out

    def test_file_state(self, tmp_path, capsys):
        path = tmp_path / "bell.json"
        mq.save_state(mq.make_named("bell-phi-plus", 2), path)
        assert main(["report", "--state", f"file:{path}", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        pair = [e for e in obj["info_table"]["entries"] if e["subset"] == [1, 2]]
        assert pair[0]["I"] == pytest.approx(2.0, abs=1e-12)
        assert obj["concurrence_sq"] == pytest.approx(1.0, abs=1e-12)

    def test_csv_format(self, capsys):
        assert main(["report", "--state", "ghz:3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "subset,size,I"
        assert len(lines) == 8

    def test_json_byte_identical(self, capsys):
        main(["report", "--state", "w:4", "--format", "json"])
        first = capsys.readouterr().out
        main(["report", "--state", "w:4", "--format", "json"])
        assert capsys.readouterr().out == first

    def test_missing_file_exit_2(self, capsys):
        assert main(["report", "--state", "file:/nonexistent.json"]) == 2

    def test_bad_family_exit_2(self, capsys):
        assert main(["report", "--state", "cluster:4"]) == 2

    def test_mistyped_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"kind":"pure","n":1,"amplitudes":[["NaN",0],[1,0]]}')
        assert main(["report", "--state", f"file:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command, flag", [("report", "--state"), ("mixed-check", "--rho")])
    def test_deeply_nested_file_exit_2(self, command, flag, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000)
        assert main([command, flag, f"file:{path}"]) == 2
        assert capsys.readouterr().err == "error: state JSON is nested too deeply\n"

    def test_table_context_shapes(self, capsys):
        assert main(["report", "--state", "ghz:4"]) == 0
        out = capsys.readouterr().out
        at = [out.index(shape) for shape in ("{'k': 1}", "{'pair': [1, 2]}", "{'tangle': ")]
        assert at == sorted(at)
        assert re.search(r"\[pass\] complementarity .* \{\}\n", out)

    def test_json_context_keys(self, capsys):
        from itertools import combinations

        assert main(["report", "--state", "ghz:4", "--format", "json"]) == 0
        reports = json.loads(capsys.readouterr().out)["identities"]
        keys = [(r["identity"], sorted(r["context"])) for r in reports]
        assert keys == (
            [("complementarity", ["n"])]
            + [("single-partition", ["k", "n"])] * 4
            + [("pair-partition", ["n", "pair"])] * 6
            + [("four-qubit-tangle", ["n", "tangle"]), ("four-qubit-combination", ["n"])]
        )
        assert all(r["context"]["n"] == 4 for r in reports)
        assert [r["context"]["k"] for r in reports[1:5]] == [1, 2, 3, 4]
        assert [r["context"]["pair"] for r in reports[5:11]] == [
            list(pair) for pair in combinations(range(1, 5), 2)
        ]

    @pytest.mark.parametrize("n, seed", [(n, 40 + n) for n in range(2, 9)] + [(10, 7)])
    def test_json_taus_equal_tau_linear_entropy(self, n, seed, tmp_path, capsys):
        # report reads its taus from the table's purities, not through tau_linear_entropy
        path = tmp_path / "psi.json"
        mq.save_state(mq.random_pure(n, seed), path)
        psi = mq.load_state(path)
        table = mq.all_infos_fast(psi)
        assert main(["report", "--state", f"file:{path}", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        qubits = range(1, n + 1)
        assert obj["tau_single"] == {
            str(k): mq.tau_linear_entropy(psi, (k,), table) for k in qubits
        }
        assert obj["tau_pair"] == {
            f"{a}-{b}": mq.tau_linear_entropy(psi, (a, b), table)
            for a, b in itertools.combinations(qubits, 2)
            if n >= 4
        }

    def test_out_file(self, tmp_path):
        dest = tmp_path / "report.json"
        assert main(
            ["report", "--state", "ghz:2", "--format", "json", "--out", str(dest)]
        ) == 0
        assert json.loads(dest.read_text())["n"] == 2


# ---------------------------------------------------------------------------
# report's writers against per-entry reference writers
# ---------------------------------------------------------------------------

def _reference_hint(x):
    if abs(x) > 64:
        return ""
    fr = Fraction(x).limit_denominator(512)
    if abs(float(fr) - x) <= 1e-9:
        return f"  (= {fr})"
    return ""


def _reference_report(psi, fmt):
    """report's output written entry by entry: json.dumps of the whole object,
    one csv row per InfoTable row, one Fraction hint per table value."""
    table, taus_single, taus_pair, extras, reports = cli._build_report(psi, EQ_TOL)
    out = io.StringIO()
    if fmt == "json":
        obj = {
            "n": psi.num_qubits,
            "info_table": table.to_json_obj(),
            "I_local": table.local_total(),
            "I_nonlocal": table.nonlocal_total(),
            "tau_single": {str(k): v for k, v in taus_single.items()},
            "tau_pair": {"-".join(map(str, p)): v for p, v in taus_pair.items()},
            **extras,
            "identities": [r.to_json_obj() for r in reports],
        }
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("subset,size,I\n")
        for subset, size, val in table.to_csv_rows():
            out.write(f"{subset},{size},{val!r}\n")
    else:
        hint = _reference_hint
        out.write(f"state on {psi.num_qubits} qubit(s)\n\ninformation values\n")
        for subset, size, val in table.to_csv_rows():
            out.write(f"  I_{subset:<12} {val: .12g}{hint(val)}\n")
        out.write(f"\n  I_local    {table.local_total(): .12g}{hint(table.local_total())}\n")
        out.write(f"  I_nonlocal {table.nonlocal_total(): .12g}{hint(table.nonlocal_total())}\n")
        if taus_single:
            out.write("\nlinear entropies (one vs rest)\n")
            for k, v in taus_single.items():
                out.write(f"  tau_{k}(rest)   {v: .12g}{hint(v)}\n")
        if taus_pair:
            out.write("\nlinear entropies (pair vs rest)\n")
            for p, v in taus_pair.items():
                out.write(f"  tau_{p[0]}{p[1]}(rest)  {v: .12g}{hint(v)}\n")
        for key, val in extras.items():
            out.write(f"\n{key} = {val:.12g}{hint(val)}\n")
        out.write("\nidentity checks\n")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            ctx = {k: v for k, v in r.context.items() if k != "n"}
            out.write(f"  [{status}] {r.identity:<22} residual {r.residual: .3e}  {ctx}\n")
    return out.getvalue()


NAMED_SPECS = (
    [f"ghz:{n}" for n in range(2, 13)]
    + [f"w:{n}" for n in range(2, 13)]
    + [f"basis-product:{n}" for n in range(1, 13)]
    + ["bell-phi-plus:2"]
)

# around 0, +-64, 2/3 and 1/512, on both sides of the 1e-9 and |x| <= 64 tests
HINT_EDGES = [
    0.0, -0.0, 1e-9, -1e-9, 2e-9, 5e-324, 1e-300, 0.1, 0.5, -7 / 9, 1 / 3 + 9.9e-10,
    64.0, -64.0, 64 + 1e-12, -64 - 1e-12, 64 - 1e-12, 63.99999999, 65.0, 100.5,
    2 / 3, 2 / 3 + 1e-9, 2 / 3 - 1e-9, 2 / 3 + 2e-9, 2 / 3 - 2e-9,
    2 / 3 + 1.02e-9, 2 / 3 - 0.98e-9,
    1 / 512, 1 / 512 + 1e-9, 1 / 512 - 1e-9, 1 / 511, 511 / 512, 256 / 511 + 5e-10,
]


class TestReportWriters:
    def _check(self, spec, psi, tmp_path, capsys):
        for fmt in ("table", "json", "csv"):
            want = _reference_report(psi, fmt)
            code = 0 if "FAIL" not in want else 1
            assert main(["report", "--state", spec, "--format", fmt]) == code
            assert capsys.readouterr().out == want
            dest = tmp_path / f"report.{fmt}"
            assert main(["report", "--state", spec, "--format", fmt, "--out", str(dest)]) == code
            assert dest.read_bytes() == want.encode()

    @pytest.mark.parametrize("spec", NAMED_SPECS)
    def test_named_families(self, spec, tmp_path, capsys):
        family, _, n = spec.partition(":")
        self._check(spec, mq.make_named(family, int(n)), tmp_path, capsys)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_haar_random_files(self, n, tmp_path, capsys):
        path = tmp_path / "psi.json"
        mq.save_state(mq.random_pure(n, 1000 + n), path)
        self._check(f"file:{path}", mq.load_state(path), tmp_path, capsys)

    @pytest.mark.parametrize("x", HINT_EDGES)
    def test_hint_edges(self, x):
        assert cli._frac_hints(np.array([x])) == [_reference_hint(x)]

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_non_finite_value_exits_2(self, fmt, tmp_path, monkeypatch, capsys):
        # PureState keeps non-finite amplitudes out; a table holding one anyway
        # must not be written as nan
        def table_with_nan(psi):
            good = mq.all_infos_fast(psi)
            values = good.values.copy()
            values[3] = np.nan
            return mq.InfoTable(2, values, good.purities)

        monkeypatch.setattr(cli, "all_infos_fast", table_with_nan)
        dest = tmp_path / "report.out"
        argv = ["report", "--state", "ghz:2", "--format", fmt, "--out", str(dest)]
        assert main(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not dest.exists()


class TestTooling:
    SRC = Path(mq.__file__).resolve().parent.parent

    def _run(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        return subprocess.run(
            [sys.executable, "-m", "mqinfo.cli", *argv], env=env, capture_output=True, text=True
        )

    def test_module_entry_point_writes_what_main_writes(self, capsys):
        done = self._run("report", "--state", "ghz:3", "--format", "json")
        assert done.returncode == 0 and done.stderr == ""
        assert main(["report", "--state", "ghz:3", "--format", "json"]) == 0
        assert done.stdout == capsys.readouterr().out

    def test_module_entry_point_bad_spec_exits_2(self):
        done = self._run("report", "--state", "ghz:x")
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("count", ["2.0", "x", ""])
    def test_non_integer_count_names_the_spec(self, count, capsys):
        assert main(["report", "--state", f"ghz:{count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad qubit count {count!r} in 'ghz:{count}'\n"

    @pytest.mark.parametrize(
        "how, message",
        [
            ("inside-psd-gate", None),
            ("not-psd", "matrix not PSD: min eigenvalue -2.000e-10"),
            ("not-hermitian", "matrix is not Hermitian within tolerance"),
            ("trace-off", "matrix trace is not 1 within tolerance"),
        ],
    )
    def test_module_entry_point_rho_file_checks(self, how, message, tmp_path):
        mat = density_with_min_eigenvalue(3, -2 * PSD_TOL if how == "not-psd" else -0.5 * PSD_TOL, 1)
        if how == "not-hermitian":
            mat[0, 1] += 1e-3
        elif how == "trace-off":
            mat *= 1.01
        path = tmp_path / "rho.json"
        pairs = np.stack([mat.real, mat.imag], axis=-1).tolist()
        path.write_text(json.dumps({"kind": "mixed", "m": 3, "matrix": pairs}))
        done = self._run("mixed-check", "--rho", f"file:{path}")
        if message is None:
            assert done.returncode == 0 and done.stderr == ""
            assert done.stdout.count("[pass]") == 2
        else:
            assert done.returncode == 2 and done.stdout == ""
            assert done.stderr == f"error: {message}\n"

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = self.SRC.parent / "pyproject.toml"
        if not pyproject.exists():
            pytest.skip("not a source checkout")
        with open(pyproject, "rb") as fh:
            assert mq.__version__ == tomllib.load(fh)["project"]["version"]


class TestFuzz:
    def test_single_identity(self, capsys):
        assert main(["fuzz", "--n", "2", "--trials", "1", "--seed", "0",
                     "--identity", "eq1b"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_eq12(self, capsys):
        assert main(["fuzz", "--n", "4", "--trials", "25", "--seed", "7",
                     "--identity", "eq12"]) == 0

    def test_all_skips_inapplicable(self, capsys):
        assert main(["fuzz", "--n", "3", "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "eq14" in out and "eq12" not in out

    def test_json_output(self, capsys):
        assert main(["fuzz", "--n", "2", "--trials", "3", "--seed", "2",
                     "--identity", "eq1b", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj[0]["passed"] is True
        assert obj[0]["max_residual"] <= 1e-9

    def test_impossible_failure_writes_witness(self, tmp_path, capsys):
        # absurdly tight tolerance forces a "failure" so the witness path runs
        witness = tmp_path / "w.json"
        code = main(["fuzz", "--n", "3", "--trials", "2", "--seed", "3",
                     "--identity", "eq1b", "--tol", "1e-30",
                     "--out", str(witness)])
        assert code == 1
        assert isinstance(mq.load_state(witness), mq.PureState)

    def test_all_gives_each_failing_identity_its_own_witness(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        assert main(["fuzz", "--n", "3", "--trials", "2", "--seed", "3",
                     "--tol", "1e-30", "--out", str(witness), "--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in rows] == ["eq1b", "eq14"]
        for row in rows:
            path = tmp_path / f"w_{row['identity']}.json"
            assert row["witness_path"] == str(path)
            worst = mq.random_pure(3, row["worst_seed"])
            assert np.array_equal(mq.load_state(path).amplitudes, worst.amplitudes)
        assert not witness.exists()

    def test_eq20_needs_n4(self, capsys):
        assert main(["fuzz", "--n", "3", "--trials", "1",
                     "--identity", "eq20"]) == 2

    def test_all_on_one_qubit_runs_complementarity_only(self, capsys):
        assert main(["fuzz", "--n", "1", "--trials", "3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [s["identity"] for s in obj] == ["eq1b"]
        assert obj[0]["passed"] is True

    def test_eq14_needs_two_qubits(self, capsys):
        assert main(["fuzz", "--n", "1", "--trials", "1",
                     "--identity", "eq14"]) == 2
        assert "eq14 requires --n >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("n, limit", [("-1", 14), ("0", 14), ("15", 14)])
    def test_bad_qubit_count_exit_2(self, n, limit, capsys):
        assert main(["fuzz", "--n", n, "--trials", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: qubit count {n} outside [1, {limit}]\n"

    @pytest.mark.parametrize("trials", ["0", "-3", "1000004"])
    def test_bad_trial_count_exit_2(self, trials, capsys):
        assert main(["fuzz", "--n", "3", "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials must be between 1 and 1000003")
        assert err.count("\n") == 1


class TestMixedCheck:
    def test_random_pairs(self, capsys):
        assert main(["mixed-check", "--random", "--m", "2", "--rank", "4",
                     "--trials", "30", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "eq24" in out and "eq23" in out

    def test_maximally_mixed_triple(self, capsys):
        assert main(["mixed-check", "--rho", "maximally-mixed:3"]) == 0
        out = capsys.readouterr().out
        assert "lhs=0.875 rhs=0.875" in out

    def test_non_psd_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        path.write_text(
            '{"kind":"mixed","m":1,"matrix":[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]}'
        )
        assert main(["mixed-check", "--rho", f"file:{path}"]) == 2

    def test_file_density(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        mq.save_state(mq.random_mixed(2, 3, 9), path)
        assert main(["mixed-check", "--rho", f"file:{path}",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert {r["identity"] for r in obj} == {"mixed-pair", "mixed-total-info"}

    @pytest.mark.parametrize("trials", ["0", "1000004"])
    def test_bad_trial_count_exit_2(self, trials, capsys):
        assert main(["mixed-check", "--random", "--m", "2", "--trials", trials]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trials must be between 1 and 1000003")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("m", ["6", "7"])
    def test_random_total_info_only(self, m, capsys):
        assert main(["mixed-check", "--random", "--m", m, "--trials", "3",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in rows] == ["eq23"]
        assert rows[0]["passed"] is True and rows[0]["min_margin"] >= -1e-9

    def test_random_size_limit_exit_2(self, capsys):
        assert main(["mixed-check", "--random", "--m", "8", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qubit count 8 outside [1, 7]\n"

    def test_random_negative_size_exit_2(self, capsys):
        assert main(["mixed-check", "--random", "--m", "-1", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: qubit count -1 outside [1, 7]\n"

    @pytest.mark.parametrize(
        "count, message",
        [
            ("-1", "qubit count -1 outside [1, 7]"),
            ("0", "qubit count 0 outside [1, 7]"),
            ("8", "qubit count 8 outside [1, 7]"),
            ("x", "bad qubit count 'x' in 'maximally-mixed:x'"),
        ],
    )
    def test_rho_bad_size_exit_2(self, count, message, capsys):
        assert main(["mixed-check", "--rho", f"maximally-mixed:{count}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_rho_total_info_only(self, capsys):
        assert main(["mixed-check", "--rho", "maximally-mixed:6", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in rows] == ["mixed-total-info"]
        assert rows[0]["context"]["margin"] == pytest.approx(63, abs=1e-12)

    def test_random_json_names_witness(self, tmp_path, capsys):
        witness = tmp_path / "w2.json"
        assert main(["mixed-check", "--random", "--m", "2", "--trials", "2",
                     "--tol", "1e-30", "--out", str(witness), "--format", "json"]) == 1
        rows = {r["identity"]: r for r in json.loads(capsys.readouterr().out)}
        row = rows["eq24"]
        assert row["passed"] is False
        assert row["witness_path"] == str(tmp_path / "w2_eq24.json")
        # seed 0 makes trial == worst_seed, and the rank cycles 1..4 over trials
        worst = mq.random_mixed(2, row["worst_seed"] % 4 + 1, row["worst_seed"])
        assert np.array_equal(mq.load_state(row["witness_path"]).matrix, worst.matrix)
        for r in rows.values():
            assert ("witness_path" in r) == (not r["passed"])

    def test_needs_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mixed-check"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--random", "--rho", "maximally-mixed:3", "--m", "2", "--trials", "2"],
            ["--rho", "maximally-mixed:2", "--rank", "3", "--trials", "5"],
            ["--rho", "maximally-mixed:2", "--m", "2"],
            ["--rho", "maximally-mixed:2", "--seed", "0"],
            ["--rho", "maximally-mixed:2", "--out", "w.json"],
        ],
    )
    def test_options_of_the_other_source_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(["mixed-check", *argv])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not list(tmp_path.iterdir())
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    def test_random_defaults(self, capsys):
        assert main(["mixed-check", "--random", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["m"], r["trials"]) for r in rows] == [(2, 100), (2, 100)]
        [alone] = mq.fuzz(["eq24"], 2, 100, 0)
        assert rows[0]["worst_seed"] == alone["worst_seed"]

    @pytest.mark.parametrize("m, labels", [(2, ["mixed-pair"]), (3, ["mixed-triple"])])
    def test_rho_json_contexts(self, m, labels, capsys):
        assert main(["mixed-check", "--rho", f"maximally-mixed:{m}", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in rows] == labels + ["mixed-total-info"]
        for r in rows:
            assert sorted(r["context"]) == ["m", "margin"] and r["context"]["m"] == m

    def test_checks_independent_of_partial_traces(self, monkeypatch, capsys):
        # the partial-trace route is the tests' oracle for the mixed checks
        import sys

        def forbidden(*args):
            raise AssertionError("a mixed check reached the partial-trace route")

        for name, module in list(sys.modules.items()):
            if name == "mqinfo" or name.startswith("mqinfo."):
                for fn in ("partial_trace", "purity", "tilde_overlap", "spin_flip"):
                    if hasattr(module, fn):
                        monkeypatch.setattr(module, fn, forbidden)
        for m in range(1, 8):
            assert main(["mixed-check", "--random", "--m", str(m), "--trials", str(min(2**m, 8))]) == 0
            assert main(["mixed-check", "--rho", f"maximally-mixed:{m}"]) == 0

    @pytest.mark.parametrize("m", [2, 7])
    def test_rho_inside_herm_tol_never_crashes(self, m, tmp_path, capsys):
        # each entry of the anti-Hermitian part passes HERM_TOL, but the Pauli
        # spectrum's sums of them would not pass its realness gate
        mat = np.eye(2**m, dtype=complex) / 2**m
        if m == 2:
            for i, j in ((0, 1), (1, 0), (2, 3), (3, 2)):
                mat[i, j] = 0.49e-10j
        else:
            mat += 0.49e-10j * (np.ones((2**m, 2**m)) - np.eye(2**m))
        rows = [[[z.real, z.imag] for z in row] for row in mat.tolist()]
        path = tmp_path / "rho.json"
        path.write_text(json.dumps({"kind": "mixed", "m": m, "matrix": rows}))
        assert main(["mixed-check", "--rho", f"file:{path}"]) in (0, 1)
        assert "[pass] mixed-total-info" in capsys.readouterr().out


class TestTolerance:
    COMMANDS = [
        ["report", "--state", "ghz:3"],
        ["fuzz", "--n", "3", "--trials", "2"],
        ["mixed-check", "--random", "--m", "3", "--trials", "2"],
        ["mixed-check", "--rho", "maximally-mixed:2"],
    ]

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_bad_tolerance_exit_2(self, argv, tol, capsys):
        assert main(argv + ["--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --tol must be a finite number >= 0")
        assert captured.err.count("\n") == 1

    def test_zero_tolerance_is_legal(self, capsys):
        assert main(["report", "--state", "basis-product:3", "--tol", "0", "--format", "json"]) == 0
        assert all(r["tolerance"] == 0 for r in json.loads(capsys.readouterr().out)["identities"])


class TestParserCache:
    """``main`` parses every call with one parser per process."""

    # every subcommand, options given and omitted in turn, usage errors
    # (SystemExit) and input errors (exit 2) in between
    SEQUENCE = [
        ["report", "--state", "ghz:3"],
        ["report", "--state", "w:4", "--format", "json"],
        ["report", "--state", "ghz:2", "--format", "csv", "--out", "r.csv"],
        ["report", "--state", "ghz:3"],
        ["fuzz", "--n", "3", "--trials", "5"],
        ["fuzz", "--n", "4", "--trials", "5", "--format", "json", "--tol", "1e-30", "--out", "w.json"],
        ["fuzz", "--n", "4", "--trials", "5", "--tol", "1e-30"],
        ["fuzz", "--n", "2", "--trials", "3", "--identity", "eq1b", "--seed", "9"],
        ["fuzz", "--n", "2", "--trials", "3"],
        ["mixed-check", "--random", "--m", "2", "--trials", "4", "--rank", "2"],
        ["mixed-check", "--random", "--m", "2", "--trials", "4"],
        ["mixed-check", "--random", "--m", "3", "--trials", "3", "--format", "json", "--tol", "1e-30", "--out", "m.json"],
        ["mixed-check", "--rho", "maximally-mixed:2"],
        ["mixed-check"],
        ["mixed-check", "--rho", "maximally-mixed:3", "--format", "json"],
        ["bench", "--n", "3"],
        ["bench", "--n", "2", "--seed", "4"],
        ["fuzz", "--trials", "3"],
        ["report", "--state", "ghz:3", "--format", "xml"],
        ["fuzz", "--n", "3", "--identity", "eq99"],
        ["fuzz", "--n", "-1"],
        ["report", "--state", "ghz:3", "--tol", "nan"],
        ["mixed-check", "--random", "--m", "2", "--trials", "2", "--seed", "1"],
        ["fuzz", "--n", "3", "--trials", "5"],
        ["report", "--state", "w:3", "--format", "json", "--out", "r.json"],
        ["mixed-check", "--rho", "maximally-mixed:-1"],
        ["bench", "--n", "3"],
        [],
        ["fuzz", "--n", "5", "--trials", "2", "--seed", "3", "--format", "json"],
        ["report", "--state", "basis-product:2"],
    ]

    def _run(self, workdir, capsys):
        results = []
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            files = {}
            for path in sorted(workdir.iterdir()):
                files[path.name] = path.read_bytes()
                path.unlink()
            # bench prints wall times; everything else must match byte for byte
            out = re.sub(r"\d+\.\d+(?= ms|x,)", "#", captured.out)
            results.append((argv, code, out, captured.err, files))
        return results

    def test_no_state_leaks_between_calls(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert build_parser() is build_parser()
        cached = self._run(tmp_path, capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        assert cli.build_parser() is not cli.build_parser()
        fresh = self._run(tmp_path, capsys)
        for one, other in zip(cached, fresh):
            assert one == other
        codes = [code for _, code, _, _, _ in cached]
        assert codes.count(0) >= 15 and 1 in codes and codes.count(2) >= 8
        assert any(files for *_, files in cached)


# the paper's applicability rules and report names, written out independently
PURE_RULES = {
    "eq1b": ("complementarity", lambda n: True),
    "eq14": ("single-partition", lambda n: n >= 2),
    "eq20": ("pair-partition", lambda n: n >= 4),
    "eq12": ("four-qubit-tangle", lambda n: n == 4),
    "eq26": ("four-qubit-combination", lambda n: n == 4),
}
MIXED_RULES = {
    "eq24": ("mixed-pair", lambda m: m == 2),
    "eq25": ("mixed-triple", lambda m: m == 3),
    "eq23": ("mixed-total-info", lambda m: True),
}


def _distinct(names):
    return list(dict.fromkeys(names))


class TestRegistry:
    def test_table_order(self):
        assert list(IDENTITIES) == [*PURE_RULES, *MIXED_RULES]
        assert PURE_IDENTITIES == tuple(PURE_RULES)
        assert MIXED_IDENTITIES == tuple(MIXED_RULES)

    def test_fuzz_choices_are_the_pure_identities(self):
        fuzz_parser = build_parser()._subparsers._group_actions[0].choices["fuzz"]
        [action] = [a for a in fuzz_parser._actions if a.dest == "identity"]
        assert tuple(action.choices) == ("all",) + PURE_IDENTITIES

    @pytest.mark.parametrize("n", range(1, 9))
    def test_report_and_fuzz_run_the_applicable_pure_identities(self, n, capsys):
        want = [name for name, (_, applies) in PURE_RULES.items() if applies(n)]
        assert applicable("pure", n) == want
        assert main(["report", "--state", f"basis-product:{n}", "--format", "json"]) == 0
        ran = _distinct(r["identity"] for r in json.loads(capsys.readouterr().out)["identities"])
        assert ran == [PURE_RULES[name][0] for name in want]
        assert main(["fuzz", "--n", str(n), "--trials", "1", "--format", "json"]) == 0
        assert [r["identity"] for r in json.loads(capsys.readouterr().out)] == want

    @pytest.mark.parametrize("m", range(1, 8))
    def test_mixed_check_runs_the_applicable_mixed_identities(self, m, capsys):
        want = [name for name, (_, applies) in MIXED_RULES.items() if applies(m)]
        assert applicable("mixed", m) == want
        assert main(["mixed-check", "--rho", f"maximally-mixed:{m}", "--format", "json"]) == 0
        ran = [r["identity"] for r in json.loads(capsys.readouterr().out)]
        assert ran == [MIXED_RULES[name][0] for name in want]
        assert main(["mixed-check", "--random", "--m", str(m), "--trials", "1",
                     "--format", "json"]) == 0
        assert [r["identity"] for r in json.loads(capsys.readouterr().out)] == want

    @pytest.mark.parametrize("tol", ["1e-9", "1e-14"])
    def test_all_equals_each_identity_alone(self, tol, tmp_path, capsys):
        # one state and one table per trial must not change any identity's summary
        common = ["--n", "4", "--trials", "12", "--seed", "5", "--tol", tol,
                  "--format", "json", "--out", str(tmp_path / "w.json")]
        main(["fuzz", *common])
        together = {r["identity"]: r for r in json.loads(capsys.readouterr().out)}
        assert list(together) == applicable("pure", 4)
        for name, row in together.items():
            main(["fuzz", *common, "--identity", name])
            [alone] = json.loads(capsys.readouterr().out)
            for key in ("max_residual", "worst_seed", "failures"):
                assert alone[key] == row[key], (name, key)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("tol", ["1e-9", "1e-17"])
    def test_mixed_all_equals_each_identity_alone(self, m, tol, tmp_path, capsys):
        main(["mixed-check", "--random", "--m", str(m), "--trials", "12", "--seed", "5",
              "--tol", tol, "--format", "json", "--out", str(tmp_path / "w.json")])
        rows = json.loads(capsys.readouterr().out)
        assert [r["identity"] for r in rows] == applicable("mixed", m)
        for row in rows:
            [alone] = mq.fuzz([row["identity"]], m, 12, 5, float(tol))
            for key in ("max_residual", "min_margin", "worst_seed", "failures"):
                assert alone[key] == row[key], (row["identity"], key)


class TestBench:
    def test_small(self, capsys):
        assert main(["bench", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "fast route" in out and "enumeration route" in out

    def test_prints_purity_workers(self, capsys):
        assert main(["bench", "--n", "4"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert re.fullmatch(r"fast route {8}n=4: first call \d+\.\d\d ms, purity pass on 1 worker", first)

    def test_first_call_plan_build_and_warm_call_each_printed(self, capsys, monkeypatch):
        calls = []
        fast = cli.all_infos_fast
        monkeypatch.setattr(cli, "all_infos_fast", lambda psi: calls.append(psi) or fast(psi))
        assert main(["bench", "--n", "5"]) == 0
        plan, warm = capsys.readouterr().out.splitlines()[1:3]
        assert re.fullmatch(r"  purity plan build \d+\.\d\d ms", plan)
        assert re.fullmatch(r"  warm call {9}\d+\.\d\d ms \(best of 3\)", warm)
        assert len(calls) == 4  # the first call and three warm ones

    def test_degenerate_single_qubit(self, capsys):
        assert main(["bench", "--n", "1"]) == 0

    def test_large_skips_enumeration(self, capsys):
        assert main(["bench", "--n", "8"]) == 0
        assert "skipped (n > 7)" in capsys.readouterr().out

    def test_enumerates_up_to_the_oracle_limit(self, capsys):
        # the oracle accepts n <= MAX_MIXED_QUBITS = 7
        assert main(["bench", "--n", "7"]) == 0
        out = capsys.readouterr().out
        assert "enumeration route n=7" in out and "skipped" not in out


class TestEntry:
    def test_console_script_alone_sets_one_blas_thread(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_openblas", lambda: (None, calls.append))
        monkeypatch.setattr(sys, "argv", ["mqinfo", "report", "--state", "ghz:2"])
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == 0 and calls == [1]
        assert main(["report", "--state", "ghz:2"]) == 0
        assert calls == [1]

    def test_console_script_leaves_blas_on_one_thread(self):
        # OpenBLAS at two threads, as its default is on a 2-CPU host
        code = (
            "import sys\n"
            "from mqinfo import cli, reduction\n"
            "sys.argv = ['mqinfo', 'bench', '--n', '1']\n"
            "try:\n"
            "    cli.entry()\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(reduction._openblas()[1] is not None, reduction._blas_threads())\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
        env["PYTHONPATH"] = os.pathsep.join([str(TestTooling.SRC), env.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        settable, threads = done.stdout.splitlines()[-1].split()
        assert settable == "False" or threads == "1"
