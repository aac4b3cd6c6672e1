import json

import numpy as np
import pytest

import mqinfo as mq
from mqinfo.cli import main


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

    def test_out_file(self, tmp_path):
        dest = tmp_path / "report.json"
        assert main(
            ["report", "--state", "ghz:2", "--format", "json", "--out", str(dest)]
        ) == 0
        assert json.loads(dest.read_text())["n"] == 2


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
            assert np.allclose(mq.load_state(path).amplitudes, worst.amplitudes, rtol=0, atol=1e-15)
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
    def test_random_without_identity_exit_2(self, m, capsys):
        assert main(["mixed-check", "--random", "--m", m, "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no mixed-state identity applies to m={m}\n"

    def test_rho_without_identity_exit_2(self, capsys):
        assert main(["mixed-check", "--rho", "maximally-mixed:6"]) == 2
        assert "no mixed-state identity applies to m=6" in capsys.readouterr().err

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


class TestBench:
    def test_small(self, capsys):
        assert main(["bench", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "fast route" in out and "enumeration route" in out

    def test_degenerate_single_qubit(self, capsys):
        assert main(["bench", "--n", "1"]) == 0

    def test_large_skips_enumeration(self, capsys):
        assert main(["bench", "--n", "8"]) == 0
        assert "skipped" in capsys.readouterr().out
