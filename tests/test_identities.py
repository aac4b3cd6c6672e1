import numpy as np
import pytest

import mqinfo as mq
from mqinfo.identities import MAX_TRIALS, MIXED_PAIR_TOL, derive_seed


def bell_pair_tensor():
    """Bell x Bell on 4 qubits (pairs 1-2 and 3-4)."""
    s = 1 / np.sqrt(2)
    bell = np.array([s, 0, 0, s])
    return mq.pure_from_amplitudes(4, np.kron(bell, bell))


class TestComplementarity:
    def test_ghz3_exact(self, ghz3):
        rep = mq.residual_complementarity(ghz3)
        assert rep.passed and abs(rep.residual) < 1e-12

    def test_w4_exact(self, w4):
        rep = mq.residual_complementarity(w4)
        assert abs(rep.residual) < 1e-12
        assert rep.lhs == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_random(self, n):
        rep = mq.residual_complementarity(mq.random_pure(n, 55 + n))
        assert abs(rep.residual) <= 1e-9


class TestSinglePartition:
    def test_bell(self, bell):
        rep = mq.residual_single_partition(bell, 1)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_w3(self, w3):
        rep = mq.residual_single_partition(w3, 1)
        assert rep.lhs == pytest.approx(24 / 9, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_all_qubits(self, n):
        psi = mq.random_pure(n, 70 + n)
        for k in range(1, n + 1):
            assert abs(mq.residual_single_partition(psi, k).residual) <= 1e-9

    def test_bad_qubit(self, bell):
        with pytest.raises(ValueError):
            mq.residual_single_partition(bell, 3)


class TestPairPartition:
    def test_ghz4(self, ghz4):
        rep = mq.residual_pair_partition(ghz4, (1, 2))
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_pair_partition(w4, (1, 2))
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_crossing_subsets_exclude_the_pair_itself(self, w4):
        # I_12 and I_34 must not enter the right-hand side
        table = mq.all_infos_fast(w4)
        rep = mq.residual_pair_partition(w4, (1, 2), table)
        crossing_sum = sum(
            v
            for s, v in table.entries.items()
            if len(s) >= 2 and s not in [(1, 2), (3, 4)] and len(s) > 1
            and set(s) & {1, 2} and set(s) - {1, 2}
        )
        assert rep.rhs == pytest.approx(crossing_sum)

    def test_mask_sums_match_subset_scans(self):
        # the mask reductions against the tuple-scan definitions they replace
        from itertools import combinations

        n = 6
        psi = mq.random_pure(n, 66)
        table = mq.all_infos_fast(psi)
        for k in range(1, n + 1):
            scan = sum(v for s, v in table.entries.items() if k in s and len(s) >= 2)
            rhs = mq.residual_single_partition(psi, k, table).rhs
            assert rhs == pytest.approx(scan, abs=1e-12)
        for pair in combinations(range(1, n + 1), 2):
            pset = set(pair)
            scan = sum(
                v
                for s, v in table.entries.items()
                if len(s) >= 2 and (set(s) & pset) and (set(s) - pset)
            )
            rhs = mq.residual_pair_partition(psi, pair, table).rhs
            assert rhs == pytest.approx(scan, abs=1e-12)

    def test_oracle_table_falls_back_to_recomputed_taus(self):
        psi = mq.random_pure(4, 68)
        fast = mq.residual_pair_partition(psi, (1, 3))
        oracle = mq.residual_pair_partition(psi, (1, 3), mq.all_infos_enumerated(psi))
        assert oracle.lhs == pytest.approx(fast.lhs, abs=1e-12)
        assert abs(oracle.residual) <= 1e-9

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_all_pairs(self, n):
        from itertools import combinations

        psi = mq.random_pure(n, 90 + n)
        for pair in combinations(range(1, n + 1), 2):
            assert abs(mq.residual_pair_partition(psi, pair).residual) <= 1e-9

    def test_too_few_qubits(self, w3):
        with pytest.raises(ValueError):
            mq.residual_pair_partition(w3, (1, 2))


class TestTangleRelation4q:
    def test_ghz4(self, ghz4):
        rep = mq.residual_tangle_relation_4q(ghz4)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_tangle_relation_4q(w4)
        assert rep.lhs == pytest.approx(-4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(-4.0, abs=1e-12)

    def test_generalized_ghz(self):
        theta = np.pi / 6
        amps = np.zeros(16, dtype=complex)
        amps[0], amps[15] = np.cos(theta), np.sin(theta)
        rep = mq.residual_tangle_relation_4q(mq.pure_from_amplitudes(4, amps))
        assert rep.lhs == pytest.approx(-1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(-1.0, abs=1e-12)

    def test_random(self):
        for seed in range(20):
            rep = mq.residual_tangle_relation_4q(mq.random_pure(4, seed))
            assert abs(rep.residual) <= 1e-9

    def test_wrong_size(self, w3):
        with pytest.raises(ValueError):
            mq.residual_tangle_relation_4q(w3)


class TestCombination4q:
    def test_ghz4(self, ghz4):
        rep = mq.residual_combination_4q(ghz4)
        assert rep.lhs == pytest.approx(8.0, abs=1e-12)
        assert rep.rhs == pytest.approx(8.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_combination_4q(w4)
        assert rep.lhs == pytest.approx(3.0, abs=1e-12)
        assert rep.rhs == pytest.approx(3.0, abs=1e-12)

    def test_bell_pair(self):
        rep = mq.residual_combination_4q(bell_pair_tensor())
        assert abs(rep.residual) < 1e-12

    def test_random(self):
        for seed in range(20):
            rep = mq.residual_combination_4q(mq.random_pure(4, 200 + seed))
            assert abs(rep.residual) <= 1e-9


class TestMixedPair:
    def test_maximally_mixed(self):
        rho = mq.MixedState(2, np.eye(4, dtype=complex) / 4)
        rep = mq.residual_mixed_pair(rho)
        assert rep.lhs == pytest.approx(0.75)
        assert rep.rhs == pytest.approx(0.75)

    def test_bell_density(self, bell):
        rep = mq.residual_mixed_pair(mq.density_of(bell))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_bell_basis_mixture(self, bell):
        basis = mq.density_of(mq.make_named("basis-product", 2)).matrix
        mix = mq.MixedState(2, 0.5 * basis + 0.5 * mq.density_of(bell).matrix)
        rep = mq.residual_mixed_pair(mix)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_ranks(self, rank):
        for seed in range(20):
            rep = mq.residual_mixed_pair(mq.random_mixed(2, rank, seed))
            assert abs(rep.residual) <= 1e-10
            assert rep.context["margin"] >= -1e-12


class TestMixedTriple:
    def test_ghz3_density(self, ghz3):
        rep = mq.residual_mixed_triple(mq.density_of(ghz3))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = mq.MixedState(3, np.eye(8, dtype=complex) / 8)
        rep = mq.residual_mixed_triple(rho)
        assert rep.lhs == pytest.approx(7 / 8)
        assert rep.rhs == pytest.approx(7 / 8)

    def test_basis_projector(self):
        rep = mq.residual_mixed_triple(
            mq.density_of(mq.make_named("basis-product", 3))
        )
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_random_ranks(self, rank):
        for seed in range(15):
            rep = mq.residual_mixed_triple(mq.random_mixed(3, rank, seed))
            assert abs(rep.residual) <= 1e-9
            assert rep.context["margin"] >= -1e-9


class TestMixedTotalInfo:
    def test_maximally_mixed_margin(self):
        # every expectation vanishes, so each size >= 2 subset contributes -1:
        # total = -(2^m - 1 - m), margin = 2^m - 1
        for m in (2, 3, 6, 7):
            rho = mq.MixedState(m, np.eye(2**m, dtype=complex) / 2**m)
            rep = mq.mixed_total_info_margin(rho)
            assert rep.lhs == pytest.approx(-(2**m - 1 - m), abs=1e-12)
            assert rep.context["margin"] == pytest.approx(2**m - 1, abs=1e-12)

    def test_pure_density_saturates(self):
        rep = mq.mixed_total_info_margin(mq.density_of(mq.random_pure(3, 77)))
        assert rep.context["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_random(self):
        for seed in range(10):
            rep = mq.mixed_total_info_margin(mq.random_mixed(3, 4, seed))
            assert rep.context["margin"] >= -1e-9
        for m in (6, 7):
            rep = mq.mixed_total_info_margin(mq.random_mixed(m, 5, m))
            assert rep.passed and rep.context["margin"] >= -1e-9


class TestReportStructure:
    def test_json_obj_fields(self, bell):
        obj = mq.residual_complementarity(bell).to_json_obj()
        assert set(obj) == {
            "identity", "lhs", "rhs", "residual", "tolerance", "passed", "context",
        }

    def test_residual_is_lhs_minus_rhs(self, w4):
        rep = mq.residual_single_partition(w4, 2)
        assert rep.residual == rep.lhs - rep.rhs

    def test_checkers_are_pure(self, w4):
        a = mq.residual_pair_partition(w4, (1, 3))
        b = mq.residual_pair_partition(w4, (1, 3))
        assert a == b


class TestFuzzDriver:
    def test_seed_derivation_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_pure_fuzz_summary(self):
        [s] = mq.fuzz(["eq1b"], 3, 10, 5)
        assert s["passed"]
        assert s["max_residual"] <= 1e-9
        assert s["worst_seed"] in [derive_seed(5, t) for t in range(10)]

    def test_pure_fuzz_reproducible(self):
        [a] = mq.fuzz(["eq14"], 3, 8, 2)
        [b] = mq.fuzz(["eq14"], 3, 8, 2)
        assert a["max_residual"] == b["max_residual"]
        assert a["worst_seed"] == b["worst_seed"]

    def test_mixed_fuzz_rank_sweep(self):
        [s] = mq.fuzz(["eq24"], 2, 16, 1)
        assert s["passed"]
        assert s["max_residual"] <= 1e-10

    def test_mixed_pair_gate_is_fixed(self):
        # --tol (default 1e-9) never loosens the mixed-pair gate
        assert mq.fuzz(["eq24"], 2, 4, 0)[0]["tolerance"] == MIXED_PAIR_TOL == 1e-10
        assert mq.fuzz(["eq24"], 2, 4, 0, tol=1e-12)[0]["tolerance"] == 1e-12
        assert mq.residual_mixed_pair(mq.random_mixed(2, 2, 0), tol=1e-6).tolerance == 1e-10

    def test_eq12_requires_n4(self):
        with pytest.raises(ValueError, match="eq12 requires --n 4"):
            mq.fuzz(["eq12"], 3, 5, 0)

    @pytest.mark.parametrize(
        "names, match",
        [(["eq99"], "unknown identity"), ([], "one kind"), (["eq1b", "eq23"], "one kind")],
    )
    def test_bad_names(self, names, match):
        with pytest.raises(ValueError, match=match):
            mq.fuzz(names, 2, 3, 0)

    @pytest.mark.parametrize(
        "names, n, limit",
        [(["eq1b"], -1, 14), (["eq1b"], 0, 14), (["eq1b"], 15, 14),
         (["eq23"], -1, 7), (["eq23"], 0, 7), (["eq23"], 8, 7)],
    )
    def test_qubit_count_out_of_range(self, names, n, limit):
        with pytest.raises(ValueError, match=rf"^qubit count {n} outside \[1, {limit}\]$"):
            mq.fuzz(names, n, 3, 0)

    @pytest.mark.parametrize("trials", [0, -1, MAX_TRIALS + 1])
    def test_trial_count_out_of_range(self, trials):
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq1b"], 3, trials, 0)
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq24"], 2, trials, 0)

    def test_seeds_distinct_up_to_max_trials(self):
        assert derive_seed(0, MAX_TRIALS - 1) < derive_seed(1, 0)


class TestLibraryTolerance:
    BAD = [float("inf"), float("nan"), -1.0]

    @pytest.mark.parametrize("tol", BAD)
    def test_fuzz_rejects(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            mq.fuzz(["eq1b", "eq14"], 3, 2, 0, tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            mq.fuzz(["eq24", "eq23"], 2, 2, 0, tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_checkers_reject(self, tol, w4):
        rho2, rho3 = mq.random_mixed(2, 2, 0), mq.random_mixed(3, 2, 0)
        calls = [
            lambda: mq.residual_complementarity(w4, tol=tol),
            lambda: mq.residual_single_partition(w4, 1, tol=tol),
            lambda: mq.residual_pair_partition(w4, (1, 2), tol=tol),
            lambda: mq.residual_tangle_relation_4q(w4, tol=tol),
            lambda: mq.residual_combination_4q(w4, tol=tol),
            lambda: mq.residual_mixed_pair(rho2, tol=tol),
            lambda: mq.residual_mixed_triple(rho3, tol=tol),
            lambda: mq.mixed_total_info_margin(rho3, tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                call()

    def test_zero_is_legal(self):
        assert mq.residual_complementarity(mq.make_named("basis-product", 3), tol=0.0).passed
        assert mq.fuzz(["eq1b"], 3, 2, 0, tol=0.0)[0]["tolerance"] == 0.0


class TestInequalitySummary:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_strict_inequality_reports_no_violation(self, m):
        # a rank-2 state has I_total < m, so nothing is violated; the slack
        # m - I_total is not a residual
        [s] = mq.fuzz(["eq23"], m, 6, m, rank=2)
        assert s["max_residual"] == 0.0
        assert s["min_margin"] > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_max_residual_is_largest_violation(self, m):
        [s] = mq.fuzz(["eq23"], m, 2**m * 3, 4)
        assert s["max_residual"] == max(0.0, -s["min_margin"])
        assert s["max_residual"] <= 1e-12


def _loop_summaries(names, n, trials, base_seed, tol):
    """Reference: one state per trial through the public one-state checkers."""
    from itertools import combinations

    def reports(name, psi, table):
        if name == "eq1b":
            return [mq.residual_complementarity(psi, table, tol)]
        if name == "eq14":
            return [mq.residual_single_partition(psi, k, table, tol) for k in range(1, n + 1)]
        if name == "eq20":
            return [
                mq.residual_pair_partition(psi, p, table, tol)
                for p in combinations(range(1, n + 1), 2)
            ]
        if name == "eq12":
            return [mq.residual_tangle_relation_4q(psi, table, tol)]
        return [mq.residual_combination_4q(psi, table, tol)]

    out = {name: {"max_residual": 0.0, "failures": 0, "worst_seed": None} for name in names}
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        psi = mq.random_pure(n, seed)
        table = mq.all_infos_fast(psi)
        for name in names:
            s = out[name]
            for rep in reports(name, psi, table):
                if s["worst_seed"] is None or abs(rep.residual) > s["max_residual"]:
                    s["worst_seed"] = seed
                s["max_residual"] = max(s["max_residual"], abs(rep.residual))
                s["failures"] += not rep.passed
    return out


class TestBatchedEngine:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_stacked_tables_equal_per_state(self, n):
        from mqinfo.measures import info_values
        from mqinfo.statekit import random_pure_stack

        # at n = 4 and 5 the stack spans several purity passes
        seeds = [derive_seed(n, t) for t in range(max(3, min(300, 2**13 >> n)))]
        amps = random_pure_stack(n, seeds)
        values, purities = info_values(amps)
        for row, seed in enumerate(seeds):
            psi = mq.random_pure(n, seed)
            table = mq.all_infos_fast(psi)
            assert np.array_equal(amps[row], psi.amplitudes)
            assert np.array_equal(values[row], table.values)
            assert np.array_equal(purities[row], table.purities)

    def test_stack_rows_are_the_seeded_draws(self):
        from mqinfo.statekit import random_pure_stack

        seeds = [0, 1, derive_seed(3, 5), 2**40]
        for n in (1, 4, 9):
            for seed, row in zip(seeds, random_pure_stack(n, seeds)):
                rng = np.random.default_rng(seed)
                v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                assert np.array_equal(row, v / np.linalg.norm(v))

    def test_stack_is_validated(self, monkeypatch):
        from mqinfo import statekit

        monkeypatch.setattr(statekit, "NORM_TOL_INTERNAL", -1.0)
        with pytest.raises(ValueError, match="not normalized"):
            statekit.random_pure_stack(3, [0, 1])

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("tol", [1e-9, 1e-30])
    def test_fuzz_matches_per_trial_loop(self, n, tol):
        names = mq.applicable("pure", n)
        trials = 24 if n <= 6 else 6
        loop = _loop_summaries(names, n, trials, 9, tol)
        gate = 8 * 2**n * np.finfo(float).eps
        for s in mq.fuzz(names, n, trials, 9, tol):
            ref = loop[s["identity"]]
            assert abs(s["max_residual"] - ref["max_residual"]) <= gate
            assert s["failures"] == ref["failures"]
            assert s["passed"] == (ref["failures"] == 0)

    def test_worst_case_across_chunks(self):
        # 1,100 trials at n = 4 span three chunks of states
        names = mq.applicable("pure", 4)
        loop = _loop_summaries(names, 4, 1100, 3, 1e-9)
        for s in mq.fuzz(names, 4, 1100, 3):
            ref = loop[s["identity"]]
            assert s["worst_seed"] == ref["worst_seed"]
            assert s["max_residual"] == ref["max_residual"]
            assert isinstance(s["worst_state"], mq.PureState)
            reloaded = mq.state_from_json(mq.state_to_json(s["worst_state"]))
            assert np.array_equal(reloaded.amplitudes, mq.random_pure(4, s["worst_seed"]).amplitudes)

    def test_summary_keys(self):
        [s] = mq.fuzz(["eq14"], 3, 4, 0)
        assert set(s) == {
            "identity", "n", "trials", "max_residual", "failures", "passed",
            "worst_seed", "worst_state", "tolerance",
        }
