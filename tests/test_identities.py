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

    @pytest.mark.parametrize("trials", [0, -1, MAX_TRIALS + 1])
    def test_trial_count_out_of_range(self, trials):
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq1b"], 3, trials, 0)
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq24"], 2, trials, 0)

    def test_seeds_distinct_up_to_max_trials(self):
        assert derive_seed(0, MAX_TRIALS - 1) < derive_seed(1, 0)
