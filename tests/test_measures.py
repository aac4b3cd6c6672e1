from itertools import combinations

import numpy as np
import pytest

import mqinfo as mq
from mqinfo import measures
from mqinfo.reduction import subset_purity

from conftest import dense_pauli


def random_su2(rng):
    """Haar-random single-qubit unitary."""
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def apply_1q_unitary(psi, u, qubit):
    n = psi.num_qubits
    tensor = psi.amplitudes.reshape((2,) * n)
    tensor = np.moveaxis(
        np.tensordot(u, tensor, axes=([1], [qubit - 1])), 0, qubit - 1
    )
    return mq.PureState(n, tensor.reshape(-1) / np.linalg.norm(tensor))


class TestInfoSingle:
    def test_w3(self, w3):
        for i in (1, 2, 3):
            assert mq.info_single(w3, i) == pytest.approx(1 / 9, abs=1e-12)

    def test_ghz4(self, ghz4):
        assert mq.info_single(ghz4, 2) == pytest.approx(0.0, abs=1e-12)

    def test_product(self):
        psi = mq.make_named("basis-product", 2)
        assert mq.info_single(psi, 1) == pytest.approx(1.0)

    def test_index_range(self, w3):
        with pytest.raises(ValueError):
            mq.info_single(w3, 4)

    @pytest.mark.parametrize("seed", range(5))
    def test_purity_consistency(self, seed):
        psi = mq.random_pure(3, seed)
        for i in (1, 2, 3):
            via_purity = 2 * mq.purity(mq.partial_trace(psi, (i,))) - 1
            assert mq.info_single(psi, i) == pytest.approx(via_purity, abs=1e-10)


class TestInfoSubset:
    def test_w4_pair(self, w4):
        assert mq.info_subset(w4, (1, 2)) == pytest.approx(-0.5, abs=1e-12)

    def test_ghz4_triple(self, ghz4):
        assert mq.info_subset(ghz4, (1, 2, 3)) == pytest.approx(-1.0, abs=1e-12)

    def test_ghz3_full(self, ghz3):
        assert mq.info_subset(ghz3, (1, 2, 3)) == pytest.approx(3.0, abs=1e-12)

    def test_too_small(self, ghz3):
        with pytest.raises(ValueError, match="too small"):
            mq.info_subset(ghz3, (2,))

    def test_lower_bound(self):
        for seed in range(5):
            psi = mq.random_pure(3, seed)
            assert mq.info_subset(psi, (1, 2)) >= -1 - 1e-9


class TestAllInfosFast:
    def test_ghz3_table(self, ghz3):
        table = mq.all_infos_fast(ghz3)
        for s in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
            assert table.get(s) == pytest.approx(0.0, abs=1e-12)
        assert table.get((1, 2, 3)) == pytest.approx(3.0, abs=1e-12)

    def test_w4_triples(self, w4):
        table = mq.all_infos_fast(w4)
        for s in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
            assert table.get(s) == pytest.approx(0.75, abs=1e-12)

    def test_complete(self):
        table = mq.all_infos_fast(mq.random_pure(4, 0))
        assert len(table.entries) == 15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_enumeration_oracle(self, n):
        psi = mq.random_pure(n, 100 + n)
        fast = mq.all_infos_fast(psi)
        slow = mq.all_infos_enumerated(psi)
        for s in fast.entries:
            assert fast.entries[s] == pytest.approx(slow.entries[s], abs=1e-9)

    @pytest.mark.parametrize("n", [1, 5, 6, 8])
    def test_stored_purities_match_subset_purity(self, n):
        # odd n, even n with its |S| = n/2 tie between a subset and its
        # complement, and n = 8, whose 35 Schmidt blocks take two batches
        psi = mq.random_pure(n, 120 + n)
        purities = mq.all_infos_fast(psi).purities
        assert purities.shape == (2**n,)
        assert purities[0] == 1.0
        for mask in range(1, 2**n):
            subset = tuple(q for q in range(1, n + 1) if mask >> (q - 1) & 1)
            assert purities[mask] == pytest.approx(subset_purity(psi, subset), abs=1e-12)

    def test_oracle_tables_carry_no_purities(self):
        psi = mq.random_pure(3, 7)
        assert mq.all_infos_enumerated(psi).purities is None
        assert mq.all_infos_mixed(mq.density_of(psi)).purities is None

    def test_oracle_size_limit(self):
        with pytest.raises(ValueError, match="n <= 7"):
            mq.all_infos_enumerated(mq.random_pure(8, 0))

    def test_oracle_independent_of_purity_route(self, monkeypatch):
        # the oracle must agree with the fast route without sharing its code
        def forbidden(*args):
            raise AssertionError("oracle reached the purity route")

        monkeypatch.setattr(measures, "pure_subset_purities", forbidden)
        monkeypatch.setattr(measures, "subset_purity", forbidden)
        monkeypatch.setattr(measures, "all_infos_fast", forbidden)
        psi = mq.random_pure(4, 9)
        mq.all_infos_enumerated(psi)
        mq.all_infos_mixed(mq.density_of(psi))


class TestTotals:
    def test_product(self):
        psi = mq.make_named("basis-product", 3)
        assert mq.local_info(psi) == pytest.approx(3.0)
        assert mq.nonlocal_info(psi) == pytest.approx(0.0, abs=1e-12)

    def test_bell(self, bell):
        assert mq.local_info(bell) == pytest.approx(0.0, abs=1e-12)
        assert mq.nonlocal_info(bell) == pytest.approx(2.0, abs=1e-12)

    def test_w3(self, w3):
        assert mq.local_info(w3) == pytest.approx(1 / 3, abs=1e-12)
        assert mq.nonlocal_info(w3) == pytest.approx(8 / 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_complementarity(self, n):
        psi = mq.random_pure(n, 31 + n)
        assert mq.local_info(psi) + mq.nonlocal_info(psi) == pytest.approx(
            n, abs=1e-9
        )


class TestTauLinearEntropy:
    def test_bell(self, bell):
        assert mq.tau_linear_entropy(bell, (1,)) == pytest.approx(1.0)

    def test_product_zero(self):
        psi = mq.make_named("basis-product", 3)
        for s in [(1,), (2,), (1, 3)]:
            assert mq.tau_linear_entropy(psi, s) == pytest.approx(0.0, abs=1e-12)

    def test_w3(self, w3):
        assert mq.tau_linear_entropy(w3, (1,)) == pytest.approx(8 / 9, abs=1e-12)

    def test_full_subset_rejected(self, bell):
        with pytest.raises(ValueError, match="proper"):
            mq.tau_linear_entropy(bell, (1, 2))

    def test_reads_table_purities(self):
        psi = mq.random_pure(5, 67)
        table = mq.all_infos_fast(psi)
        for subset in [(1,), (5,), (2, 4), (1, 3, 5)]:
            assert mq.tau_linear_entropy(psi, subset, table) == pytest.approx(
                mq.tau_linear_entropy(psi, subset), abs=1e-12
            )
        with pytest.raises(ValueError, match="outside"):
            mq.tau_linear_entropy(psi, (6,), table)

    def test_table_of_another_qubit_count(self):
        # read blindly, this table's purity at mask 3 gives 1.2690 for 1.1138
        psi = mq.random_pure(4, 1)
        with pytest.raises(ValueError, match="^table of 5 qubits for a state of 4$"):
            mq.tau_linear_entropy(psi, (1, 2), mq.all_infos_fast(mq.random_pure(5, 2)))

    def test_one_minus_info(self):
        psi = mq.random_pure(4, 17)
        for k in range(1, 5):
            assert mq.tau_linear_entropy(psi, (k,)) == pytest.approx(
                1 - mq.info_single(psi, k), abs=1e-10
            )


class TestNTangle:
    def test_ghz4(self, ghz4):
        assert mq.n_tangle(ghz4) == pytest.approx(1.0, abs=1e-12)

    def test_w4(self, w4):
        assert mq.n_tangle(w4) == pytest.approx(0.0, abs=1e-12)

    def test_basis_product(self):
        assert mq.n_tangle(mq.make_named("basis-product", 4)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_odd_rejected(self, w3):
        with pytest.raises(ValueError, match="even"):
            mq.n_tangle(w3)

    def test_generalized_ghz(self):
        theta = np.pi / 6
        amps = np.zeros(16, dtype=complex)
        amps[0], amps[15] = np.cos(theta), np.sin(theta)
        psi = mq.pure_from_amplitudes(4, amps)
        assert mq.n_tangle(psi) == pytest.approx(np.sin(2 * theta) ** 2, abs=1e-12)

    def test_global_phase_invariance(self):
        psi = mq.random_pure(4, 23)
        rotated = mq.PureState(4, np.exp(0.7j) * psi.amplitudes)
        assert mq.n_tangle(rotated) == pytest.approx(mq.n_tangle(psi), abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_matches_dense_spin_flip(self, n):
        for seed in range(3):
            psi = mq.random_pure(n, 60 + seed)
            a = psi.amplitudes
            dense = abs(np.vdot(a, dense_pauli("Y" * n) @ a.conj())) ** 2
            assert mq.n_tangle(psi) == pytest.approx(dense, abs=1e-12)


class TestConcurrence:
    def test_bell(self, bell):
        assert mq.concurrence_sq_2q(bell) == pytest.approx(1.0)
        assert mq.info_subset(bell, (1, 2)) == pytest.approx(2.0, abs=1e-12)

    def test_product(self):
        assert mq.concurrence_sq_2q(mq.make_named("basis-product", 2)) == 0.0

    def test_schmidt_angle(self):
        theta = np.pi / 8
        psi = mq.pure_from_amplitudes(2, [np.cos(theta), 0, 0, np.sin(theta)])
        assert mq.concurrence_sq_2q(psi) == pytest.approx(0.5, abs=1e-12)
        assert mq.info_subset(psi, (1, 2)) == pytest.approx(1.0, abs=1e-10)

    def test_wrong_size(self, w3):
        with pytest.raises(ValueError):
            mq.concurrence_sq_2q(w3)

    def test_global_phase_invariance(self):
        psi = mq.random_pure(2, 41)
        rotated = mq.PureState(2, np.exp(1.1j) * psi.amplitudes)
        assert mq.concurrence_sq_2q(rotated) == pytest.approx(
            mq.concurrence_sq_2q(psi), abs=1e-10
        )

    def test_doubles_into_pair_info(self):
        for seed in range(10):
            psi = mq.random_pure(2, seed)
            assert mq.info_subset(psi, (1, 2)) == pytest.approx(
                2 * mq.concurrence_sq_2q(psi), abs=1e-10
            )


class TestLocalUnitaryInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_table_invariant(self, seed):
        rng = np.random.default_rng(1000 + seed)
        psi = mq.random_pure(3, seed)
        rotated = apply_1q_unitary(psi, random_su2(rng), qubit=2)
        a = mq.all_infos_fast(psi)
        b = mq.all_infos_fast(rotated)
        for s in a.entries:
            assert a.entries[s] == pytest.approx(b.entries[s], abs=1e-9)


class TestMixedInfos:
    def test_maximally_mixed(self):
        rho = mq.MixedState(2, np.eye(4, dtype=complex) / 4)
        table = mq.all_infos_mixed(rho)
        assert table.get((1,)) == pytest.approx(0.0, abs=1e-12)
        assert table.get((1, 2)) == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_per_string_sums(self, m):
        rho = mq.random_mixed(m, 2**m - 1 if m > 1 else 2, 30 + m)
        table = mq.all_infos_mixed(rho)
        for subset in table.subsets():
            f = sum(mq.expectation_mixed(rho, p) ** 2 for p in mq.strings_on_support(m, subset))
            want = f if len(subset) == 1 else f - 1.0
            assert table.get(subset) == pytest.approx(want, abs=1e-12)

    def test_pure_density_matches_pure_table(self):
        psi = mq.random_pure(3, 3)
        a = mq.all_infos_mixed(mq.density_of(psi))
        b = mq.all_infos_enumerated(psi)
        for s in a.entries:
            assert a.entries[s] == pytest.approx(b.entries[s], abs=1e-9)


class TestSpectrumValues:
    """The stacked spectrum table against the partial-trace oracle."""

    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_partial_trace_oracle(self, m):
        states = [mq.random_mixed(m, rank, 50 + m + rank) for rank in sorted({1, 2, 2**m})]
        values, purities, overlaps = measures.spectrum_values(np.array([s.matrix for s in states]))
        assert values.shape == purities.shape == overlaps.shape == (len(states), 2**m)
        for rho, vals, purs, ovls in zip(states, values, purities, overlaps):
            assert np.array_equal(vals, mq.all_infos_mixed(rho).values)
            assert purs[0] == pytest.approx(1.0, abs=1e-12)
            for mask in range(1, 2**m):
                reduced = mq.partial_trace(rho, [q for q in range(1, m + 1) if mask >> (q - 1) & 1])
                assert abs(purs[mask] - mq.purity(reduced)) <= 1e-12
                assert abs(ovls[mask] - mq.tilde_overlap(reduced)) <= 1e-12
                tilde = mq.spin_flip(reduced).matrix
                assert abs(ovls[mask] - np.trace(reduced.matrix @ tilde).real) <= 1e-12

    def test_rows_equal_one_state_calls(self):
        states = [mq.random_mixed(3, rank, rank) for rank in range(1, 9)]
        stacked = measures.spectrum_values(np.array([s.matrix for s in states]))
        for row, rho in enumerate(states):
            for whole, alone in zip(stacked, measures.spectrum_values(rho.matrix[None])):
                assert np.array_equal(whole[row], alone[0])


class TestInfoTableExport:
    def test_json_obj(self, ghz3):
        obj = mq.all_infos_fast(ghz3).to_json_obj()
        assert obj["n"] == 3
        assert len(obj["entries"]) == 7
        assert obj["entries"][0]["subset"] == [1]
        assert obj["entries"][-1]["subset"] == [1, 2, 3]

    def test_csv_rows(self, bell):
        rows = mq.all_infos_fast(bell).to_csv_rows()
        assert rows[0][:2] == ("1", 1)
        assert rows[-1][:2] == ("1-2", 2)

    @pytest.mark.parametrize("build", [mq.all_infos_fast, mq.all_infos_enumerated])
    def test_size_then_indices_order(self, build):
        n = 4
        table = build(mq.random_pure(n, 9))
        want = [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]
        assert want == sorted(want, key=lambda s: (len(s), s))
        assert list(table.entries) == want
        assert table.subsets() == want
        obj = table.to_json_obj()
        assert [tuple(e["subset"]) for e in obj["entries"]] == want
        assert [e["I"] for e in obj["entries"]] == [table.get(s) for s in want]
        assert [row[0] for row in table.to_csv_rows()] == ["-".join(map(str, s)) for s in want]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_io_order_masks_match_the_tuples(self, n):
        subsets, masks = measures._io_order(n)
        qubits = range(1, n + 1)
        assert subsets == tuple(s for k in qubits for s in combinations(qubits, k))
        assert masks.tolist() == [measures._subset_to_mask(s) for s in subsets]
        assert not masks.flags.writeable

    def test_entries_read_only(self, ghz3):
        table = mq.all_infos_fast(ghz3)
        with pytest.raises(TypeError):
            table.entries[(1,)] = 5.0
        with pytest.raises(ValueError):
            table.values[1] = 5.0
