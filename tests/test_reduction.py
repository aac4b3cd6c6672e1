import numpy as np
import pytest

import mqinfo as mq
from mqinfo import reduction
from mqinfo.reduction import pure_subset_purities, subset_purity
from mqinfo.statekit import random_pure_stack

from conftest import dense_pauli


class TestPartialTrace:
    def test_bell_single_qubit(self, bell):
        rho = mq.partial_trace(bell, (1,))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_w3_first_qubit(self, w3):
        rho = mq.partial_trace(w3, (1,))
        assert np.allclose(rho.matrix, np.diag([2 / 3, 1 / 3]))

    def test_product_state(self):
        psi = mq.make_named("basis-product", 2)
        rho = mq.partial_trace(psi, (2,))
        assert np.allclose(rho.matrix, np.diag([1, 0]))

    def test_full_subset_is_density(self, bell):
        rho = mq.partial_trace(bell, (1, 2))
        assert np.allclose(rho.matrix, mq.density_of(bell).matrix)

    def test_empty_keep(self, bell):
        with pytest.raises(ValueError, match="empty"):
            mq.partial_trace(bell, ())

    def test_mixed_source_matches_pure_route(self):
        psi = mq.random_pure(3, 4)
        rho = mq.density_of(psi)
        for keep in [(1,), (2,), (1, 3), (2, 3)]:
            a = mq.partial_trace(psi, keep).matrix
            b = mq.partial_trace(rho, keep).matrix
            assert np.allclose(a, b, atol=1e-12)

    def test_composition(self):
        psi = mq.random_pure(4, 9)
        via = mq.partial_trace(mq.partial_trace(psi, (1, 2, 4)), (1, 3))
        direct = mq.partial_trace(psi, (1, 4))
        assert np.allclose(via.matrix, direct.matrix, atol=1e-12)

    def test_kept_order_is_ascending(self):
        psi = mq.random_pure(3, 2)
        a = mq.partial_trace(psi, (3, 1)).matrix
        b = mq.partial_trace(psi, (1, 3)).matrix
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(3))
    def test_schmidt_purity_symmetry(self, seed):
        psi = mq.random_pure(4, seed)
        for keep in [(1,), (1, 2), (2, 4)]:
            comp = tuple(q for q in range(1, 5) if q not in keep)
            pa = mq.purity(mq.partial_trace(psi, keep))
            pb = mq.purity(mq.partial_trace(psi, comp))
            assert pa == pytest.approx(pb, abs=1e-10)


class TestPurity:
    def test_maximally_mixed(self):
        rho = mq.MixedState(2, np.eye(4, dtype=complex) / 4)
        assert mq.purity(rho) == pytest.approx(0.25)

    def test_pure_density(self):
        assert mq.purity(mq.density_of(mq.random_pure(2, 1))) == pytest.approx(1.0)

    def test_w4_single_qubit(self, w4):
        assert mq.purity(mq.partial_trace(w4, (1,))) == pytest.approx(5 / 8)

    def test_subset_purity_matches(self):
        psi = mq.random_pure(4, 6)
        for keep in [(2,), (1, 3), (1, 2, 4)]:
            assert subset_purity(psi, keep) == pytest.approx(
                mq.purity(mq.partial_trace(psi, keep)), abs=1e-12
            )


class TestPurityPlan:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_masks_and_budgets(self, n, monkeypatch):
        batches, masks, stack, entries = reduction._purity_plan(n)
        full = (1 << n) - 1
        covered = np.concatenate([masks, full ^ masks])
        assert np.array_equal(np.sort(covered), np.arange(1, full))
        # a batch's (top, state) grams stay within the entry budget, and
        # states share batches only whole
        gram = 1 << 2 * (n // 2)
        assert stack == 1 or len(batches) <= 1
        for rows, cols, levels in batches:
            assert stack * len(rows) * gram <= reduction._TRACE_ENTRIES
            assert len(rows) * gram + sum(c * d * d for c, d, _ in levels) <= entries
            assert all(parents > 0 for _, _, groups in levels for parents, _, _ in groups)
        # each gram call of a full pass stays within the amplitude budget
        # unless one block alone exceeds it
        calls = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            calls.append(len(a))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(reduction.np, "matmul", counted)
        pure_subset_purities(random_pure_stack(n, range(stack)))
        assert sum(calls) == stack * sum(len(rows) for rows, _, _ in batches)
        assert all(blocks << n <= max(reduction._BATCH_AMPLITUDES, 1 << n) for blocks in calls)

    @pytest.mark.parametrize(
        ("n", "tops", "stack"),
        [(7, 35, 14), (8, 35, 3), (9, 126, 1), (10, 32, 1), (11, 32, 1), (12, 8, 1), (13, 8, 1), (14, 2, 1)],
    )
    def test_batch_sizes(self, n, tops, stack):
        # from n = 11 up the plan is the one the two-budget rule gave
        batches, _, plan_stack, _ = reduction._purity_plan(n)
        assert (len(batches[0][0]), plan_stack) == (tops, stack)

    @pytest.mark.parametrize(("n", "count"), [(8, 10), (12, 1)])
    def test_one_workspace_per_call(self, n, count):
        import tracemalloc

        amps = random_pure_stack(n, range(count))
        batches, masks, stack, entries = reduction._purity_plan(n)
        pure_subset_purities(amps)
        tracemalloc.start()
        try:
            pure_subset_purities(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the workspace holds the largest batch's matrices and the purity
        # sums of the largest pass; a gather holds one gram call's blocks,
        # and 8 KB covers Python objects and array headers
        most = -(-count // -(-count // stack))
        workspace = most * (2 * entries + len(masks)) * 8
        gather = max(reduction._BATCH_AMPLITUDES, 1 << n) * 16
        assert peak <= workspace + 2 * gather + (count << n) * 8 + 8192

    @pytest.mark.parametrize("n", [11, 12, 13])
    def test_matches_per_subset_gram(self, n):
        psi = mq.random_pure(n, 500 + n)
        purities = pure_subset_purities(psi.amplitudes[None])[0]
        rng = np.random.default_rng(n)
        for k in range(1, n):
            for _ in range(3):
                keep = sorted(rng.choice(n, size=k, replace=False) + 1)
                mask = sum(1 << (q - 1) for q in keep)
                assert abs(purities[mask] - subset_purity(psi, keep)) <= 1e-12


class TestSpinFlip:
    def test_flips_basis_projector(self):
        rho = mq.density_of(mq.make_named("basis-product", 2))
        flipped = mq.spin_flip(rho)
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        assert np.allclose(flipped.matrix, expected)

    def test_bell_fixed_point(self, bell):
        rho = mq.density_of(bell)
        assert np.allclose(mq.spin_flip(rho).matrix, rho.matrix, atol=1e-12)

    def test_involution(self):
        rho = mq.random_mixed(3, 5, 13)
        back = mq.spin_flip(mq.spin_flip(rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-14)

    def test_dense_sigma_y_oracle(self):
        rho = mq.random_mixed(2, 3, 21)
        yy = dense_pauli("YY")
        expected = yy @ rho.matrix.conj() @ yy
        assert np.allclose(mq.spin_flip(rho).matrix, expected, atol=1e-12)

    def test_output_is_valid_state(self):
        rho = mq.random_mixed(3, 8, 2)
        flipped = mq.spin_flip(rho)
        assert abs(np.trace(flipped.matrix) - 1) < 1e-10
        assert np.linalg.eigvalsh(flipped.matrix).min() >= -1e-10


class TestTildeOverlap:
    def test_maximally_mixed(self):
        rho = mq.MixedState(2, np.eye(4, dtype=complex) / 4)
        assert mq.tilde_overlap(rho) == pytest.approx(0.25)

    def test_bell_attains_one(self, bell):
        assert mq.tilde_overlap(mq.density_of(bell)) == pytest.approx(1.0)

    def test_basis_projector_zero(self):
        rho = mq.density_of(mq.make_named("basis-product", 2))
        assert mq.tilde_overlap(rho) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_bounded(self, rank):
        for seed in range(5):
            val = mq.tilde_overlap(mq.random_mixed(2, rank, seed))
            assert -1e-10 <= val <= 1 + 1e-10

    def test_non_real_raises(self, monkeypatch):
        monkeypatch.setattr(
            mq.reduction, "_flip_conjugate", lambda mat, m: 1j * np.eye(2**m)
        )
        with pytest.raises(ArithmeticError, match="non-real"):
            mq.tilde_overlap(mq.MixedState(2, np.eye(4, dtype=complex) / 4))
