import numpy as np
import pytest

import mqinfo as mq
from mqinfo import statekit
from mqinfo.identities import MAX_TRIALS
from mqinfo.statekit import MixedState, PureState


class TestPureFromAmplitudes:
    def test_basis_state(self):
        st = mq.pure_from_amplitudes(1, [1, 0])
        assert np.allclose(st.amplitudes, [1, 0])

    def test_bell(self):
        s = 1 / np.sqrt(2)
        st = mq.pure_from_amplitudes(2, [s, 0, 0, s])
        assert np.allclose(st.amplitudes, [s, 0, 0, s])

    def test_renormalize(self):
        st = mq.pure_from_amplitudes(1, [3, 4], renormalize=True)
        assert np.allclose(st.amplitudes, [0.6, 0.8])

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4"):
            mq.pure_from_amplitudes(2, [1, 0])

    def test_zero_norm(self):
        with pytest.raises(ValueError, match="zero-norm"):
            mq.pure_from_amplitudes(1, [0, 0])

    def test_unnormalized_rejected_without_flag(self):
        with pytest.raises(ValueError, match="not normalized"):
            mq.pure_from_amplitudes(1, [3, 4])

    def test_ingestion_tolerance_is_generous(self):
        # off by 1e-7 in norm: accepted and snapped to exact unit norm
        st = mq.pure_from_amplitudes(1, [1 + 1e-7, 0])
        assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12


class TestNamedFamilies:
    def test_ghz3_indices(self, ghz3):
        s = 1 / np.sqrt(2)
        expected = np.zeros(8)
        expected[0] = expected[7] = s
        assert np.allclose(ghz3.amplitudes, expected)

    def test_w4_indices(self, w4):
        expected = np.zeros(16)
        expected[[1, 2, 4, 8]] = 0.5
        assert np.allclose(w4.amplitudes, expected)

    def test_basis_product(self):
        st = mq.make_named("basis-product", 2)
        assert np.allclose(st.amplitudes, [1, 0, 0, 0])

    def test_bell_wrong_size(self):
        with pytest.raises(ValueError):
            mq.make_named("bell-phi-plus", 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            mq.make_named("cluster", 4)

    @pytest.mark.parametrize("family", ["ghz", "w"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_real_nonnegative_amplitudes(self, family, n):
        st = mq.make_named(family, n)
        assert np.all(st.amplitudes.imag == 0)
        assert np.all(st.amplitudes.real >= 0)


class TestRandomPure:
    def test_deterministic(self):
        a = mq.random_pure(3, 42)
        b = mq.random_pure(3, 42)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_different_seeds_differ(self):
        assert not np.allclose(
            mq.random_pure(3, 1).amplitudes, mq.random_pure(3, 2).amplitudes
        )

    def test_normalized(self):
        for seed in range(5):
            st = mq.random_pure(2, seed)
            assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12

    def test_size_limit(self):
        with pytest.raises(ValueError):
            mq.random_pure(15, 0)


class TestRandomMixed:
    def test_rank_one_is_pure(self):
        rho = mq.random_mixed(2, 1, 7)
        assert abs(mq.purity(rho) - 1) < 1e-10

    def test_full_rank_invariants(self):
        rho = mq.random_mixed(2, 4, 7)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert evals.min() >= -1e-10
        assert abs(np.trace(rho.matrix) - 1) < 1e-10

    def test_rank_controls_spectrum(self):
        rho = mq.random_mixed(3, 2, 3)
        evals = np.linalg.eigvalsh(rho.matrix)
        assert np.sum(evals > 1e-12) == 2

    def test_deterministic(self):
        a = mq.random_mixed(2, 3, 9)
        b = mq.random_mixed(2, 3, 9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="rank"):
            mq.random_mixed(2, 5, 0)

    @pytest.mark.parametrize("ranks, seeds", [([1, 2, 3], [5]), ([1], [5, 6, 7])])
    def test_ranks_and_seeds_must_pair_up(self, ranks, seeds):
        with pytest.raises(ValueError, match="ranks for"):
            statekit.random_mixed_states(2, ranks, seeds)

    def test_empty_batches(self):
        stack = statekit.random_pure_stack(3, [])
        assert stack.shape == (0, 8) and stack.dtype == np.complex128
        assert statekit.random_mixed_states(2, [], []) == []


# seeds of 1, 1, 2, 3, 4, 5 and 7 32-bit entropy words
SEED_WORDS = [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5, 2**128 + 3, 2**200]


def _reference_pure(n, seed):
    """The amplitudes default_rng draws for ``random_pure``, drawn here."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def _reference_mixed(m, rank, seed):
    """The density matrix default_rng draws for ``random_mixed``, drawn here."""
    dim = 2**m
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim * rank) + 1j * rng.standard_normal(dim * rank)
    v /= np.linalg.norm(v)
    block = v.reshape(dim, rank)
    rho = block @ block.conj().T
    return 0.5 * (rho + rho.conj().T)


class TestBatchSeeding:
    """The batched seeding must draw exactly what np.random.default_rng draws."""

    def test_self_check_catches_a_wrong_route(self, monkeypatch):
        monkeypatch.setattr(statekit, "_PCG_MULT", statekit._PCG_MULT + 2)
        assert not statekit._batch_seeding_matches.__wrapped__()

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_pure_rows_match_default_rng(self, n):
        stack = statekit.random_pure_stack(n, SEED_WORDS)
        for seed, row in zip(SEED_WORDS, stack):
            assert np.array_equal(row, _reference_pure(n, seed))

    def test_word_counts_share_a_stack(self):
        seeds = [2**32 - 2, 2**32 + 1, 2**32 - 1, 2**32, 2**130, 3]
        stack = statekit.random_pure_stack(3, seeds)
        for seed, row in zip(seeds, stack):
            assert np.array_equal(row, _reference_pure(3, seed))

    def test_numpy_integer_seeds(self):
        seeds = [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**64 - 1), np.int8(3), True]
        stack = statekit.random_pure_stack(2, seeds)
        for seed, row in zip(seeds, stack):
            assert np.array_equal(row, _reference_pure(2, seed))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mixed_matches_default_rng(self, m):
        ranks = [(i % 2**m) + 1 for i in range(len(SEED_WORDS))]
        states = statekit.random_mixed_states(m, ranks, SEED_WORDS)
        for rank, seed, rho in zip(ranks, SEED_WORDS, states):
            ref = _reference_mixed(m, rank, seed)
            assert np.array_equal(rho.matrix, ref)
            assert np.array_equal(mq.random_mixed(m, rank, seed).matrix, ref)

    def test_fuzz_across_chunks_is_unchanged(self):
        # 1,100 trials at n = 4 are chunks of 512, 512 and 76 states; the worst
        # trials (552, 599, 984) lie in the second chunk
        summaries = mq.fuzz(mq.applicable("pure", 4), 4, 1100, 8)
        worst = {s["identity"]: s["worst_seed"] - 8 * MAX_TRIALS for s in summaries}
        assert worst == {"eq1b": 552, "eq14": 552, "eq20": 552, "eq12": 599, "eq26": 984}
        for s in summaries:
            assert np.array_equal(s["worst_state"].amplitudes, _reference_pure(4, s["worst_seed"]))

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: mq.random_pure(2, -1),
            lambda: statekit.random_pure_stack(2, [0, -5]),
            lambda: mq.random_mixed(2, 1, -1),
        ],
    )
    def test_negative_seed_keeps_numpy_error(self, draw):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            draw()

    def test_non_integer_seed_keeps_numpy_error(self):
        with pytest.raises(TypeError) as ours:
            mq.random_pure(2, 1.5)
        with pytest.raises(TypeError) as numpys:
            np.random.default_rng(1.5)
        assert str(ours.value) == str(numpys.value)

    def test_failed_self_check_takes_default_rng(self, monkeypatch):
        def forbidden(seeds):
            raise AssertionError("batch route used after a failed self-check")

        monkeypatch.setattr(statekit, "_batch_seeding_matches", lambda: False)
        monkeypatch.setattr(statekit, "_pcg_generators", forbidden)
        stack = statekit.random_pure_stack(4, SEED_WORDS)
        for seed, row in zip(SEED_WORDS, stack):
            assert np.array_equal(row, _reference_pure(4, seed))
        rho = mq.random_mixed(2, 3, 2**64)
        assert np.array_equal(rho.matrix, _reference_mixed(2, 3, 2**64))

    def test_batch_route_is_taken_on_this_numpy(self, monkeypatch):
        assert statekit._batch_seeding_matches()  # cached before numpy is patched

        def forbidden(seed=None):
            raise AssertionError("default_rng called on the batch route")

        monkeypatch.setattr(np.random, "default_rng", forbidden)
        statekit.random_pure_stack(3, [0, 2**32, 2**200])
        mq.random_mixed(2, 2, 7)


class TestDensityOf:
    def test_basis(self):
        rho = mq.density_of(mq.pure_from_amplitudes(1, [1, 0]))
        assert np.allclose(rho.matrix, np.diag([1, 0]))

    def test_bell_corners(self, bell):
        rho = mq.density_of(bell)
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.allclose(rho.matrix, expected)

    def test_trace_one(self):
        rho = mq.density_of(mq.random_pure(3, 5))
        assert abs(np.trace(rho.matrix) - 1) < 1e-12


class TestValidation:
    def test_non_hermitian_rejected(self):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            MixedState(1, mat)

    def test_stores_the_hermitian_part(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = mat[1, 0] = 0.49e-10j  # anti-Hermitian, inside HERM_TOL
        rho = MixedState(2, mat)
        assert np.array_equal(rho.matrix, np.eye(4) / 4)

    def test_trace_checked_before_the_hermitian_part_is_taken(self):
        # each diagonal entry passes HERM_TOL, but their imaginary parts add up
        mat = (np.eye(128) / 128).astype(complex) + 0.49e-10j * np.eye(128)
        with pytest.raises(ValueError, match="trace"):
            MixedState(7, mat)

    @pytest.mark.parametrize("m", [1, 4, 7])
    def test_exactly_hermitian_kept_bit_for_bit(self, m):
        rho = mq.random_mixed(m, 2, m)
        again = MixedState(m, rho.matrix)
        assert again.matrix.tobytes() == rho.matrix.tobytes()
        assert mq.state_to_json(mq.state_from_json(mq.state_to_json(rho))) == mq.state_to_json(rho)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            MixedState(1, np.diag([0.7, 0.7]))

    def test_non_psd_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            MixedState(1, np.diag([1.5, -0.5]))

    def test_pure_state_internal_norm_strict(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1 + 1e-9, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(1, np.array([bad, 0]))
        with pytest.raises(ValueError, match="finite"):
            mq.pure_from_amplitudes(1, [bad, 0], renormalize=True)
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            MixedState(1, mat)


class TestJsonSchema:
    def test_pure_round_trip_byte_identical(self):
        # a loaded vector within rounding of unit norm is not divided again
        for seed in range(200):
            st = mq.random_pure(3, seed)
            text = mq.state_to_json(st)
            back = mq.state_from_json(text)
            assert np.array_equal(st.amplitudes, back.amplitudes), seed
            assert mq.state_to_json(back) == text

    def test_mixed_round_trip(self):
        rho = mq.random_mixed(2, 3, 4)
        back = mq.state_from_json(mq.state_to_json(rho))
        assert np.allclose(rho.matrix, back.matrix, atol=0, rtol=0)

    def test_schema_fields(self):
        import json

        obj = json.loads(mq.state_to_json(mq.make_named("ghz", 2)))
        assert obj["kind"] == "pure"
        assert obj["n"] == 2
        assert len(obj["amplitudes"]) == 4
        assert obj["amplitudes"][0] == [0.70710678118654746, 0.0]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            mq.state_from_json('{"kind":"stabilizer"}')

    def test_file_round_trip(self, tmp_path):
        st = mq.make_named("w", 3)
        path = tmp_path / "w3.json"
        mq.save_state(st, path)
        assert np.array_equal(mq.load_state(path).amplitudes, st.amplitudes)

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"kind":"pure","n":1,"amplitudes":5}',
            '{"kind":"pure","n":1,"amplitudes":[["NaN",0],[0,0]]}',
            '{"kind":"pure","n":1,"amplitudes":[[NaN,0],[0,0]]}',
            '{"kind":"pure","n":1,"amplitudes":[[1,0],[0]]}',
            '{"kind":"pure","n":1,"amplitudes":[[1,0],[0,null]]}',
            '{"kind":"pure","n":"1","amplitudes":[[1,0],[0,0]]}',
            '{"kind":"pure","n":1.0,"amplitudes":[[1,0],[0,0]]}',
            '{"kind":"pure","n":1}',
            '{"kind":"mixed","m":true,"matrix":[[[1,0],[0,0]],[[0,0],[0,0]]]}',
            '{"kind":"mixed","m":1,"matrix":[[1,0],[0,0]]}',
            '{"kind":"mixed","m":1,"matrix":[[[Infinity,0],[0,0]],[[0,0],[0,0]]]}',
        ],
        ids=[
            "top-level-list", "amplitudes-number", "nan-string", "nan-literal", "ragged",
            "null-entry", "n-string", "n-float", "no-amplitudes", "m-bool", "flat-matrix",
            "inf-entry",
        ],
    )
    def test_mistyped_input_is_value_error(self, text):
        with pytest.raises(ValueError):
            mq.state_from_json(text)

    def test_loaded_matrix_is_validated(self):
        # a non-PSD matrix in valid JSON must be rejected on load
        text = (
            '{"kind":"mixed","m":1,"matrix":'
            '[[[1.5,0],[0,0]],[[0,0],[-0.5,0]]]}'
        )
        with pytest.raises(ValueError, match="PSD"):
            mq.state_from_json(text)
