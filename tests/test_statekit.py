import re
import sys
import threading

import numpy as np
import pytest

import mqinfo as mq
from mqinfo import statekit
from mqinfo.identities import MAX_TRIALS, check
from mqinfo.reduction import subset_purity
from mqinfo.statekit import PSD_TOL, MixedState, PureState, _check_density

from conftest import density_with_min_eigenvalue


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


class TestQubitCount:
    # a bool or non-integral count would reach the JSON text or the chunk arithmetic
    @pytest.mark.parametrize("n", [True, 2.0, 3.0, "3", None])
    def test_non_integer_count_rejected(self, n):
        calls = (
            lambda: mq.random_pure(n, 0),
            lambda: PureState(n, np.eye(1, 8, dtype=np.complex128)[0]),
            lambda: mq.pure_from_amplitudes(n, np.eye(1, 4)[0]),
            lambda: MixedState(n, np.eye(2) / 2),
            lambda: mq.random_mixed(n, 1, 0),
            lambda: mq.fuzz(["eq1b"], n, 2, 0),
        )
        for call in calls:
            with pytest.raises(ValueError, match="^qubit count must be an integer, got "):
                call()

    def test_numpy_integer_count_stored_as_int(self):
        psi = mq.random_pure(np.int64(3), 0)
        assert type(psi.num_qubits) is int
        text = mq.state_to_json(psi)
        assert text.startswith('{"kind":"pure","n":3,')
        back = mq.state_from_json(text)
        assert back.num_qubits == 3 and np.array_equal(back.amplitudes, psi.amplitudes)
        rho = MixedState(np.uint8(1), np.eye(2) / 2)
        assert type(rho.num_qubits) is int
        assert mq.state_from_json(mq.state_to_json(rho)).num_qubits == 1
        summary = mq.fuzz(["eq1b"], np.int32(3), 2, 0)[0]
        assert type(summary["n"]) is int and type(summary["worst_state"].num_qubits) is int


def _qubit_entry_points():
    """Every public function that takes qubits, as call(q) on 4-qubit states:
    a set of qubits for each one but ``info_single`` and ``check``'s ``k``."""
    psi = mq.random_pure(4, 7)
    rho = mq.random_mixed(4, 2, 7)
    table = mq.all_infos_fast(psi)
    return {
        "partial_trace_pure": lambda q: mq.partial_trace(psi, q),
        "partial_trace_mixed": lambda q: mq.partial_trace(rho, q),
        "subset_purity": lambda q: subset_purity(psi, q),
        "strings_on_support": lambda q: mq.strings_on_support(4, q),
        "info_subset": lambda q: mq.info_subset(psi, q),
        "InfoTable.get": lambda q: table.get(q),
        "tau_linear_entropy": lambda q: mq.tau_linear_entropy(psi, q),
        "tau_linear_entropy_table": lambda q: mq.tau_linear_entropy(psi, q, table),
        "check_pair": lambda q: check("eq20", psi, pair=q),
        "info_single": lambda q: mq.info_single(psi, q),
        "check_k": lambda q: check("eq14", psi, k=q),
    }


_SINGLE_QUBIT = ("info_single", "check_k")
_NOT_QUBITS = [1.5, 2.0, True, None, "1", 0, 5]  # 5 is n + 1


def _bad_qubit_cases():
    """(entry, argument): each bad qubit alone or beside qubit 3, the empty
    set, and a bare int where a set is expected."""
    for entry in _qubit_entry_points():
        if entry in _SINGLE_QUBIT:
            arguments = _NOT_QUBITS + [()]
        else:
            arguments = [(3, q) for q in _NOT_QUBITS] + [(), 2]
        yield from (pytest.param(entry, q, id=f"{entry}-{q!r}") for q in arguments)


def _same(a, b):
    if isinstance(a, MixedState):
        return a.num_qubits == b.num_qubits and a.matrix.tobytes() == b.matrix.tobytes()
    return type(a) is type(b) and a == b


class TestQubitArguments:
    """One rule for qubit arguments: 1-based integers of 1..n, numpy integers
    accepted, bools, floats and anything else rejected with ValueError."""

    @pytest.mark.parametrize(("entry", "qubits"), list(_bad_qubit_cases()))
    def test_bad_qubits_raise_value_error(self, entry, qubits):
        call = _qubit_entry_points()[entry]
        with pytest.raises(ValueError):
            call(qubits)

    @pytest.mark.parametrize("entry", list(_qubit_entry_points()))
    def test_numpy_integers_give_bit_identical_results(self, entry):
        call = _qubit_entry_points()[entry]
        plain, numpy = (2, np.int64(2)) if entry in _SINGLE_QUBIT else ((3, 1), (np.int64(3), np.int64(1)))
        assert _same(call(numpy), call(plain))

    @pytest.mark.parametrize("family", statekit.NAMED_FAMILIES)
    @pytest.mark.parametrize("n", [2.0, -1, True, 15])
    def test_make_named_checks_its_count_first(self, family, n):
        with pytest.raises(ValueError, match="^qubit count "):
            mq.make_named(family, n)

    def test_sorted_distinct_ints_and_one_message(self):
        assert statekit._check_qubits(4, [np.int64(3), 1, 3]) == (1, 3)
        assert all(type(q) is int for q in statekit._check_qubits(4, np.array([4, 2])))
        with pytest.raises(ValueError, match=r"^qubit 5 outside 1\.\.4$"):
            statekit._check_qubits(4, [2, 5])


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

    @pytest.mark.parametrize("rank", [1.0, 2.5, True, "2", None])
    def test_non_integer_rank_rejected(self, rank):
        message = rf"^rank must be an integer, got {re.escape(repr(rank))}$"
        with pytest.raises(ValueError, match=message):
            mq.random_mixed(2, rank, 0)
        with pytest.raises(ValueError, match=message):
            statekit.random_mixed_stack(2, [1, rank], [0, 1])

    def test_numpy_integer_rank(self):
        rho = mq.random_mixed(2, np.int64(3), 9)
        assert rho.matrix.tobytes() == mq.random_mixed(2, 3, 9).matrix.tobytes()

    @pytest.mark.parametrize("ranks, seeds", [([1, 2, 3], [5]), ([1], [5, 6, 7])])
    def test_ranks_and_seeds_must_pair_up(self, ranks, seeds):
        with pytest.raises(ValueError, match="ranks for"):
            statekit.random_mixed_stack(2, ranks, seeds)

    def test_empty_batches(self):
        stack = statekit.random_pure_stack(3, [])
        assert stack.shape == (0, 8) and stack.dtype == np.complex128
        stack = statekit.random_mixed_stack(2, [], [])
        assert stack.shape == (0, 4, 4) and stack.dtype == np.complex128

    @pytest.mark.parametrize("m", range(1, 6))
    def test_stack_rows_are_random_mixed(self, m):
        ranks = list(range(1, 2**m + 1))
        seeds = [100 * m + rank for rank in ranks]
        stack = statekit.random_mixed_stack(m, ranks, seeds)
        assert stack.shape == (2**m, 2**m, 2**m)
        for rank, seed, mat in zip(ranks, seeds, stack):
            assert mat.tobytes() == mq.random_mixed(m, rank, seed).matrix.tobytes()
            assert mat.tobytes() == _reference_mixed(m, rank, seed).tobytes()


# seeds of 1, 1, 2, 3 and 4 32-bit entropy words take the batch route; seeds
# of 5 and 7 words take default_rng
BATCH_SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**96 + 5]
WIDE_SEEDS = [2**128 + 3, 2**200]
SEED_WORDS = BATCH_SEEDS + WIDE_SEEDS


def _forbidden(*args, **kwargs):
    raise AssertionError("seeds took the wrong route")


def _on_its_route(draw, seeds):
    """``draw(seeds)`` with the route these seeds must not take patched to
    raise: ``default_rng`` when every seed is below 2^128, else the batch route."""
    assert statekit._batch_seeding_matches()  # cached before numpy is patched
    with pytest.MonkeyPatch.context() as patch:
        if max(seeds) < 2**128:
            patch.setattr(np.random, "default_rng", _forbidden)
        else:
            patch.setattr(statekit, "_pcg_generators", _forbidden)
        return draw(seeds)


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

    def test_states_match_default_rng_after_a_buffered_draw(self):
        for rng, seed in zip(statekit._pcg_generators(BATCH_SEEDS), BATCH_SEEDS):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
            rng.integers(16, dtype=np.uint32)  # buffers the other half of a 64-bit draw
            assert rng.bit_generator.state["has_uint32"] == 1

    def _check_fallback(self, monkeypatch):
        """The self-check fails, and a batch of seeds draws default_rng's states."""
        assert not statekit._batch_seeding_matches.__wrapped__()
        monkeypatch.setattr(statekit, "_batch_seeding_matches", statekit._batch_seeding_matches.__wrapped__)
        stack = statekit.random_pure_stack(3, BATCH_SEEDS)
        for seed, row in zip(BATCH_SEEDS, stack):
            assert np.array_equal(row, _reference_pure(3, seed))

    def test_wrong_half_order_takes_default_rng(self, monkeypatch):
        seeds = statekit._pcg_seeds

        def high_first(words):  # the layout of a build that stores 128-bit words high first
            return [(s_hi, s_lo, i_hi, i_lo) for s_lo, s_hi, i_lo, i_hi in seeds(words)]

        monkeypatch.setattr(statekit, "_pcg_seeds", high_first)
        self._check_fallback(monkeypatch)

    @pytest.mark.parametrize("error", [AttributeError, OSError])
    def test_pcg64_without_ctypes_takes_default_rng(self, error, monkeypatch):
        class NoCtypes(np.random.PCG64):
            @property
            def ctypes(self):
                raise error("no ctypes interface")

        monkeypatch.setattr(np.random, "PCG64", NoCtypes)
        monkeypatch.setattr(statekit, "_IDLE_GENERATORS", [])
        self._check_fallback(monkeypatch)

    def test_open_calls_reseed_their_own_generators(self):
        first = statekit._pcg_generators(BATCH_SEEDS)
        second = statekit._pcg_generators(BATCH_SEEDS[::-1])
        for a, b, seed_a, seed_b in zip(first, second, BATCH_SEEDS, BATCH_SEEDS[::-1]):
            assert a is not b
            assert np.array_equal(a.standard_normal(8), np.random.default_rng(seed_a).standard_normal(8))
            assert np.array_equal(b.standard_normal(8), np.random.default_rng(seed_b).standard_normal(8))

    def test_a_finished_call_gives_its_generator_back(self, monkeypatch):
        built = []
        make = statekit._reseedable_generator

        def build():
            built.append(make())
            return built[-1]

        monkeypatch.setattr(statekit, "_IDLE_GENERATORS", [])
        monkeypatch.setattr(statekit, "_reseedable_generator", build)
        for n in (1, 3):
            for seeds in (BATCH_SEEDS, BATCH_SEEDS[:2]):
                stack = _on_its_route(lambda s: statekit.random_pure_stack(n, s), seeds)
                for seed, row in zip(seeds, stack):
                    assert np.array_equal(row, _reference_pure(n, seed))
        assert len(built) == 1 and statekit._IDLE_GENERATORS == built

    def test_threads_reseed_their_own_generators(self):
        # more threads than CPUs, switching every microsecond: a generator that
        # two open calls shared would give one of them another seed's state
        blocks = [[1000 * t + k for k in range(6)] for t in range(6)]
        expected = [np.array([_reference_pure(2, seed) for seed in block]) for block in blocks]
        wrong = []

        def draw(t):
            for _ in range(50):
                if not np.array_equal(statekit.random_pure_stack(2, blocks[t]), expected[t]):
                    wrong.append(t)

        assert statekit._batch_seeding_matches()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(t,)) for t in range(len(blocks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_second_seed_block_is_reseeded_by_its_own_call(self):
        # 4,098 seeds are a block of 4,096 and a block of 2, each batch-seeded
        # by its own _pcg_generators call, which takes the generator back up
        seeds = list(range(statekit._SEED_BLOCK + 2))
        stack = _on_its_route(lambda s: statekit.random_pure_stack(1, s), seeds)
        for seed in seeds[-4:]:
            assert np.array_equal(stack[seed], _reference_pure(1, seed))

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_pure_rows_match_default_rng(self, n):
        for seeds in (BATCH_SEEDS, WIDE_SEEDS):
            stack = _on_its_route(lambda s: statekit.random_pure_stack(n, s), seeds)
            for seed, row in zip(seeds, stack):
                assert np.array_equal(row, _reference_pure(n, seed))

    def test_word_counts_share_a_stack(self):
        # one seed of 2^128 or more sends the whole chunk to default_rng
        seeds = [2**96 + 1, 2**128 - 1, 2**128, 2**130, 3, 2**32]
        stack = _on_its_route(lambda s: statekit.random_pure_stack(3, s), seeds)
        for seed, row in zip(seeds, stack):
            assert np.array_equal(row, _reference_pure(3, seed))

    def test_numpy_integer_seeds(self):
        seeds = [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**64 - 1), np.int8(3), True]
        stack = _on_its_route(lambda s: statekit.random_pure_stack(2, s), seeds)
        for seed, row in zip(seeds, stack):
            assert np.array_equal(row, _reference_pure(2, seed))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mixed_matches_default_rng(self, m):
        for seeds in (BATCH_SEEDS, WIDE_SEEDS):
            ranks = [(i % 2**m) + 1 for i in range(len(seeds))]
            stack = _on_its_route(lambda s: statekit.random_mixed_stack(m, ranks, s), seeds)
            for rank, seed, matrix in zip(ranks, seeds, stack):
                ref = _reference_mixed(m, rank, seed)
                assert np.array_equal(matrix, ref)
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

    def test_batch_route_is_taken_on_this_numpy(self):
        _on_its_route(lambda s: statekit.random_pure_stack(3, s), [0, 2**32, 2**128 - 1])
        _on_its_route(lambda s: statekit.random_mixed_stack(2, [2, 1], s), [7, 8])

    @pytest.mark.parametrize("seed", SEED_WORDS)
    def test_one_seed_takes_default_rng(self, seed, monkeypatch):
        def forbidden(seeds):
            raise AssertionError("batch route used for a single seed")

        monkeypatch.setattr(statekit, "_pcg_generators", forbidden)
        assert np.array_equal(mq.random_pure(5, seed).amplitudes, _reference_pure(5, seed))
        assert np.array_equal(mq.random_mixed(2, 3, seed).matrix, _reference_mixed(2, 3, seed))


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


_MESSAGES = {
    "finite": "matrix entries must be finite (no NaN or inf)",
    "hermitian": "matrix is not Hermitian within tolerance",
    "trace": "matrix trace is not 1 within tolerance",
}


def _spoiled(m, how):
    """A maximally mixed matrix made to fail one check."""
    mat = np.eye(2**m, dtype=complex) / 2**m
    if how == "finite":
        mat[0, 0] = np.nan
    elif how == "hermitian":
        mat[0, 1] = 1e-3
    else:
        mat *= 1.01
    return mat


class TestStackedValidation:
    """``_check_density``: one Cholesky PSD test per stack, ``eigvalsh`` as the judge."""

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_just_inside_the_psd_gate_passes_without_eigvalsh(self, m, monkeypatch):
        mat = density_with_min_eigenvalue(m, -0.5 * PSD_TOL, m)
        assert np.linalg.eigvalsh(mat)[0] < 0

        def forbidden(a, UPLO="L"):
            raise AssertionError("eigvalsh ran although the factorisation succeeded")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert np.array_equal(MixedState(m, mat).matrix, mat)
        assert np.array_equal(_check_density(mat[None])[0], mat)

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_outside_the_psd_gate_keeps_the_eigvalsh_message(self, m):
        mat = density_with_min_eigenvalue(m, -2 * PSD_TOL, m)
        for check in (lambda: MixedState(m, mat), lambda: _check_density(mat[None])):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == "matrix not PSD: min eigenvalue -2.000e-10"

    def test_bad_matrix_inside_a_stack(self):
        stack = statekit.random_mixed_stack(3, [1, 2, 8, 4, 3], [1, 2, 3, 4, 5])
        assert _check_density(stack).shape == stack.shape
        stack[2] = density_with_min_eigenvalue(3, -2 * PSD_TOL)
        with pytest.raises(ValueError, match=r"^matrix not PSD: min eigenvalue -2\.000e-10$"):
            _check_density(stack)
        for how, message in _MESSAGES.items():
            stack[2] = _spoiled(3, how)
            with pytest.raises(ValueError) as exc:
                _check_density(stack)
            assert str(exc.value) == message

    @pytest.mark.parametrize("how", sorted(_MESSAGES))
    @pytest.mark.parametrize("m", [1, 4])
    def test_messages_unchanged(self, how, m):
        for check in (lambda: MixedState(m, _spoiled(m, how)), lambda: _check_density(_spoiled(m, how)[None])):
            with pytest.raises(ValueError) as exc:
                check()
            assert str(exc.value) == _MESSAGES[how]

    def test_empty_stack_passes(self):
        empty = np.empty((0, 8, 8), dtype=np.complex128)
        assert _check_density(empty).shape == (0, 8, 8)

    def test_returns_the_hermitian_parts(self):
        stack = statekit.random_mixed_stack(2, [2, 3], [0, 1])
        stack[1, 0, 1] += 0.4e-10j  # inside HERM_TOL
        herm = _check_density(stack)
        assert np.array_equal(herm, 0.5 * (stack + stack.conj().swapaxes(1, 2)))
        assert np.array_equal(herm[0], stack[0])


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
            "[" * 200000 + "]" * 200000,
        ],
        ids=[
            "top-level-list", "amplitudes-number", "nan-string", "nan-literal", "ragged",
            "null-entry", "n-string", "n-float", "no-amplitudes", "m-bool", "flat-matrix",
            "inf-entry", "deep-nesting",
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
