import functools
import inspect
import os
import subprocess
import sys
import threading
from pathlib import Path

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
        offset, most = 0, 0
        for rows, cols, levels, at in batches:
            assert stack * len(rows) * gram <= reduction._TRACE_ENTRIES
            # after the grams, the traced matrices and, during a gram call,
            # its gathered blocks and their conjugates
            traced = sum(c * d * d for c, d, _ in levels)
            most = max(most, len(rows) * gram + max(traced, 2 * min(len(rows), reduction._TRACE_ENTRIES >> n) << n))
            assert all(parents > 0 for _, _, groups in levels for parents, _, _ in groups)
            # each batch's purity sums start where the last batch's end
            assert at == offset
            offset += len(rows) + sum(c for c, _, _ in levels)
        assert offset == len(masks)
        assert entries == most
        # each gram call of a full pass takes as many tops of every state as
        # fit the amplitude budget
        per_call = max(1, (reduction._TRACE_ENTRIES >> n) // stack)
        calls = []
        matmul = np.matmul

        def counted(a, b, **kwargs):
            calls.append(a.shape[:2])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(reduction.np, "matmul", counted)
        pure_subset_purities(random_pure_stack(n, range(stack)))
        want = [(stack, len(rows[top : top + per_call])) for rows, *_ in batches for top in range(0, len(rows), per_call)]
        assert sorted(calls) == sorted(want)  # the workers' calls interleave
        assert all(states * tops << n <= reduction._TRACE_ENTRIES for states, tops in calls)

    @pytest.mark.parametrize(("n", "calls"), [(4, 1), (5, 1), (7, 1), (8, 1), (9, 2), (11, 29), (12, 58), (13, 429), (14, 858)])
    def test_gram_calls_of_one_state(self, n, calls, monkeypatch):
        # a batch's tops in as few calls as the budget allows: one a batch at n = 12
        counted = []
        matmul = np.matmul

        def counting(a, b, **kwargs):
            counted.append(a.shape[1])
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(reduction.np, "matmul", counting)
        pure_subset_purities(random_pure_stack(n, [n]))
        assert len(counted) == calls
        assert sum(counted) == sum(len(rows) for rows, *_ in reduction._purity_plan(n)[0])

    @pytest.mark.parametrize("bad", ["out of range", "overlapping", "negative"])
    def test_bad_gather_index_raises_when_the_plan_is_built(self, bad, monkeypatch):
        block_index = reduction._block_index

        def broken(n, axes):
            # the cols, one entry of the last top's: 2^n, a bit of the top's, or -1
            index = block_index(n, axes)
            if axes.shape[1] > n // 2:
                top = min(set(range(n)) - set(axes[-1]))
                index[-1, -1] = {"out of range": 1 << n, "overlapping": index[-1, -1] | 1 << n - 1 - top, "negative": -1}[bad]
            return index

        monkeypatch.setattr(reduction, "_block_index", broken)
        with pytest.raises(ValueError, match=r"^purity plan for n=7: a gather index is out of range or overlaps$"):
            reduction._purity_plan.__wrapped__(7)

    @pytest.mark.parametrize(
        ("n", "tops", "stack"),
        [(7, 35, 14), (8, 35, 3), (9, 126, 1), (10, 32, 1), (11, 32, 1), (12, 8, 1), (13, 8, 1), (14, 2, 1)],
    )
    def test_batch_sizes(self, n, tops, stack):
        # from n = 11 up the plan is the one the two-budget rule gave
        batches, _, plan_stack, _ = reduction._purity_plan(n)
        assert (len(batches[0][0]), plan_stack) == (tops, stack)

    @pytest.mark.parametrize(("n", "count"), [(8, 10), (12, 1), (12, 2), (14, 1)])
    def test_one_workspace_per_call(self, n, count, monkeypatch):
        # numpy's buffered iteration gives a broadcast or strided ufunc call,
        # the index's bitwise_or and a trace's add, two input buffers of its
        # buffer size, 8192 entries; they run on 64 here, so that the bound
        # leaves no room for an array a gram call allocates
        peak, bound = _pass_peak_and_bound(n, count, monkeypatch, small_buffers=True)
        assert peak <= bound

    @pytest.mark.parametrize(("n", "count"), [(8, 10), (12, 1), (12, 2), (14, 1)])
    def test_one_workspace_and_numpy_buffers_per_call(self, n, count, monkeypatch):
        # what the pass allocates as it runs: the same bound, plus, per
        # worker, the two iteration buffers numpy gives a ufunc call at its
        # buffer size, of complex entries at most (a trace's add)
        peak, bound = _pass_peak_and_bound(n, count, monkeypatch)
        workers = reduction._purity_workers(n)
        assert peak <= bound + workers * 2 * np.getbufsize() * 16

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


def _pass_peak_and_bound(n, count, monkeypatch, small_buffers=False):
    """The peak tracemalloc sees in a warm ``pure_subset_purities`` call on
    ``count`` states at n, three CPUs, and the bound the pass's own arrays
    keep: the result, the masks' complements, and one workspace holding,
    per worker, the largest batch's matrices and one gram call's gather for
    the largest pass, and the purity sums of every state.  Nothing a gram
    call gathers is allocated apart; 16 KB a worker covers Python objects,
    array headers, the thread and the scatter of the sums.  With
    ``small_buffers`` numpy's ``add`` and ``bitwise_or`` run on iteration
    buffers of 64 entries, once the plan is built."""
    import tracemalloc

    _use_cpus(monkeypatch, 3)
    amps = random_pure_stack(n, range(count))
    batches, masks, stack, entries = reduction._purity_plan(n)
    workers = 3 if n >= 11 else 1
    assert reduction._purity_workers(n) == workers
    if small_buffers:
        for name in ("add", "bitwise_or"):
            monkeypatch.setattr(reduction.np, name, _small_buffers(getattr(np, name)))
    pure_subset_purities(amps)
    tracemalloc.start()
    try:
        pure_subset_purities(amps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    most = -(-count // -(-count // stack))
    workspace = (workers * most * 2 * entries + count * len(masks)) * 8
    return peak, workspace + workers * 16384 + (count << n) * 8 + len(masks) * 8


def _small_buffers(ufunc):
    """``ufunc`` run with numpy's iteration buffers at 64 entries."""

    def call(*args, **kwargs):
        size = np.setbufsize(64)
        try:
            return ufunc(*args, **kwargs)
        finally:
            np.setbufsize(size)

    return call


def _use_cpus(monkeypatch, cpus, blas_threads=1):
    """Make the process look as if it may run on ``cpus`` CPUs, with BLAS
    running each product on ``blas_threads`` threads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(reduction, "_blas_threads", lambda: blas_threads)


@pytest.fixture
def one_blas_thread():
    """numpy's OpenBLAS on one thread for the test, where it can be set:
    two BLAS threads beside the workers make large passes slow."""
    get, setter = reduction._openblas()
    if setter is None:
        yield
        return
    before = get()
    setter(1)
    try:
        yield
    finally:
        setter(before)


class TestParallelPass:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_rows_bit_identical_for_any_worker_count(self, n, monkeypatch, one_blas_thread):
        # stacks of 1, 2, 3 and 5 states (1 and 2 at n = 13 and 14, for time;
        # from n = 9 each pass holds one state, so 2 states already take two
        # passes), on 1-3 workers (from n = 11), with the batch and gather
        # budget at 2^13 and at its default: each row equals the one-state
        # row of one worker at the default
        sizes = (1, 2) if n >= 13 else (1, 2, 3, 5)
        states = random_pure_stack(n, range(10 * n, 10 * n + max(sizes)))
        _use_cpus(monkeypatch, 1)
        assert reduction._purity_workers(n) == 1
        want = np.concatenate([pure_subset_purities(states[i : i + 1]) for i in range(max(sizes))])
        default = reduction._TRACE_ENTRIES
        try:
            for budget in (1 << 13, default):
                with monkeypatch.context() as patch:
                    patch.setattr(reduction, "_TRACE_ENTRIES", budget)
                    reduction._purity_plan.cache_clear()
                    for cpus in (1, 2, 3) if n >= 11 else (1,):
                        _use_cpus(patch, cpus)
                        if budget == default:
                            assert reduction._purity_workers(n) == cpus
                        for size in sizes:
                            assert pure_subset_purities(states[:size]).tobytes() == want[:size].tobytes()
        finally:
            reduction._purity_plan.cache_clear()

    def test_more_workers_than_cpus_under_fast_switching(self, monkeypatch):
        # every batch writes its own slice of the sums; an overlap or a lost
        # write would show as a changed row
        pair = random_pure_stack(12, [5, 6])
        _use_cpus(monkeypatch, 1)
        want = pure_subset_purities(pair)
        _use_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert pure_subset_purities(pair).tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize(("n", "workers"), [(1, 1), (4, 1), (8, 1), (9, 1), (10, 1), (11, 2), (14, 2)])
    def test_workers_from_n_11(self, n, workers, monkeypatch):
        _use_cpus(monkeypatch, 2)
        assert reduction._purity_workers(n) == workers
        # at most one worker a batch
        _use_cpus(monkeypatch, 1000)
        assert reduction._purity_workers(n) == (len(reduction._purity_plan(n)[0]) if n >= 11 else 1)

    @pytest.mark.parametrize(("cpus", "blas_threads", "workers"), [(2, 2, 1), (3, 2, 1), (4, 2, 2), (8, 3, 2)])
    def test_workers_share_the_cpus_with_blas(self, cpus, blas_threads, workers, monkeypatch):
        _use_cpus(monkeypatch, cpus, blas_threads)
        assert reduction._purity_workers(12) == workers

    @pytest.mark.parametrize("threads", [1, 2])
    def test_blas_threads_are_asked(self, threads):
        code = (
            "from mqinfo import reduction\n"
            "print(reduction._openblas()[0] is not None, reduction._blas_threads())"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(reduction.__file__).parents[1]), env.get("PYTHONPATH", "")])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        asked, got = out.stdout.split()
        # a BLAS that cannot be asked counts as one thread
        assert int(got) == (threads if asked == "True" else 1)

    def _gram_threads(self, monkeypatch, fail_on=None):
        """Record the thread and the tops of every gram call; raise on
        ``fail_on``'s threads."""
        threads = []
        matmul = np.matmul

        def recorded(a, b, **kwargs):
            threads.append((threading.current_thread(), a.shape[1]))
            if fail_on is not None and fail_on(threads[-1][0]):
                raise RuntimeError("gram failed")
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(reduction.np, "matmul", recorded)
        return threads

    def test_batches_alternate_between_workers(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        threads = self._gram_threads(monkeypatch)
        before = threading.active_count()
        pure_subset_purities(random_pure_stack(12, [1]))
        assert threading.active_count() == before
        # one gram call a batch at n = 12, of all its tops, batch i on worker i mod 2
        tops = [len(rows) for rows, *_ in reduction._purity_plan(12)[0]]
        assert sorted(blocks for _, blocks in threads) == sorted(tops)
        assert sorted(blocks for t, blocks in threads if t is threading.main_thread()) == sorted(tops[::2])
        assert len({t for t, _ in threads}) == 2

    def test_each_worker_keeps_to_its_own_cpu(self, monkeypatch):
        # the machine's own CPUs: worker w on the w-th, the caller left as it was
        monkeypatch.setattr(reduction, "_blas_threads", lambda: 1)
        caller = os.sched_getaffinity(0)
        affinity = {}
        matmul = np.matmul

        def recorded(a, b, **kwargs):
            affinity[threading.current_thread()] = os.sched_getaffinity(0)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(reduction.np, "matmul", recorded)
        pure_subset_purities(random_pure_stack(12, [1]))
        assert os.sched_getaffinity(0) == caller
        assert affinity.pop(threading.main_thread()) == caller
        workers = reduction._purity_workers(12)
        assert sorted(map(sorted, affinity.values())) == [[cpu] for cpu in sorted(caller)[1:workers]]

    @pytest.mark.parametrize("where", ["worker", "caller", "everywhere"])
    def test_failure_reaches_caller_and_threads_end(self, where, monkeypatch):
        _use_cpus(monkeypatch, 3)
        main = threading.main_thread()
        fail_on = {
            "worker": lambda t: t is not main,
            "caller": lambda t: t is main,
            "everywhere": lambda t: True,
        }[where]
        threads = self._gram_threads(monkeypatch, fail_on)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="gram failed"):
            pure_subset_purities(random_pure_stack(12, [1]))
        assert threading.active_count() == before
        assert len({t for t, _ in threads}) == 3

    def test_public_functions_run_on_the_calling_thread(self, monkeypatch):
        # a span tracer rebinds every public mqinfo function and keeps one
        # span stack, so the workers must call numpy and private helpers only
        import mqinfo.cli  # noqa: F401  (its public functions are wrapped too)

        _use_cpus(monkeypatch, 2)
        calls = []

        def wrap(fn, name):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)

            return wrapper

        wrappers = {}
        modules = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "mqinfo"}
        for mod_name, module in modules.items():
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != mod_name or name.startswith("_"):
                    continue
                if inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if inspect.isfunction(val) and (not attr.startswith("_") or attr == "__post_init__"):
                            monkeypatch.setattr(obj, attr, wrap(val, f"{name}.{attr}"))
                elif callable(obj):
                    wrappers[id(obj)] = (obj, wrap(obj, name))
        for module in modules.values():
            for attr, val in list(vars(module).items()):
                if id(val) in wrappers and wrappers[id(val)][0] is val:
                    monkeypatch.setattr(module, attr, wrappers[id(val)][1])
        threads = self._gram_threads(monkeypatch)
        mq.all_infos_fast(mq.random_pure(12, 3))
        names = {name for name, _ in calls}
        assert {"random_pure", "all_infos_fast", "pure_subset_purities", "PureState.__post_init__"} <= names
        assert all(thread is threading.main_thread() for _, thread in calls)
        assert len({t for t, _ in threads}) == 2


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
