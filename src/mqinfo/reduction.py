"""Partial traces, purities, and the spin-flip (time-reversal) transform.

Reduced matrices keep qubits in ascending original index.  The pure-state
partial trace contracts amplitudes directly (never forms the full density
matrix), and the all-subset purity pass derives small reduced matrices from
larger ones, which is what makes the fast path cheap.  The pass takes a
stack of states, one per row, and up to n = 8 runs several states through
each batch together.  It allocates one workspace per call and writes all
its own arrays into it, the gathered Schmidt blocks and their gather index
too, so a fresh process's first pass at n = 14 takes about 800 minor page
faults, not 220,000 (``BENCH_23.json``); numpy's ufunc iteration buffers
are still allocated per call.  From n = 11 up, where a batch's grams come to 2^21
complex multiply-adds or more, the batches run on several workers: the
calling thread, and threads started and joined within the call, each kept
to a CPU of its own.  There are as many as the CPUs the process may run on
divided by the threads BLAS runs a product on, so under OpenBLAS's default
of a thread per CPU the pass stays on the calling thread.  On a 2-CPU x86
host with one BLAS thread two workers ran the pass 1.3x faster at n = 11
and 1.5-1.9x at n = 12-14 (``BENCH_20.json``); n = 10, at 1.1x, stays on
one worker with every smaller n, so a pass of a few milliseconds or less
starts no thread.  ``partial_trace``, ``purity``, ``spin_flip`` and
``tilde_overlap`` on density matrices are no part of any check: they are
the tests' oracle for the purities and overlaps of the Pauli-spectrum route.
"""

import contextlib
import ctypes
import os
import threading
from functools import cache
from itertools import combinations

import numpy as np

from .pauli import IMAG_TOL
from .statekit import MixedState, PureState, _check_qubits


def _split_axes(n, keep):
    keep = _check_qubits(n, keep)
    keep_axes = [q - 1 for q in keep]
    env_axes = [a for a in range(n) if a not in keep_axes]
    return keep, keep_axes, env_axes


def _pure_block(psi, keep):
    """The checked ``keep`` and the amplitudes reshaped to (2^|keep|, 2^|env|)
    with kept qubits leading."""
    n = psi.num_qubits
    keep, keep_axes, env_axes = _split_axes(n, keep)
    tensor = psi.amplitudes.reshape((2,) * n)
    return keep, tensor.transpose(keep_axes + env_axes).reshape(2 ** len(keep), -1)


def partial_trace(source, keep):
    """Reduced density matrix over ``keep`` (1-based qubit indices)."""
    if isinstance(source, PureState):
        keep, block = _pure_block(source, keep)
        return MixedState(len(keep), block @ block.conj().T)

    m = source.num_qubits
    keep, keep_axes, env_axes = _split_axes(m, keep)
    k = len(keep)
    if k == m:
        return source
    tensor = source.matrix.reshape((2,) * (2 * m))
    perm = (
        keep_axes
        + env_axes
        + [m + a for a in keep_axes]
        + [m + a for a in env_axes]
    )
    t = tensor.transpose(perm).reshape(2**k, 2 ** (m - k), 2**k, 2 ** (m - k))
    return MixedState(k, np.einsum("iaja->ij", t))


def purity(rho):
    """tr(rho^2)."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def subset_purity(psi, keep):
    """tr(rho_keep^2) for a pure state, via the smaller Schmidt block."""
    _, block = _pure_block(psi, keep)
    dk, de = block.shape
    gram = block @ block.conj().T if dk <= de else block.conj().T @ block
    return float(np.sum(np.abs(gram) ** 2))


# amplitudes of the states pure_subset_purities stacks through one batch,
# and of the chunks of states the fuzz driver stacks
_BATCH_AMPLITUDES = 1 << 13
# (top, state) gram entries per batch, which the traces and purity sums
# share, and amplitudes gathered per gram call
_TRACE_ENTRIES = 1 << 15
# complex multiply-adds of one batch's grams from which the batches are
# spread over the CPUs (n >= 11); a smaller batch is too short a share
_SPREAD_MACS = 1 << 21


def _leading_run(axes):
    """How many of the axes 0, 1, 2, ... a sorted axis tuple starts with."""
    return next((i for i, a in enumerate(axes) if a != i), len(axes))


def _block_index(n, axes):
    """Amplitude indices of each axis tuple's digits, most significant first.

    ``axes`` is (T, k); row t of the (T, 2^k) result maps each k-bit number
    to the amplitude index its bits select along ``axes[t]``, axis a being
    bit n-1-a of an amplitude index.
    """
    k = axes.shape[1]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (1 << (n - 1 - axes)) @ bits.T


@cache
def _purity_plan(n):
    """How ``pure_subset_purities`` runs for n qubits, built once per n.

    Returns (batches, masks, stack, entries).  A top is a floor(n/2)-qubit
    subset, whose reduced matrix is a gram of its Schmidt block.  A batch
    holds as many (top, state) grams as fit ``_TRACE_ENTRIES`` entries:
    where one state's tops all fit, one batch holds them and ``stack``
    states share it (3 at n = 8), no more than keep one top's blocks within
    ``_BATCH_AMPLITUDES``; otherwise ``stack`` is 1 (8 tops a batch at
    n = 12).  Each batch is (rows, cols, levels, offset); ``rows | cols``
    indexes the amplitudes into its tops' Schmidt blocks, checked here to
    lie below 2^n, and ``offset`` counts the subsets of the batches before
    it, so a batch's purity sums are its own slice of a pass's.
    ``levels`` holds, per smaller subset size, (count, dim, groups); a group
    (parents, lo, hi) traces qubit q out of the first ``parents`` > 0
    matrices of the level above, lo = 2^(q-1) and hi being the dimensions
    of the factors before and after it.  ``masks`` gives every matrix's
    subset, batch after batch, and ``entries`` the most matrix entries one
    state takes in a batch: its grams, and after them the larger of its
    traced matrices and the gathered blocks and conjugates of one gram
    call, of as many tops as fit ``_TRACE_ENTRIES`` amplitudes.

    A subset holding qubits 1..r (not r+1) is the parent of one child per
    q <= r, the subset without qubit q, which holds 1..q-1 and not q.  With
    each level sorted by r, most first, the parents for q lead the level,
    and the children listed for q = k, ..., 1 come out sorted.
    """
    half = n // 2
    tops = [t for t in combinations(range(n), half) if half and (2 * half < n or t[0] == 0)]
    tops.sort(key=_leading_run, reverse=True)
    per_batch = max(1, _TRACE_ENTRIES >> 2 * half)
    step = min(per_batch, len(tops)) or 1
    stack = max(1, min(per_batch // max(1, len(tops)), _BATCH_AMPLITUDES >> n))
    rest = [[a for a in range(n) if a not in t] for t in tops]
    rows = _block_index(n, np.array(tops, dtype=np.intp).reshape(len(tops), half))[:, :, None]
    cols = _block_index(n, np.array(rest, dtype=np.intp).reshape(len(tops), n - half))[:, None, :]
    _check_gather(n, rows, cols)
    batches, masks, entries = [], [], 0
    for start in range(0, len(tops), step):
        level = subsets = tops[start : start + step]
        levels = []
        for k in range(half, 1, -1):
            runs = [_leading_run(s) for s in level]
            qs = range(k, 0, -1)
            groups = [(sum(r >= q for r in runs), 1 << (q - 1), 1 << (k - q)) for q in qs]
            level = [s[: q - 1] + s[q:] for q, g in zip(qs, groups) for s in level[: g[0]]]
            if not level:
                break
            levels.append((len(level), 1 << (k - 1), [g for g in groups if g[0]]))
            subsets = subsets + level
        batches.append((rows[start : start + step], cols[start : start + step], levels, len(masks)))
        masks += [sum(1 << a for a in s) for s in subsets]
        traced = sum(count * dim * dim for count, dim, _ in levels)
        gathered = 2 * min(len(batches[-1][0]), _TRACE_ENTRIES >> n) << n
        entries = max(entries, (len(batches[-1][0]) << 2 * half) + max(traced, gathered))
    return batches, np.array(masks, dtype=np.intp), stack, entries


def _check_gather(n, rows, cols):
    """Raise unless every ``rows | cols`` amplitude index lies in 0..2^n-1
    and each top's row and column bits are disjoint; the gram calls gather
    with ``np.take(mode="clip")``, which checks no index.  A negative index
    sets the bits from n up, as one of 2^n or more does."""
    row_bits = np.bitwise_or.reduce(rows, axis=(1, 2))
    col_bits = np.bitwise_or.reduce(cols, axis=(1, 2))
    if np.any(row_bits & col_bits) or np.any((row_bits | col_bits) >> n):
        raise ValueError(f"purity plan for n={n}: a gather index is out of range or overlaps")


@cache
def _openblas():
    """OpenBLAS's thread-count functions (get, set), found through numpy's
    core module, or (None, None) where numpy's BLAS cannot be asked."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None, None
    for get_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        set_name = get_name.replace("_get_", "_set_")
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, put = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None, None


def _blas_threads():
    """Threads numpy's BLAS runs one product on; 1 where it cannot be asked."""
    get = _openblas()[0]
    return max(1, get()) if get else 1


def _purity_workers(n):
    """Workers ``pure_subset_purities`` runs n-qubit batches on: 1 where a
    batch's grams come to fewer than ``_SPREAD_MACS`` complex multiply-adds,
    else the CPUs this process may run on, shared with the threads BLAS
    runs each gram on, and at most the plan's batches."""
    batches, _, stack, _ = _purity_plan(n)
    if len(batches) < 2 or stack * len(batches[0][0]) << n + n // 2 < _SPREAD_MACS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(len(batches), cpus // _blas_threads()))


def _on_workers(run, workers):
    """run(w) for w = 0, ..., workers - 1: w = 0 on the calling thread, each
    other on a thread joined before this returns; the first exception any
    of them raised is raised here.

    Thread w keeps to the w-th CPU (mod their count) of the caller's, where
    the platform lets it.  Left free, the scheduler kept a worker on the
    caller's CPU, as the two hand the interpreter lock back and forth, and
    two workers ran no faster than one.
    """
    cpus = sorted(os.sched_getaffinity(0)) if workers > 1 and hasattr(os, "sched_setaffinity") else []
    errors = []

    def guarded(w):
        try:
            if cpus:
                with contextlib.suppress(OSError):  # a CPU that went away: run unpinned
                    os.sched_setaffinity(0, {cpus[w % len(cpus)]})
            run(w)
        except BaseException as exc:
            errors.append(exc)

    started = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=guarded, args=(w,))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def pure_subset_purities(amps):
    """tr(rho_S^2) for every qubit subset S of each pure state in a stack.

    ``amps`` is a (B, 2^n) array of normalized amplitude vectors; the result
    is (B, 2^n), row b indexed by subset mask, bit (i-1) standing for qubit
    i, with entry 0, the empty set, equal to 1.  Only the |S| = floor(n/2)
    subsets (those holding qubit 1 when n is even) take a Schmidt-block
    gram of the amplitudes.  Every smaller subset's reduced matrix is its
    parent's partial trace over one qubit, the parent being S plus the
    lowest qubit S lacks, so each subset is reached once; the traces and
    the purity sums run one subset size at a time over a whole batch.  A
    larger subset takes its complement's purity (equal for a pure state),
    except the full set, whose tr(rho^2) = <psi|psi>^2 comes from the
    amplitudes, one ``vecdot`` over the stack, so a normalisation error
    stays visible.

    The states go through the batches of ``_purity_plan(n)`` in passes of
    at most ``stack`` states, whose sizes differ by at most one.  A gram
    call takes as many tops of every state of a pass as keep the largest
    pass within ``_TRACE_ENTRIES`` gathered amplitudes (a whole batch at
    n = 12).  Batch i runs on worker i mod W, W being
    ``_purity_workers(n)`` (1 below n = 11); worker 0 is the calling
    thread.  Each worker has its own region of one workspace allocated once
    per call, and every array a batch writes is a view into it: the grams
    first, then, during a gram call, the gather index, the gathered Schmidt
    blocks and their conjugates, and after the grams the traced matrices,
    which take that space over.  (numpy allocates its own iteration buffers
    for the index's ``bitwise_or`` and the traces' ``add``.)  Each batch
    writes the purity sums of its own slice.  Every row equals the
    one-state result bit for bit, whatever W.
    """
    count, dim = amps.shape
    n = dim.bit_length() - 1
    full = dim - 1
    batches, masks, stack, entries = _purity_plan(n)
    purities = np.empty((count, dim))
    purities[:, 0] = 1.0
    purities[:, full] = np.vecdot(amps, amps).real ** 2
    if not batches or not count:  # no states, or one qubit: only the empty and the full set
        return purities
    passes = -(-count // stack)
    bounds = [count * p // passes for p in range(passes + 1)]
    most = -(-count // passes)
    region = 2 * most * entries
    per_call = max(1, (_TRACE_ENTRIES >> n) // most)
    workers = _purity_workers(n)
    work = np.empty(workers * region + count * len(masks))
    sums = work[workers * region :]
    width = 1 << n // 2

    def run(w):
        mats_work = work[w * region : (w + 1) * region].view(np.complex128)
        for start, end in zip(bounds, bounds[1:]):
            states, b = amps[start:end], end - start
            for rows, cols, levels, offset in batches[w::workers]:
                grams = mats_work[: len(rows) * b * width * width].reshape(-1, width, width)
                gather = mats_work[grams.size :]
                for top in range(0, len(rows), per_call):
                    r, c = rows[top : top + per_call], cols[top : top + per_call]
                    shape = (b, len(r), r.shape[1], c.shape[2])
                    size = b * len(r) << n
                    blocks, conj = gather[:size].reshape(shape), gather[size : 2 * size].reshape(shape)
                    # the index sits where the conjugates go, read before they are written
                    index = gather[size:].view(np.intp)[: len(r) << n].reshape(shape[1:])
                    np.bitwise_or(r, c, out=index)
                    np.take(states, index, axis=1, out=blocks, mode="clip")  # indices checked by the plan
                    np.conjugate(blocks, out=conj)
                    # grams ordered (top, state), so a level's leading subsets
                    # are one slice for every state
                    out = grams[top * b : (top + len(r)) * b].reshape(len(r), b, width, width)
                    np.matmul(blocks, conj.swapaxes(2, 3), out=out.swapaxes(0, 1))
                mats, used = [grams], grams.size
                for subsets, side, groups in levels:
                    parent = mats[-1]
                    kids = mats_work[used : used + subsets * b * side * side].reshape(-1, side, side)
                    used += kids.size
                    kid = 0
                    for parents, lo, hi in groups:
                        t = parent[: parents * b].reshape(parents * b, lo, 2, hi, lo, 2, hi)
                        out = kids[kid : kid + parents * b].reshape(parents * b, lo, hi, lo, hi)
                        np.add(t[:, :, 0, :, :, 0], t[:, :, 1, :, :, 1], out=out)
                        kid += parents * b
                    mats.append(kids)
                at = start * len(masks) + offset * b
                for m in mats:
                    f = m.reshape(len(m), -1).view(np.float64)
                    np.vecdot(f, f, out=sums[at : at + len(m)])
                    at += len(m)

    _on_workers(run, workers)
    for start, end in zip(bounds, bounds[1:]):
        found = sums[start * len(masks) : end * len(masks)].reshape(-1, end - start).T
        purities[start:end, masks] = purities[start:end, full ^ masks] = found
    return purities


def _flip_conjugate(mat, m):
    dim = 2**m
    idx = np.arange(dim)
    flip = idx ^ (dim - 1)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx.astype(np.uint64)) & 1).astype(float)
    # (Y^m rho* Y^m)[a,b] = (-1)^(pc(a)+pc(b)) conj(rho[~a, ~b])
    return np.outer(signs, signs) * np.conj(mat[np.ix_(flip, flip)])


def spin_flip(rho):
    """Time-reversed density matrix (sigma_y^m) rho* (sigma_y^m); an involution."""
    return MixedState(rho.num_qubits, _flip_conjugate(rho.matrix, rho.num_qubits))


def tilde_overlap(rho):
    """tr(rho rho~) with rho~ the spin-flipped matrix; real, in [0, 1]."""
    tilde = _flip_conjugate(rho.matrix, rho.num_qubits)
    val = np.trace(rho.matrix @ tilde)
    if not abs(val.imag) < IMAG_TOL:
        raise ArithmeticError(f"non-real tilde overlap: {val!r}")
    return float(val.real)
