"""Partial traces, purities, and the spin-flip (time-reversal) transform.

Reduced matrices keep qubits in ascending original index.  The pure-state
partial trace contracts amplitudes directly (never forms the full density
matrix), and the all-subset purity pass derives small reduced matrices from
larger ones, which is what makes the fast path cheap.  The pass takes a
stack of states, one per row, and runs several small states through each
matrix product together.  ``partial_trace``, ``purity``, ``spin_flip`` and
``tilde_overlap`` on density matrices are no part of any check: they are
the tests' oracle for the purities and overlaps of the Pauli-spectrum route.
"""

from functools import cache
from itertools import combinations

import numpy as np

from .statekit import MixedState, PureState

IMAG_TOL = 1e-10


def _split_axes(n, keep):
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("empty keep set")
    if keep[0] < 1 or keep[-1] > n:
        raise ValueError(f"keep set {keep} outside qubit range 1..{n}")
    keep_axes = [q - 1 for q in keep]
    env_axes = [a for a in range(n) if a not in keep_axes]
    return keep, keep_axes, env_axes


def _pure_block(psi, keep):
    """Amplitudes reshaped to (2^|keep|, 2^|env|) with kept qubits leading."""
    n = psi.num_qubits
    keep, keep_axes, env_axes = _split_axes(n, keep)
    tensor = psi.amplitudes.reshape((2,) * n)
    block = tensor.transpose(keep_axes + env_axes).reshape(2 ** len(keep), -1)
    return block


def partial_trace(source, keep):
    """Reduced density matrix over ``keep`` (1-based qubit indices)."""
    if isinstance(source, PureState):
        block = _pure_block(source, keep)
        return MixedState(len(set(keep)), block @ block.conj().T)

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
    block = _pure_block(psi, keep)
    dk, de = block.shape
    gram = block @ block.conj().T if dk <= de else block.conj().T @ block
    return float(np.sum(np.abs(gram) ** 2))


# amplitudes gathered per batch of Schmidt blocks in pure_subset_purities;
# it also bounds the chunks of states the fuzz driver stacks
_BATCH_AMPLITUDES = 1 << 13


def _leading_run(axes):
    """How many of the axes 0, 1, 2, ... a sorted axis tuple starts with."""
    return next((i for i, a in enumerate(axes) if a != i), len(axes))


@cache
def _purity_plan(n):
    """How ``pure_subset_purities`` runs for n qubits, built once per n.

    Returns (batches, masks, stack).  Each batch is (rows, cols, levels).
    ``rows | cols`` indexes the amplitudes into the batch's Schmidt blocks,
    one per floor(n/2)-qubit subset.  ``levels`` holds, per smaller subset
    size, (count, dim, groups); a group (parents, lo, hi) traces qubit q out
    of the first ``parents`` matrices of the level above, lo = 2^(q-1) and
    hi being the dimensions of the factors before and after it.  ``masks``
    gives every matrix's subset, batch after batch.  ``stack`` is how many
    states go through the batches together: as many as keep all their
    Schmidt blocks within ``_BATCH_AMPLITUDES``, and at least one.

    A subset holding qubits 1..r (not r+1) is the parent of one child per
    q <= r, the subset without qubit q, which holds 1..q-1 and not q.  With
    each level sorted by r, most first, the parents for q lead the level,
    and the children listed for q = k, ..., 1 come out sorted.
    """
    half = n // 2
    tops = [t for t in combinations(range(n), half) if half and (2 * half < n or t[0] == 0)]
    tops.sort(key=_leading_run, reverse=True)
    index = np.arange(1 << n).reshape((2,) * n)
    step = max(1, _BATCH_AMPLITUDES >> n)
    batches, masks = [], []
    for start in range(0, len(tops), step):
        level = subsets = tops[start : start + step]
        blocks = np.array([
            index.transpose(t + tuple(a for a in range(n) if a not in t)).reshape(1 << half, -1)
            for t in level
        ])
        levels = []
        for k in range(half, 1, -1):
            runs = [_leading_run(s) for s in level]
            qs = range(k, 0, -1)
            groups = [(sum(r >= q for r in runs), 1 << (q - 1), 1 << (k - q)) for q in qs]
            level = [s[: q - 1] + s[q:] for q, g in zip(qs, groups) for s in level[: g[0]]]
            if not level:
                break
            levels.append((len(level), 1 << (k - 1), groups))
            subsets = subsets + level
        masks += [sum(1 << a for a in s) for s in subsets]
        batches.append((blocks[:, :, :1].copy(), blocks[:, :1, :].copy(), levels))
    stack = max(1, _BATCH_AMPLITUDES // max(1, len(tops) << n))
    return batches, np.array(masks, dtype=np.intp), stack


def pure_subset_purities(amps):
    """tr(rho_S^2) for every qubit subset S of each pure state in a stack.

    ``amps`` is a (B, 2^n) array of normalized amplitude vectors; the result
    is (B, 2^n), row b indexed by subset mask, bit (i-1) standing for qubit
    i, with entry 0, the empty set, equal to 1.  Only the |S| = floor(n/2)
    subsets (those holding qubit 1 when n is even) take a Schmidt-block
    gram of the amplitudes, a batch of blocks per matrix product.  Every
    smaller subset's reduced matrix is its parent's partial trace over one
    qubit, the parent being S plus the lowest qubit S lacks, so each subset
    is reached once; the traces run one subset size at a time over a whole
    batch.  A larger subset takes its complement's purity (equal for a pure
    state), except the full set, whose tr(rho^2) = <psi|psi>^2 comes from
    the amplitudes, one vdot per state, so a normalisation error stays
    visible.

    The states go through the batches of ``_purity_plan(n)`` several at a
    time, as many as keep all their Schmidt blocks within
    ``_BATCH_AMPLITUDES``; from n = 8 up one state's blocks fill that
    budget, so each state runs alone.  Every row equals the one-state
    result bit for bit.
    """
    count, dim = amps.shape
    n = dim.bit_length() - 1
    full = dim - 1
    batches, masks, step = _purity_plan(n)
    purities = np.empty((count, dim))
    purities[:, 0] = 1.0
    for row, vec in zip(purities, amps):
        row[full] = float(np.vdot(vec, vec).real) ** 2
    if not batches:  # one qubit: only the empty and the full set
        return purities
    for start in range(0, count, step):
        stack = amps[start : start + step]
        b = len(stack)
        vals = []
        for rows, cols, levels in batches:
            # blocks ordered (subset, state), so a level's leading subsets
            # are one slice for every state; no copy for a single state
            blocks = np.take(stack, rows | cols, axis=1).swapaxes(0, 1)
            blocks = np.ascontiguousarray(blocks).reshape(-1, *blocks.shape[2:])
            mats = [blocks @ blocks.conj().transpose(0, 2, 1)]
            for size, side, groups in levels:
                parent = mats[-1]
                kids = np.empty((size * b, side, side), dtype=np.complex128)
                at = 0
                for parents, lo, hi in groups:
                    t = parent[: parents * b].reshape(parents * b, lo, 2, hi, lo, 2, hi)
                    out = kids[at : at + parents * b].reshape(parents * b, lo, hi, lo, hi)
                    np.add(t[:, :, 0, :, :, 0], t[:, :, 1, :, :, 1], out=out)
                    at += parents * b
                mats.append(kids)
            vals += [np.vecdot(f, f) for f in (m.reshape(len(m), -1).view(np.float64) for m in mats)]
        vals = np.concatenate(vals).reshape(-1, b).T
        purities[start : start + b, masks] = purities[start : start + b, full ^ masks] = vals
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
