"""Partial traces, purities, and the spin-flip (time-reversal) transform.

Reduced matrices keep qubits in ascending original index.  The pure-state
partial trace contracts amplitudes directly (never forms the full density
matrix), and the all-subset purity pass derives small reduced matrices from
larger ones, which is what makes the fast path cheap.
"""

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
        rho = block @ block.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        return MixedState(len(set(keep)), rho)

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
    rho = np.einsum("iaja->ij", t)
    rho = 0.5 * (rho + rho.conj().T)
    return MixedState(k, rho)


def purity(rho):
    """tr(rho^2)."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def subset_purity(psi, keep):
    """tr(rho_keep^2) for a pure state, via the smaller Schmidt block."""
    block = _pure_block(psi, keep)
    dk, de = block.shape
    gram = block @ block.conj().T if dk <= de else block.conj().T @ block
    return float(np.sum(np.abs(gram) ** 2))


def pure_subset_purities(psi):
    """tr(rho_S^2) for every qubit subset S of a pure state, indexed by mask.

    Bit (i-1) of the index stands for qubit i; entry 0, the empty set, is 1.
    Only the |S| = floor(n/2) subsets (those holding qubit 1 when n is even)
    take a Schmidt-block gram of the amplitudes.  Every smaller subset's
    reduced matrix is its parent's partial trace over one qubit, the parent
    being S plus the lowest qubit S lacks; a depth-first walk reaches each
    subset once and keeps one chain of matrices alive.  A larger subset takes
    its complement's purity (equal for a pure state), except the full set,
    whose tr(rho^2) = <psi|psi>^2 comes from the amplitudes so a
    normalisation error stays visible.
    """
    n = psi.num_qubits
    full = (1 << n) - 1
    purities = np.empty(1 << n)
    purities[0] = 1.0
    purities[full] = float(np.vdot(psi.amplitudes, psi.amplitudes).real) ** 2

    def descend(subset, mask, rho):
        purities[mask] = purities[full ^ mask] = np.vdot(rho, rho).real
        k = len(subset)
        if k == 1:
            return
        # the children drop a qubit q while qubits 1..q all lie in S
        for pos, q in enumerate(subset):
            if q != pos + 1:
                break
            lo, hi = 2**pos, 2 ** (k - pos - 1)
            t = rho.reshape(lo, 2, hi, lo, 2, hi)
            child = (t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]).reshape(lo * hi, -1)
            descend(subset[:pos] + subset[pos + 1 :], mask & ~(1 << pos), child)

    half = n // 2
    for top in combinations(range(1, n + 1), half) if half else ():
        if 2 * half == n and top[0] != 1:
            continue
        block = _pure_block(psi, top)
        descend(top, sum(1 << (q - 1) for q in top), block @ block.conj().T)
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
