"""Scalar measures: single-qubit and subset information values, their totals,
linear entropies, the even-n tangle, and two-qubit squared concurrence.

Subset encoding: a subset of qubits is a bitmask where bit (i-1) stands for
qubit i.  Tables are float64 arrays of length 2^n indexed by that mask; the
sorted tuple of 1-based indices is the I/O form.

Two routes exist for the information values:
  * the direct route evaluates the defining formula, a sum of squared
    Pauli-string expectations per exact support: one tensorized spectrum
    of |psi><psi| (or rho) gives all 4^n expectations, and one bincount
    over their support masks gives every exact-support sum.  It serves as
    the oracle and never touches the purity route;
  * the fast route takes one subset purity per complementary pair of
    subsets (tr rho_S^2 = tr rho_{S^c}^2 for a pure state), with only the
    floor(n/2)-qubit reduced matrices formed from the amplitudes and the
    smaller ones traced down from them, and recovers every exact-support
    sum with an in-place fast Moebius transform: n axis-wise subtractions
    over the 2^n purity array, O(n 2^n) work.  ``info_values`` runs it on
    a stack of states at once (the fuzz driver's chunks); ``all_infos_fast``
    is its one-state call.

For density matrices ``spectrum_values`` adds to the direct route's
exact-support sums A_T, by the zeta transform (the Moebius one's inverse,
in the same loop), every subset purity and spin-flip overlap, with no
partial trace: tr(rho_S^2) = 2^-|S| sum_{T within S} A_T, and, as the spin
flip negates every non-identity Pauli expectation, tr(rho_S rho~_S) =
2^-|S| sum_{T within S} (-1)^|T| A_T (Rains' constant shadow coefficient,
IEEE Trans. IT 45, 2361 (1999)).
"""

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations
from types import MappingProxyType

import numpy as np

from .pauli import expectation_pure, pauli_spectrum, strings_on_support
from .reduction import pure_subset_purities, subset_purity
from .statekit import MAX_MIXED_QUBITS


def _subset_to_mask(subset):
    mask = 0
    for q in subset:
        mask |= 1 << (q - 1)
    return mask


def _readonly(arr):
    arr.flags.writeable = False
    return arr


@cache
def subset_index(n):
    """(masks, sizes) over all 2^n subset masks of n qubits.

    ``masks`` is ``arange(2^n)`` and ``sizes`` the popcount of each mask, so
    "contains qubit k" or "has at least two qubits" are one vectorised bit
    test.  Built once per n and read-only.
    """
    masks = np.arange(1 << n)
    return _readonly(masks), _readonly(np.bitwise_count(masks))


@cache
def _support_masks(n):
    """Subset mask of each Pauli string's support, in ``pauli_spectrum`` order.

    Bit q-1 is set when qubit q carries a letter other than I.  Built once
    per n and read-only.
    """
    digits = np.arange(4**n)
    bits = ((((digits >> 2 * (n - q)) & 3) != 0) << (q - 1) for q in range(1, n + 1))
    return _readonly(sum(bits))


@cache
def _io_order(n):
    """Non-empty subsets in ascending (size, indices) order: (tuples, masks)."""
    qubits = range(1, n + 1)
    subsets = tuple(s for k in qubits for s in combinations(qubits, k))
    return subsets, _readonly(np.array([_subset_to_mask(s) for s in subsets]))


@dataclass(eq=False)
class InfoTable:
    """Information value I_S for every non-empty subset S of the qubits.

    ``values`` is a float64 array of length 2^n indexed by subset mask (bit
    i-1 set for each qubit i in S); ``values[0]``, the empty set, is 0.
    ``purities`` holds tr(rho_S^2) on the same index, ``purities[0]`` = 1,
    when the table was built from subset purities (the fast route), and is
    None otherwise.  Both arrays are made read-only.  ``entries`` is a
    read-only mapping from sorted 1-based index tuples to I_S, in ascending
    (size, indices) order.
    """

    num_qubits: int
    values: np.ndarray = field(repr=False)
    purities: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _readonly(self.values)
        if self.purities is not None:
            _readonly(self.purities)

    @cached_property
    def entries(self):
        subsets, masks = _io_order(self.num_qubits)
        return MappingProxyType(dict(zip(subsets, self.values[masks].tolist())))

    def get(self, subset):
        return self.entries[tuple(sorted(subset))]

    def subsets(self):
        """Subsets in ascending (size, indices) order."""
        return list(self.entries)

    def local_total(self):
        _, sizes = subset_index(self.num_qubits)
        return float(self.values[sizes == 1].sum())

    def nonlocal_total(self):
        _, sizes = subset_index(self.num_qubits)
        return float(self.values[sizes >= 2].sum())

    def to_json_obj(self):
        return {
            "n": self.num_qubits,
            "entries": [{"subset": list(s), "I": v} for s, v in self.entries.items()],
        }

    def to_csv_rows(self):
        """Rows (subset, size, I) with subset rendered as e.g. '1-2-3'."""
        return [("-".join(map(str, s)), len(s), v) for s, v in self.entries.items()]


# ---------------------------------------------------------------------------
# direct (enumeration) route
# ---------------------------------------------------------------------------

def info_single(psi, i):
    """I_i: sum of squared X/Y/Z expectations on qubit i."""
    if not (1 <= i <= psi.num_qubits):
        raise ValueError(f"qubit index {i} outside 1..{psi.num_qubits}")
    return sum(
        expectation_pure(psi, p) ** 2
        for p in strings_on_support(psi.num_qubits, (i,))
    )


def info_subset(psi, subset):
    """I_S for |S| >= 2: the 3^|S|-term squared-expectation sum, minus 1."""
    subset = tuple(sorted(set(subset)))
    if len(subset) < 2:
        raise ValueError(f"subset {subset} too small; need at least 2 qubits")
    f = sum(
        expectation_pure(psi, p) ** 2
        for p in strings_on_support(psi.num_qubits, subset)
    )
    return f - 1.0


def _subset_sums(f, n, op):
    """In place along the last axis of f, indexed by subset mask: np.add makes
    f(S) the sum of f(T) over T within S (zeta), np.subtract undoes it (Moebius)."""
    cube = f.reshape((-1,) + (2,) * n)
    for axis in range(1, n + 1):
        lead = (slice(None),) * axis
        op(cube[lead + (1,)], cube[lead + (0,)], out=cube[lead + (1,)])


def _infos(sums, n):
    """I_S = A_S - [|S| >= 2] from the exact-support sums A, in place; I of {} is 0."""
    _, sizes = subset_index(n)
    sums -= sizes >= 2
    sums[:, 0] = 0.0
    return sums


def _support_sums(matrices, n):
    """A_T = sum of tr(M P)^2 over the Pauli strings P supported exactly on T,
    for each M in a (B, 2^n, 2^n) stack: one bincount, row b indexed by mask T."""
    spectra = pauli_spectrum(matrices, n)
    count = len(spectra)
    bins = np.arange(count)[:, None] << n | _support_masks(n)
    sums = np.bincount(bins.ravel(), weights=(spectra**2).ravel(), minlength=count << n)
    return sums.reshape(count, 1 << n)


def _table_from_spectrum(matrix, n):
    """InfoTable of a state given as its 2^n x 2^n matrix, by the direct route."""
    return InfoTable(n, _infos(_support_sums(matrix[None], n), n)[0])


def all_infos_enumerated(psi):
    """Complete InfoTable via the direct route (the oracle).

    It forms the 2^n x 2^n matrix |psi><psi|, so like a density matrix it is
    limited to n <= MAX_MIXED_QUBITS.
    """
    if psi.num_qubits > MAX_MIXED_QUBITS:
        raise ValueError(f"enumeration oracle limited to n <= {MAX_MIXED_QUBITS}")
    amps = psi.amplitudes
    return _table_from_spectrum(np.outer(amps, amps.conj()), psi.num_qubits)


# ---------------------------------------------------------------------------
# fast route: subset purities + fast Moebius inversion
# ---------------------------------------------------------------------------

def info_values(amps):
    """I_S and tr(rho_S^2) of every pure state in a (B, 2^n) amplitude stack.

    Returns (values, purities), both (B, 2^n) with row b indexed by subset
    mask like an InfoTable.  For each subset S let G(S) = 2^|S| tr(rho_S^2),
    with G of the empty set equal to 1.  The Bloch decomposition of rho_S
    gives G(S) = sum of F(T) over T within S, F(T) being the sum of squared
    expectations of the Pauli strings supported exactly on T.  F is
    recovered by Moebius inversion, one in-place subtraction per qubit axis
    of G reshaped to (B,) + (2,)*n.  The purities come from
    ``pure_subset_purities``: one per complementary pair, taken on the side
    with |S| <= n/2, and the full set's from the amplitudes, so a
    normalisation error shows in the complementarity sum.  Each row equals
    the one-state result bit for bit.
    """
    n = amps.shape[1].bit_length() - 1
    purities = pure_subset_purities(amps)
    _, sizes = subset_index(n)
    f = np.ldexp(purities, sizes)
    _subset_sums(f, n, np.subtract)
    return _infos(f, n), purities


def all_infos_fast(psi):
    """Complete InfoTable from subset purities: ``info_values`` of one state."""
    values, purities = info_values(psi.amplitudes[None])
    return InfoTable(psi.num_qubits, values[0], purities[0])


def spectrum_values(matrices):
    """I_S, tr(rho_S^2) and tr(rho_S rho~_S) of each density matrix in a stack.

    ``matrices`` is (B, 2^m, 2^m); the result is (values, purities,
    overlaps), each (B, 2^m) with row b indexed by subset mask, ``values``
    rows equal to ``all_infos_mixed``'s bit for bit.  Both sums of the
    module docstring are one zeta transform, run on the two arrays together.
    """
    m = matrices.shape[1].bit_length() - 1
    sums = _support_sums(matrices, m)
    _, sizes = subset_index(m)
    zeta = np.stack((sums, sums * (1.0 - 2.0 * (sizes & 1))))
    _subset_sums(zeta, m, np.add)
    purities, overlaps = zeta * 0.5**sizes
    return _infos(sums, m), purities, overlaps


def all_infos_mixed(rho):
    """Complete InfoTable for a density matrix, via tr(rho P) expectations.

    The pure-state defining formulas are reused verbatim with mixed-state
    expectations; the total-information inequality is checked on these
    values, which ``spectrum_values`` gives for a stack of matrices.
    """
    return _table_from_spectrum(rho.matrix, rho.num_qubits)


def local_info(psi):
    """Sum of all single-qubit information values."""
    return sum(info_single(psi, i) for i in range(1, psi.num_qubits + 1))


def nonlocal_info(psi):
    """Sum of I_S over all subsets with at least two qubits."""
    table = all_infos_fast(psi)
    return table.nonlocal_total()


# ---------------------------------------------------------------------------
# linear entropies and tangles
# ---------------------------------------------------------------------------

def tau_linear_entropy(psi, subset, table=None):
    """2(1 - tr(rho_S^2)) for a proper non-empty subset S.

    Given a ``table`` of ``psi`` that carries subset purities (the fast
    route's), the purity is read from it instead of recomputed.
    """
    subset = tuple(sorted(set(subset)))
    if not subset:
        raise ValueError("empty subset")
    if len(subset) >= psi.num_qubits:
        raise ValueError("subset must be a proper subset of the qubits")
    if subset[0] < 1 or subset[-1] > psi.num_qubits:
        raise ValueError(f"subset {subset} outside qubit range 1..{psi.num_qubits}")
    if table is not None and table.purities is not None:
        pur = float(table.purities[_subset_to_mask(subset)])
    else:
        pur = subset_purity(psi, subset)
    return 2.0 * (1.0 - pur)


def n_tangles(amps):
    """|<psi| sigma_y^n |psi*>|^2 of every state in a (B, 2^n) stack, n even."""
    n = amps.shape[1].bit_length() - 1
    if n % 2 != 0:
        raise ValueError(f"n-tangle requires an even qubit count, got {n}")
    # sigma_y^n |b> = i^n (-1)^popcount(b) |~b>, and ~b reverses the index
    _, sizes = subset_index(n)
    sums = np.sum((1.0 - 2.0 * (sizes & 1)) * amps * amps[:, ::-1], axis=1)
    # scalar abs and ** round like a single state's value; numpy's array abs
    # and square differ from them in the last bit
    return np.array([abs(c) ** 2 for c in sums])


def n_tangle(psi):
    """|<psi| sigma_y^n |psi*>|^2 for even qubit count."""
    return float(n_tangles(psi.amplitudes[None])[0])


def concurrence_sq_2q(psi):
    """Squared concurrence 4|a0 a3 - a1 a2|^2 of a two-qubit pure state."""
    if psi.num_qubits != 2:
        raise ValueError("concurrence is defined here for exactly 2 qubits")
    a = psi.amplitudes
    return float(4.0 * abs(a[0] * a[3] - a[1] * a[2]) ** 2)
