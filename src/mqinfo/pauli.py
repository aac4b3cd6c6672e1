"""Pauli strings: representation, expectation values, support enumeration, and
the Pauli spectrum of a matrix.

Text notation: "XIYZ" means X on qubit 1, I on qubit 2, Y on qubit 3, Z on
qubit 4.  Internally a string is a pair of bit masks over the amplitude index
(qubit i sits at bit n-i, matching statekit's MSB-first convention):
x_mask marks bit flips (X and Y), z_mask marks (-1)^bit signs (Z and Y).
Y phase convention: sigma_y|0> = i|1>, sigma_y|1> = -i|0>.

``expectation_pure``/``expectation_mixed`` take one string at a time (the
per-string reference); ``pauli_spectrum`` gives all 4^m values at once, of
one matrix or of each in a stack.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

LETTERS = "IXYZ"
IMAG_TOL = 1e-10

# tr(M P) for P in I, X, Y, Z (rows) from the entries M00, M01, M10, M11
_PAULI_MAP = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])


@dataclass(frozen=True)
class PauliString:
    num_qubits: int
    letters: str
    x_mask: int = field(init=False)
    z_mask: int = field(init=False)
    num_y: int = field(init=False)

    def __post_init__(self):
        n = self.num_qubits
        if len(self.letters) != n:
            raise ValueError(f"expected {n} letters, got {len(self.letters)}")
        x = z = ny = 0
        for i, c in enumerate(self.letters):
            bit = 1 << (n - 1 - i)
            if c == "X":
                x |= bit
            elif c == "Y":
                x |= bit
                z |= bit
                ny += 1
            elif c == "Z":
                z |= bit
            elif c != "I":
                raise ValueError(f"bad Pauli letter {c!r} (want I, X, Y, or Z)")
        object.__setattr__(self, "x_mask", x)
        object.__setattr__(self, "z_mask", z)
        object.__setattr__(self, "num_y", ny)

    @property
    def support(self):
        """1-based qubit indices carrying a non-identity letter."""
        return tuple(i + 1 for i, c in enumerate(self.letters) if c != "I")

    def __str__(self):
        return self.letters


def _check_dims(state_qubits, p):
    if state_qubits != p.num_qubits:
        raise ValueError(
            f"dimension mismatch: state has {state_qubits} qubits, "
            f"Pauli string has {p.num_qubits}"
        )


def _real(raw):
    """Real part of Pauli expectations; raises if an imaginary part reaches IMAG_TOL."""
    worst = np.max(np.abs(np.imag(raw)))
    if not worst < IMAG_TOL:
        raise ArithmeticError(f"non-real Pauli expectation: imaginary part {worst!r}")
    return np.real(raw)


def _flip_and_signs(p):
    """(b ^ x_mask, (-1)^popcount(b & z_mask)) over every basis index b."""
    idx = np.arange(1 << p.num_qubits)
    return idx ^ p.x_mask, 1.0 - 2.0 * (np.bitwise_count(idx & p.z_mask) & 1)


def _expect_pure(amps, p):
    flip, signs = _flip_and_signs(p)
    return (1j**p.num_y) * np.vdot(amps[flip], signs * amps)


def _expect_mixed(matrix, p):
    flip, signs = _flip_and_signs(p)
    return (1j**p.num_y) * np.sum(matrix[np.arange(flip.size), flip] * signs)


def expectation_pure(psi, p):
    """<psi|P|psi>, guaranteed real in [-1, 1] for Hermitian Pauli strings."""
    _check_dims(psi.num_qubits, p)
    return float(_real(_expect_pure(psi.amplitudes, p)))


def expectation_mixed(rho, p):
    """tr(rho P), real within tolerance."""
    _check_dims(rho.num_qubits, p)
    return float(_real(_expect_mixed(rho.matrix, p)))


def apply_pure(p, psi):
    """P|psi> as a raw complex vector (unit norm, possibly a phase off |psi>)."""
    _check_dims(psi.num_qubits, p)
    flip, signs = _flip_and_signs(p)
    out = np.empty_like(psi.amplitudes)
    out[flip] = (1j**p.num_y) * signs * psi.amplitudes
    return out


def pauli_spectrum(matrix, m):
    """tr(M P) for all 4^m Pauli strings P of a Hermitian 2^m x 2^m matrix M.

    Entry k belongs to the string whose letter on qubit q is LETTERS[d_q],
    d_1 d_2 ... d_m being the base-4 digits of k (qubit 1 most significant).
    This is the tensorized Pauli decomposition: the matrix is viewed as one
    (row bit, column bit) axis pair per qubit, and ``_PAULI_MAP`` is applied
    along each pair in turn, O(m 4^m) work.  A (B, 2^m, 2^m) stack gives a
    (B, 4^m) array, each row equal to its matrix's spectrum bit for bit.
    Raises ArithmeticError if a value is not real within IMAG_TOL.
    """
    matrix = np.asarray(matrix)
    pairs = matrix.reshape((-1,) + (2,) * (2 * m))
    axes = [0] + [1 + a for q in range(m) for a in (q, m + q)]
    spec = pairs.transpose(axes).reshape(len(pairs), 4, -1)
    for _ in range(m):
        # map the leading qubit's axis, written straight to the back
        rotated = np.empty((len(pairs), spec.shape[2], 4), dtype=np.complex128)
        np.matmul(_PAULI_MAP, spec, out=rotated.swapaxes(1, 2))
        spec = rotated.reshape(len(pairs), 4, -1)
    return _real(spec.reshape(matrix.shape[:-2] + (-1,)))


def strings_on_support(n, subset):
    """All 3^|subset| Pauli strings with support exactly ``subset``.

    Emitted in lexicographic order over (qubit, letter) with X < Y < Z;
    this order is the normative reduction order for all sums.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("empty support subset")
    if subset[0] < 1 or subset[-1] > n:
        raise ValueError(f"subset {subset} outside qubit range 1..{n}")
    out = []
    for combo in product("XYZ", repeat=len(subset)):
        letters = ["I"] * n
        for q, c in zip(subset, combo):
            letters[q - 1] = c
        out.append(PauliString(n, "".join(letters)))
    return out
