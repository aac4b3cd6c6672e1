"""Pauli strings: representation, expectation values, and support enumeration.

Text notation: "XIYZ" means X on qubit 1, I on qubit 2, Y on qubit 3, Z on
qubit 4.  Internally a string is a pair of bit masks over the amplitude index
(qubit i sits at bit n-i, matching statekit's MSB-first convention):
x_mask marks bit flips (X and Y), z_mask marks (-1)^bit signs (Z and Y).
Y phase convention: sigma_y|0> = i|1>, sigma_y|1> = -i|0>.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import _kernels
from .statekit import MixedState, PureState

LETTERS = "IXYZ"
IMAG_TOL = 1e-10


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


def expectation_pure(psi, p):
    """<psi|P|psi>, guaranteed real in [-1, 1] for Hermitian Pauli strings."""
    _check_dims(psi.num_qubits, p)
    raw = (1j**p.num_y) * _kernels.expect_pure(psi.amplitudes, p.x_mask, p.z_mask)
    if not abs(raw.imag) < IMAG_TOL:
        raise ArithmeticError(f"non-real Pauli expectation: {raw!r}")
    return float(raw.real)


def expectation_mixed(rho, p):
    """tr(rho P), real within tolerance."""
    _check_dims(rho.num_qubits, p)
    raw = (1j**p.num_y) * _kernels.expect_mixed(rho.matrix, p.x_mask, p.z_mask)
    if not abs(raw.imag) < IMAG_TOL:
        raise ArithmeticError(f"non-real Pauli expectation: {raw!r}")
    return float(raw.real)


def apply_pure(p, psi):
    """P|psi> as a raw complex vector (unit norm, possibly a phase off |psi>)."""
    _check_dims(psi.num_qubits, p)
    return _kernels.apply_pure(psi.amplitudes, p.x_mask, p.z_mask, 1j**p.num_y)


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


def dense_matrix(p):
    """2^n x 2^n dense matrix of the string (test/oracle use; exponential)."""
    mats = {
        "I": np.eye(2, dtype=np.complex128),
        "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
        "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    }
    out = np.array([[1.0]], dtype=np.complex128)
    for c in p.letters:
        out = np.kron(out, mats[c])
    return out
