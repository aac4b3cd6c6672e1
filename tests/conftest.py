import numpy as np
import pytest

import mqinfo as mq

PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(letters):
    """Dense matrix oracle for a Pauli string, built by literal kron products."""
    out = np.array([[1.0 + 0j]])
    for c in letters:
        out = np.kron(out, PAULI_2X2[c])
    return out


def dense_expectation(psi, letters):
    return np.vdot(psi.amplitudes, dense_pauli(letters) @ psi.amplitudes)


@pytest.fixture
def bell():
    return mq.make_named("bell-phi-plus", 2)


@pytest.fixture
def ghz3():
    return mq.make_named("ghz", 3)


@pytest.fixture
def w3():
    return mq.make_named("w", 3)


@pytest.fixture
def ghz4():
    return mq.make_named("ghz", 4)


@pytest.fixture
def w4():
    return mq.make_named("w", 4)


def density_with_min_eigenvalue(m, low, seed=0):
    """Hermitian trace-1 matrix on m qubits, smallest eigenvalue ``low`` and
    the others equal, in a random eigenbasis."""
    d = 2**m
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    evals = np.full(d, (1.0 - low) / (d - 1))
    evals[0] = low
    mat = (u * evals) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)
