"""Pure states and density matrices: construction, validation, named families,
seeded random generation, and the JSON wire format.

Index convention: qubit 1 is the most significant bit of the basis index,
so |q1 q2 ... qn> maps to the integer q1*2^(n-1) + ... + qn.
"""

from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 14
MAX_MIXED_QUBITS = 7

NORM_TOL_INPUT = 1e-6
NORM_TOL_INTERNAL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def _check_normalized(amps):
    """Raise ValueError unless every amplitude vector (last axis) is finite with norm 1."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite (no NaN or inf)")
    err = np.max(np.abs(np.linalg.norm(amps, axis=-1) - 1.0))
    if err > NORM_TOL_INTERNAL:
        raise ValueError(f"state not normalized: |norm-1| = {err:.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.num_qubits
        if not (1 <= n <= MAX_QUBITS):
            raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got {amps.shape}")
        _check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self):
        return 2**self.num_qubits


@dataclass(frozen=True)
class MixedState:
    """Hermitian, PSD, trace-1 density matrix over ``num_qubits`` qubits."""

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.num_qubits
        if not (1 <= m <= MAX_MIXED_QUBITS):
            raise ValueError(f"qubit count {m} outside [1, {MAX_MIXED_QUBITS}]")
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = 2**m
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must be finite (no NaN or inf)")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise ValueError("matrix trace is not 1 within tolerance")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -PSD_TOL:
            raise ValueError(f"matrix not PSD: min eigenvalue {evals[0]:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self):
        return 2**self.num_qubits


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def pure_from_amplitudes(n, amps, renormalize=False):
    if not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    amps = np.asarray(amps, dtype=np.complex128)
    if amps.shape != (2**n,):
        raise ValueError(f"expected {2**n} amplitudes for n={n}, got shape {amps.shape}")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite (no NaN or inf)")
    norm = np.linalg.norm(amps)
    if norm == 0.0:
        raise ValueError("zero-norm amplitude vector")
    if not renormalize and abs(norm - 1.0) > NORM_TOL_INPUT:
        raise ValueError(
            f"amplitudes not normalized (|norm-1| = {abs(norm - 1.0):.3e}); "
            "pass renormalize=True to accept"
        )
    # a vector PureState accepts is kept as is, so saved states reload bit for bit
    if renormalize or abs(norm - 1.0) > NORM_TOL_INTERNAL:
        amps = amps / norm
    return PureState(n, amps)


NAMED_FAMILIES = ("ghz", "w", "basis-product", "bell-phi-plus")


def make_named(family, n):
    if family == "bell-phi-plus":
        if n != 2:
            raise ValueError("bell-phi-plus requires n = 2")
        family = "ghz"
    if family == "ghz":
        if n < 2:
            raise ValueError("ghz requires n >= 2")
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
        return PureState(n, amps)
    if family == "w":
        if n < 2:
            raise ValueError("w requires n >= 2")
        amps = np.zeros(2**n, dtype=np.complex128)
        for k in range(n):
            amps[1 << k] = 1.0 / np.sqrt(n)
        return PureState(n, amps)
    if family == "basis-product":
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[0] = 1.0
        return PureState(n, amps)
    raise ValueError(f"unknown family {family!r}; choose one of {NAMED_FAMILIES}")


def random_pure(n, seed):
    """Haar-random pure state: normalized i.i.d. standard complex Gaussian vector."""
    return PureState(n, random_pure_stack(n, [seed])[0])


def random_pure_stack(n, seeds):
    """Amplitudes of ``random_pure(n, seed)`` for each seed, as rows of a
    (len(seeds), 2^n) array, checked like a PureState but not wrapped in one."""
    if not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"qubit count {n} outside [1, {MAX_QUBITS}]")
    draws = np.empty((len(seeds), 2, 2**n))
    for row, seed in zip(draws, seeds):
        rng = np.random.default_rng(seed)
        rng.standard_normal(out=row[0])
        rng.standard_normal(out=row[1])
    v = draws[:, 0] + 1j * draws[:, 1]
    # the norm np.linalg.norm takes of one complex vector, row by row
    norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    stack = v / norms[:, None]
    _check_normalized(stack)
    return stack


def random_mixed(m, rank, seed):
    """Random density matrix of exact rank: partial trace of a Haar-random
    purification over an environment of dimension ``rank``."""
    if not (1 <= m <= MAX_MIXED_QUBITS):
        raise ValueError(f"qubit count {m} outside [1, {MAX_MIXED_QUBITS}]")
    dim = 2**m
    if not (1 <= rank <= dim):
        raise ValueError(f"rank {rank} outside [1, {dim}]")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim * rank) + 1j * rng.standard_normal(dim * rank)
    v /= np.linalg.norm(v)
    block = v.reshape(dim, rank)
    rho = block @ block.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return MixedState(m, rho)


def density_of(psi):
    """Outer product |psi><psi| as a MixedState."""
    return MixedState(psi.num_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
# pure:  {"kind":"pure","n":<int>,"amplitudes":[[re,im],...]}
# mixed: {"kind":"mixed","m":<int>,"matrix":[[[re,im],...],...]}  row-major
# Numbers are emitted with 17 significant digits (round-trip exact for float64).

def _fmt(x):
    return format(float(x), ".17g")


def _pair(z):
    return f"[{_fmt(z.real)},{_fmt(z.imag)}]"


def state_to_json(state):
    if isinstance(state, PureState):
        body = ",".join(_pair(a) for a in state.amplitudes)
        return f'{{"kind":"pure","n":{state.num_qubits},"amplitudes":[{body}]}}'
    if isinstance(state, MixedState):
        rows = ",".join(
            "[" + ",".join(_pair(z) for z in row) + "]" for row in state.matrix
        )
        return f'{{"kind":"mixed","m":{state.num_qubits},"matrix":[{rows}]}}'
    raise TypeError(f"not a state: {type(state)!r}")


def _count_field(obj, key):
    val = obj.get(key)
    if type(val) is not int:  # bool, float and str counts are rejected too
        raise ValueError(f"state field {key!r} must be an integer, got {val!r}")
    return val


def _complex_field(obj, key, ndim):
    """A field of nested lists of [re, im] number pairs, as a complex array."""
    try:
        arr = np.array(obj.get(key))
        ok = arr.dtype.kind in "iuf" and arr.ndim == ndim + 1 and arr.shape[-1] == 2
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise ValueError(f"state field {key!r} must hold [re, im] number pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def state_from_json(text):
    """Parse the wire format; any malformed or mistyped input is a ValueError."""
    import json

    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"state must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "pure":
        n = _count_field(obj, "n")
        return pure_from_amplitudes(n, _complex_field(obj, "amplitudes", 1))
    if kind == "mixed":
        m = _count_field(obj, "m")
        return MixedState(m, _complex_field(obj, "matrix", 2))
    raise ValueError(f"unknown state kind {kind!r}")


def save_state(state, path):
    with open(path, "w") as fh:
        fh.write(state_to_json(state))
        fh.write("\n")


def load_state(path):
    with open(path) as fh:
        return state_from_json(fh.read())
