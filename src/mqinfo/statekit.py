"""Pure states and density matrices: construction, validation, named families,
seeded random generation, and the JSON wire format.

Index convention: qubit 1 is the most significant bit of the basis index,
so |q1 q2 ... qn> maps to the integer q1*2^(n-1) + ... + qn.

Random states draw what ``np.random.default_rng(seed)`` draws.  A list of
non-negative integer seeds is seeded in one batch: numpy's own ``SeedSequence``
hashing (entropy pool and ``generate_state``) runs as uint32 array steps over
every seed at once, and PCG64's 128-bit seeding (inc = 2 initseq + 1, state =
(inc + initstate) M + inc) puts one PCG64 per call into each seed's state.
Any other seed, and every seed when a one-time check finds that the batch
route differs from ``default_rng`` (a numpy whose seeding changed), goes to
``default_rng`` itself.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

MAX_QUBITS = 14
MAX_MIXED_QUBITS = 7

NORM_TOL_INPUT = 1e-6
NORM_TOL_INTERNAL = 1e-12
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def _check_qubit_count(n, limit=MAX_QUBITS):
    if not (1 <= n <= limit):
        raise ValueError(f"qubit count {n} outside [1, {limit}]")


def _check_normalized(amps):
    """Raise ValueError unless every amplitude vector (last axis) is finite with norm 1."""
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite (no NaN or inf)")
    err = np.max(np.abs(np.linalg.norm(amps, axis=-1) - 1.0), initial=0.0)
    if err > NORM_TOL_INTERNAL:
        raise ValueError(f"state not normalized: |norm-1| = {err:.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``num_qubits`` qubits."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.num_qubits
        _check_qubit_count(n)
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
    """Hermitian, PSD, trace-1 density matrix over ``num_qubits`` qubits.

    The Hermitian part (M + M^dagger)/2 is stored: sums of up to 2^m
    entries (the Pauli spectrum) would add up what HERM_TOL lets through.
    """

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.num_qubits
        _check_qubit_count(m, MAX_MIXED_QUBITS)
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
        mat = 0.5 * (mat + mat.conj().T)
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
    _check_qubit_count(n)
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


# ---------------------------------------------------------------------------
# seeded random states
# ---------------------------------------------------------------------------
# The constants and steps of numpy's SeedSequence (a pool of 4 uint32 words)
# and of its PCG64 seeding, as default_rng(seed) runs them.

_POOL_SIZE = 4
_HASH_POOL = (0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A: seed words into the pool
_HASH_STATE = (0x8B51F9DD, 0x58F38DED)  # INIT_B, MULT_B: pool into generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)  # mix(x, y) = L x - R y
_XSHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init, mult, steps):
    """(xor, multiplier) of each of ``steps`` hash steps: the running constant
    starts at ``init`` and is multiplied by ``mult`` between the two uses."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


_STATE_CONSTANTS = _hash_constants(*_HASH_STATE, 2 * _POOL_SIZE)


@cache
def _mix_plan(words):
    """The hash constants SeedSequence.mix_entropy uses on ``words`` >= 4 seed
    words: the pool fill, then per round the source and one constant pair for
    each of the 4 destinations (an all-pairs round leaves its source as is)."""
    xor, mult = _hash_constants(*_HASH_POOL, _POOL_SIZE * words)
    fill = (xor[:_POOL_SIZE], mult[:_POOL_SIZE])
    rounds = []
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):  # each pool word into the three others
        at = [step + d - (d > src) if d != src else step for d in range(_POOL_SIZE)]
        rounds.append((src, xor[at], mult[at]))
        step += 3
    for src in range(_POOL_SIZE, words):  # each further seed word into all four
        rounds.append((src, xor[step:step + 4], mult[step:step + 4]))
        step += 4
    return fill, rounds


def _hashmix(values, xor, mult):
    values = values ^ xor
    values *= mult
    values ^= values >> _XSHIFT
    return values


def _pcg_seeds(words):
    """PCG64 (state, inc) of ``default_rng`` for each row of a (G, W >= 4)
    uint32 array of seed words (least significant first, zero-padded)."""
    fill, rounds = _mix_plan(words.shape[1])
    pool = _hashmix(words[:, :_POOL_SIZE], *fill)
    for src, xor, mult in rounds:
        source = pool if src < _POOL_SIZE else words
        hashed = _hashmix(source[:, src:src + 1], xor, mult)
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        if src < _POOL_SIZE:
            mixed[:, src] = pool[:, src]
        pool = mixed
    # SeedSequence.generate_state(4, np.uint64): the pool cycled into 8 words
    state = _hashmix(np.concatenate((pool, pool), axis=1), *_STATE_CONSTANTS)
    seeded = []
    for init_hi, init_lo, seq_hi, seq_lo in state.astype("<u4").view("<u8").tolist():
        # PCG64's seeding: inc = 2 initseq + 1, state = (inc + initstate) M + inc
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        initstate = (init_hi << 64) | init_lo
        seeded.append((((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc))
    return seeded


def _pcg_generators(seeds):
    """Yield one Generator per non-negative int seed, in ``default_rng(seed)``'s
    starting state.  It is one Generator, reseeded: draw before advancing."""
    by_words = {}  # seeds of up to 4 words hash as 4, zero-padded
    for i, seed in enumerate(seeds):
        by_words.setdefault(max(_POOL_SIZE, -(-seed.bit_length() // 32)), []).append(i)
    seeded = [None] * len(seeds)
    for words, at in by_words.items():
        raw = b"".join(seeds[i].to_bytes(4 * words, "little") for i in at)
        rows = np.frombuffer(raw, dtype="<u4").reshape(len(at), words)
        for i, pair in zip(at, _pcg_seeds(rows)):
            seeded[i] = pair
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in seeded:
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


@cache
def _batch_seeding_matches():
    """Whether the batch route draws what default_rng draws, on seeds of 1, 2
    and 5 words; checked once per process."""
    seeds = [0, 2**32 + 7, 2**130 + 11]
    try:
        draws = [rng.standard_normal(4) for rng in _pcg_generators(seeds)]
    except (KeyError, TypeError, ValueError):  # a PCG64 whose state layout changed
        return False
    return all(
        np.array_equal(draw, np.random.default_rng(seed).standard_normal(4))
        for draw, seed in zip(draws, seeds)
    )


def _seeded_generators(seeds):
    """For each seed in turn, a Generator that draws what
    ``np.random.default_rng(seed)`` draws; draw from it before taking the next."""
    seeds = list(seeds)
    if all(isinstance(s, (int, np.integer)) and s >= 0 for s in seeds) and _batch_seeding_matches():
        yield from _pcg_generators([int(s) for s in seeds])
    else:  # numpy's own route, and numpy's own errors for a bad seed
        for seed in seeds:
            yield np.random.default_rng(seed)


def random_pure(n, seed):
    """Haar-random pure state: normalized i.i.d. standard complex Gaussian vector."""
    return PureState(n, random_pure_stack(n, [seed])[0])


def random_pure_stack(n, seeds):
    """Amplitudes of ``random_pure(n, seed)`` for each seed, as rows of a
    (len(seeds), 2^n) array, checked like a PureState but not wrapped in one."""
    _check_qubit_count(n)
    draws = np.empty((len(seeds), 2, 2**n))
    for row, rng in zip(draws, _seeded_generators(seeds)):
        rng.standard_normal(out=row)  # the real parts, then the imaginary parts
    v = draws[:, 0] + 1j * draws[:, 1]
    # the norm np.linalg.norm takes of one complex vector, row by row
    norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    stack = v / norms[:, None]
    _check_normalized(stack)
    return stack


def random_mixed(m, rank, seed):
    """Random density matrix of exact rank: partial trace of a Haar-random
    purification over an environment of dimension ``rank``."""
    return random_mixed_states(m, [rank], [seed])[0]


def random_mixed_states(m, ranks, seeds):
    """``random_mixed(m, rank, seed)`` for each rank and seed, seeded together."""
    _check_qubit_count(m, MAX_MIXED_QUBITS)
    if len(ranks) != len(seeds):
        raise ValueError(f"{len(ranks)} ranks for {len(seeds)} seeds")
    dim = 2**m
    for rank in ranks:
        if not (1 <= rank <= dim):
            raise ValueError(f"rank {rank} outside [1, {dim}]")
    states = []
    for rank, rng in zip(ranks, _seeded_generators(seeds)):
        draws = rng.standard_normal((2, dim * rank))
        v = draws[0] + 1j * draws[1]
        v /= np.linalg.norm(v)
        block = v.reshape(dim, rank)
        states.append(MixedState(m, block @ block.conj().T))
    return states


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
