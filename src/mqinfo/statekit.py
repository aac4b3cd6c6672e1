"""Pure states and density matrices: construction, validation, named families,
seeded random generation, and the JSON wire format.

A density matrix is validated by ``_check_density``, one validator for a
single MixedState and for a drawn (B, d, d) stack: finite entries,
Hermiticity and trace are one array reduction each, and the PSD test is one
stacked Cholesky factorisation of H + PSD_TOL I.  Only when that fails does
``eigvalsh`` run, and it judges, so no matrix whose smallest eigenvalue is
at least -PSD_TOL is rejected.

Index convention: qubit 1 is the most significant bit of the basis index,
so |q1 q2 ... qn> maps to the integer q1*2^(n-1) + ... + qn.

``_check_qubit_count`` and ``_check_qubits`` are the package's only checks
of qubit arguments: a count is an integer in [1, limit], and a set of
qubits is a non-empty iterable of integers in 1..n.  Both accept numpy
integers and reject bools, floats and anything else with ValueError.

Random states draw what ``np.random.default_rng(seed)`` draws.  Seeds are
read in blocks of up to ``_SEED_BLOCK``, and a block of two or more integer
seeds in [0, 2^128) is seeded in one batch: numpy's ``SeedSequence`` hashes
each such seed as one four-word entropy pool, and that hashing (pool fill,
four all-pairs rounds, ``generate_state``) runs as uint32 array steps over
every seed at once; PCG64's 128-bit seeding (inc = 2 initseq + 1, state =
(inc + initstate) M + inc) gives each seed's starting state, which is
written as four 64-bit words into the C state of a PCG64 that calls reuse,
its buffered 32-bit word cleared (``_pcg_generators``).  A lone seed, a
block holding any other seed (negative, non-integer, or of 2^128 or more),
and every block when a one-time check finds that the batch route differs
from ``default_rng`` (a numpy whose seeding or PCG64 layout changed), go to
``default_rng`` itself.  A fuzz call draws all its chunks from one
``_Draws``, so its seeds are hashed a block at a time, not a chunk at a time.

A random density matrix is three steps per state: the draw, one
normalisation and one gram.  The normals are drawn into a buffer reused
across the stack and copied into the real and imaginary views of a reused
complex vector; the vector is divided by the norm ``np.linalg.norm`` takes,
the square root of the dots of those two views, and the gram is taken with
its conjugate in a third buffer.  The stack is then validated once, so
every drawn matrix passes ``_check_density`` exactly once; a fuzz witness is
a read-only copy of its validated row (``_from_validated``), not checked again.
"""

import ctypes
import itertools
import math
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


def _is_integer(x):
    """Whether ``x`` is an int or a numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_qubit_count(n, limit=MAX_QUBITS):
    """``n`` as an int; ValueError unless it is an integer (not a bool) in [1, limit]."""
    if not _is_integer(n):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if not (1 <= n <= limit):
        raise ValueError(f"qubit count {n} outside [1, {limit}]")
    return int(n)


def _check_qubits(n, qubits):
    """A non-empty set of 1-based qubits as a sorted tuple of distinct ints;
    ValueError unless each is an integer (not a bool) in 1..n."""
    if not np.iterable(qubits):
        raise ValueError(f"expected a set of qubits, got {qubits!r}")
    qubits = list(qubits)
    if not qubits:
        raise ValueError("empty qubit set")
    for q in qubits:
        if not _is_integer(q):
            raise ValueError(f"qubit must be an integer, got {q!r}")
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} outside 1..{n}")
    return tuple(sorted(set(map(int, qubits))))


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
        n = _check_qubit_count(self.num_qubits)
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got {amps.shape}")
        _check_normalized(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self):
        return 2**self.num_qubits


def _check_density(mats):
    """The Hermitian parts (M + M^dagger)/2 of a (B, d, d) stack of density
    matrices; ValueError unless every matrix is one.

    H + PSD_TOL I factorises when H's smallest eigenvalue is above -PSD_TOL,
    up to rounding; ``eigvalsh`` judges the stack only when it does not.
    The Hermitian part is built in the array that held M - M^dagger, and
    the shifted matrix in the one that held M's conjugate.
    """
    if not np.isfinite(mats).all():
        raise ValueError("matrix entries must be finite (no NaN or inf)")
    conj = np.conjugate(mats)  # a new array, also for a real stack
    adjoint = conj.swapaxes(-1, -2)
    herm = mats - adjoint
    if np.max(np.abs(herm), initial=0.0) > HERM_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    trace = np.trace(mats, axis1=-2, axis2=-1)
    trace_err = np.maximum(np.abs(trace.real - 1.0), np.abs(trace.imag))
    if np.max(trace_err, initial=0.0) > TRACE_TOL:
        raise ValueError("matrix trace is not 1 within tolerance")
    np.add(mats, adjoint, out=herm)
    herm *= 0.5
    try:
        np.linalg.cholesky(np.add(herm, PSD_TOL * np.eye(mats.shape[-1]), out=conj))
    except np.linalg.LinAlgError:
        for low in np.linalg.eigvalsh(herm)[:, 0]:
            if low < -PSD_TOL:
                raise ValueError(f"matrix not PSD: min eigenvalue {low:.3e}") from None
    return herm


@dataclass(frozen=True)
class MixedState:
    """Hermitian, PSD, trace-1 density matrix over ``num_qubits`` qubits.

    The Hermitian part (M + M^dagger)/2 is stored: sums of up to 2^m
    entries (the Pauli spectrum) would add up what HERM_TOL lets through.
    ``_check_density`` validates it; its PSD test is a Cholesky
    factorisation of rho + PSD_TOL I, with ``eigvalsh`` as the judge when
    the factorisation fails.
    """

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _check_qubit_count(self.num_qubits, MAX_MIXED_QUBITS)
        mat = np.ascontiguousarray(self.matrix, dtype=np.complex128)
        dim = 2**m
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        mat = _check_density(mat[None])[0]
        mat.flags.writeable = False
        object.__setattr__(self, "num_qubits", m)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self):
        return 2**self.num_qubits


def _from_validated(cls, n, row):
    """A PureState or MixedState (``cls``) of ``n`` qubits over a row of a
    stack that was checked like one, without checking it again: a read-only
    copy of the row, so the state keeps no stack alive."""
    data = row.copy()
    data.flags.writeable = False
    state = object.__new__(cls)
    object.__setattr__(state, "num_qubits", n)
    object.__setattr__(state, "amplitudes" if cls is PureState else "matrix", data)
    return state


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def pure_from_amplitudes(n, amps, renormalize=False):
    n = _check_qubit_count(n)
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
    n = _check_qubit_count(n)
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
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# seeds read and hashed at once: every chunk of a fuzz call of up to this
# many trials shares one hashing, and a longer call holds no more seeds
_SEED_BLOCK = 1 << 12


def _hash_constants(init, mult, steps):
    """(xor, multiplier) of each of ``steps`` hash steps: the running constant
    starts at ``init`` and is multiplied by ``mult`` between the two uses."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    return consts[:-1], consts[1:]


_STATE_CONSTANTS = _hash_constants(*_HASH_STATE, 2 * _POOL_SIZE)


def _pool_rounds():
    """The hash constants SeedSequence.mix_entropy uses on 4 seed words: the
    pool fill, then per all-pairs round one (xor, multiplier) for each of the
    4 destinations; a round leaves its source as is, so the pair at the
    source is unused."""
    xor, mult = _hash_constants(*_HASH_POOL, _POOL_SIZE * _POOL_SIZE)
    src = np.arange(_POOL_SIZE)[:, None]
    dst = np.arange(_POOL_SIZE)
    at = _POOL_SIZE + 3 * src + dst - (dst >= src)  # (round, destination)
    return (xor[:_POOL_SIZE], mult[:_POOL_SIZE]), list(zip(xor[at], mult[at]))


_POOL_FILL, _POOL_ROUNDS = _pool_rounds()


def _hashmix(values, xor, mult):
    values = values ^ xor
    values *= mult
    values ^= values >> _XSHIFT
    return values


def _pcg_seeds(words):
    """PCG64 (state, inc) of ``default_rng`` for each row of a (G, 4) uint32
    array of seed words (least significant first, zero-padded), as the four
    64-bit words (state low, state high, inc low, inc high)."""
    pool = _hashmix(words, *_POOL_FILL)
    for src, (xor, mult) in enumerate(_POOL_ROUNDS):
        hashed = _hashmix(pool[:, src:src + 1], xor, mult)
        hashed *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= hashed
        mixed ^= mixed >> _XSHIFT
        mixed[:, src] = pool[:, src]
        pool = mixed
    # SeedSequence.generate_state(4, np.uint64): the pool cycled into 8 words
    state = _hashmix(np.concatenate((pool, pool), axis=1), *_STATE_CONSTANTS)
    seeded = []
    for init_hi, init_lo, seq_hi, seq_lo in state.astype("<u4").view("<u8").tolist():
        # PCG64's seeding: inc = 2 initseq + 1, state = (inc + initstate) M + inc
        inc = ((seq_hi << 65) | (seq_lo << 1) | 1) & _MASK128
        initstate = (init_hi << 64) | init_lo
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        seeded.append((state & _MASK64, state >> 64, inc & _MASK64, inc >> 64))
    return seeded


# the _reseedable_generator triples that no open _pcg_generators call holds
_IDLE_GENERATORS = []


def _reseedable_generator():
    """A PCG64 Generator with ctypes views of the fields a reseed writes.

    numpy's ``pcg64_state`` (``ctypes.state_address``) is a pointer to the
    (state, inc) pair of 128-bit integers, stored low word first on a
    little-endian build, then ``has_uint32`` and ``uinteger``, the buffered
    half of a 64-bit draw.  ``_batch_seeding_matches`` checks this layout
    before the batch route is used."""
    bit_generator = np.random.PCG64(0)
    address = bit_generator.ctypes.state_address
    pair = (ctypes.c_uint64 * 4).from_address(ctypes.c_void_p.from_address(address).value)
    buffered = (ctypes.c_uint32 * 2).from_address(address + ctypes.sizeof(ctypes.c_void_p))
    return np.random.Generator(bit_generator), pair, buffered


def _pcg_generators(seeds):
    """Yield one Generator per int seed in [0, 2^128), in ``default_rng(seed)``'s
    starting state.  It is one Generator, reseeded: draw before advancing.

    A reseed writes the seed's four 64-bit words into PCG64's C state and
    clears the buffered word, so that none passes to the next seed; a state
    dict, which numpy parses, took about 1.4 us a seed against 0.2.  The
    Generator is taken from ``_IDLE_GENERATORS`` and put back when this
    iterator is closed or dropped, so a process builds one per concurrently
    open call: between a benchmark's operations a new PCG64 and its ctypes
    interface took about 100 us, more than the reseeds of 10 seeds save
    (``BENCH_24.json``)."""
    raw = b"".join(seed.to_bytes(4 * _POOL_SIZE, "little") for seed in seeds)
    words = np.frombuffer(raw, dtype="<u4").reshape(len(seeds), _POOL_SIZE)
    try:
        generator = _IDLE_GENERATORS.pop()
    except IndexError:
        generator = _reseedable_generator()
    rng, pair, buffered = generator
    try:
        for seeded in _pcg_seeds(words):
            pair[:] = seeded
            buffered[:] = (0, 0)
            yield rng
    finally:
        _IDLE_GENERATORS.append(generator)


@cache
def _batch_seeding_matches():
    """Whether the batch route gives each seed ``default_rng(seed)``'s whole
    PCG64 state, on seeds of 1, 2 and 4 words, the second and third reseeds
    following a 32-bit draw that leaves a buffered word; checked once per
    process."""
    seeds = [0, 2**32 + 7, 2**96 + 11]
    try:  # a PCG64 without the ctypes interface, or whose state layout changed
        for rng, seed in zip(_pcg_generators(seeds), seeds):
            if rng.bit_generator.state != np.random.default_rng(seed).bit_generator.state:
                return False
            rng.integers(16, dtype=np.uint32)
    except (AttributeError, KeyError, OSError, TypeError, ValueError):
        return False
    return True


def _seeded_generators(seeds):
    """For each seed in turn, a Generator that draws what
    ``np.random.default_rng(seed)`` draws; draw from it before taking the next.
    ``seeds`` is read lazily, ``_SEED_BLOCK`` seeds at a time, and each block
    is seeded as one batch where it can be."""
    seeds = iter(seeds)
    while block := list(itertools.islice(seeds, _SEED_BLOCK)):
        batch = len(block) > 1 and all(  # seeds of 128 bits or fewer hash as one 4-word pool
            isinstance(s, (int, np.integer)) and 0 <= s <= _MASK128 for s in block
        )
        if batch and _batch_seeding_matches():
            yield from _pcg_generators([int(s) for s in block])
        else:  # numpy's own route, and numpy's own errors for a bad seed
            for seed in block:
                yield np.random.default_rng(seed)


class _Draws:
    """Random states drawn in turn from one iterable of seeds, the states of
    ``random_pure`` and ``random_mixed`` bit for bit, as stacks checked like
    a PureState or MixedState but not wrapped in one.  Every stack drawn
    from one ``_Draws`` takes its seeds from the same ``_seeded_generators``,
    so a fuzz call's seeds are hashed a block at a time, not a chunk at a
    time."""

    def __init__(self, seeds):
        self._rngs = _seeded_generators(seeds)

    def pure(self, n, count):
        """(count, 2^n) amplitudes of the next ``count`` seeds' states."""
        n = _check_qubit_count(n)
        draws = np.empty((count, 2, 2**n))
        # the stack comes first, so zip takes no generator beyond it
        for row, rng in zip(draws, self._rngs):
            rng.standard_normal(out=row)  # the real parts, then the imaginary parts
        v = draws[:, 0] + 1j * draws[:, 1]
        # the norm np.linalg.norm takes of one complex vector, row by row
        norms = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
        stack = v / norms[:, None]
        _check_normalized(stack)
        return stack

    def mixed(self, m, ranks):
        """(len(ranks), 2^m, 2^m) density matrices of the next seeds' states,
        one of each rank: per state a draw, one normalisation and one gram,
        in buffers reused across the stack; the stack is validated once."""
        m = _check_qubit_count(m, MAX_MIXED_QUBITS)
        dim = 2**m
        for rank in ranks:
            if not _is_integer(rank):
                raise ValueError(f"rank must be an integer, got {rank!r}")
            if not (1 <= rank <= dim):
                raise ValueError(f"rank {rank} outside [1, {dim}]")
        stack = np.empty((len(ranks), dim, dim), dtype=np.complex128)
        size = dim * max(ranks, default=0)
        normals = np.empty(2 * size)
        vec, conj = np.empty((2, size), dtype=np.complex128)
        for out, rank, rng in zip(stack, ranks, self._rngs):
            k = dim * rank
            rng.standard_normal(out=normals[: 2 * k])  # the real parts, then the imaginary parts
            v = vec[:k]
            v.real, v.imag = normals[:k], normals[k : 2 * k]
            v /= math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))  # np.linalg.norm(v)
            block = v.reshape(dim, rank)
            np.matmul(block, np.conjugate(block, out=conj[:k].reshape(dim, rank)).T, out=out)
        return _check_density(stack)


def random_pure(n, seed):
    """Haar-random pure state: normalized i.i.d. standard complex Gaussian vector."""
    return PureState(n, random_pure_stack(n, [seed])[0])


def random_pure_stack(n, seeds):
    """Amplitudes of ``random_pure(n, seed)`` for each seed, as rows of a
    (len(seeds), 2^n) array, checked like a PureState but not wrapped in one."""
    return _Draws(seeds).pure(n, len(seeds))


def random_mixed(m, rank, seed):
    """Random density matrix of exact rank: partial trace of a Haar-random
    purification over an environment of dimension ``rank``."""
    return MixedState(m, random_mixed_stack(m, [rank], [seed])[0])


def random_mixed_stack(m, ranks, seeds):
    """Matrices of ``random_mixed(m, rank, seed)`` for each rank and seed, as a
    (len(seeds), 2^m, 2^m) stack, checked like a MixedState but not wrapped
    in one.  Each state has its own generator and its own block @ block^H:
    its normals drawn into one reused buffer, its vector normalised as
    ``np.linalg.norm`` would, and its gram taken once (``_Draws.mixed``);
    the stack is validated once."""
    if len(ranks) != len(seeds):
        raise ValueError(f"{len(ranks)} ranks for {len(seeds)} seeds")
    return _Draws(seeds).mixed(m, ranks)


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

    try:
        obj = json.loads(text)
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("state JSON is nested too deeply") from None
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
