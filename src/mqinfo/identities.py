"""The paper's relations: the identity registry, its checkers, the fuzz driver.

``IDENTITIES`` is the one table of the relations, in output order: eq1b,
eq14, eq20, eq12, eq26 on pure states, then eq24, eq25, eq23 on density
matrices.  Each row describes its relation once (see ``Identity``): kind,
qubit counts, report label, cases, extra context, and the array function
and verdict that check a stack of states.  report, fuzz and mixed-check take
what they run from ``applicable``.  One private step, ``_evaluate``, checks
every relation on a stack of states; ``_check`` validates one state's case
and evaluates it.  ``check`` and each ``residual_*`` checker are one
``_check`` call, so each report is one public call, as mqbench's span
tracer counts one check per report a public function returns.  ``fuzz``
draws one seeded random state per trial, in chunks, one chunk path for both
kinds: a chunk is an array, an amplitude stack (pure) or a matrix stack
(mixed), its tables come from one ``info_values`` or ``spectrum_values``
call, and ``_evaluate`` checks the whole chunk at once; only a summary's
worst state is wrapped as a PureState or MixedState, from its chunk's
validated row and without validating it again.  Every chunk of a call is
drawn from one ``_Draws``, so the call's seeds are hashed once a block, not
once a chunk.  Checkers are pure
functions and reject a negative, infinite or NaN tolerance, a case with
other keys than the row's, a ``k`` outside 1..n, a bad ``pair`` and a table
of another qubit count.

eq14 (one qubit k vs the rest) and eq20 (a pair vs the rest) are one
relation, ``_partition_sides``, at parts of one and two qubits: its sum runs
over the subsets that cross the part, meeting it and its complement, which
for one qubit k are the subsets of size >= 2 that contain k.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .measures import (
    _readonly,
    _subset_to_mask,
    all_infos_fast,
    info_values,
    n_tangle,
    n_tangles,
    spectrum_values,
)
from .reduction import _BATCH_AMPLITUDES, pure_subset_purities
from .statekit import (
    MAX_MIXED_QUBITS,
    MAX_QUBITS,
    MixedState,
    PureState,
    _check_qubit_count,
    _check_qubits,
    _Draws,
    _from_validated,
    _is_integer,
)

EQ_TOL = 1e-9
INEQ_TOL = 1e-9
MIXED_PAIR_TOL = 1e-10  # the two-qubit spin-flip equality is gated tighter


@dataclass
class IdentityReport:
    identity: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_json_obj(self):
        return dict(vars(self))  # the fields in order; context is shared


# ---------------------------------------------------------------------------
# pure-state identities
# ---------------------------------------------------------------------------
# Each relation's arithmetic is one function over a stack of B states and
# some of its cases: values and purities are (B, 2^n) arrays indexed by
# subset mask (an InfoTable's, one row per state), amps the (B, 2^n)
# amplitudes, or for density matrices overlaps, tr(rho_S rho~_S) by mask;
# the result is the (B, cases) left- and right-hand sides, or (B,) for a
# row of one case.  A verdict function maps them to (score, margin or None,
# failed, gate), the largest score being the worst case.  ``_evaluate``
# runs them, on one state for ``check`` and on whole chunks for fuzz.

def _check_tol(tol, name="tol"):
    # an infinite or NaN tolerance would pass every check vacuously
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {tol}")


def _num_qubits(values):
    return values.shape[1].bit_length() - 1


def _tau(purities, subset):
    """Linear entropy 2(1 - tr rho_S^2) of subset mask ``subset``, per state."""
    return 2.0 * (1.0 - purities[:, subset])


@cache
def _crossing(n, parts):
    """A (parts, K) int16 index: per part mask, the masks of the subsets
    that meet the part and leave it, K = 2^n - 2^p - 2^(n-p) + 1 for p-qubit
    parts.  Read-only; built a row at a time, so no temporary outweighs it."""
    masks = np.arange(1 << n, dtype=np.int16)  # every mask is below 2^MAX_QUBITS
    p = parts[0].bit_count()
    index = np.empty((len(parts), (1 << n) - (1 << p) - (1 << n - p) + 1), dtype=np.int16)
    for row, part in zip(index, parts):
        inside = masks & part
        row[:] = masks[(inside != 0) & (inside != masks)]
    return _readonly(index)


# float64 entries per gather of _row_sums; a fuzz-n8 chunk's eq20 is one
_GATHER_ENTRIES = 1 << 16


def _row_sums(values, index):
    """Per state, the sum of ``values`` over each row of ``index``: (B, rows).
    The rows are gathered in blocks of at most ``_GATHER_ENTRIES`` entries
    (or one row), and each C-ordered block is summed as one (B * rows, K)
    array, which rounds as one state's 1-D sum does; the last axis of a 3-D
    gather may not."""
    index = np.atleast_2d(index)
    rows, width = index.shape
    step = max(1, _GATHER_ENTRIES // (len(values) * width))
    sums = np.empty((len(values), rows))
    for at in range(0, rows, step):
        gathered = np.take(values, index[at : at + step], axis=1)
        sums[:, at : at + step] = gathered.reshape(-1, width).sum(axis=1).reshape(len(values), -1)
    return sums


def _complementarity_sides(values, purities, amps, cases):
    n = _num_qubits(values)
    return values[:, 1:].sum(axis=1), np.full(len(values), float(n))


def _partition_sides(values, purities, amps, cases):
    """2^(p-1) (2^(n-2p) + 1) tau_P(rest) = the sum of I_S over S crossing P.

    It holds for every part P of p qubits of a pure state: 2^|S| tr rho_S^2
    sums the exact-support sums within S, and tr rho_P^2 = tr rho_{P^c}^2.
    A case's one value is its part, a qubit (eq14's ``k``) or a list of
    qubits (eq20's ``pair``); the parts share one size.
    """
    n = _num_qubits(values)
    qubits = [q if isinstance(q, list) else [q] for case in cases for q in case.values()]
    parts = tuple(map(_subset_to_mask, qubits))
    p = parts[0].bit_count()
    lhs = 2.0 ** (p - 1) * (2.0 ** (n - 2 * p) + 1.0) * _tau(purities, list(parts))
    return lhs, _row_sums(values, _crossing(n, parts))


def _tangle_relation_sides(values, purities, amps, cases):
    pair_sum = _row_sums(values, [3, 5, 6, 9, 10, 12])
    single_sum = _row_sums(values, [1, 2, 4, 8])
    return pair_sum - single_sum, 4.0 * (n_tangles(amps) - 1.0)


def _combination_sides(values, purities, amps, cases):
    # summed one by one, in the order the relation lists the taus
    single = _tau(purities, 1) + _tau(purities, 2) + _tau(purities, 4) + _tau(purities, 8)
    pair = _tau(purities, 3) + _tau(purities, 5) + _tau(purities, 9)
    return 5.0 * single - 4.0 * pair, values[:, 15]


def _equality_verdict(lhs, rhs, tol):
    res = np.abs(lhs - rhs)
    return res, None, ~(res <= tol), tol


def residual_complementarity(psi, table=None, tol=EQ_TOL):
    """Sum of every subset information value equals the qubit count."""
    return _check("eq1b", psi, table, tol)


def residual_single_partition(psi, k, table=None, tol=EQ_TOL):
    """(2^(n-2)+1) tau_k(rest) = sum of I_S over S containing k, |S| >= 2."""
    return _check("eq14", psi, table, tol, k=k)


def residual_pair_partition(psi, pair, table=None, tol=EQ_TOL):
    """2(2^(n-4)+1) tau_pair(rest) = sum of I_S over crossing subsets."""
    return _check("eq20", psi, table, tol, pair=pair)


def residual_tangle_relation_4q(psi, table=None, tol=EQ_TOL):
    """Pair-sum minus singleton-sum equals 4(tangle - 1) on four qubits."""
    return _check("eq12", psi, table, tol)


def residual_combination_4q(psi, table=None, tol=EQ_TOL):
    """5*sum of one-vs-rest taus minus 4*sum of pair-partition taus = I_1234."""
    return _check("eq26", psi, table, tol)


# ---------------------------------------------------------------------------
# mixed-state identities
# ---------------------------------------------------------------------------

def _mixed_pair_sides(values, purities, overlaps, cases):
    return purities[:, 1] + purities[:, 2] - purities[:, 3], 1.0 - overlaps[:, 3]


def _mixed_triple_sides(values, purities, overlaps, cases):
    # over the pairs (1, 2), (1, 3) and (2, 3)
    pair_purities = purities[:, 3] + purities[:, 5] + purities[:, 6]
    pair_overlaps = overlaps[:, 3] + overlaps[:, 5] + overlaps[:, 6]
    lhs = purities[:, 7] - 0.5 * (pair_purities + pair_overlaps) + 1.5
    return lhs, 1.0 - overlaps[:, 7]


def _mixed_pair_verdict(lhs, rhs, tol):
    # gated tighter than tol, and the corollary lhs <= 1 must hold as well
    gate = min(tol, MIXED_PAIR_TOL)
    res, margin = np.abs(lhs - rhs), 1.0 - lhs
    return res, margin, ~((res <= gate) & (margin >= -1e-12)), gate


def _mixed_triple_verdict(lhs, rhs, tol):
    # the left-hand side is nonnegative as well
    res = np.abs(lhs - rhs)
    return res, lhs, ~((res <= tol) & (lhs >= -INEQ_TOL)), tol


def _inequality_verdict(lhs, rhs, tol):
    # lhs <= rhs; the margin rhs - lhs must be >= -tol, and the worst case
    # is the smallest margin
    margin = rhs - lhs
    return -margin, margin, ~(margin >= -tol), tol


def residual_mixed_pair(rho, tol=MIXED_PAIR_TOL):
    """tr(rho_1^2) + tr(rho_2^2) - tr(rho_12^2) = 1 - tr(rho_12 rho~_12).

    The equality is gated at min(tol, MIXED_PAIR_TOL), the report's
    ``tolerance``.  The context carries the corollary margin 1 - lhs >= 0;
    ``passed`` requires both the equality and the corollary.
    """
    return _check("eq24", rho, None, tol)


def residual_mixed_triple(rho, tol=EQ_TOL):
    """Three-qubit purity/tilde combination equals 1 - tr(rho_123 rho~_123).

    Context carries the nonnegativity margin of the left-hand side.
    """
    return _check("eq25", rho, None, tol)


def mixed_total_info_margin(rho, tol=INEQ_TOL):
    """Total information of a density matrix is at most the qubit count."""
    return _check("eq23", rho, None, tol)


# ---------------------------------------------------------------------------
# the identity registry
# ---------------------------------------------------------------------------

def _single(n):
    return [{}]


def _each_qubit(n):
    return [{"k": k} for k in range(1, n + 1)]


def _each_pair(n):
    return [{"pair": list(pair)} for pair in itertools.combinations(range(1, n + 1), 2)]


@dataclass(frozen=True)
class Identity:
    """One of the paper's relations: the one registry row that describes it.

    ``applies(n)`` accepts the qubit counts it holds for; ``requirement``
    names them for errors.  ``cases(n)`` lists one state's cases, one
    report each, in order: ``{}``, ``{"k": k}`` or ``{"pair": [a, b]}``;
    each is its report's context and the keywords of ``check``.
    ``sides(values, purities, amps_or_overlaps, cases)`` gives the left-
    and right-hand sides of every case over a stack of states, and
    ``verdict(lhs, rhs, tol)`` their (score, margin or None, failed, gate),
    the largest score being the worst case: an equality's |residual|, an
    inequality's -margin.  ``label`` names the reports; ``context(state)``
    adds the row's own context (eq12's tangle).
    """

    kind: str
    applies: Callable[[int], bool]
    requirement: str
    label: str
    sides: Callable
    cases: Callable[[int], list] = _single
    verdict: Callable = _equality_verdict
    context: Callable = lambda state: {}


# Table order is output order.
IDENTITIES = {
    "eq1b": Identity(
        "pure", lambda n: True, "--n >= 1", "complementarity", _complementarity_sides,
    ),
    "eq14": Identity(
        "pure", lambda n: n >= 2, "--n >= 2", "single-partition", _partition_sides,
        cases=_each_qubit,
    ),
    "eq20": Identity(
        "pure", lambda n: n >= 4, "--n >= 4", "pair-partition", _partition_sides,
        cases=_each_pair,
    ),
    "eq12": Identity(
        "pure", lambda n: n == 4, "--n 4", "four-qubit-tangle", _tangle_relation_sides,
        context=lambda psi: {"tangle": n_tangle(psi)},
    ),
    "eq26": Identity(
        "pure", lambda n: n == 4, "--n 4", "four-qubit-combination", _combination_sides,
    ),
    "eq24": Identity(
        "mixed", lambda m: m == 2, "--m 2", "mixed-pair", _mixed_pair_sides,
        verdict=_mixed_pair_verdict,
    ),
    "eq25": Identity(
        "mixed", lambda m: m == 3, "--m 3", "mixed-triple", _mixed_triple_sides,
        verdict=_mixed_triple_verdict,
    ),
    # the total information is eq1b's sum, taken over a density matrix's table
    "eq23": Identity(
        "mixed", lambda m: True, "--m >= 1", "mixed-total-info", _complementarity_sides,
        verdict=_inequality_verdict,
    ),
}
PURE_IDENTITIES = tuple(k for k, v in IDENTITIES.items() if v.kind == "pure")
MIXED_IDENTITIES = tuple(k for k, v in IDENTITIES.items() if v.kind == "mixed")


def applicable(kind, n):
    """Names of the ``kind`` identities that apply to ``n`` qubits, in table order."""
    return [
        name for name, ident in IDENTITIES.items()
        if ident.kind == kind and ident.applies(n)
    ]


def _identity(name, n):
    """The registry row ``name``, checked to apply to ``n`` qubits."""
    ident = IDENTITIES.get(name)
    if ident is None:
        raise ValueError(f"unknown identity {name!r}")
    if not ident.applies(n):
        raise ValueError(f"{name} requires {ident.requirement}")
    return ident


def _evaluate(ident, arrays, cases, tol):
    """(lhs, rhs, score, margin, failed, gate) of row ``ident`` on a stack of states.

    ``arrays`` are the stack's tables and ``cases`` some of the row's
    cases.  The arrays are (B, cases): one row per state, one column per
    case; ``margin`` is None where the verdict gives none.
    """
    shape = len(arrays[0]), len(cases)
    lhs, rhs = (np.reshape(side, shape) for side in ident.sides(*arrays, cases))
    return lhs, rhs, *ident.verdict(lhs, rhs, tol)


def check(name, state, table=None, tol=EQ_TOL, **case):
    """The IdentityReport of identity ``name`` on one state, for one case.

    ``case`` is one of the row's ``cases(n)``: other keys than the row's, a
    ``k`` that is not an integer qubit of 1..n, or a ``pair`` that is not
    two distinct integer qubits of 1..n raise ValueError (a bool is not an
    integer here); qubits are taken as ints and a pair sorted.  ``table``, a
    pure state's InfoTable of n qubits, is computed when None and ignored for
    a density matrix.  The context holds the qubit count (``n`` or ``m``), the
    case, the row's own context and any ``margin``.
    """
    return _check(name, state, table, tol, **case)


def _check(name, state, table, tol, **case):
    """``check``'s body, one call per report of ``check`` and of each public checker.

    mqbench's tracer counts one identity check per IdentityReport a public
    function returns, so a public call reached through another counts twice.
    """
    n = state.num_qubits
    ident = _identity(name, n)
    if isinstance(state, PureState) != (ident.kind == "pure"):
        raise ValueError(f"{name} is a {ident.kind}-state identity")
    _check_tol(tol)
    keys = list(ident.cases(2)[0])  # every row has a case at n = 2
    if list(case) != keys:
        takes, got = (", ".join(names) or "no keys" for names in (keys, case))
        raise ValueError(f"{name} takes {takes}, got {got}")
    if "k" in case:
        (case["k"],) = _check_qubits(n, (case["k"],))
    if "pair" in case:
        given = case["pair"]
        try:
            pair = _check_qubits(n, given)
        except ValueError:
            pair = ()
        if len(pair) != 2:
            raise ValueError(f"bad pair {tuple(given) if np.iterable(given) else given} for n={n}")
        case["pair"] = list(pair)
    if ident.kind == "pure":
        table = table if table is not None else all_infos_fast(state)
        if table.num_qubits != n:
            raise ValueError(f"table of {table.num_qubits} qubits for a state of {n}")
        amps = state.amplitudes[None]
        purities = table.purities
        if purities is None:  # an oracle table carries none
            purities = pure_subset_purities(amps)[0]
        arrays = table.values[None], purities[None], amps
        context = {"n": n}
    else:
        arrays = spectrum_values(state.matrix[None])
        context = {"m": n}
    lhs, rhs, _, margin, failed, gate = _evaluate(ident, arrays, [case], tol)
    context.update(case, **ident.context(state))
    if margin is not None:
        context["margin"] = float(margin[0, 0])
    lhs, rhs = float(lhs[0, 0]), float(rhs[0, 0])
    return IdentityReport(ident.label, lhs, rhs, lhs - rhs, gate, not failed[0, 0], context)


# ---------------------------------------------------------------------------
# fuzz driver
# ---------------------------------------------------------------------------

MAX_TRIALS = 1_000_003


def derive_seed(base_seed, trial):
    """Per-trial seed; deterministic and collision-free for 0 <= trial < MAX_TRIALS."""
    return base_seed * MAX_TRIALS + trial


def _chunk(idents, n, draws, count, tol, ranks):
    """The next ``count`` states of ``draws`` (a ``_Draws``), and per identity
    its ``_evaluate`` arrays.

    The states are one array: an amplitude stack (``ranks`` None) or a
    stack of density matrices of the given ranks.
    """
    if ranks is None:
        states = draws.pure(n, count)
        arrays = (*info_values(states), states)
    else:
        states = draws.mixed(n, ranks)
        arrays = spectrum_values(states)
    return states, [_evaluate(ident, arrays, ident.cases(n), tol) for ident in idents]


def fuzz(names, n, trials, base_seed, tol=EQ_TOL, rank=None):
    """Run the named identities over seeded random states; one summary each.

    The names share one kind, and n is checked against that kind's qubit
    limit (``MAX_QUBITS`` or ``MAX_MIXED_QUBITS``).  Trial t draws one state from seed
    ``derive_seed(base_seed, t)``: a Haar-random pure state on n qubits, or a
    random density matrix on n qubits of rank ``rank`` (None cycles through
    every rank 1..2^n across trials).  The trials run in chunks of states
    holding at most ``_BATCH_AMPLITUDES`` amplitudes (matrix entries for a
    density matrix): one ``info_values`` or ``spectrum_values`` call gives
    every table of a chunk, and each identity's array function checks the
    whole chunk at once.  A chunk's states are one array, an amplitude or
    matrix stack, the states of ``random_pure``/``random_mixed`` bit for
    bit, and only a summary's worst state is built as a PureState or
    MixedState: a read-only copy of its validated row, not checked again.

    Each summary holds the largest violation ``max_residual`` (|residual|
    for an equality, max(0, lhs - rhs) for an inequality), the failure
    count, and the seed and state of the worst case (the first with the
    largest |residual|, or smallest margin), for witness files; ``tolerance``
    is the gate the checker applied.  Mixed summaries add ``rank`` and the
    smallest margin; the qubit count is ``n`` for pure and ``m`` for mixed.
    """
    idents = [_identity(name, n) for name in names]
    if len({ident.kind for ident in idents}) != 1:
        raise ValueError(f"fuzz needs identities of one kind, got {names!r}")
    if not _is_integer(trials):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    trials = int(trials)
    # more trials than MAX_TRIALS would reuse the next base seed's states
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    _check_tol(tol)
    pure = idents[0].kind == "pure"
    if pure and rank is not None:
        raise ValueError(f"rank applies to density matrices, not to {names!r}")
    n = _check_qubit_count(n, MAX_QUBITS if pure else MAX_MIXED_QUBITS)
    size = {"n": n} if pure else {"m": n, "rank": rank, "min_margin": None}
    summaries = [
        {"identity": name, **size, "trials": trials, "max_residual": 0.0, "failures": 0}
        for name in names
    ]
    worst = [None] * len(names)
    draws = _Draws(derive_seed(base_seed, t) for t in range(trials))
    chunk = max(1, _BATCH_AMPLITUDES >> (n if pure else 2 * n))
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        ranks = None if pure else [
            rank if rank is not None else t % 2**n + 1 for t in range(start, start + count)
        ]
        states, results = _chunk(idents, n, draws, count, tol, ranks)
        for i, (s, (_, _, score, margin, failed, gate)) in enumerate(zip(summaries, results)):
            # argmax takes the first of equal scores: the first strict maximum wins
            at = int(np.argmax(score))
            if worst[i] is None or score.flat[at] > worst[i]:
                worst[i] = score.flat[at]
                row = at // score.shape[1]
                s.update(worst_seed=derive_seed(base_seed, start + row), worst_state=states[row], tolerance=gate)
            s["max_residual"] = max(s["max_residual"], float(score.max()))
            s["failures"] += int(np.count_nonzero(failed))
            if margin is not None:
                low = float(margin.min())
                s["min_margin"] = low if s["min_margin"] is None else min(s["min_margin"], low)
    for s in summaries:
        s["worst_state"] = _from_validated(PureState if pure else MixedState, n, s["worst_state"])
        s["passed"] = s["failures"] == 0
    return summaries
