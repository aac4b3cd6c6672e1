"""The paper's relations: the identity registry, its checkers, the fuzz driver.

``IDENTITIES`` is the one table of the relations, in output order: eq1b,
eq14, eq20, eq12, eq26 on pure states, then eq24, eq25, eq23 on density
matrices.  Each row describes its relation once (see ``Identity``): kind,
qubit counts, report label, cases, extra context, and the array function
and verdict that check a stack of states.  report, fuzz and mixed-check take
what they run from ``applicable``.  One private step, ``_evaluate``, checks
every relation.  ``check`` calls it on one state and returns one
IdentityReport, and each report is exactly one public call, because
mqbench's span tracer counts one check per report a public function returns.
The ``residual_*`` checkers are calls of ``check``.  ``fuzz`` draws one
seeded random state per trial, in chunks, one chunk path for both kinds: a
chunk's tables come from one ``info_values`` (pure) or ``spectrum_values``
(mixed) call, and ``_evaluate`` checks the whole chunk at once.  Checkers
are pure functions, and reject a tolerance that is negative, infinite or NaN.

Conventions resolved here (fixed by the explicit small-n instances):
  * the one-vs-rest sum runs over all subsets containing qubit k with
    at least two elements;
  * the pair-vs-rest sum runs over all subsets of size >= 2 that intersect
    both the pair and its complement (crossing subsets).
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .measures import (
    _subset_to_mask,
    all_infos_fast,
    info_values,
    n_tangle,
    n_tangles,
    spectrum_values,
    subset_index,
)
from .reduction import _BATCH_AMPLITUDES, pure_subset_purities
from .statekit import (
    MAX_MIXED_QUBITS,
    MAX_QUBITS,
    PureState,
    _check_qubit_count,
    random_mixed_states,
    random_pure_stack,
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
# Each relation's arithmetic is one function over a stack of B states:
# values and purities are (B, 2^n) arrays indexed by subset mask (an
# InfoTable's, one row per state), amps the (B, 2^n) amplitudes, or for
# density matrices overlaps, tr(rho_S rho~_S) by mask; the result is the
# (B,) left- and right-hand sides.  A verdict function maps them to (score,
# margin or None, failed, gate), the largest score being the worst case.
# ``_evaluate`` runs them, on one state for ``check`` and on whole chunks
# for fuzz.

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
def _crossing(n, part):
    """Subsets that meet the qubits of mask ``part`` and leave them, as a mask.

    For one qubit these are the subsets of size >= 2 that contain it.
    """
    masks, _ = subset_index(n)
    inside = masks & part
    crossing = (inside != 0) & (inside != masks)
    crossing.flags.writeable = False
    return crossing


def _row_sums(values, mask):
    """Each row's sum over the masked columns, rounded as a 1-D sum would be.

    ``compress`` gives C-ordered rows; a boolean index ``values[:, mask]``
    would not, and numpy then sums column by column, which rounds
    differently from one state's sum.
    """
    return values.compress(mask, axis=1).sum(axis=1)


def _complementarity_sides(values, purities, amps):
    n = _num_qubits(values)
    return values[:, 1:].sum(axis=1), np.full(len(values), float(n))


def _single_partition_sides(values, purities, amps, k):
    n = _num_qubits(values)
    part = 1 << (k - 1)
    lhs = (2.0 ** (n - 2) + 1.0) * _tau(purities, part)
    return lhs, _row_sums(values, _crossing(n, part))


def _pair_partition_sides(values, purities, amps, pair):
    n = _num_qubits(values)
    part = _subset_to_mask(pair)
    lhs = 2.0 * (2.0 ** (n - 4) + 1.0) * _tau(purities, part)
    return lhs, _row_sums(values, _crossing(n, part))


def _tangle_relation_sides(values, purities, amps):
    _, sizes = subset_index(4)
    pair_sum = _row_sums(values, sizes == 2)
    single_sum = _row_sums(values, sizes == 1)
    return pair_sum - single_sum, 4.0 * (n_tangles(amps) - 1.0)


def _combination_sides(values, purities, amps):
    # summed one by one, in the order the relation lists the taus
    single = _tau(purities, 1) + _tau(purities, 2) + _tau(purities, 4) + _tau(purities, 8)
    pair = _tau(purities, 3) + _tau(purities, 5) + _tau(purities, 9)
    return 5.0 * single - 4.0 * pair, values[:, 15]


def _equality_verdict(lhs, rhs, tol):
    res = np.abs(lhs - rhs)
    return res, None, ~(res <= tol), tol


def residual_complementarity(psi, table=None, tol=EQ_TOL):
    """Sum of every subset information value equals the qubit count."""
    return check("eq1b", psi, table, tol)


def residual_single_partition(psi, k, table=None, tol=EQ_TOL):
    """(2^(n-2)+1) tau_k(rest) = sum of I_S over S containing k, |S| >= 2."""
    n = psi.num_qubits
    if not (1 <= k <= n):
        raise ValueError(f"qubit {k} outside 1..{n}")
    return check("eq14", psi, table, tol, k=k)


def residual_pair_partition(psi, pair, table=None, tol=EQ_TOL):
    """2(2^(n-4)+1) tau_pair(rest) = sum of I_S over crossing subsets."""
    n = psi.num_qubits
    pair = tuple(sorted(set(pair)))
    if len(pair) != 2 or pair[0] < 1 or pair[1] > n:
        raise ValueError(f"bad pair {pair} for n={n}")
    return check("eq20", psi, table, tol, pair=list(pair))


def residual_tangle_relation_4q(psi, table=None, tol=EQ_TOL):
    """Pair-sum minus singleton-sum equals 4(tangle - 1) on four qubits."""
    return check("eq12", psi, table, tol)


def residual_combination_4q(psi, table=None, tol=EQ_TOL):
    """5*sum of one-vs-rest taus minus 4*sum of pair-partition taus = I_1234."""
    return check("eq26", psi, table, tol)


# ---------------------------------------------------------------------------
# mixed-state identities
# ---------------------------------------------------------------------------

def _mixed_pair_sides(values, purities, overlaps):
    return purities[:, 1] + purities[:, 2] - purities[:, 3], 1.0 - overlaps[:, 3]


def _mixed_triple_sides(values, purities, overlaps):
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
    return check("eq24", rho, tol=tol)


def residual_mixed_triple(rho, tol=EQ_TOL):
    """Three-qubit purity/tilde combination equals 1 - tr(rho_123 rho~_123).

    Context carries the nonnegativity margin of the left-hand side.
    """
    return check("eq25", rho, tol=tol)


def mixed_total_info_margin(rho, tol=INEQ_TOL):
    """Total information of a density matrix is at most the qubit count."""
    return check("eq23", rho, tol=tol)


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
    names them for errors.  ``sides(values, purities, amps_or_overlaps,
    **case)`` gives the (B,) left- and right-hand sides over a stack of
    states, and ``verdict(lhs, rhs, tol)`` their (score, margin or None,
    failed, gate), the largest score being the worst case: an equality's
    |residual|, an inequality's -margin.  ``cases(n)`` lists one state's
    ``sides`` keyword dicts, one report each, in order: ``{}``,
    ``{"k": k}`` or ``{"pair": [a, b]}``; each is also its report's context.
    ``label`` names the reports; ``context(state)`` adds the row's own
    context (eq12's tangle).

    A report is exactly one public call (``check``): mqbench's tracer counts
    one identity check per IdentityReport a public function returns, so a
    public call reached through another would count twice.
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
        "pure", lambda n: n >= 2, "--n >= 2", "single-partition", _single_partition_sides,
        cases=_each_qubit,
    ),
    "eq20": Identity(
        "pure", lambda n: n >= 4, "--n >= 4", "pair-partition", _pair_partition_sides,
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

    ``arrays`` are the stack's tables and ``cases`` keyword dicts of the
    row's ``sides``.  The arrays are (B, cases): one row per state, one
    column per case; ``margin`` is None where the verdict gives none.
    """
    sides = np.array([ident.sides(*arrays, **case) for case in cases])
    lhs, rhs = sides.transpose(1, 2, 0)  # (cases, 2, B) to (B, cases) each
    return lhs, rhs, *ident.verdict(lhs, rhs, tol)


def check(name, state, table=None, tol=EQ_TOL, **case):
    """The IdentityReport of identity ``name`` on one state, for one case.

    ``case`` is one of the row's ``cases(n)``, unvalidated here (the public
    checkers validate theirs).  ``table``, a pure state's InfoTable, is
    computed when None and ignored for a density matrix.  The context holds
    the qubit count (``n`` or ``m``), the case, the row's own context and
    any ``margin``.
    """
    n = state.num_qubits
    ident = _identity(name, n)
    if isinstance(state, PureState) != (ident.kind == "pure"):
        raise ValueError(f"{name} is a {ident.kind}-state identity")
    _check_tol(tol)
    if ident.kind == "pure":
        table = table if table is not None else all_infos_fast(state)
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


def _chunk(idents, n, seeds, tol, ranks):
    """The states of one chunk of trials, and per identity its ``_evaluate`` arrays.

    The states are pure (``ranks`` None), drawn as one amplitude stack, or
    density matrices of the given ranks.
    """
    if ranks is None:
        states = random_pure_stack(n, seeds)
        arrays = (*info_values(states), states)
    else:
        states = random_mixed_states(n, ranks, seeds)
        arrays = spectrum_values(np.array([rho.matrix for rho in states]))
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
    whole chunk at once.  The states are those of ``random_pure``/
    ``random_mixed`` bit for bit, and only a summary's worst state is built
    as a PureState.

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
    # more trials than MAX_TRIALS would reuse the next base seed's states
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    _check_tol(tol)
    pure = idents[0].kind == "pure"
    if pure and rank is not None:
        raise ValueError(f"rank applies to density matrices, not to {names!r}")
    _check_qubit_count(n, MAX_QUBITS if pure else MAX_MIXED_QUBITS)
    size = {"n": n} if pure else {"m": n, "rank": rank, "min_margin": None}
    summaries = [
        {"identity": name, **size, "trials": trials, "max_residual": 0.0, "failures": 0}
        for name in names
    ]
    worst = [None] * len(names)
    chunk = max(1, _BATCH_AMPLITUDES >> (n if pure else 2 * n))
    for start in range(0, trials, chunk):
        seeds = [derive_seed(base_seed, t) for t in range(start, min(start + chunk, trials))]
        ranks = None if pure else [
            rank if rank is not None else t % 2**n + 1 for t in range(start, start + len(seeds))
        ]
        states, results = _chunk(idents, n, seeds, tol, ranks)
        for i, (s, (_, _, score, margin, failed, gate)) in enumerate(zip(summaries, results)):
            # argmax takes the first of equal scores: the first strict maximum wins
            at = int(np.argmax(score))
            if worst[i] is None or score.flat[at] > worst[i]:
                worst[i] = score.flat[at]
                row = at // score.shape[1]
                s.update(worst_seed=seeds[row], worst_state=states[row], tolerance=gate)
            s["max_residual"] = max(s["max_residual"], float(score.max()))
            s["failures"] += int(np.count_nonzero(failed))
            if margin is not None:
                low = float(margin.min())
                s["min_margin"] = low if s["min_margin"] is None else min(s["min_margin"], low)
    for s in summaries:
        if pure:
            s["worst_state"] = PureState(n, s["worst_state"])
        s["passed"] = s["failures"] == 0
    return summaries
