"""The paper's relations: residual checkers, the identity registry, the fuzz driver.

Each checker evaluates both sides of one equality (or the margin of one
inequality) on a concrete state and returns an IdentityReport.  Checkers are
pure functions, and reject a tolerance that is negative, infinite or NaN.
A pure-state relation's arithmetic is one array function over a stack of
states (their information values, purities and amplitudes, one row each);
its public ``residual_*`` checker is a one-state call of that function.

``IDENTITIES`` is the one table of the relations, in output order: eq1b,
eq14, eq20, eq12, eq26 on pure states, then eq24, eq25, eq23 on density
matrices.  Each entry gives the kind, the qubit counts it applies to, and a
checker returning every report the relation makes on one state.  report,
fuzz and mixed-check take what they run from ``applicable``.  ``fuzz`` draws
one seeded random state per trial, in chunks: a chunk of pure states is one
amplitude stack, whose tables come from one ``info_values`` call and whose
identities are checked by the array functions on the whole stack.

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
    all_infos_mixed,
    info_values,
    n_tangle,
    n_tangles,
    subset_index,
)
from .reduction import _BATCH_AMPLITUDES, partial_trace, pure_subset_purities, purity, tilde_overlap
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
        return {
            "identity": self.identity,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "context": self.context,
        }


def _equality(name, lhs, rhs, tol, context):
    res = lhs - rhs
    return IdentityReport(name, lhs, rhs, res, tol, abs(res) <= tol, context)


def _inequality(name, lhs, rhs, tol, context):
    # inequality lhs <= rhs; margin = rhs - lhs must be >= -tol
    margin = rhs - lhs
    ctx = dict(context)
    ctx["margin"] = margin
    return IdentityReport(name, lhs, rhs, lhs - rhs, tol, margin >= -tol, ctx)


# ---------------------------------------------------------------------------
# pure-state identities
# ---------------------------------------------------------------------------
# Each relation's arithmetic is one function over a stack of B states:
# values and purities are (B, 2^n) arrays indexed by subset mask (an
# InfoTable's, one row per state), amps the (B, 2^n) amplitudes, and the
# result is the (B,) left- and right-hand sides.  The public residual_*
# checkers are one-state calls of these; fuzz calls them on whole chunks.

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


def _one_state(sides, psi, table, tol, *case):
    """(lhs, rhs) of one state through an array function."""
    _check_tol(tol)
    table = table if table is not None else all_infos_fast(psi)
    amps = psi.amplitudes[None]
    purities = table.purities
    if purities is None:  # an oracle table carries none
        purities = pure_subset_purities(amps)[0]
    lhs, rhs = sides(table.values[None], purities[None], amps, *case)
    return float(lhs[0]), float(rhs[0])


def residual_complementarity(psi, table=None, tol=EQ_TOL):
    """Sum of every subset information value equals the qubit count."""
    lhs, rhs = _one_state(_complementarity_sides, psi, table, tol)
    return _equality("complementarity", lhs, rhs, tol, {"n": psi.num_qubits})


def residual_single_partition(psi, k, table=None, tol=EQ_TOL):
    """(2^(n-2)+1) tau_k(rest) = sum of I_S over S containing k, |S| >= 2."""
    n = psi.num_qubits
    if n < 2:
        raise ValueError("needs at least 2 qubits")
    if not (1 <= k <= n):
        raise ValueError(f"qubit {k} outside 1..{n}")
    lhs, rhs = _one_state(_single_partition_sides, psi, table, tol, k)
    return _equality("single-partition", lhs, rhs, tol, {"n": n, "k": k})


def residual_pair_partition(psi, pair, table=None, tol=EQ_TOL):
    """2(2^(n-4)+1) tau_pair(rest) = sum of I_S over crossing subsets."""
    n = psi.num_qubits
    if n < 4:
        raise ValueError("needs at least 4 qubits")
    pair = tuple(sorted(set(pair)))
    if len(pair) != 2 or pair[0] < 1 or pair[1] > n:
        raise ValueError(f"bad pair {pair} for n={n}")
    lhs, rhs = _one_state(_pair_partition_sides, psi, table, tol, pair)
    return _equality("pair-partition", lhs, rhs, tol, {"n": n, "pair": list(pair)})


def residual_tangle_relation_4q(psi, table=None, tol=EQ_TOL):
    """Pair-sum minus singleton-sum equals 4(tangle - 1) on four qubits."""
    if psi.num_qubits != 4:
        raise ValueError("defined for exactly 4 qubits")
    lhs, rhs = _one_state(_tangle_relation_sides, psi, table, tol)
    context = {"n": 4, "tangle": n_tangle(psi)}
    return _equality("four-qubit-tangle", lhs, rhs, tol, context)


def residual_combination_4q(psi, table=None, tol=EQ_TOL):
    """5*sum of one-vs-rest taus minus 4*sum of pair-partition taus = I_1234."""
    if psi.num_qubits != 4:
        raise ValueError("defined for exactly 4 qubits")
    lhs, rhs = _one_state(_combination_sides, psi, table, tol)
    return _equality("four-qubit-combination", lhs, rhs, tol, {"n": 4})


# ---------------------------------------------------------------------------
# mixed-state identities
# ---------------------------------------------------------------------------

def residual_mixed_pair(rho, tol=MIXED_PAIR_TOL):
    """tr(rho_1^2) + tr(rho_2^2) - tr(rho_12^2) = 1 - tr(rho_12 rho~_12).

    The equality is gated at min(tol, MIXED_PAIR_TOL), the report's
    ``tolerance``.  The context carries the corollary margin 1 - lhs >= 0;
    ``passed`` requires both the equality and the corollary.
    """
    _check_tol(tol)
    if rho.num_qubits != 2:
        raise ValueError("defined for exactly 2 qubits")
    p1 = purity(partial_trace(rho, (1,)))
    p2 = purity(partial_trace(rho, (2,)))
    p12 = purity(rho)
    lhs = p1 + p2 - p12
    rhs = 1.0 - tilde_overlap(rho)
    rep = _equality("mixed-pair", lhs, rhs, min(tol, MIXED_PAIR_TOL), {"m": 2})
    margin = 1.0 - lhs
    rep.context["margin"] = margin
    rep.passed = rep.passed and margin >= -1e-12
    return rep


def residual_mixed_triple(rho, tol=EQ_TOL):
    """Three-qubit purity/tilde combination equals 1 - tr(rho_123 rho~_123).

    Context carries the nonnegativity margin of the left-hand side.
    """
    _check_tol(tol)
    if rho.num_qubits != 3:
        raise ValueError("defined for exactly 3 qubits")
    pair_purities = 0.0
    pair_overlaps = 0.0
    for pair in ((1, 2), (1, 3), (2, 3)):
        red = partial_trace(rho, pair)
        pair_purities += purity(red)
        pair_overlaps += tilde_overlap(red)
    lhs = purity(rho) - 0.5 * (pair_purities + pair_overlaps) + 1.5
    rhs = 1.0 - tilde_overlap(rho)
    rep = _equality("mixed-triple", lhs, rhs, tol, {"m": 3})
    rep.context["margin"] = lhs
    rep.passed = rep.passed and lhs >= -INEQ_TOL
    return rep


def mixed_total_info_margin(rho, tol=INEQ_TOL):
    """Total information of a density matrix is at most the qubit count."""
    _check_tol(tol)
    m = rho.num_qubits
    total = all_infos_mixed(rho).total()
    return _inequality("mixed-total-info", total, float(m), tol, {"m": m})


# ---------------------------------------------------------------------------
# the identity registry
# ---------------------------------------------------------------------------

def _single(n):
    return [()]


def _each_qubit(n):
    return [(k,) for k in range(1, n + 1)]


def _each_pair(n):
    return [(pair,) for pair in itertools.combinations(range(1, n + 1), 2)]


@dataclass(frozen=True)
class Identity:
    """One of the paper's relations, as report, fuzz and mixed-check run it.

    ``check(state, table, tol)`` returns the relation's IdentityReports for
    one state; ``table`` is the state's all_infos_fast table (None for a
    density matrix).  ``requirement`` names the qubit count that
    ``applies`` accepts, for error messages.  The worst case of an
    inequality is its smallest margin, of an equality its largest |residual|.
    A pure relation also gives its array function ``sides`` and the
    arguments ``cases(n)`` it is checked for, one report each, in order.
    """

    kind: str
    applies: Callable[[int], bool]
    requirement: str
    check: Callable
    inequality: bool = False
    sides: Callable | None = None
    cases: Callable[[int], list] = _single


# Table order is output order.  The checkers look the residual functions up
# at call time, so wrappers installed on the module are seen.
IDENTITIES = {
    "eq1b": Identity(
        "pure", lambda n: True, "--n >= 1",
        lambda psi, table, tol: [residual_complementarity(psi, table, tol)],
        sides=_complementarity_sides,
    ),
    "eq14": Identity(
        "pure", lambda n: n >= 2, "--n >= 2",
        lambda psi, table, tol: [
            residual_single_partition(psi, k, table, tol)
            for (k,) in _each_qubit(psi.num_qubits)
        ],
        sides=_single_partition_sides, cases=_each_qubit,
    ),
    "eq20": Identity(
        "pure", lambda n: n >= 4, "--n >= 4",
        lambda psi, table, tol: [
            residual_pair_partition(psi, pair, table, tol)
            for (pair,) in _each_pair(psi.num_qubits)
        ],
        sides=_pair_partition_sides, cases=_each_pair,
    ),
    "eq12": Identity(
        "pure", lambda n: n == 4, "--n 4",
        lambda psi, table, tol: [residual_tangle_relation_4q(psi, table, tol)],
        sides=_tangle_relation_sides,
    ),
    "eq26": Identity(
        "pure", lambda n: n == 4, "--n 4",
        lambda psi, table, tol: [residual_combination_4q(psi, table, tol)],
        sides=_combination_sides,
    ),
    "eq24": Identity(
        "mixed", lambda m: m == 2, "--m 2",
        lambda rho, table, tol: [residual_mixed_pair(rho, tol)],
    ),
    "eq25": Identity(
        "mixed", lambda m: m == 3, "--m 3",
        lambda rho, table, tol: [residual_mixed_triple(rho, tol)],
    ),
    "eq23": Identity(
        "mixed", lambda m: True, "--m >= 1",
        lambda rho, table, tol: [mixed_total_info_margin(rho, tol)],
        inequality=True,
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


# ---------------------------------------------------------------------------
# fuzz driver
# ---------------------------------------------------------------------------

MAX_TRIALS = 1_000_003


def derive_seed(base_seed, trial):
    """Per-trial seed; deterministic and collision-free for 0 <= trial < MAX_TRIALS."""
    return base_seed * MAX_TRIALS + trial


def _pure_chunk(idents, n, seeds, tol):
    """Per identity (score, failed, margin, gate, states) of one chunk of trials.

    ``score`` (|residual|, or -margin for an inequality) and ``failed`` are
    (B, cases): one row per state, one column per report the identity
    makes.  ``margin`` is None for a pure state; ``gate`` is the tolerance
    the checker applied; ``states`` is the (B, 2^n) amplitude stack.
    """
    amps = random_pure_stack(n, seeds)
    values, purities = info_values(amps)
    out = []
    for ident in idents:
        sides = [ident.sides(values, purities, amps, *case) for case in ident.cases(n)]
        score = np.abs(np.stack([lhs - rhs for lhs, rhs in sides], axis=1))
        out.append((score, ~(score <= tol), None, tol, amps))
    return out


def _mixed_chunk(idents, m, seeds, tol, rank, first_trial):
    """``_pure_chunk`` for density matrices, checked one state at a time."""
    ranks = [
        rank if rank is not None else (trial % (2**m)) + 1
        for trial in range(first_trial, first_trial + len(seeds))
    ]
    states = random_mixed_states(m, ranks, seeds)
    out = []
    for ident in idents:
        reps = [ident.check(state, None, tol) for state in states]
        res = np.array([[rep.residual for rep in row] for row in reps])
        margin = np.array([[rep.context["margin"] for rep in row] for row in reps])
        failed = np.array([[not rep.passed for rep in row] for row in reps])
        score = -margin if ident.inequality else np.abs(res)
        out.append((score, failed, margin, reps[0][0].tolerance, states))
    return out


def fuzz(names, n, trials, base_seed, tol=EQ_TOL, rank=None):
    """Run the named identities over seeded random states; one summary each.

    The names share one kind, and n is checked against that kind's qubit
    limit (``MAX_QUBITS`` or ``MAX_MIXED_QUBITS``).  Trial t draws one state from seed
    ``derive_seed(base_seed, t)``: a Haar-random pure state on n qubits, or a
    random density matrix on n qubits of rank ``rank`` (None cycles through
    every rank 1..2^n across trials).  The trials run in chunks of states
    holding at most ``_BATCH_AMPLITUDES`` amplitudes (matrix entries for a
    density matrix).  A pure chunk is one (B, 2^n) amplitude stack: one
    ``info_values`` call gives every table, and each identity's array
    function checks the whole chunk at once; density matrices are checked
    one at a time.  The states are those of ``random_pure``/``random_mixed``
    bit for bit, and only a summary's worst state is built as a PureState.

    Each summary holds the largest violation ``max_residual`` (|residual|
    for an equality, max(0, lhs - rhs) for an inequality), the failure
    count, and the seed and state of the worst case (the first with the
    largest |residual|, or smallest margin), for witness files; ``tolerance``
    is the gate the checker applied.  Mixed summaries add ``rank`` and the
    smallest margin; the qubit count is ``n`` for pure and ``m`` for mixed.
    """
    for name in names:
        ident = IDENTITIES.get(name)
        if ident is None:
            raise ValueError(f"unknown identity {name!r}")
        if not ident.applies(n):
            raise ValueError(f"{name} requires {ident.requirement}")
    idents = [IDENTITIES[name] for name in names]
    if len({ident.kind for ident in idents}) != 1:
        raise ValueError(f"fuzz needs identities of one kind, got {names!r}")
    # more trials than MAX_TRIALS would reuse the next base seed's states
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")
    _check_tol(tol)
    pure = idents[0].kind == "pure"
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
        results = (
            _pure_chunk(idents, n, seeds, tol) if pure
            else _mixed_chunk(idents, n, seeds, tol, rank, start)
        )
        for i, (s, (score, failed, margin, gate, states)) in enumerate(zip(summaries, results)):
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
