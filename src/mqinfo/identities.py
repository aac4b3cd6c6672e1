"""Residual checkers for the complementarity and monogamy relations.

Each checker evaluates both sides of one equality (or the margin of one
inequality) on a concrete state and returns an IdentityReport.  Checkers are
pure functions; the fuzz driver runs them over seeded Haar-random states and
reports the worst residual with its seed.

Conventions resolved here (fixed by the explicit small-n instances):
  * the one-vs-rest sum runs over all subsets containing qubit k with
    at least two elements;
  * the pair-vs-rest sum runs over all subsets of size >= 2 that intersect
    both the pair and its complement (crossing subsets).
"""

import itertools
from dataclasses import dataclass, field

from .measures import (
    all_infos_fast,
    all_infos_mixed,
    n_tangle,
    subset_index,
    tau_linear_entropy,
)
from .reduction import partial_trace, purity, tilde_overlap
from .statekit import random_mixed, random_pure

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

def residual_complementarity(psi, table=None, tol=EQ_TOL):
    """Sum of every subset information value equals the qubit count."""
    table = table if table is not None else all_infos_fast(psi)
    n = psi.num_qubits
    return _equality(
        "complementarity", table.total(), float(n), tol, {"n": n}
    )


def residual_single_partition(psi, k, table=None, tol=EQ_TOL):
    """(2^(n-2)+1) tau_k(rest) = sum of I_S over S containing k, |S| >= 2."""
    n = psi.num_qubits
    if n < 2:
        raise ValueError("needs at least 2 qubits")
    if not (1 <= k <= n):
        raise ValueError(f"qubit {k} outside 1..{n}")
    table = table if table is not None else all_infos_fast(psi)
    coeff = 2.0 ** (n - 2) + 1.0
    lhs = coeff * tau_linear_entropy(psi, (k,), table)
    masks, sizes = subset_index(n)
    contains_k = (masks & (1 << (k - 1))) != 0
    rhs = float(table.values[contains_k & (sizes >= 2)].sum())
    return _equality(
        "single-partition", lhs, rhs, tol, {"n": n, "k": k}
    )


def residual_pair_partition(psi, pair, table=None, tol=EQ_TOL):
    """2(2^(n-4)+1) tau_pair(rest) = sum of I_S over crossing subsets."""
    n = psi.num_qubits
    if n < 4:
        raise ValueError("needs at least 4 qubits")
    pair = tuple(sorted(set(pair)))
    if len(pair) != 2 or pair[0] < 1 or pair[1] > n:
        raise ValueError(f"bad pair {pair} for n={n}")
    table = table if table is not None else all_infos_fast(psi)
    coeff = 2.0 * (2.0 ** (n - 4) + 1.0)
    lhs = coeff * tau_linear_entropy(psi, pair, table)
    masks, _ = subset_index(n)
    inside = masks & ((1 << (pair[0] - 1)) | (1 << (pair[1] - 1)))
    # meets the pair and leaves it; such a subset has |S| >= 2
    crossing = (inside != 0) & (inside != masks)
    rhs = float(table.values[crossing].sum())
    return _equality(
        "pair-partition", lhs, rhs, tol, {"n": n, "pair": list(pair)}
    )


def residual_tangle_relation_4q(psi, table=None, tol=EQ_TOL):
    """Pair-sum minus singleton-sum equals 4(tangle - 1) on four qubits."""
    if psi.num_qubits != 4:
        raise ValueError("defined for exactly 4 qubits")
    table = table if table is not None else all_infos_fast(psi)
    _, sizes = subset_index(4)
    pair_sum = float(table.values[sizes == 2].sum())
    single_sum = table.local_total()
    tangle = n_tangle(psi)
    return _equality(
        "four-qubit-tangle",
        pair_sum - single_sum,
        4.0 * (tangle - 1.0),
        tol,
        {"n": 4, "tangle": tangle},
    )


def residual_combination_4q(psi, table=None, tol=EQ_TOL):
    """5*sum of one-vs-rest taus minus 4*sum of pair-partition taus = I_1234."""
    if psi.num_qubits != 4:
        raise ValueError("defined for exactly 4 qubits")
    table = table if table is not None else all_infos_fast(psi)
    single_taus = sum(tau_linear_entropy(psi, (k,), table) for k in range(1, 5))
    pair_taus = sum(
        tau_linear_entropy(psi, p, table) for p in ((1, 2), (1, 3), (1, 4))
    )
    lhs = 5.0 * single_taus - 4.0 * pair_taus
    rhs = table.get((1, 2, 3, 4))
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
    m = rho.num_qubits
    if m > 5:
        raise ValueError("mixed total-information check limited to m <= 5")
    total = all_infos_mixed(rho).total()
    return _inequality("mixed-total-info", total, float(m), tol, {"m": m})


# ---------------------------------------------------------------------------
# fuzz driver
# ---------------------------------------------------------------------------

def _all_reports_pure(name, psi, tol):
    """Reports for one named identity on one pure state."""
    n = psi.num_qubits
    table = all_infos_fast(psi)
    if name == "eq1b":
        return [residual_complementarity(psi, table, tol)]
    if name == "eq14":
        return [
            residual_single_partition(psi, k, table, tol) for k in range(1, n + 1)
        ]
    if name == "eq20":
        if n < 4:
            raise ValueError("eq20 requires n >= 4")
        return [
            residual_pair_partition(psi, pair, table, tol)
            for pair in itertools.combinations(range(1, n + 1), 2)
        ]
    if name == "eq12":
        return [residual_tangle_relation_4q(psi, table, tol)]
    if name == "eq26":
        return [residual_combination_4q(psi, table, tol)]
    raise ValueError(f"unknown pure-state identity {name!r}")


PURE_IDENTITIES = ("eq1b", "eq14", "eq20", "eq12", "eq26")
MIXED_IDENTITIES = ("eq23", "eq24", "eq25")
MAX_TRIALS = 1_000_003


def derive_seed(base_seed, trial):
    """Per-trial seed; deterministic and collision-free for 0 <= trial < MAX_TRIALS."""
    return base_seed * MAX_TRIALS + trial


def _check_trials(trials):
    # more trials than MAX_TRIALS would reuse the next base seed's states
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_TRIALS}, got {trials}")


def fuzz_pure_identity(name, n, trials, base_seed, tol=EQ_TOL):
    """Run one identity over seeded Haar-random states.

    Returns a summary dict with the max |residual|, the seed attaining it,
    and the worst (failing or extremal) state for witness persistence.
    """
    if name in ("eq12", "eq26") and n != 4:
        raise ValueError(f"{name} requires n = 4")
    _check_trials(trials)
    worst = None
    max_residual = -1.0
    failures = 0
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        psi = random_pure(n, seed)
        for rep in _all_reports_pure(name, psi, tol):
            if abs(rep.residual) > max_residual:
                max_residual = abs(rep.residual)
                worst = (seed, psi, rep)
            if not rep.passed:
                failures += 1
    seed, psi, rep = worst
    return {
        "identity": name,
        "n": n,
        "trials": trials,
        "tolerance": tol,
        "max_residual": max_residual,
        "worst_seed": seed,
        "worst_state": psi,
        "worst_report": rep,
        "failures": failures,
        "passed": failures == 0,
    }


def _mixed_reports(name, rho, tol):
    if name == "eq23":
        return [mixed_total_info_margin(rho, tol)]
    if name == "eq24":
        return [residual_mixed_pair(rho, tol)]
    if name == "eq25":
        return [residual_mixed_triple(rho, tol)]
    raise ValueError(f"unknown mixed-state identity {name!r}")


def fuzz_mixed_identity(name, m, rank, trials, base_seed, tol=EQ_TOL):
    """Run one mixed-state identity over seeded random density matrices.

    ``rank`` of None cycles through every rank 1..2^m across trials.  The
    summary's ``tolerance`` is the gate the checker applied.
    """
    _check_trials(trials)
    worst = None
    worst_score = None
    max_residual = 0.0
    min_margin = None
    failures = 0
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        r = rank if rank is not None else (trial % (2**m)) + 1
        rho = random_mixed(m, r, seed)
        for rep in _mixed_reports(name, rho, tol):
            # eq23 is a pure inequality: rank by smallest margin, not residual
            score = -rep.context["margin"] if name == "eq23" else abs(rep.residual)
            if worst_score is None or score > worst_score:
                worst_score = score
                worst = (seed, rho, rep)
            max_residual = max(max_residual, abs(rep.residual))
            if "margin" in rep.context:
                margin = rep.context["margin"]
                min_margin = margin if min_margin is None else min(min_margin, margin)
            if not rep.passed:
                failures += 1
    seed, rho, rep = worst
    return {
        "identity": name,
        "m": m,
        "rank": rank,
        "trials": trials,
        "tolerance": rep.tolerance,
        "max_residual": max_residual,
        "min_margin": min_margin,
        "worst_seed": seed,
        "worst_state": rho,
        "worst_report": rep,
        "failures": failures,
        "passed": failures == 0,
    }
