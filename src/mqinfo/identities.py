"""The paper's relations: residual checkers, the identity registry, the fuzz driver.

Each checker evaluates both sides of one equality (or the margin of one
inequality) on a concrete state and returns an IdentityReport.  Checkers are
pure functions.

``IDENTITIES`` is the one table of the relations, in output order: eq1b,
eq14, eq20, eq12, eq26 on pure states, then eq24, eq25, eq23 on density
matrices.  Each entry gives the kind, the qubit counts it applies to, and a
checker returning every report the relation makes on one state.  report,
fuzz and mixed-check take what they run from ``applicable``; ``fuzz`` draws
one seeded random state per trial and runs every named identity on it.

Conventions resolved here (fixed by the explicit small-n instances):
  * the one-vs-rest sum runs over all subsets containing qubit k with
    at least two elements;
  * the pair-vs-rest sum runs over all subsets of size >= 2 that intersect
    both the pair and its complement (crossing subsets).
"""

import itertools
from dataclasses import dataclass, field
from typing import Callable

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
    total = all_infos_mixed(rho).total()
    return _inequality("mixed-total-info", total, float(m), tol, {"m": m})


# ---------------------------------------------------------------------------
# the identity registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One of the paper's relations, as report, fuzz and mixed-check run it.

    ``check(state, table, tol)`` returns the relation's IdentityReports for
    one state; ``table`` is the state's all_infos_fast table (None for a
    density matrix).  ``requirement`` names the qubit count that
    ``applies`` accepts, for error messages.  The worst case of an
    inequality is its smallest margin, of an equality its largest |residual|.
    """

    kind: str
    applies: Callable[[int], bool]
    requirement: str
    check: Callable
    inequality: bool = False


def _qubits(state):
    return range(1, state.num_qubits + 1)


# Table order is output order.  The checkers look the residual functions up
# at call time, so wrappers installed on the module are seen.
IDENTITIES = {
    "eq1b": Identity(
        "pure", lambda n: True, "--n >= 1",
        lambda psi, table, tol: [residual_complementarity(psi, table, tol)],
    ),
    "eq14": Identity(
        "pure", lambda n: n >= 2, "--n >= 2",
        lambda psi, table, tol: [
            residual_single_partition(psi, k, table, tol) for k in _qubits(psi)
        ],
    ),
    "eq20": Identity(
        "pure", lambda n: n >= 4, "--n >= 4",
        lambda psi, table, tol: [
            residual_pair_partition(psi, pair, table, tol)
            for pair in itertools.combinations(_qubits(psi), 2)
        ],
    ),
    "eq12": Identity(
        "pure", lambda n: n == 4, "--n 4",
        lambda psi, table, tol: [residual_tangle_relation_4q(psi, table, tol)],
    ),
    "eq26": Identity(
        "pure", lambda n: n == 4, "--n 4",
        lambda psi, table, tol: [residual_combination_4q(psi, table, tol)],
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


def fuzz(names, n, trials, base_seed, tol=EQ_TOL, rank=None):
    """Run the named identities over seeded random states; one summary each.

    The names share one kind.  Trial t draws one state from seed
    ``derive_seed(base_seed, t)``: a Haar-random pure state on n qubits, or a
    random density matrix on n qubits of rank ``rank`` (None cycles through
    every rank 1..2^n across trials).  A pure state gets one all_infos_fast
    table, and every named identity runs on that state and table.

    Each summary holds the max |residual|, the failure count, and the seed,
    state and report of the worst case (for witness files); ``tolerance`` is
    the gate the checker applied.  Mixed summaries add ``rank`` and the
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
    pure = idents[0].kind == "pure"
    size = {"n": n} if pure else {"m": n, "rank": rank, "min_margin": None}
    summaries = [
        {"identity": name, **size, "trials": trials, "max_residual": 0.0, "failures": 0}
        for name in names
    ]
    scores = [None] * len(names)
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        if pure:
            state = random_pure(n, seed)
            table = all_infos_fast(state)
        else:
            r = rank if rank is not None else (trial % (2**n)) + 1
            state, table = random_mixed(n, r, seed), None
        for i, (ident, s) in enumerate(zip(idents, summaries)):
            for rep in ident.check(state, table, tol):
                margin = rep.context.get("margin")
                score = -margin if ident.inequality else abs(rep.residual)
                if scores[i] is None or score > scores[i]:
                    scores[i] = score
                    s.update(worst_seed=seed, worst_state=state, worst_report=rep,
                             tolerance=rep.tolerance)
                s["max_residual"] = max(s["max_residual"], abs(rep.residual))
                if margin is not None and not pure:
                    s["min_margin"] = margin if s["min_margin"] is None else min(s["min_margin"], margin)
                if not rep.passed:
                    s["failures"] += 1
    for s in summaries:
        s["passed"] = s["failures"] == 0
    return summaries
