"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the criterion lines.
"""

import time
from itertools import combinations

import numpy as np
import pytest

import mqinfo as mq
from mqinfo.cli import _build_report
from mqinfo.identities import derive_seed


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


GOLDEN = {
    ("bell-phi-plus", 2): {(1,): 0, (2,): 0, (1, 2): 2},
    ("basis-product", 2): {(1,): 1, (2,): 1, (1, 2): 0},
    ("ghz", 3): {**{(i,): 0 for i in (1, 2, 3)},
                 **{p: 0 for p in combinations((1, 2, 3), 2)},
                 (1, 2, 3): 3},
    ("w", 3): {**{(i,): 1 / 9 for i in (1, 2, 3)},
               **{p: 0 for p in combinations((1, 2, 3), 2)},
               (1, 2, 3): 24 / 9},
    ("ghz", 4): {**{(i,): 0 for i in range(1, 5)},
                 **{p: 0 for p in combinations(range(1, 5), 2)},
                 **{t: -1 for t in combinations(range(1, 5), 3)},
                 (1, 2, 3, 4): 8},
    ("w", 4): {**{(i,): 1 / 4 for i in range(1, 5)},
               **{p: -1 / 2 for p in combinations(range(1, 5), 2)},
               **{t: 3 / 4 for t in combinations(range(1, 5), 3)},
               (1, 2, 3, 4): 3},
}


def test_criterion_1_golden_values():
    worst = 0.0
    for (family, n), expected in GOLDEN.items():
        psi = mq.make_named(family, n)
        table = mq.all_infos_fast(psi)
        for subset, val in expected.items():
            worst = max(worst, abs(table.get(subset) - val))
    _report("1 golden values", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_2_complementarity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 9):
        for trial in range(1000):
            psi = mq.random_pure(n, derive_seed(n, trial))
            rep = mq.residual_complementarity(psi)
            worst = max(worst, abs(rep.residual))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 300
    _report("2 complementarity", ok,
            f"max residual {worst:.3e}, {elapsed:.1f}s for 7000 states")


def test_criterion_3_single_partition():
    worst = 0.0
    for n in range(2, 8):
        for trial in range(200):
            psi = mq.random_pure(n, derive_seed(100 + n, trial))
            table = mq.all_infos_fast(psi)
            for k in range(1, n + 1):
                rep = mq.residual_single_partition(psi, k, table)
                worst = max(worst, abs(rep.residual))
    _report("3 one-vs-rest monogamy", worst <= 1e-9, f"max residual {worst:.3e}")


def test_criterion_4_pair_partition():
    worst = 0.0
    for n in range(4, 8):
        for trial in range(200):
            psi = mq.random_pure(n, derive_seed(200 + n, trial))
            table = mq.all_infos_fast(psi)
            for pair in combinations(range(1, n + 1), 2):
                rep = mq.residual_pair_partition(psi, pair, table)
                worst = max(worst, abs(rep.residual))
    _report("4 pair-vs-rest monogamy", worst <= 1e-9, f"max residual {worst:.3e}")


def test_criterion_5_four_qubit_relations():
    worst_fuzz = 0.0
    for trial in range(1000):
        psi = mq.random_pure(4, derive_seed(300, trial))
        table = mq.all_infos_fast(psi)
        worst_fuzz = max(
            worst_fuzz,
            abs(mq.residual_tangle_relation_4q(psi, table).residual),
            abs(mq.residual_combination_4q(psi, table).residual),
        )
    s = 1 / np.sqrt(2)
    bell = np.array([s, 0, 0, s])
    special = [
        mq.make_named("ghz", 4),
        mq.make_named("w", 4),
        mq.make_named("basis-product", 4),
        mq.pure_from_amplitudes(4, np.kron(bell, bell)),
    ]
    for theta in np.linspace(0.0, np.pi / 2, 10):
        amps = np.zeros(16)
        amps[0], amps[15] = np.cos(theta), np.sin(theta)
        special.append(mq.pure_from_amplitudes(4, amps, renormalize=True))
    worst_exact = 0.0
    for psi in special:
        table = mq.all_infos_fast(psi)
        worst_exact = max(
            worst_exact,
            abs(mq.residual_tangle_relation_4q(psi, table).residual),
            abs(mq.residual_combination_4q(psi, table).residual),
        )
    ok = worst_fuzz <= 1e-9 and worst_exact <= 1e-12
    _report("5 four-qubit tangle/combination", ok,
            f"fuzz {worst_fuzz:.3e}, special states {worst_exact:.3e}")


def test_criterion_6_mixed_equalities():
    worst24 = 0.0
    worst_margin24 = np.inf
    for trial in range(1000):
        rank = trial % 4 + 1
        rho = mq.random_mixed(2, rank, derive_seed(400, trial))
        rep = mq.residual_mixed_pair(rho)
        worst24 = max(worst24, abs(rep.residual))
        worst_margin24 = min(worst_margin24, rep.context["margin"])
    worst25 = 0.0
    worst_margin25 = np.inf
    for trial in range(500):
        rank = trial % 8 + 1
        rho = mq.random_mixed(3, rank, derive_seed(500, trial))
        rep = mq.residual_mixed_triple(rho)
        worst25 = max(worst25, abs(rep.residual))
        worst_margin25 = min(worst_margin25, rep.context["margin"])
    ok = (worst24 <= 1e-10 and worst_margin24 >= -1e-12
          and worst25 <= 1e-9 and worst_margin25 >= -1e-9)
    _report("6 mixed-state equalities", ok,
            f"pair residual {worst24:.3e} margin {worst_margin24:.3e}; "
            f"triple residual {worst25:.3e} margin {worst_margin25:.3e}")


def test_criterion_7_mixed_total_info():
    worst_margin = np.inf
    worst_rank1 = 0.0
    for m in (2, 3, 4):
        for trial in range(500):
            rank = trial % (2**m) + 1
            rho = mq.random_mixed(m, rank, derive_seed(600 + m, trial))
            rep = mq.mixed_total_info_margin(rho)
            worst_margin = min(worst_margin, rep.context["margin"])
            if rank == 1:
                worst_rank1 = max(worst_rank1, abs(rep.context["margin"]))
    ok = worst_margin >= -1e-9 and worst_rank1 <= 1e-9
    _report("7 mixed total information bound", ok,
            f"min margin {worst_margin:.3e}, rank-1 |margin| {worst_rank1:.3e}")


def test_criterion_8_oracle_equivalence():
    worst = 0.0
    for n in range(2, 7):
        for trial in range(50):
            psi = mq.random_pure(n, derive_seed(700 + n, trial))
            fast = mq.all_infos_fast(psi)
            slow = mq.all_infos_enumerated(psi)
            worst = max(
                worst,
                max(abs(fast.entries[s] - slow.entries[s]) for s in fast.entries),
            )
    _report("8 fast-vs-enumeration oracle", worst <= 1e-9,
            f"max entrywise diff {worst:.3e}")


def test_criterion_9_cross_formula_consistency():
    worst_info = worst_tau = worst_conc = 0.0
    for trial in range(500):
        psi = mq.random_pure(2, derive_seed(800, trial))
        for k in (1, 2):
            info = mq.info_single(psi, k)
            pur = mq.purity(mq.partial_trace(psi, (k,)))
            worst_info = max(worst_info, abs(info - (2 * pur - 1)))
            worst_tau = max(
                worst_tau, abs(mq.tau_linear_entropy(psi, (k,)) - (1 - info))
            )
        worst_conc = max(
            worst_conc,
            abs(mq.info_subset(psi, (1, 2)) - 2 * mq.concurrence_sq_2q(psi)),
        )
    ok = worst_info <= 1e-10 and worst_tau <= 1e-10 and worst_conc <= 1e-10
    _report("9 cross-formula consistency", ok,
            f"info {worst_info:.3e}, tau {worst_tau:.3e}, conc {worst_conc:.3e}")


def _best_times(fns, arg, calls=5):
    """Each function's best of ``calls`` timings, the calls interleaved so
    that a host warming up or slowing down favours none of them."""
    best = [float("inf")] * len(fns)
    for _ in range(calls):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn(arg)
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def test_criterion_10_performance():
    psi10 = mq.random_pure(10, 900)
    t0 = time.perf_counter()
    _build_report(psi10, 1e-9)
    t_report = time.perf_counter() - t0

    psi6 = mq.random_pure(6, 901)
    # best of five calls each, so one slow call on a busy host decides nothing
    t_fast, t_enum = _best_times([mq.all_infos_fast, mq.all_infos_enumerated], psi6)

    ok = t_report < 10.0 and t_fast < t_enum
    _report("10 performance", ok,
            f"n=10 full report {t_report:.2f}s; n=6 fast {t_fast * 1e3:.1f}ms "
            f"vs enumeration {t_enum * 1e3:.1f}ms")
