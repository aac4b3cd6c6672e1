"""Command-line front end.

Subcommands:
  report       full information/identity report for one pure state
  fuzz         run identity checkers over seeded Haar-random states
  mixed-check  evaluate the mixed-state relations on random or given matrices
  bench        time the fast route against the enumeration oracle

Which identities run for a qubit count comes from the registry in
``identities``.  report and ``mixed-check --rho`` build their reports in one
loop of ``identities.check`` calls; fuzz and ``mixed-check --random`` share
one fuzz call, one witness step and one summary format.

Exit codes: 0 all checks pass, 1 a tolerance failure, 2 input/usage error
(a --tol that is negative, infinite or NaN included).
"""

import argparse
import itertools
import json
import os
import sys
import time
from fractions import Fraction
from functools import cache

import numpy as np

from .identities import EQ_TOL, IDENTITIES, PURE_IDENTITIES, _check_tol, applicable, check, fuzz
from .measures import (
    all_infos_enumerated,
    all_infos_fast,
    concurrence_sq_2q,
    n_tangle,
    tau_linear_entropy,
)
from .statekit import (
    MAX_MIXED_QUBITS,
    MixedState,
    PureState,
    _check_qubit_count,
    load_state,
    make_named,
    save_state,
)


def _resolve_pure(spec):
    if spec.startswith("file:"):
        state = load_state(spec[5:])
        if not isinstance(state, PureState):
            raise ValueError(f"{spec[5:]} does not contain a pure state")
        return state
    if ":" not in spec:
        raise ValueError(f"bad state spec {spec!r}; want family:n or file:path")
    family, _, count = spec.partition(":")
    n = int(count)
    _check_qubit_count(n)
    return make_named(family, n)


def _resolve_mixed(spec):
    if spec.startswith("file:"):
        state = load_state(spec[5:])
        if not isinstance(state, MixedState):
            raise ValueError(f"{spec[5:]} does not contain a density matrix")
        return state
    family, _, count = spec.partition(":")
    if family == "maximally-mixed":
        m = int(count)
        _check_qubit_count(m, MAX_MIXED_QUBITS)  # before the identity matrix is built
        return MixedState(m, np.eye(2**m, dtype=np.complex128) / 2**m)
    raise ValueError(f"bad density spec {spec!r}; want maximally-mixed:m or file:path")


def _save_witness(summary, out, several):
    """Write the summary's worst state and record its path in the summary.

    When ``several`` identities share ``out``, each writes its own file,
    with the identity name before the suffix (w.json -> w_eq14.json).
    """
    name = summary["identity"]
    if out is None:
        path = f"witness_{name}_seed{summary['worst_seed']}.json"
    elif several:
        root, ext = os.path.splitext(out)
        path = f"{root}_{name}{ext}"
    else:
        path = out
    save_state(summary["worst_state"], path)
    summary["witness_path"] = path


def _reports(kind, state, table, tol):
    """Every report of the applicable ``kind`` identities: one ``check`` call each."""
    n = state.num_qubits
    return [
        check(name, state, table, tol, **case)
        for name in applicable(kind, n)
        for case in IDENTITIES[name].cases(n)
    ]


def _frac_hint(x):
    if abs(x) > 64:
        return ""
    fr = Fraction(x).limit_denominator(512)
    if abs(float(fr) - x) <= 1e-9:
        return f"  (= {fr})"
    return ""


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _build_report(psi, tol):
    n = psi.num_qubits
    table = all_infos_fast(psi)
    names = applicable("pure", n)
    reports = _reports("pure", psi, table, tol)
    qubits = range(1, n + 1)
    # the taus the one-vs-rest (eq14) and pair-vs-rest (eq20) relations use
    taus_single = (
        {k: tau_linear_entropy(psi, (k,), table) for k in qubits} if "eq14" in names else {}
    )
    taus_pair = (
        {p: tau_linear_entropy(psi, p, table) for p in itertools.combinations(qubits, 2)}
        if "eq20" in names
        else {}
    )
    extras = {}
    if n % 2 == 0:
        extras["n_tangle"] = n_tangle(psi)
    if n == 2:
        extras["concurrence_sq"] = concurrence_sq_2q(psi)
    return table, taus_single, taus_pair, extras, reports


def _emit_report(psi, table, taus_single, taus_pair, extras, reports, fmt, out):
    if fmt == "json":
        obj = {
            "n": psi.num_qubits,
            "info_table": table.to_json_obj(),
            "I_local": table.local_total(),
            "I_nonlocal": table.nonlocal_total(),
            "tau_single": {str(k): v for k, v in taus_single.items()},
            "tau_pair": {"-".join(map(str, p)): v for p, v in taus_pair.items()},
            **extras,
            "identities": [r.to_json_obj() for r in reports],
        }
        out.write(json.dumps(obj, sort_keys=True) + "\n")
    elif fmt == "csv":
        out.write("subset,size,I\n")
        for subset, size, val in table.to_csv_rows():
            out.write(f"{subset},{size},{val!r}\n")
    else:
        n = psi.num_qubits
        out.write(f"state on {n} qubit(s)\n\ninformation values\n")
        for subset, size, val in table.to_csv_rows():
            out.write(f"  I_{subset:<12} {val: .12g}{_frac_hint(val)}\n")
        out.write(f"\n  I_local    {table.local_total(): .12g}{_frac_hint(table.local_total())}\n")
        out.write(f"  I_nonlocal {table.nonlocal_total(): .12g}{_frac_hint(table.nonlocal_total())}\n")
        if taus_single:
            out.write("\nlinear entropies (one vs rest)\n")
            for k, v in taus_single.items():
                out.write(f"  tau_{k}(rest)   {v: .12g}{_frac_hint(v)}\n")
        if taus_pair:
            out.write("\nlinear entropies (pair vs rest)\n")
            for p, v in taus_pair.items():
                out.write(f"  tau_{p[0]}{p[1]}(rest)  {v: .12g}{_frac_hint(v)}\n")
        for key, val in extras.items():
            out.write(f"\n{key} = {val:.12g}{_frac_hint(val)}\n")
        out.write("\nidentity checks\n")
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            ctx = {k: v for k, v in r.context.items() if k != "n"}
            out.write(
                f"  [{status}] {r.identity:<22} residual {r.residual: .3e}  {ctx}\n"
            )


def cmd_report(args):
    psi = _resolve_pure(args.state)
    table, taus_single, taus_pair, extras, reports = _build_report(psi, args.tol)
    dest = open(args.out, "w") if args.out else sys.stdout
    try:
        _emit_report(psi, table, taus_single, taus_pair, extras, reports, args.format, dest)
    finally:
        if args.out:
            dest.close()
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# fuzz and mixed-check
# ---------------------------------------------------------------------------

_NOT_IN_ROWS = ("tolerance", "worst_state")


def _emit_fuzz(summaries, args, several):
    """Write witnesses for failing summaries, print them, return the exit code."""
    for s in summaries:
        if not s["passed"]:
            _save_witness(s, args.out, several)
    if args.format == "json":
        rows = [{k: v for k, v in s.items() if k not in _NOT_IN_ROWS} for s in summaries]
        print(json.dumps(rows, sort_keys=True))
    else:
        for s in summaries:
            status = "pass" if s["passed"] else "FAIL"
            size = f"n={s['n']}" if "n" in s else f"m={s['m']}"
            margin = "" if s.get("min_margin") is None else f" min margin={s['min_margin']:.3e}"
            print(
                f"[{status}] {s['identity']:<6} {size} trials={s['trials']} "
                f"max|residual|={s['max_residual']:.3e}{margin} worst seed={s['worst_seed']}"
            )
            if "witness_path" in s:
                print(f"       witness state written to {s['witness_path']}")
    return 0 if all(s["passed"] for s in summaries) else 1


def cmd_fuzz(args):
    every = args.identity == "all"
    names = applicable("pure", args.n) if every else [args.identity]
    return _emit_fuzz(fuzz(names, args.n, args.trials, args.seed, args.tol), args, every)


# mixed-check options that only the random source uses; None means not given
_RANDOM_ONLY = ("m", "rank", "trials", "seed", "out")


def cmd_mixed_check(args):
    if args.random:
        m = 2 if args.m is None else args.m
        trials = 100 if args.trials is None else args.trials
        seed = 0 if args.seed is None else args.seed
        names = applicable("mixed", m)
        summaries = fuzz(names, m, trials, seed, args.tol, args.rank)
        return _emit_fuzz(summaries, args, len(names) > 1)

    unused = [f"--{opt}" for opt in _RANDOM_ONLY if getattr(args, opt) is not None]
    if unused:
        raise ValueError(f"--rho does not take {', '.join(unused)}; they are --random options")
    reports = _reports("mixed", _resolve_mixed(args.rho), None, args.tol)
    if args.format == "json":
        print(json.dumps([r.to_json_obj() for r in reports], sort_keys=True))
    else:
        for r in reports:
            status = "pass" if r.passed else "FAIL"
            print(
                f"[{status}] {r.identity:<16} lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
                f"residual={r.residual: .3e}"
            )
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args):
    from .statekit import random_pure

    psi = random_pure(args.n, args.seed)
    t0 = time.perf_counter()
    fast = all_infos_fast(psi)
    t_fast = time.perf_counter() - t0
    lines = [f"fast route        n={args.n}: {t_fast * 1e3:.2f} ms"]
    code = 0
    if args.n <= MAX_MIXED_QUBITS:
        t0 = time.perf_counter()
        enum = all_infos_enumerated(psi)
        t_enum = time.perf_counter() - t0
        worst = float(np.abs(fast.values - enum.values).max())
        lines.append(f"enumeration route n={args.n}: {t_enum * 1e3:.2f} ms")
        lines.append(f"speedup: {t_enum / t_fast:.1f}x, max entry diff {worst:.3e}")
        if worst > 1e-9:
            code = 1
    else:
        lines.append(f"enumeration route skipped (n > {MAX_MIXED_QUBITS})")
    print("\n".join(lines))
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@cache
def build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mqinfo",
        description="Multi-qubit information measures and monogamy identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="full report for one pure state")
    rep.add_argument("--state", required=True, help="family:n (ghz, w, basis-product, bell-phi-plus) or file:path")
    rep.add_argument("--format", choices=("table", "json", "csv"), default="table")
    rep.add_argument("--tol", type=float, default=EQ_TOL)
    rep.add_argument("--out", default=None)
    rep.set_defaults(func=cmd_report)

    fz = sub.add_parser("fuzz", help="identity fuzzing over Haar-random states")
    fz.add_argument("--n", type=int, required=True)
    fz.add_argument("--trials", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--tol", type=float, default=EQ_TOL)
    fz.add_argument(
        "--identity", default="all", choices=("all",) + PURE_IDENTITIES
    )
    fz.add_argument("--format", choices=("table", "json"), default="table")
    fz.add_argument("--out", default=None, help="witness state path on failure")
    fz.set_defaults(func=cmd_fuzz)

    mx = sub.add_parser("mixed-check", help="mixed-state relation checks")
    source = mx.add_mutually_exclusive_group(required=True)
    source.add_argument("--rho", help="maximally-mixed:m or file:path")
    source.add_argument("--random", action="store_true")
    # the random source's options; its defaults are --m 2, --trials 100, --seed 0
    mx.add_argument("--m", type=int)
    mx.add_argument("--rank", type=int)
    mx.add_argument("--trials", type=int)
    mx.add_argument("--seed", type=int)
    mx.add_argument("--tol", type=float, default=EQ_TOL)
    mx.add_argument("--format", choices=("table", "json"), default="table")
    mx.add_argument("--out")
    mx.set_defaults(func=cmd_mixed_check)

    bn = sub.add_parser("bench", help="time fast route vs enumeration oracle")
    bn.add_argument("--n", type=int, required=True)
    bn.add_argument("--seed", type=int, default=0)
    bn.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in args:
            _check_tol(args.tol, "--tol")
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
