"""Command-line front end.

Subcommands:
  report       full information/identity report for one pure state
  fuzz         run identity checkers over seeded Haar-random states
  mixed-check  evaluate the mixed-state relations on random or given matrices
  bench        time the fast route against the enumeration oracle

Which identities run for a qubit count comes from the registry in
``identities``.  report and ``mixed-check --rho`` build their reports with
one ``identities._reports`` call, which evaluates each applicable row once
over all of its cases; fuzz and ``mixed-check --random`` share
one fuzz call, one witness step and one summary format.  report's output is
byte-stable: its json is what ``json.dumps(obj, sort_keys=True)`` writes, and a
table value's "(= p/q)" hint is ``Fraction(v).limit_denominator(512)`` when
that lies within 1e-9 of v.  Its I_S rows fill templates cached per n.

Exit codes: 0 all checks pass, 1 a tolerance failure, 2 input/usage error
(a --tol that is negative, infinite or NaN included).
"""

import argparse
import json
import os
import sys
import time
from functools import cache

import numpy as np

from .identities import (
    EQ_TOL,
    IDENTITIES,
    PURE_IDENTITIES,
    _check_tol,
    _reports,
    applicable,
    fuzz,
)
from .measures import (
    _io_order,
    _subset_to_mask,
    all_infos_enumerated,
    all_infos_fast,
    concurrence_sq_2q,
    n_tangle,
)
from .reduction import _openblas, _purity_plan, _purity_workers
from .statekit import (
    MAX_MIXED_QUBITS,
    MixedState,
    PureState,
    _check_qubit_count,
    load_state,
    make_named,
    save_state,
)


def _spec_count(spec, count):
    """The qubit count of a ``family:n`` spec, as an int; ValueError naming
    the spec unless the count is a base-10 integer."""
    try:
        return int(count)
    except ValueError:
        raise ValueError(f"bad qubit count {count!r} in {spec!r}") from None


def _resolve_pure(spec):
    if spec.startswith("file:"):
        state = load_state(spec[5:])
        if not isinstance(state, PureState):
            raise ValueError(f"{spec[5:]} does not contain a pure state")
        return state
    if ":" not in spec:
        raise ValueError(f"bad state spec {spec!r}; want family:n or file:path")
    family, _, count = spec.partition(":")
    return make_named(family, _spec_count(spec, count))


def _resolve_mixed(spec):
    if spec.startswith("file:"):
        state = load_state(spec[5:])
        if not isinstance(state, MixedState):
            raise ValueError(f"{spec[5:]} does not contain a density matrix")
        return state
    family, _, count = spec.partition(":")
    if family == "maximally-mixed":
        m = _spec_count(spec, count)
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


def _frac_hints(x):
    """"  (= p/q)" for each value v of x within 1e-9 of a fraction with q <= 512
    and |v| <= 64, else "".  Such fractions lie over 2e-9 apart, so the one
    found, at the smallest q, is ``Fraction(v).limit_denominator(512)``."""
    den = np.zeros(len(x), dtype=np.int64)
    for q in range(512, 0, -1):  # the last hit is the smallest q
        den[np.abs(np.rint(x * q) / q - x) <= 1e-9] = q
    den[np.abs(x) > 64] = 0
    num = np.rint(x * den).astype(np.int64).tolist()
    pairs = zip(num, den.tolist())
    return [f"  (= {p}/{q})" if q > 1 else f"  (= {p})" if q else "" for p, q in pairs]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _build_report(psi, tol):
    n = psi.num_qubits
    table = all_infos_fast(psi)
    reports = _reports("pure", psi, table, tol)
    # the taus of the one-vs-rest (eq14) and pair-vs-rest (eq20) cases
    cases = {name: IDENTITIES[name].cases(n) for name in applicable("pure", n)}
    tau = 2.0 * (1.0 - table.purities)
    taus_single = {c["k"]: float(tau[1 << c["k"] - 1]) for c in cases.get("eq14", ())}
    pairs = [tuple(c["pair"]) for c in cases.get("eq20", ())]
    taus_pair = {p: float(tau[_subset_to_mask(p)]) for p in pairs}
    extras = {}
    if n % 2 == 0:
        extras["n_tangle"] = n_tangle(psi)
    if n == 2:
        extras["concurrence_sq"] = concurrence_sq_2q(psi)
    return table, taus_single, taus_pair, extras, reports


@cache
def _entry_template(n, fmt):
    """The I_S entries of an n-qubit report in ``fmt``, in ``_io_order``, as
    one %-template that takes each value's repr (and in a table, its hint)."""
    subsets, _ = _io_order(n)
    names = [str(q) for q in range(n + 1)]
    labels = ["-".join(map(names.__getitem__, s)) for s in subsets]
    if fmt == "json":  # what json.dumps(table.to_json_obj(), sort_keys=True) writes
        entries = ", ".join(['{"I": %r, "subset": [' + s.replace("-", ", ") + "]}" for s in labels])
        return f'{{"entries": [{entries}], "n": {n}}}'
    if fmt == "csv":
        return "".join(f"{label},{len(s)},%r\n" for label, s in zip(labels, subsets))
    return "".join(f"  I_{label:<12} % .12g%s\n" for label in labels)


def _report_text(table, taus_single, taus_pair, extras, reports, fmt):
    """The whole report in ``fmt``; a non-finite I_S raises ValueError."""
    n = table.num_qubits
    values = table.values[_io_order(n)[1]]
    if not np.isfinite(values).all():
        raise ValueError("information table holds a non-finite value")
    template = _entry_template(n, fmt)
    if fmt == "csv":
        return "subset,size,I\n" + template % tuple(values.tolist())
    local, nonlocal_ = table.local_total(), table.nonlocal_total()
    if fmt == "json":
        parts = {
            "n": n,
            "I_local": local,
            "I_nonlocal": nonlocal_,
            "tau_single": {str(k): v for k, v in taus_single.items()},
            "tau_pair": {"-".join(map(str, p)): v for p, v in taus_pair.items()},
            **extras,
            "identities": [r.to_json_obj() for r in reports],
        }
        fields = {key: json.dumps(val, sort_keys=True) for key, val in parts.items()}
        fields["info_table"] = template % tuple(values.tolist())
        return "{" + ", ".join(f'"{key}": {fields[key]}' for key in sorted(fields)) + "}\n"
    scalars = [local, nonlocal_, *taus_single.values(), *taus_pair.values(), *extras.values()]
    hints = _frac_hints(np.concatenate((values, scalars)))
    hint = iter(hints[len(values):])  # the scalars' hints, in the order they print
    lines = [f"state on {n} qubit(s)\n\ninformation values\n"]
    lines.append(template % tuple(x for pair in zip(values.tolist(), hints) for x in pair))
    lines.append(f"\n  I_local    {local: .12g}{next(hint)}\n")
    lines.append(f"  I_nonlocal {nonlocal_: .12g}{next(hint)}\n")
    if taus_single:
        lines.append("\nlinear entropies (one vs rest)\n")
        lines += [f"  tau_{k}(rest)   {v: .12g}{next(hint)}\n" for k, v in taus_single.items()]
    if taus_pair:
        lines.append("\nlinear entropies (pair vs rest)\n")
        lines += [f"  tau_{p[0]}{p[1]}(rest)  {v: .12g}{next(hint)}\n" for p, v in taus_pair.items()]
    lines += [f"\n{key} = {val:.12g}{next(hint)}\n" for key, val in extras.items()]
    lines.append("\nidentity checks\n")
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        ctx = {k: v for k, v in r.context.items() if k != "n"}
        lines.append(f"  [{status}] {r.identity:<22} residual {r.residual: .3e}  {ctx}\n")
    return "".join(lines)


def cmd_report(args):
    psi = _resolve_pure(args.state)
    table, taus_single, taus_pair, extras, reports = _build_report(psi, args.tol)
    text = _report_text(table, taus_single, taus_pair, extras, reports, args.format)
    if args.out:
        with open(args.out, "w") as dest:
            dest.write(text)
    else:
        sys.stdout.write(text)
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
    """Time the fast route three ways: its first call in this process (in a
    fresh process, that includes the purity plan's build), the plan's build
    alone, and the fastest of three warm calls; then the enumeration
    oracle's one call, against the first call."""
    from .statekit import random_pure

    if args.seed < 0:  # numpy's own error would not name the option
        raise ValueError(f"seed must be a non-negative integer, got {args.seed}")
    psi = random_pure(args.n, args.seed)
    t0 = time.perf_counter()
    fast = all_infos_fast(psi)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    _purity_plan.__wrapped__(psi.num_qubits)  # built anew, the cached plan untouched
    t_plan = time.perf_counter() - t0
    t_warm = []
    for _ in range(3):
        t0 = time.perf_counter()
        all_infos_fast(psi)
        t_warm.append(time.perf_counter() - t0)
    workers = _purity_workers(psi.num_qubits)
    lines = [
        f"fast route        n={args.n}: first call {t_fast * 1e3:.2f} ms, "
        f"purity pass on {workers} worker{'s' if workers > 1 else ''}",
        f"  purity plan build {t_plan * 1e3:.2f} ms",
        f"  warm call         {min(t_warm) * 1e3:.2f} ms (best of {len(t_warm)})",
    ]
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
    """The console script.  It owns its process, so it runs OpenBLAS on one
    thread before the first product: then ``_purity_workers`` counts every
    CPU, and the purity pass runs on as many workers from n = 11.  ``main``,
    which library callers share their process with, leaves BLAS as it is."""
    setter = _openblas()[1]
    if setter is not None:
        setter(1)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
