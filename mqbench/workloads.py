"""The benchmark's workloads and its closed measurement loop.

Each workload makes its inputs from the benchmark seed and the operation
index, runs one operation through the same entry point a user would (the
`mqinfo` command's ``main`` in-process, or the public library function for
the oracle), and checks the output with the code in ``checks``.  One client
runs in one process and sends the next operation only when the previous one
has returned (a closed loop).
"""

import io
import json
import os
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout

import numpy as np

import checks

MIN_OPS = 3  # every run times at least this many operations


class Reference:
    """A fixed numpy-and-Python routine timed between operations.

    The host's speed drifts by up to about 1.9x over seconds (other tenants
    share the machine), which no amount of repetition inside a 20 s run
    averages out.  Every operation's wall time is therefore also reported
    calibrated: scaled by NOMINAL_S over the mean of the reference times
    measured just before and just after it.  The routine mixes the kinds of
    work mqinfo does (dict-heavy Python, reshapes and transposes of a
    2^12 amplitude vector, small complex matrix products, gathers, and many
    numpy calls on tiny arrays) and must never change, or calibrated times
    stop being comparable.
    """

    NOMINAL_S = 2.4e-3  # about the routine's time on the idle 2-vCPU baseline host

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.mat = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.vec = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        self.perm = rng.permutation(4096)
        self.small = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.parity = np.array([bin(i).count("1") & 1 for i in range(32)])

    def seconds(self):
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[(i & 63, i >> 6)] = i * 0.5
        acc = sum(val for key, val in table.items() if key[0] & 1)
        tensor = self.vec.reshape((2,) * 12)
        for k in range(12):
            block = tensor.transpose(list(range(k, 12)) + list(range(k))).reshape(64, 64)
            gram = block @ block.conj().T
            acc += float(np.sum(np.abs(gram) ** 2))
            acc += float(np.sum(np.conj(self.vec[self.perm]) * self.vec).real)
        acc += float((self.mat @ self.mat).sum().real)
        idx = np.arange(32)
        for mask in range(1, 64):
            signs = 1.0 - 2.0 * self.parity[idx & (mask >> 1)]
            acc += float(np.sum(self.small[idx, idx ^ (mask & 31)] * signs).real)
        return time.perf_counter() - t0

    def factor(self, before, after):
        """Calibration factor for an operation timed between two references."""
        return self.NOMINAL_S / (0.5 * (before + after))


def run_cli(argv):
    """``mqinfo <argv>`` in-process; returns (exit code, stdout, stderr)."""
    from mqinfo.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _remove(*paths):
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def _program_seed(seed, index):
    """Seed handed to the program for operation ``index``; distinct per op."""
    return seed * 10_000 + index


class ReportWorkload:
    """`mqinfo report --format json --out` on one Haar-random state file."""

    item = "state"

    def __init__(self, n):
        self.n = n
        self.parts = 1
        self.items = 1
        self.warmup = 'raise SystemExit(main(["report", "--state", "ghz:4", "--format", "json"]))'

    def prepare(self, seed, index, workdir):
        amps = checks.haar_amplitudes(np.random.default_rng([seed, index]), self.n)
        state = os.path.join(workdir, f"state-{index}.json")
        with open(state, "w") as fh:
            json.dump(
                {"kind": "pure", "n": self.n, "amplitudes": [[a.real, a.imag] for a in amps.tolist()]},
                fh,
            )
        return {"amps": amps, "state": state, "out": os.path.join(workdir, f"report-{index}.json")}

    def execute(self, inp, part):
        return run_cli(["report", "--state", f"file:{inp['state']}", "--format", "json", "--out", inp["out"]])

    def check(self, inp, outs, tally):
        code, _, err = outs[0]
        tally.check(code == 0, f"report exit code {code}: {err.strip()}")
        with open(inp["out"]) as fh:
            obj = json.load(fh)
        checks.check_report(obj, inp["amps"], self.n, tally)

    def bytes_out(self, inp, outs):
        size = os.path.getsize(inp["out"]) if os.path.exists(inp["out"]) else 0
        return len(outs[0][1].encode()) + size

    def cleanup(self, inp):
        _remove(inp["state"], inp["out"])


class FuzzWorkload:
    """`mqinfo fuzz --identity all --format json` over ``trials`` states."""

    item = "state"

    def __init__(self, n, trials):
        self.n = n
        self.trials = trials
        self.parts = 1
        self.items = trials
        self.warmup = 'raise SystemExit(main(["fuzz", "--n", "4", "--trials", "1", "--format", "json"]))'

    def prepare(self, seed, index, workdir):
        return {"seed": _program_seed(seed, index), "witness": os.path.join(workdir, f"witness-{index}.json")}

    def execute(self, inp, part):
        return run_cli([
            "fuzz", "--n", str(self.n), "--trials", str(self.trials), "--seed", str(inp["seed"]),
            "--identity", "all", "--format", "json", "--out", inp["witness"],
        ])

    def check(self, inp, outs, tally):
        code, stdout, err = outs[0]
        tally.check(code == 0, f"fuzz exit code {code}: {err.strip()}")
        checks.check_fuzz(json.loads(stdout), self.n, self.trials, tally)

    def bytes_out(self, inp, outs):
        return len(outs[0][1].encode())

    def cleanup(self, inp):
        _remove(inp["witness"])


class MixedWorkload:
    """One `mqinfo mixed-check --random --format json` call per m in ``ms``.

    Each call runs 2^m trials, so the default rank cycle visits every rank
    from 1 to 2^m exactly once.  Each call is one part of the operation and
    is calibrated on its own.
    """

    item = "state"

    def __init__(self, ms):
        self.ms = tuple(ms)
        self.parts = len(self.ms)
        self.items = sum(2**m for m in self.ms)
        self.warmup = (
            'raise SystemExit(main(["mixed-check", "--random", "--m", "2", "--trials", "1", "--format", "json"]))'
        )

    def prepare(self, seed, index, workdir):
        return {"seed": _program_seed(seed, index), "witness": os.path.join(workdir, f"witness-{index}.json")}

    def execute(self, inp, part):
        m = self.ms[part]
        return run_cli([
            "mixed-check", "--random", "--m", str(m), "--trials", str(2**m), "--seed", str(inp["seed"]),
            "--format", "json", "--out", inp["witness"],
        ])

    def check(self, inp, outs, tally):
        for m, (code, stdout, err) in zip(self.ms, outs):
            tally.check(code == 0, f"mixed-check m={m} exit code {code}: {err.strip()}")
            checks.check_mixed(json.loads(stdout), m, 2**m, tally)

    def bytes_out(self, inp, outs):
        return sum(len(stdout.encode()) for _, stdout, _ in outs)

    def cleanup(self, inp):
        _remove(inp["witness"])


class OracleWorkload:
    """`all_infos_enumerated` (the Pauli-enumeration oracle) on one state.

    The fast-route table it is checked against is built outside the timed
    call, so only the oracle is timed.
    """

    item = "table"

    def __init__(self, n):
        self.n = n
        self.parts = 1
        self.items = 1
        self.warmup = "mqinfo.all_infos_enumerated(mqinfo.random_pure(3, 0))"

    def prepare(self, seed, index, workdir):
        import mqinfo

        amps = checks.haar_amplitudes(np.random.default_rng([seed, index]), self.n)
        return {"amps": amps, "psi": mqinfo.PureState(self.n, amps)}

    def execute(self, inp, part):
        import mqinfo

        return mqinfo.all_infos_enumerated(inp["psi"])

    def check(self, inp, outs, tally):
        import mqinfo

        fast = mqinfo.all_infos_fast(inp["psi"])
        checks.check_oracle(outs[0].entries, fast.entries, inp["amps"], self.n, tally)

    def bytes_out(self, inp, outs):
        return 0

    def cleanup(self, inp):
        pass


# the reason for each workload is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "report-n12": ReportWorkload(12),
    "fuzz-n4": FuzzWorkload(4, 100),
    "fuzz-n8": FuzzWorkload(8, 10),
    "mixed-m2to5": MixedWorkload((2, 3, 4, 5)),
    "oracle-n6": OracleWorkload(6),
}


def run_op(workload, seed, index, workdir, tally, ref, before, tracer=None):
    """Run, time and check operation ``index``, part by part.

    The reference routine runs after every part, outside the timed calls;
    ``before`` is the reference time measured just before the first part.
    With a tracer each part runs inside a root span and is timed by it.  The
    output check runs after the last part.  Returns (seconds, calibrated
    seconds, bytes out, last reference time).
    """
    inp = workload.prepare(seed, index, workdir)
    outs = []
    seconds = calibrated = 0.0
    for part in range(workload.parts):
        ctx = tracer.op(index) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx as span:
                outs.append(workload.execute(inp, part))
        except Exception:  # a crash is a failed operation, not the end of the run
            tally.check(False, f"operation {index} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - t0 if tracer is None else tracer.op_seconds(span)
        after = ref.seconds()
        seconds += elapsed
        calibrated += elapsed * ref.factor(before, after)
        before = after
    if len(outs) == workload.parts:
        try:
            workload.check(inp, outs, tally)
        except (KeyError, TypeError, ValueError, OSError) as exc:
            tally.check(False, f"operation {index}: output unreadable: {exc!r}")
    tally.end_op()
    sent = workload.bytes_out(inp, outs) if len(outs) == workload.parts else 0
    workload.cleanup(inp)
    return seconds, calibrated, sent, before


def measure(workload, seed, seconds, workdir, tally, tracer=None, count=None):
    """Run operations 1, 2, ... for ``seconds`` (and at most ``count``).

    Untraced runs warm up first with operation 0.  Returns one
    (seconds, calibrated seconds, bytes out) triple per operation.
    """
    ref = Reference()
    before = ref.seconds()
    if tracer is None:
        before = run_op(workload, seed, 0, workdir, tally, ref, before)[3]
    results = []
    deadline = time.perf_counter() + seconds
    while count is None or len(results) < count:
        if len(results) >= (MIN_OPS if tracer is None else 1) and time.perf_counter() >= deadline:
            break
        *result, before = run_op(workload, seed, len(results) + 1, workdir, tally, ref, before, tracer)
        results.append(tuple(result))
    return results
