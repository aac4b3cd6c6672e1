"""Output checks that do not trust the program.

Every expected value here comes from the benchmark's own numpy code, applied
to the amplitudes the benchmark generated, or from the identities the paper
proves (for example, the subset information values of a pure state sum to n).
Nothing is imported from mqinfo.
"""

import math
import statistics
from itertools import combinations

import numpy as np

GATE = 1e-9  # the repository's equality gate; never loosened here
RESIDUAL_FLOOR = np.finfo(np.float64).eps  # keeps headroom finite on exact zeros


class Tally:
    """Counts checks attempted and failed, and tracks residuals per operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.max_residual = 0.0
        self.messages = []
        self._op_residual = None
        self._headrooms = []

    def check(self, ok, what):
        """One pass/fail check; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def close(self, got, want, what):
        """|got - want| <= gate; a missing or non-numeric value fails."""
        try:
            diff = abs(float(got) - float(want))
        except (TypeError, ValueError):
            diff = math.inf
        return self.check(diff <= GATE, f"{what}: got {got!r}, want {want!r}")

    def residual(self, value):
        """Record a residual of an equality check or an oracle difference."""
        value = abs(float(value))
        self.max_residual = max(self.max_residual, value)
        self._op_residual = max(self._op_residual or 0.0, value)

    def end_op(self):
        """Close one operation's residuals into its headroom."""
        if self._op_residual is not None:
            self._headrooms.append(math.log10(GATE / max(self._op_residual, RESIDUAL_FLOOR)))
        self._op_residual = None

    def headroom_log10(self):
        """Median over operations of log10(gate / max |residual|), in decades."""
        return statistics.median(self._headrooms) if self._headrooms else 0.0


# ---------------------------------------------------------------------------
# independent numpy reductions (qubit 1 is the most significant index bit)
# ---------------------------------------------------------------------------

def haar_amplitudes(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def subset_purity(amps, n, subset):
    """tr(rho_S^2) for the 1-based qubit subset S of a pure state."""
    axes = [q - 1 for q in subset]
    rest = [a for a in range(n) if a not in axes]
    block = amps.reshape((2,) * n).transpose(axes + rest).reshape(2 ** len(axes), -1)
    rho = block @ block.conj().T
    return float(np.sum(np.abs(rho) ** 2))


def n_tangle(amps, n):
    """|<psi| Y^n |psi*>|^2 = |sum_b (-1)^popcount(b) psi_b psi_~b|^2."""
    idx = np.arange(2**n)
    parity = np.array([bin(b).count("1") & 1 for b in idx])
    signs = 1.0 - 2.0 * parity
    return float(abs(np.sum(signs * amps * amps[idx ^ (2**n - 1)])) ** 2)


# ---------------------------------------------------------------------------
# per-workload output checks
# ---------------------------------------------------------------------------

def check_report(obj, amps, n, tally):
    """A `report --format json` object against the generated amplitudes."""
    singles = {k: subset_purity(amps, n, (k,)) for k in range(1, n + 1)}
    entries = {tuple(e["subset"]): e["I"] for e in obj["info_table"]["entries"]}
    tally.check(obj["n"] == n, f"report n = {obj['n']!r}, want {n}")
    tally.check(len(entries) == 2**n - 1, f"{len(entries)} table entries, want {2**n - 1}")
    for k, p in singles.items():
        tally.close(entries.get((k,)), 2.0 * p - 1.0, f"I_{k}")
        tally.close(obj["tau_single"].get(str(k)), 2.0 * (1.0 - p), f"tau_{k}(rest)")
    if n >= 4:
        for pair in combinations(range(1, n + 1), 2):
            key = "-".join(map(str, pair))
            want = 2.0 * (1.0 - subset_purity(amps, n, pair))
            tally.close(obj["tau_pair"].get(key), want, f"tau_{key}(rest)")
    tally.close(obj["I_local"], sum(2.0 * p - 1.0 for p in singles.values()), "I_local")
    # complementarity: every subset value of a pure state sums to n
    tally.close(obj["I_local"] + obj["I_nonlocal"], n, "I_local + I_nonlocal")
    tally.close(math.fsum(entries.values()), n, "sum of the table")
    if n % 2 == 0:
        tally.close(obj.get("n_tangle"), n_tangle(amps, n), "n_tangle")
    for rep in obj["identities"]:
        res = rep["residual"]
        tally.check(rep["passed"] and abs(res) <= GATE, f"{rep['identity']} residual {res!r}")
        tally.residual(res)


# identities run by `fuzz --identity all` and the checks each makes per state
def fuzz_checks_per_state(n):
    checks = {"eq1b": 1, "eq14": n}
    if n >= 4:
        checks["eq20"] = n * (n - 1) // 2
    if n == 4:
        checks.update(eq12=1, eq26=1)
    return checks


def check_fuzz(rows, n, trials, tally):
    """A `fuzz --format json` summary list; every identity is an equality."""
    want = fuzz_checks_per_state(n)
    tally.check(sorted(r["identity"] for r in rows) == sorted(want), f"fuzz identities {rows!r}")
    for r in rows:
        # the identity checks the program ran, and the ones it saw fail
        tally.attempted += trials * want.get(r["identity"], 1)
        tally.failed += r["failures"]
        tally.check(
            r["passed"] and r["max_residual"] <= GATE,
            f"fuzz {r['identity']} n={n}: {r!r}",
        )
        tally.check(r["n"] == n and r["trials"] == trials, f"fuzz {r['identity']} echoed {r!r}")
        tally.residual(r["max_residual"])


# mixed identities per qubit count; eq23 is an inequality, the others equalities
def mixed_identities(m):
    return {2: ("eq24", "eq23"), 3: ("eq25", "eq23")}.get(m, ("eq23",))


def check_mixed(rows, m, trials, tally):
    """A `mixed-check --random --format json` summary list."""
    want = mixed_identities(m)
    tally.check(sorted(r["identity"] for r in rows) == sorted(want), f"mixed identities {rows!r}")
    for r in rows:
        tally.attempted += trials
        tally.failed += r["failures"]
        tally.check(r["passed"], f"mixed {r['identity']} m={m}: {r!r}")
        tally.check(r["m"] == m and r["trials"] == trials, f"mixed {r['identity']} echoed {r!r}")
        if r["identity"] != "eq23":
            tally.check(r["max_residual"] <= GATE, f"mixed {r['identity']} residual {r!r}")
            tally.residual(r["max_residual"])


def check_oracle(enum_entries, fast_entries, amps, n, tally):
    """The enumeration oracle against the fast route and the own reduction."""
    tally.check(set(enum_entries) == set(fast_entries), "oracle and fast tables differ in subsets")
    for subset, value in enum_entries.items():
        diff = abs(value - fast_entries.get(subset, math.inf))
        tally.check(diff <= GATE, f"oracle I_{subset}: {value!r} vs fast {fast_entries.get(subset)!r}")
        tally.residual(diff)
    for k in range(1, n + 1):
        tally.close(enum_entries.get((k,)), 2.0 * subset_purity(amps, n, (k,)) - 1.0, f"oracle I_{k}")
