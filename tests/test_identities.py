import json
import re
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import mqinfo as mq
from mqinfo import identities, statekit
from mqinfo.identities import (
    EQ_TOL,
    IDENTITIES,
    MAX_TRIALS,
    MIXED_IDENTITIES,
    MIXED_PAIR_TOL,
    _chunk,
    applicable,
    check,
    derive_seed,
)
from mqinfo.measures import info_values
from mqinfo.statekit import _Draws, random_pure_stack


def bell_pair_tensor():
    """Bell x Bell on 4 qubits (pairs 1-2 and 3-4)."""
    s = 1 / np.sqrt(2)
    bell = np.array([s, 0, 0, s])
    return mq.pure_from_amplitudes(4, np.kron(bell, bell))


class TestComplementarity:
    def test_ghz3_exact(self, ghz3):
        rep = mq.residual_complementarity(ghz3)
        assert rep.passed and abs(rep.residual) < 1e-12

    def test_w4_exact(self, w4):
        rep = mq.residual_complementarity(w4)
        assert abs(rep.residual) < 1e-12
        assert rep.lhs == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_random(self, n):
        rep = mq.residual_complementarity(mq.random_pure(n, 55 + n))
        assert abs(rep.residual) <= 1e-9


class TestSinglePartition:
    def test_bell(self, bell):
        rep = mq.residual_single_partition(bell, 1)
        assert rep.lhs == pytest.approx(2.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_w3(self, w3):
        rep = mq.residual_single_partition(w3, 1)
        assert rep.lhs == pytest.approx(24 / 9, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_all_qubits(self, n):
        psi = mq.random_pure(n, 70 + n)
        for k in range(1, n + 1):
            assert abs(mq.residual_single_partition(psi, k).residual) <= 1e-9

    def test_bad_qubit(self, bell):
        with pytest.raises(ValueError):
            mq.residual_single_partition(bell, 3)


class TestPairPartition:
    def test_ghz4(self, ghz4):
        rep = mq.residual_pair_partition(ghz4, (1, 2))
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(4.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_pair_partition(w4, (1, 2))
        assert rep.lhs == pytest.approx(4.0, abs=1e-12)
        assert abs(rep.residual) < 1e-12

    def test_crossing_subsets_exclude_the_pair_itself(self, w4):
        # I_12 and I_34 must not enter the right-hand side
        table = mq.all_infos_fast(w4)
        rep = mq.residual_pair_partition(w4, (1, 2), table)
        crossing_sum = sum(
            v
            for s, v in table.entries.items()
            if len(s) >= 2 and s not in [(1, 2), (3, 4)] and len(s) > 1
            and set(s) & {1, 2} and set(s) - {1, 2}
        )
        assert rep.rhs == pytest.approx(crossing_sum)

    def test_mask_sums_match_subset_scans(self):
        # the mask reductions against the tuple-scan definitions they replace
        from itertools import combinations

        n = 6
        psi = mq.random_pure(n, 66)
        table = mq.all_infos_fast(psi)
        for k in range(1, n + 1):
            scan = sum(v for s, v in table.entries.items() if k in s and len(s) >= 2)
            rhs = mq.residual_single_partition(psi, k, table).rhs
            assert rhs == pytest.approx(scan, abs=1e-12)
        for pair in combinations(range(1, n + 1), 2):
            pset = set(pair)
            scan = sum(
                v
                for s, v in table.entries.items()
                if len(s) >= 2 and (set(s) & pset) and (set(s) - pset)
            )
            rhs = mq.residual_pair_partition(psi, pair, table).rhs
            assert rhs == pytest.approx(scan, abs=1e-12)

    def test_oracle_table_falls_back_to_recomputed_taus(self):
        psi = mq.random_pure(4, 68)
        fast = mq.residual_pair_partition(psi, (1, 3))
        oracle = mq.residual_pair_partition(psi, (1, 3), mq.all_infos_enumerated(psi))
        assert oracle.lhs == pytest.approx(fast.lhs, abs=1e-12)
        assert abs(oracle.residual) <= 1e-9

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_all_pairs(self, n):
        from itertools import combinations

        psi = mq.random_pure(n, 90 + n)
        for pair in combinations(range(1, n + 1), 2):
            assert abs(mq.residual_pair_partition(psi, pair).residual) <= 1e-9

    def test_too_few_qubits(self, w3):
        with pytest.raises(ValueError):
            mq.residual_pair_partition(w3, (1, 2))


class TestPartitionSides:
    """eq14 and eq20 are one part-vs-rest relation, which holds for every part P of
    p qubits: 2^(p-1) (2^(n-2p) + 1) tau_P(rest) = the sum of I_S over S crossing P."""

    @staticmethod
    def _sides(amps, p):
        n = amps.shape[1].bit_length() - 1
        cases = [{"part": list(part)} for part in combinations(range(1, n + 1), p)]
        return identities._partition_sides(*info_values(amps), amps, cases)

    @pytest.mark.parametrize("n", [6, 7, 8, 9])
    @pytest.mark.parametrize("p", [3, 4])
    def test_larger_parts(self, n, p):
        # no registry row runs these parts, so fuzz and report do not
        amps = random_pure_stack(n, [derive_seed(n, t) for t in range(3)])
        lhs, rhs = self._sides(amps, p)
        assert lhs.shape == rhs.shape == (3, len(list(combinations(range(n), p))))
        assert np.abs(lhs - rhs).max() <= 1e-9
        assert rhs.min() > 0.1  # a random state is entangled across every part

    @pytest.mark.parametrize("n", [4, 5, 8])
    def test_one_and_two_qubit_parts_are_eq14_and_eq20(self, n):
        psi = mq.random_pure(n, 40 + n)
        for name, p in (("eq14", 1), ("eq20", 2)):
            lhs, rhs = self._sides(psi.amplitudes[None], p)
            reports = [check(name, psi, **case) for case in IDENTITIES[name].cases(n)]
            assert [(rep.lhs, rep.rhs) for rep in reports] == list(zip(lhs[0], rhs[0]))


class TestTangleRelation4q:
    def test_ghz4(self, ghz4):
        rep = mq.residual_tangle_relation_4q(ghz4)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_tangle_relation_4q(w4)
        assert rep.lhs == pytest.approx(-4.0, abs=1e-12)
        assert rep.rhs == pytest.approx(-4.0, abs=1e-12)

    def test_generalized_ghz(self):
        theta = np.pi / 6
        amps = np.zeros(16, dtype=complex)
        amps[0], amps[15] = np.cos(theta), np.sin(theta)
        rep = mq.residual_tangle_relation_4q(mq.pure_from_amplitudes(4, amps))
        assert rep.lhs == pytest.approx(-1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(-1.0, abs=1e-12)

    def test_random(self):
        for seed in range(20):
            rep = mq.residual_tangle_relation_4q(mq.random_pure(4, seed))
            assert abs(rep.residual) <= 1e-9

    def test_wrong_size(self, w3):
        with pytest.raises(ValueError):
            mq.residual_tangle_relation_4q(w3)


class TestCombination4q:
    def test_ghz4(self, ghz4):
        rep = mq.residual_combination_4q(ghz4)
        assert rep.lhs == pytest.approx(8.0, abs=1e-12)
        assert rep.rhs == pytest.approx(8.0, abs=1e-12)

    def test_w4(self, w4):
        rep = mq.residual_combination_4q(w4)
        assert rep.lhs == pytest.approx(3.0, abs=1e-12)
        assert rep.rhs == pytest.approx(3.0, abs=1e-12)

    def test_bell_pair(self):
        rep = mq.residual_combination_4q(bell_pair_tensor())
        assert abs(rep.residual) < 1e-12

    def test_random(self):
        for seed in range(20):
            rep = mq.residual_combination_4q(mq.random_pure(4, 200 + seed))
            assert abs(rep.residual) <= 1e-9


class TestMixedPair:
    def test_maximally_mixed(self):
        rho = mq.MixedState(2, np.eye(4, dtype=complex) / 4)
        rep = mq.residual_mixed_pair(rho)
        assert rep.lhs == pytest.approx(0.75)
        assert rep.rhs == pytest.approx(0.75)

    def test_bell_density(self, bell):
        rep = mq.residual_mixed_pair(mq.density_of(bell))
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)

    def test_bell_basis_mixture(self, bell):
        basis = mq.density_of(mq.make_named("basis-product", 2)).matrix
        mix = mq.MixedState(2, 0.5 * basis + 0.5 * mq.density_of(bell).matrix)
        rep = mq.residual_mixed_pair(mix)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.rhs == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_random_ranks(self, rank):
        for seed in range(20):
            rep = mq.residual_mixed_pair(mq.random_mixed(2, rank, seed))
            assert abs(rep.residual) <= 1e-10
            assert rep.context["margin"] >= -1e-12

    @pytest.mark.parametrize("rank", [1, 2, 4])
    def test_sides_match_partial_trace_oracle(self, rank):
        for seed in range(10):
            rho = mq.random_mixed(2, rank, seed)
            lhs = sum(mq.purity(mq.partial_trace(rho, (q,))) for q in (1, 2)) - mq.purity(rho)
            rep = mq.residual_mixed_pair(rho)
            assert abs(rep.lhs - lhs) <= 1e-12
            assert abs(rep.rhs - (1.0 - mq.tilde_overlap(rho))) <= 1e-12


class TestMixedTriple:
    def test_ghz3_density(self, ghz3):
        rep = mq.residual_mixed_triple(mq.density_of(ghz3))
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        rho = mq.MixedState(3, np.eye(8, dtype=complex) / 8)
        rep = mq.residual_mixed_triple(rho)
        assert rep.lhs == pytest.approx(7 / 8)
        assert rep.rhs == pytest.approx(7 / 8)

    def test_basis_projector(self):
        rep = mq.residual_mixed_triple(
            mq.density_of(mq.make_named("basis-product", 3))
        )
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_random_ranks(self, rank):
        for seed in range(15):
            rep = mq.residual_mixed_triple(mq.random_mixed(3, rank, seed))
            assert abs(rep.residual) <= 1e-9
            assert rep.context["margin"] >= -1e-9

    @pytest.mark.parametrize("rank", [1, 2, 8])
    def test_sides_match_partial_trace_oracle(self, rank):
        for seed in range(10):
            rho = mq.random_mixed(3, rank, seed)
            pairs = [mq.partial_trace(rho, pair) for pair in ((1, 2), (1, 3), (2, 3))]
            pair_sum = sum(mq.purity(red) + mq.tilde_overlap(red) for red in pairs)
            rep = mq.residual_mixed_triple(rho)
            assert abs(rep.lhs - (mq.purity(rho) - 0.5 * pair_sum + 1.5)) <= 1e-12
            assert abs(rep.rhs - (1.0 - mq.tilde_overlap(rho))) <= 1e-12
            assert rep.context["margin"] == rep.lhs


class TestMixedTotalInfo:
    def test_maximally_mixed_margin(self):
        # every expectation vanishes, so each size >= 2 subset contributes -1:
        # total = -(2^m - 1 - m), margin = 2^m - 1
        for m in (2, 3, 6, 7):
            rho = mq.MixedState(m, np.eye(2**m, dtype=complex) / 2**m)
            rep = mq.mixed_total_info_margin(rho)
            assert rep.lhs == pytest.approx(-(2**m - 1 - m), abs=1e-12)
            assert rep.context["margin"] == pytest.approx(2**m - 1, abs=1e-12)

    def test_pure_density_saturates(self):
        rep = mq.mixed_total_info_margin(mq.density_of(mq.random_pure(3, 77)))
        assert rep.context["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_random(self):
        for seed in range(10):
            rep = mq.mixed_total_info_margin(mq.random_mixed(3, 4, seed))
            assert rep.context["margin"] >= -1e-9
        for m in (6, 7):
            rep = mq.mixed_total_info_margin(mq.random_mixed(m, 5, m))
            assert rep.passed and rep.context["margin"] >= -1e-9


class TestReportStructure:
    def test_json_obj_fields(self, bell):
        rep = mq.residual_complementarity(bell)
        obj = rep.to_json_obj()
        assert list(obj) == [
            "identity", "lhs", "rhs", "residual", "tolerance", "passed", "context",
        ]
        assert obj["context"] is rep.context

    def test_residual_is_lhs_minus_rhs(self, w4):
        rep = mq.residual_single_partition(w4, 2)
        assert rep.residual == rep.lhs - rep.rhs

    def test_checkers_are_pure(self, w4):
        a = mq.residual_pair_partition(w4, (1, 3))
        b = mq.residual_pair_partition(w4, (1, 3))
        assert a == b


# each identity's public checker, called with one case of its registry row
PUBLIC = {
    "eq1b": lambda state, tol: mq.residual_complementarity(state, tol=tol),
    "eq14": lambda state, tol, k: mq.residual_single_partition(state, k, tol=tol),
    "eq20": lambda state, tol, pair: mq.residual_pair_partition(state, pair, tol=tol),
    "eq12": lambda state, tol: mq.residual_tangle_relation_4q(state, tol=tol),
    "eq26": lambda state, tol: mq.residual_combination_4q(state, tol=tol),
    "eq24": lambda state, tol: mq.residual_mixed_pair(state, tol=tol),
    "eq25": lambda state, tol: mq.residual_mixed_triple(state, tol=tol),
    "eq23": lambda state, tol: mq.mixed_total_info_margin(state, tol=tol),
}
# the qubit counts each kind allows
SIZES = {"pure": range(1, 9), "mixed": range(1, 8)}


def _state(kind, n, seed, rank=1):
    return mq.random_pure(n, seed) if kind == "pure" else mq.random_mixed(n, rank, seed)


def _typed(value):
    """``value`` with every leaf paired with its type, so that equal values
    of other types (1 and np.int64(1), 1.0 and np.float64(1.0)) differ."""
    if isinstance(value, dict):
        return {k: _typed(v) for k, v in value.items()}, list(value)
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return value, type(value)


def _leaves(value):
    if isinstance(value, (dict, list)):
        for v in value.values() if isinstance(value, dict) else value:
            yield from _leaves(v)
    else:
        yield value


class TestRegistryRows:
    @pytest.mark.parametrize("tol", [1e-9, 1e-30])
    @pytest.mark.parametrize(
        "kind, n", [(kind, n) for kind, sizes in SIZES.items() for n in sizes]
    )
    def test_check_equals_public_checker_and_chunk_rows(self, kind, n, tol):
        names = mq.applicable(kind, n)
        seeds = [derive_seed(n, t) for t in range(3)]
        ranks = None if kind == "pure" else [t % 2**n + 1 for t in range(3)]
        _, results = _chunk([IDENTITIES[name] for name in names], n, _Draws(seeds), len(seeds), tol, ranks)
        for row, seed in enumerate(seeds):
            state = _state(kind, n, seed, ranks[row] if ranks else 1)
            for name, (lhs, rhs, *_) in zip(names, results):
                cases = IDENTITIES[name].cases(n)
                assert lhs.shape == rhs.shape == (len(seeds), len(cases))
                for col, case in enumerate(cases):
                    rep = check(name, state, tol=tol, **case)
                    assert rep == PUBLIC[name](state, tol, **case)
                    assert (rep.lhs, rep.rhs) == (lhs[row, col], rhs[row, col])

    @pytest.mark.parametrize("tol", [EQ_TOL, 0.0])
    @pytest.mark.parametrize(
        "kind, n", [("pure", n) for n in range(1, 13)] + [("mixed", m) for m in range(1, 8)]
    )
    def test_reports_equal_one_check_per_case(self, kind, n, tol):
        # report and mixed-check --rho evaluate each row once over its cases;
        # every field, and every context value's type, is one check call's
        if kind == "pure":
            named = [mq.make_named(f, n) for f in ("ghz", "w") if n >= 2]
            states = [*named, mq.make_named("basis-product", n), *(mq.random_pure(n, s) for s in (1, 2))]
        else:
            flat = mq.MixedState(n, np.eye(2**n, dtype=np.complex128) / 2**n)
            states = [mq.random_mixed(n, 1, 3), mq.random_mixed(n, 2**n, 4), flat]
        for state in states:
            table = mq.all_infos_fast(state) if kind == "pure" else None
            want = [
                check(name, state, table, tol, **case)
                for name in applicable(kind, n)
                for case in IDENTITIES[name].cases(n)
            ]
            got = identities._reports(kind, state, table, tol)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert _typed(vars(a)) == _typed(vars(b))
                assert {type(v) for v in _leaves(vars(a))} <= {str, float, bool, int}

    @pytest.mark.parametrize("name", list(IDENTITIES))
    def test_case_with_other_keys(self, name):
        # a missing, an extra or a wrong key names the keys the row takes;
        # under eq20 a k would otherwise be a one-qubit part, eq14's relation
        ident = IDENTITIES[name]
        n = next(n for n in SIZES[ident.kind] if ident.applies(n))
        state = _state(ident.kind, n, 5)
        case = ident.cases(n)[0]
        other = {"k": 1} if "pair" in case else {"pair": [1, 2]}
        takes = ", ".join(case) or "no keys"
        for bad in ({}, {**case, **other}, other):
            if bad != case:
                got = ", ".join(bad) or "no keys"
                with pytest.raises(ValueError, match=f"^{name} takes {takes}, got {got}$"):
                    check(name, state, **bad)

    def test_table_of_another_qubit_count(self):
        psi = mq.random_pure(4, 1)
        table = mq.all_infos_fast(mq.random_pure(5, 2))
        calls = (lambda: check("eq1b", psi, table), lambda: mq.residual_single_partition(psi, 1, table))
        for call in calls:
            with pytest.raises(ValueError, match="^table of 5 qubits for a state of 4$"):
                call()

    @pytest.mark.parametrize(
        "name, n",
        [
            (name, n)
            for name, ident in IDENTITIES.items()
            for n in SIZES[ident.kind]
            if not ident.applies(n)
        ],
    )
    def test_inapplicable_qubit_count(self, name, n):
        state = _state(IDENTITIES[name].kind, n, n)
        case = {"eq14": {"k": 1}, "eq20": {"pair": [1, 2]}}.get(name, {})
        match = f"^{name} requires {re.escape(IDENTITIES[name].requirement)}$"
        with pytest.raises(ValueError, match=match):
            check(name, state, **case)
        with pytest.raises(ValueError, match=match):
            PUBLIC[name](state, 1e-9, **case)

    def test_unknown_identity_or_kind(self, w4):
        with pytest.raises(ValueError, match="unknown identity 'eq99'"):
            check("eq99", w4)
        with pytest.raises(ValueError, match="^eq23 is a mixed-state identity$"):
            check("eq23", w4)
        with pytest.raises(ValueError, match="^eq1b is a pure-state identity$"):
            check("eq1b", mq.random_mixed(2, 1, 0))

    # a bad case raises the same ValueError through check as through the public
    # checker, never an IndexError, a TypeError or a report; a qubit is an
    # integer, and a bool is not one
    @pytest.mark.parametrize("k", [0, -1, 5, 1.5, 2.0, True, "2", None])
    def test_bad_qubit(self, k, w4):
        # an integer is out of range; anything else is printed as its repr
        message = f"qubit {k} outside 1..4" if type(k) is int else f"qubit must be an integer, got {k!r}"
        for call in (lambda: check("eq14", w4, k=k), lambda: mq.residual_single_partition(w4, k)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.parametrize(
        "pair",
        [(1, 1), (0, 2), (3, 5), (1, 2, 3), (), (1.0, 2.0), [1, 2.5], "12", (True, 2), (1, None)],
    )
    def test_bad_pair(self, pair, w4):
        errors = []
        calls = (lambda: check("eq20", w4, pair=pair), lambda: mq.residual_pair_partition(w4, pair))
        for call in calls:
            with pytest.raises(ValueError, match=r"^bad pair \(.*\) for n=4$") as err:
                call()
            errors.append(str(err.value))
        assert errors[0] == errors[1]

    def test_numpy_integer_qubits_are_reported_as_int(self, w4):
        for name, case, plain in (
            ("eq14", {"k": np.int64(2)}, {"k": 2}),
            ("eq20", {"pair": np.array([3, 1], dtype=np.uint8)}, {"pair": [1, 3]}),
        ):
            rep = check(name, w4, **case)
            assert rep == check(name, w4, **plain)
            for key, value in plain.items():
                assert rep.context[key] == value
                assert type(rep.context[key]) is type(value)
            json.dumps(rep.to_json_obj())
        assert type(mq.residual_single_partition(w4, np.int8(4)).context["k"]) is int

    def test_unsorted_pair_is_sorted(self, w4):
        rep = check("eq20", w4, pair=(3, 1))
        assert rep.context["pair"] == [1, 3]
        assert rep == mq.residual_pair_partition(w4, (3, 1)) == check("eq20", w4, pair=[1, 3])

    def test_public_checkers_do_not_call_check(self, monkeypatch):
        # a report reached through two public calls would be counted twice
        def forbidden(*args, **kwargs):
            raise AssertionError("public checker called identities.check")

        monkeypatch.setattr(identities, "check", forbidden)
        for name, ident in IDENTITIES.items():
            n = next(n for n in SIZES[ident.kind] if ident.applies(n))
            state = _state(ident.kind, n, 3)
            for case in ident.cases(n):
                assert isinstance(PUBLIC[name](state, 1e-9, **case), mq.IdentityReport)


class TestReadme:
    """README's identity table and report labels follow the registry."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_identity_table_rows(self):
        rows = [
            [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in self.README.read_text().splitlines()
            if re.match(r"^\| `eq\w+` \|", line)
        ]
        assert [row[0] for row in rows] == [f"`{name}`" for name in IDENTITIES]
        assert [row[2] for row in rows] == [ident.kind for ident in IDENTITIES.values()]

    def test_report_labels(self):
        text = self.README.read_text()
        start = text.index("print the relation names of the reports")
        labels = re.findall(r"`([\w-]+)`", text[start : text.index(").", start)])
        assert labels == [ident.label for ident in IDENTITIES.values()]


class TestFuzzDriver:
    def test_seed_derivation_deterministic(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert derive_seed(7, 3) != derive_seed(7, 4)
        assert derive_seed(7, 3) != derive_seed(8, 3)

    def test_pure_fuzz_summary(self):
        [s] = mq.fuzz(["eq1b"], 3, 10, 5)
        assert s["passed"]
        assert s["max_residual"] <= 1e-9
        assert s["worst_seed"] in [derive_seed(5, t) for t in range(10)]

    def test_pure_fuzz_reproducible(self):
        [a] = mq.fuzz(["eq14"], 3, 8, 2)
        [b] = mq.fuzz(["eq14"], 3, 8, 2)
        assert a["max_residual"] == b["max_residual"]
        assert a["worst_seed"] == b["worst_seed"]

    def test_mixed_fuzz_rank_sweep(self):
        [s] = mq.fuzz(["eq24"], 2, 16, 1)
        assert s["passed"]
        assert s["max_residual"] <= 1e-10

    def test_mixed_pair_gate_is_fixed(self):
        # --tol (default 1e-9) never loosens the mixed-pair gate
        assert mq.fuzz(["eq24"], 2, 4, 0)[0]["tolerance"] == MIXED_PAIR_TOL == 1e-10
        assert mq.fuzz(["eq24"], 2, 4, 0, tol=1e-12)[0]["tolerance"] == 1e-12
        assert mq.residual_mixed_pair(mq.random_mixed(2, 2, 0), tol=1e-6).tolerance == 1e-10

    def test_rank_is_for_density_matrices(self):
        with pytest.raises(ValueError, match="rank applies to density matrices"):
            mq.fuzz(["eq1b"], 3, 4, 0, rank=2)
        assert mq.fuzz(["eq23"], 3, 4, 0, rank=2)[0]["rank"] == 2

    def test_eq12_requires_n4(self):
        with pytest.raises(ValueError, match="eq12 requires --n 4"):
            mq.fuzz(["eq12"], 3, 5, 0)

    @pytest.mark.parametrize(
        "names, match",
        [(["eq99"], "unknown identity"), ([], "one kind"), (["eq1b", "eq23"], "one kind")],
    )
    def test_bad_names(self, names, match):
        with pytest.raises(ValueError, match=match):
            mq.fuzz(names, 2, 3, 0)

    @pytest.mark.parametrize(
        "names, n, limit",
        [(["eq1b"], -1, 14), (["eq1b"], 0, 14), (["eq1b"], 15, 14),
         (["eq23"], -1, 7), (["eq23"], 0, 7), (["eq23"], 8, 7)],
    )
    def test_qubit_count_out_of_range(self, names, n, limit):
        with pytest.raises(ValueError, match=rf"^qubit count {n} outside \[1, {limit}\]$"):
            mq.fuzz(names, n, 3, 0)

    @pytest.mark.parametrize("trials", [0, -1, MAX_TRIALS + 1])
    def test_trial_count_out_of_range(self, trials):
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq1b"], 3, trials, 0)
        with pytest.raises(ValueError, match="trials"):
            mq.fuzz(["eq24"], 2, trials, 0)

    @pytest.mark.parametrize("trials", [2.0, 1.5, True, "3", None])
    def test_non_integer_trial_count_rejected(self, trials):
        message = rf"^trials must be an integer, got {re.escape(repr(trials))}$"
        with pytest.raises(ValueError, match=message):
            mq.fuzz(["eq1b"], 3, trials, 0)
        with pytest.raises(ValueError, match=message):
            mq.fuzz(["eq24"], 2, trials, 0)

    def test_numpy_integer_trial_count_is_reported_as_int(self):
        [summary] = mq.fuzz(["eq1b"], 3, np.int64(4), 0)
        assert type(summary["trials"]) is int
        [plain] = mq.fuzz(["eq1b"], 3, 4, 0)
        assert np.array_equal(summary.pop("worst_state").amplitudes, plain.pop("worst_state").amplitudes)
        assert summary == plain

    @pytest.mark.parametrize("seed", [1.5, "3", None, True, -1])
    def test_bad_seed_rejected(self, seed):
        message = rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            mq.fuzz(["eq1b"], 3, 2, seed)
        with pytest.raises(ValueError, match=message):
            mq.fuzz(["eq24"], 2, 2, seed)

    def test_numpy_integer_seed_is_reported_as_int(self):
        [summary] = mq.fuzz(["eq1b"], 3, 4, np.int64(5))
        assert type(summary["worst_seed"]) is int
        assert summary["worst_seed"] == mq.fuzz(["eq1b"], 3, 4, 5)[0]["worst_seed"]

    def test_seeds_distinct_up_to_max_trials(self):
        assert derive_seed(0, MAX_TRIALS - 1) < derive_seed(1, 0)


class TestErrorModel:
    # the largest fuzz |residual| of eq1b, eq14 and eq20 grows as 2^n eps:
    # 4.00-8.50 x 2^n eps on these trials at n = 2..12 (seeds 7, 11 and
    # 12345 gave 4.00-10.62), which K = 32 leaves room for, while a pass
    # whose rounding grows faster than 2^n fails it before the 1e-9 gate
    K = 32

    @pytest.mark.parametrize("n", range(2, 13))
    def test_largest_residual_within_k_times_2_to_the_n_eps(self, n):
        names = [name for name in applicable("pure", n) if name in ("eq1b", "eq14", "eq20")]
        summaries = mq.fuzz(names, n, 64 if n <= 10 else 16, 2025)
        assert max(s["max_residual"] for s in summaries) <= self.K * 2**n * np.finfo(float).eps


class TestLibraryTolerance:
    BAD = [float("inf"), float("nan"), -1.0]

    @pytest.mark.parametrize("tol", BAD)
    def test_fuzz_rejects(self, tol):
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            mq.fuzz(["eq1b", "eq14"], 3, 2, 0, tol=tol)
        with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
            mq.fuzz(["eq24", "eq23"], 2, 2, 0, tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_checkers_reject(self, tol, w4):
        rho2, rho3 = mq.random_mixed(2, 2, 0), mq.random_mixed(3, 2, 0)
        calls = [
            lambda: mq.residual_complementarity(w4, tol=tol),
            lambda: mq.residual_single_partition(w4, 1, tol=tol),
            lambda: mq.residual_pair_partition(w4, (1, 2), tol=tol),
            lambda: mq.residual_tangle_relation_4q(w4, tol=tol),
            lambda: mq.residual_combination_4q(w4, tol=tol),
            lambda: mq.residual_mixed_pair(rho2, tol=tol),
            lambda: mq.residual_mixed_triple(rho3, tol=tol),
            lambda: mq.mixed_total_info_margin(rho3, tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                call()

    def test_zero_is_legal(self):
        assert mq.residual_complementarity(mq.make_named("basis-product", 3), tol=0.0).passed
        assert mq.fuzz(["eq1b"], 3, 2, 0, tol=0.0)[0]["tolerance"] == 0.0


class TestInequalitySummary:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_strict_inequality_reports_no_violation(self, m):
        # a rank-2 state has I_total < m, so nothing is violated; the slack
        # m - I_total is not a residual
        [s] = mq.fuzz(["eq23"], m, 6, m, rank=2)
        assert s["max_residual"] == 0.0
        assert s["min_margin"] > 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_max_residual_is_largest_violation(self, m):
        [s] = mq.fuzz(["eq23"], m, 2**m * 3, 4)
        assert s["max_residual"] == max(0.0, -s["min_margin"])
        assert s["max_residual"] <= 1e-12


def _loop_summaries(names, n, trials, base_seed, tol):
    """Reference: one state per trial through the public one-state checkers."""
    from itertools import combinations

    def reports(name, psi, table):
        if name == "eq1b":
            return [mq.residual_complementarity(psi, table, tol)]
        if name == "eq14":
            return [mq.residual_single_partition(psi, k, table, tol) for k in range(1, n + 1)]
        if name == "eq20":
            return [
                mq.residual_pair_partition(psi, p, table, tol)
                for p in combinations(range(1, n + 1), 2)
            ]
        if name == "eq12":
            return [mq.residual_tangle_relation_4q(psi, table, tol)]
        return [mq.residual_combination_4q(psi, table, tol)]

    out = {name: {"max_residual": 0.0, "failures": 0, "worst_seed": None} for name in names}
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        psi = mq.random_pure(n, seed)
        table = mq.all_infos_fast(psi)
        for name in names:
            s = out[name]
            for rep in reports(name, psi, table):
                if s["worst_seed"] is None or abs(rep.residual) > s["max_residual"]:
                    s["worst_seed"] = seed
                s["max_residual"] = max(s["max_residual"], abs(rep.residual))
                s["failures"] += not rep.passed
    return out


class TestMixedVerdicts:
    """The gates and corollary margins, on sides whose equality holds exactly."""

    def test_pair_gate_and_corollary(self):
        lhs = np.array([1.0, 1.0 + 2e-12])
        score, margin, failed, gate = mq.IDENTITIES["eq24"].verdict(lhs, lhs.copy(), 1e-9)
        assert gate == MIXED_PAIR_TOL and score.tolist() == [0.0, 0.0]
        assert np.array_equal(margin, 1.0 - lhs) and failed.tolist() == [False, True]
        score, _, failed, _ = mq.IDENTITIES["eq24"].verdict(np.zeros(2), np.array([5e-11, 2e-10]), 1e-9)
        assert score.tolist() == [5e-11, 2e-10] and failed.tolist() == [False, True]

    def test_triple_corollary(self):
        lhs = np.array([0.0, -2e-9])
        _, margin, failed, gate = mq.IDENTITIES["eq25"].verdict(lhs, lhs.copy(), 1e-9)
        assert gate == 1e-9
        assert np.array_equal(margin, lhs) and failed.tolist() == [False, True]

    def test_total_info_margin(self):
        lhs, rhs = np.array([2.0, 2.0 + 5e-10, 2.0 + 2e-9]), np.full(3, 2.0)
        score, margin, failed, _ = mq.IDENTITIES["eq23"].verdict(lhs, rhs, 1e-9)
        assert np.array_equal(margin, rhs - lhs) and np.array_equal(score, -margin)
        assert failed.tolist() == [False, False, True]

    def test_nan_fails(self):
        nan = np.array([np.nan])
        for name in MIXED_IDENTITIES:
            assert mq.IDENTITIES[name].verdict(nan, nan, 1e-9)[2].tolist() == [True]


def _mixed_loop_summaries(names, m, trials, base_seed, tol, rank=None):
    """Reference: one density matrix per trial through the public one-state checkers."""
    checkers = {
        "eq24": mq.residual_mixed_pair,
        "eq25": mq.residual_mixed_triple,
        "eq23": mq.mixed_total_info_margin,
    }
    out = {
        name: {"max_residual": 0.0, "failures": 0, "worst_seed": None, "min_margin": None}
        for name in names
    }
    worst = dict.fromkeys(names)
    for trial in range(trials):
        seed = derive_seed(base_seed, trial)
        rho = mq.random_mixed(m, rank or trial % 2**m + 1, seed)
        for name in names:
            s = out[name]
            rep = checkers[name](rho, tol=tol)
            margin = rep.context["margin"]
            score = -margin if name == "eq23" else abs(rep.residual)
            if worst[name] is None or score > worst[name]:
                worst[name], s["worst_seed"] = score, seed
            s["max_residual"] = max(s["max_residual"], score)
            s["failures"] += not rep.passed
            s["min_margin"] = margin if s["min_margin"] is None else min(s["min_margin"], margin)
    return out


class TestMixedEngine:
    # trial counts span several chunks from m = 4 up (32, 8, 2 and 1 states each)
    @pytest.mark.parametrize("m, trials", [(1, 4), (2, 12), (3, 16), (4, 40), (5, 20), (6, 5), (7, 3)])
    @pytest.mark.parametrize("tol", [1e-9, 1e-30])
    def test_fuzz_matches_per_state_loop(self, m, trials, tol):
        names = mq.applicable("mixed", m)
        loop = _mixed_loop_summaries(names, m, trials, 11, tol)
        for s in mq.fuzz(names, m, trials, 11, tol):
            ref = loop[s["identity"]]
            for key in ("failures", "max_residual", "min_margin", "worst_seed"):
                assert s[key] == ref[key], key
            worst = mq.random_mixed(m, (s["worst_seed"] - 11 * MAX_TRIALS) % 2**m + 1, s["worst_seed"])
            assert np.array_equal(s["worst_state"].matrix, worst.matrix)

    def test_fixed_rank_matches_per_state_loop(self):
        loop = _mixed_loop_summaries(["eq25", "eq23"], 3, 12, 2, 1e-30, rank=2)
        for s in mq.fuzz(["eq25", "eq23"], 3, 12, 2, 1e-30, rank=2):
            ref = loop[s["identity"]]
            assert (s["failures"], s["max_residual"], s["worst_seed"]) == (
                ref["failures"], ref["max_residual"], ref["worst_seed"]
            )

    def test_failures_occur_at_a_tiny_tol(self):
        [pair, total] = mq.fuzz(["eq24", "eq23"], 2, 40, 3, tol=1e-30)
        assert pair["failures"] > 0 and pair["tolerance"] == 1e-30

    def test_failing_worst_state_is_a_density_matrix_that_reloads(self, tmp_path):
        summaries = mq.fuzz(["eq25", "eq23"], 3, 20, 4, tol=1e-30)
        assert not summaries[0]["passed"]
        for s in summaries:
            rho = s["worst_state"]
            assert isinstance(rho, mq.MixedState) and not rho.matrix.flags.writeable
            worst = mq.random_mixed(3, (s["worst_seed"] - 4 * MAX_TRIALS) % 8 + 1, s["worst_seed"])
            assert rho.matrix.tobytes() == worst.matrix.tobytes()
            path = tmp_path / f"{s['identity']}.json"
            mq.save_state(rho, path)
            assert mq.load_state(path).matrix.tobytes() == rho.matrix.tobytes()


class TestBatchedEngine:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_stacked_tables_equal_per_state(self, n):
        from mqinfo.measures import info_values
        from mqinfo.statekit import random_pure_stack

        # from n = 5 to 8 the stack spans several purity passes of several
        # states; from n = 9 up each batch of traces takes the grams of
        # several matrix products
        seeds = [derive_seed(n, t) for t in range(min(300, 2**13 >> n) if n <= 10 else 3)]
        amps = random_pure_stack(n, seeds)
        values, purities = info_values(amps)
        for row, seed in enumerate(seeds):
            psi = mq.random_pure(n, seed)
            table = mq.all_infos_fast(psi)
            assert np.array_equal(amps[row], psi.amplitudes)
            assert np.array_equal(values[row], table.values)
            assert np.array_equal(purities[row], table.purities)

    @pytest.mark.parametrize("n", range(7, 11))
    @pytest.mark.parametrize("count", [1, 3, 7, 10])
    def test_uneven_stacks_equal_per_state(self, n, count):
        from mqinfo.measures import info_values
        from mqinfo.statekit import random_pure_stack

        # passes of equal size: 10 states at n = 8 go through as 2, 3, 2, 3
        seeds = [derive_seed(n, t) for t in range(count)]
        values, purities = info_values(random_pure_stack(n, seeds))
        for row, seed in enumerate(seeds):
            table = mq.all_infos_fast(mq.random_pure(n, seed))
            assert np.array_equal(values[row], table.values)
            assert np.array_equal(purities[row], table.purities)

    def test_row_sums_in_blocks_equal_one_gather(self, monkeypatch):
        # a fuzz-n8 chunk's eq20 crossing sums are one gather; smaller
        # blocks of pairs round as it does, and as one state's 1-D sum
        values = np.random.default_rng(8).standard_normal((10, 256))
        index = identities._crossing(8, tuple(3 << q for q in range(7)))
        pairs = identities._crossing(8, tuple(sum(1 << q for q in p) for p in combinations(range(8), 2)))
        assert len(values) * pairs.size <= identities._GATHER_ENTRIES
        whole = identities._row_sums(values, index)
        monkeypatch.setattr(identities, "_GATHER_ENTRIES", 4000)
        assert np.array_equal(identities._row_sums(values, index), whole)
        for b, row in enumerate(values):
            assert all(row[part].sum() == whole[b, r] for r, part in enumerate(index))

    @pytest.mark.parametrize("n", range(1, 15))
    def test_empty_stack(self, n):
        from mqinfo.measures import info_values
        from mqinfo.reduction import pure_subset_purities

        amps = np.empty((0, 2**n), dtype=np.complex128)
        assert pure_subset_purities(amps).shape == (0, 2**n)
        assert all(a.shape == (0, 2**n) for a in info_values(amps))

    def test_stack_rows_are_the_seeded_draws(self):
        from mqinfo.statekit import random_pure_stack

        seeds = [0, 1, derive_seed(3, 5), 2**40]
        for n in (1, 4, 9):
            for seed, row in zip(seeds, random_pure_stack(n, seeds)):
                rng = np.random.default_rng(seed)
                v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
                assert np.array_equal(row, v / np.linalg.norm(v))

    def test_stack_is_validated(self, monkeypatch):
        from mqinfo import statekit

        monkeypatch.setattr(statekit, "NORM_TOL_INTERNAL", -1.0)
        with pytest.raises(ValueError, match="not normalized"):
            statekit.random_pure_stack(3, [0, 1])

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("tol", [1e-9, 1e-30])
    def test_fuzz_matches_per_trial_loop(self, n, tol):
        names = mq.applicable("pure", n)
        trials = 24 if n <= 6 else 6
        loop = _loop_summaries(names, n, trials, 9, tol)
        gate = 8 * 2**n * np.finfo(float).eps
        for s in mq.fuzz(names, n, trials, 9, tol):
            ref = loop[s["identity"]]
            assert abs(s["max_residual"] - ref["max_residual"]) <= gate
            assert s["failures"] == ref["failures"]
            assert s["passed"] == (ref["failures"] == 0)

    def test_worst_case_across_chunks(self):
        # 1,100 trials at n = 4 span three chunks of states
        names = mq.applicable("pure", 4)
        loop = _loop_summaries(names, 4, 1100, 3, 1e-9)
        for s in mq.fuzz(names, 4, 1100, 3):
            ref = loop[s["identity"]]
            assert s["worst_seed"] == ref["worst_seed"]
            assert s["max_residual"] == ref["max_residual"]
            assert isinstance(s["worst_state"], mq.PureState)
            reloaded = mq.state_from_json(mq.state_to_json(s["worst_state"]))
            assert np.array_equal(reloaded.amplitudes, mq.random_pure(4, s["worst_seed"]).amplitudes)

    def test_summary_keys(self):
        [s] = mq.fuzz(["eq14"], 3, 4, 0)
        assert set(s) == {
            "identity", "n", "trials", "max_residual", "failures", "passed",
            "worst_seed", "worst_state", "tolerance",
        }


class TestEachStateOnce:
    """A fuzz call hashes its seeds a block at a time, validates each drawn
    state once, in its chunk, and wraps its witnesses from validated rows."""

    def _record(self, monkeypatch, name):
        """Patch statekit's ``name`` to record each call's argument."""
        seen, real = [], getattr(statekit, name)
        monkeypatch.setattr(statekit, name, lambda arg: seen.append(arg) or real(arg))
        return seen

    def test_mixed_check_validates_and_hashes_once(self, monkeypatch, tmp_path, capsys):
        from mqinfo.cli import main

        assert statekit._batch_seeding_matches()  # cached, so its own hashing is not counted
        checked = self._record(monkeypatch, "_check_density")
        hashed = self._record(monkeypatch, "_pcg_seeds")
        # m = 5 runs chunks of 8 states; tol 0 fails eq23, so a witness is written
        argv = ["mixed-check", "--random", "--m", "5", "--trials", "32", "--tol", "0"]
        assert main([*argv, "--out", str(tmp_path / "w.json")]) == 1
        assert [mats.shape for mats in checked] == [(8, 32, 32)] * 4
        assert [len(words) for words in hashed] == [32]
        assert (tmp_path / "w.json").exists()

    def test_seeds_are_hashed_a_block_at_a_time(self, monkeypatch):
        assert statekit._batch_seeding_matches()
        hashed = self._record(monkeypatch, "_pcg_seeds")
        mq.fuzz(["eq1b"], 1, 100_000, 3)
        sizes = [len(words) for words in hashed]
        assert max(sizes) == statekit._SEED_BLOCK < 100_000
        assert sum(sizes) == 100_000 and len(sizes) == -(-100_000 // statekit._SEED_BLOCK)

    @pytest.mark.parametrize(
        "kind, n, trials, rank",
        [
            ("pure", 1, 9, None), ("pure", 4, 600, None), ("pure", 9, 40, None),
            ("mixed", 1, 9, None), ("mixed", 3, 300, None), ("mixed", 5, 20, None), ("mixed", 4, 40, 3),
        ],
    )
    def test_witnesses_are_read_only_copies_of_the_seeded_states(self, kind, n, trials, rank, monkeypatch):
        stacks = []
        for method in ("pure", "mixed"):
            real = getattr(statekit._Draws, method)
            monkeypatch.setattr(
                statekit._Draws, method,
                lambda self, *args, real=real: stacks.append(real(self, *args)) or stacks[-1],
            )
        summaries = mq.fuzz(mq.applicable(kind, n), n, trials, 7, tol=0.0, rank=rank)
        assert len(stacks) > 1 or n == 1  # the trials span chunks
        for s in summaries:
            seed, state = s["worst_seed"], s["worst_state"]
            if kind == "pure":
                data, ref = state.amplitudes, mq.random_pure(n, seed).amplitudes
            else:
                trial_rank = rank or (seed - 7 * MAX_TRIALS) % 2**n + 1
                data, ref = state.matrix, mq.random_mixed(n, trial_rank, seed).matrix
            assert type(state) is (mq.PureState if kind == "pure" else mq.MixedState)
            assert state.num_qubits == n and type(state.num_qubits) is int
            assert data.dtype == ref.dtype and data.shape == ref.shape and data.tobytes() == ref.tobytes()
            assert data.flags.c_contiguous and not data.flags.writeable
            assert not any(np.shares_memory(data, stack) for stack in stacks)
