from itertools import product

import numpy as np
import pytest

import mqinfo as mq
from mqinfo import pauli
from mqinfo.pauli import PauliString, pauli_spectrum

from conftest import dense_pauli


class TestPauliString:
    def test_notation(self):
        p = PauliString(4, "XIYZ")
        assert p.support == (1, 3, 4)
        assert str(p) == "XIYZ"

    def test_masks_msb_first(self):
        p = PauliString(2, "XI")
        assert p.x_mask == 0b10  # qubit 1 is the high bit
        p = PauliString(2, "IZ")
        assert p.z_mask == 0b01

    def test_bad_letter(self):
        with pytest.raises(ValueError, match="bad Pauli letter"):
            PauliString(2, "XW")

    def test_wrong_length(self):
        with pytest.raises(ValueError, match="letters"):
            PauliString(3, "XX")


class TestStringsOnSupport:
    def test_pair_count(self):
        assert len(mq.strings_on_support(2, (1, 2))) == 9

    def test_triple_count(self):
        assert len(mq.strings_on_support(3, (1, 2, 3))) == 27

    def test_singleton(self):
        strings = mq.strings_on_support(4, (2,))
        assert [str(p) for p in strings] == ["IXII", "IYII", "IZII"]

    def test_exact_support(self):
        for p in mq.strings_on_support(4, (1, 3)):
            assert p.support == (1, 3)

    def test_deterministic_order(self):
        got = [str(p) for p in mq.strings_on_support(2, (1, 2))]
        assert got == ["XX", "XY", "XZ", "YX", "YY", "YZ", "ZX", "ZY", "ZZ"]

    def test_empty_subset(self):
        with pytest.raises(ValueError, match="empty"):
            mq.strings_on_support(2, ())

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            mq.strings_on_support(2, (3,))


class TestExpectationPure:
    def test_z_eigenstate(self):
        psi = mq.pure_from_amplitudes(1, [1, 0])
        assert mq.expectation_pure(psi, PauliString(1, "Z")) == pytest.approx(1.0)

    def test_bell_xx(self, bell):
        assert mq.expectation_pure(bell, PauliString(2, "XX")) == pytest.approx(1.0)

    def test_w3_zz(self, w3):
        assert mq.expectation_pure(w3, PauliString(3, "ZZI")) == pytest.approx(-1 / 3)

    def test_dimension_mismatch(self, bell):
        with pytest.raises(ValueError, match="mismatch"):
            mq.expectation_pure(bell, PauliString(3, "XXX"))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_oracle(self, seed):
        psi = mq.random_pure(3, seed)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            letters = "".join(rng.choice(list("IXYZ"), size=3))
            dense = np.vdot(psi.amplitudes, dense_pauli(letters) @ psi.amplitudes)
            got = mq.expectation_pure(psi, PauliString(3, letters))
            assert got == pytest.approx(dense.real, abs=1e-12)
            assert -1 - 1e-12 <= got <= 1 + 1e-12

    def test_non_real_raises(self, monkeypatch):
        # a real exception, so running under python -O keeps the check
        monkeypatch.setattr(pauli, "_expect_pure", lambda *args: 1j)
        with pytest.raises(ArithmeticError, match="non-real"):
            mq.expectation_pure(mq.make_named("ghz", 2), PauliString(2, "ZZ"))


class TestExpectationMixed:
    def test_maximally_mixed_z(self):
        rho = mq.MixedState(1, np.eye(2, dtype=complex) / 2)
        assert mq.expectation_mixed(rho, PauliString(1, "Z")) == pytest.approx(0.0)

    def test_bell_density_xx(self, bell):
        rho = mq.density_of(bell)
        assert mq.expectation_mixed(rho, PauliString(2, "XX")) == pytest.approx(1.0)

    def test_diagonal_z(self):
        rho = mq.MixedState(1, np.diag([0.75, 0.25]).astype(complex))
        assert mq.expectation_mixed(rho, PauliString(1, "Z")) == pytest.approx(0.5)

    def test_agrees_with_pure(self):
        psi = mq.random_pure(3, 8)
        rho = mq.density_of(psi)
        for p in mq.strings_on_support(3, (1, 3)):
            assert mq.expectation_mixed(rho, p) == pytest.approx(
                mq.expectation_pure(psi, p), abs=1e-10
            )

    def test_non_real_raises(self, monkeypatch):
        monkeypatch.setattr(pauli, "_expect_mixed", lambda *args: 1j)
        rho = mq.MixedState(1, np.eye(2, dtype=complex) / 2)
        with pytest.raises(ArithmeticError, match="non-real"):
            mq.expectation_mixed(rho, PauliString(1, "Z"))


class TestApplyPure:
    def test_x_flip(self):
        psi = mq.pure_from_amplitudes(1, [1, 0])
        assert np.allclose(mq.apply_pure(PauliString(1, "X"), psi), [0, 1])

    def test_y_phase(self):
        psi = mq.pure_from_amplitudes(1, [1, 0])
        assert np.allclose(mq.apply_pure(PauliString(1, "Y"), psi), [0, 1j])
        psi1 = mq.pure_from_amplitudes(1, [0, 1])
        assert np.allclose(mq.apply_pure(PauliString(1, "Y"), psi1), [-1j, 0])

    def test_zz_fixes_bell(self, bell):
        out = mq.apply_pure(PauliString(2, "ZZ"), bell)
        assert np.allclose(out, bell.amplitudes)

    def test_matches_dense_oracle(self):
        psi = mq.random_pure(3, 12)
        for letters in ("XYZ", "YYI", "IZX"):
            dense = dense_pauli(letters) @ psi.amplitudes
            assert np.allclose(mq.apply_pure(PauliString(3, letters), psi), dense)

    def test_involution_exact_phase(self):
        psi = mq.random_pure(4, 3)
        for letters in ("XYZY", "YYYY", "ZIZI"):
            p = PauliString(4, letters)
            once = mq.apply_pure(p, psi)
            twice = mq.apply_pure(p, mq.PureState(4, once / np.linalg.norm(once)))
            assert np.allclose(twice, psi.amplitudes, atol=1e-12)

    def test_unit_norm(self):
        psi = mq.random_pure(3, 6)
        out = mq.apply_pure(PauliString(3, "YXZ"), psi)
        assert abs(np.linalg.norm(out) - 1) < 1e-12


class TestBlochIdentity:
    """Sum over strings supported within S of <P>^2 equals 2^|S| tr(rho_S^2).

    This is the design-level fact the fast route in measures relies on.
    """

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("subset", [(1,), (1, 2), (2, 3), (1, 2, 3)])
    def test_identity(self, seed, subset):
        from itertools import chain, combinations

        psi = mq.random_pure(3, seed)
        total = 1.0  # empty string contributes <I>^2 = 1
        for sub in chain.from_iterable(
            combinations(subset, r) for r in range(1, len(subset) + 1)
        ):
            for p in mq.strings_on_support(3, sub):
                total += mq.expectation_pure(psi, p) ** 2
        pur = mq.purity(mq.partial_trace(psi, subset))
        assert total == pytest.approx(2 ** len(subset) * pur, abs=1e-9)


class TestPauliSpectrum:
    """All 4^m values tr(M P) from one tensorized pass."""

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_dense_trace(self, m, kind):
        state = mq.density_of(mq.random_pure(m, m)) if kind == "pure" else mq.random_mixed(m, 2, m)
        spec = pauli_spectrum(state.matrix, m)
        assert spec.shape == (4**m,) and spec.dtype == np.float64
        for k, letters in enumerate(product("IXYZ", repeat=m)):
            dense = np.trace(state.matrix @ dense_pauli(letters))
            assert spec[k] == pytest.approx(dense.real, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_per_string_expectations(self, m):
        psi = mq.random_pure(m, 40 + m)
        rho = mq.random_mixed(m, 3 if m > 1 else 2, 40 + m)
        pure_spec = pauli_spectrum(np.outer(psi.amplitudes, psi.amplitudes.conj()), m)
        mixed_spec = pauli_spectrum(rho.matrix, m)
        for k, letters in enumerate(product("IXYZ", repeat=m)):
            p = PauliString(m, "".join(letters))
            assert abs(pure_spec[k] - mq.expectation_pure(psi, p)) <= 1e-12
            assert abs(mixed_spec[k] - mq.expectation_mixed(rho, p)) <= 1e-12

    def test_non_hermitian_raises(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.25  # no matching [1, 0] entry: tr(M X) and tr(M Y) turn complex
        with pytest.raises(ArithmeticError, match="non-real"):
            pauli_spectrum(mat, 2)
