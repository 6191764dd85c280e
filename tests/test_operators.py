"""Spin algebra, embedding, eigensolver, and unit-conversion tests."""

import math
import sys

import numpy as np
import pytest

from mixedspin.operators import (
    SPIN_HALF,
    SpinQuantum,
    eig_sym,
    embed,
    lower_coefficient,
    raise_coefficient,
    spin_matrices,
)
from mixedspin.units import (
    CURIE_FACTOR_EMU_K_PER_MOL,
    KELVIN_PER_WAVENUMBER,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
    kelvin_to_wavenumber,
    wavenumber_to_kelvin,
)


class TestSpinQuantum:
    def test_parse_halves_and_integers(self):
        assert SpinQuantum.parse("1/2").twice_spin == 1
        assert SpinQuantum.parse("5/2").twice_spin == 5
        assert SpinQuantum.parse("2").twice_spin == 4
        assert SpinQuantum.parse(" 3/2 ").twice_spin == 3

    @pytest.mark.parametrize("bad", ["0.5", "2.5", "1/4", "-1/2", "abc", "", "3/"])
    def test_parse_rejects_non_spin_strings(self, bad):
        with pytest.raises(ValueError):
            SpinQuantum.parse(bad)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinQuantum(-1)
        with pytest.raises(ValueError):
            SpinQuantum(1.5)
        with pytest.raises(ValueError):
            SpinQuantum(True)

    def test_2s_plus_1_must_be_a_float(self):
        # 2^1024 - 2^970 is the least integer that float() overflows on
        limit = 2**1024 - 2**970
        assert SpinQuantum(limit - 2).value == sys.float_info.max / 2
        for twice_spin in (limit - 1, limit, 2 * 10**400):
            with pytest.raises(ValueError, match=r"spin is too large: 2S \+ 1 leaves"):
                SpinQuantum(twice_spin)

    def test_derived_quantities(self):
        s = SpinQuantum(5)
        assert s.dimension == 6
        assert s.value == 2.5
        assert s.casimir == 2.5 * 3.5
        assert str(s) == "5/2"
        assert str(SpinQuantum(4)) == "2"
        assert SPIN_HALF.value == 0.5


class TestSpinMatrices:
    def test_spin_half_matrices(self):
        ops = spin_matrices(SPIN_HALF)
        np.testing.assert_array_equal(ops.sz, np.diag([0.5, -0.5]))
        np.testing.assert_array_equal(ops.sp, [[0.0, 1.0], [0.0, 0.0]])

    def test_spin_one_raising_entries(self):
        ops = spin_matrices(SpinQuantum(2))
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(np.diag(ops.sp, k=1), [root2, root2], rtol=0, atol=0)

    def test_rejects_spin_zero(self):
        with pytest.raises(ValueError):
            spin_matrices(SpinQuantum(0))

    @pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
    def test_casimir_identity(self, ts):
        spin = SpinQuantum(ts)
        ops = spin_matrices(spin)
        total = ops.sz @ ops.sz + 0.5 * (ops.sp @ ops.sm + ops.sm @ ops.sp)
        np.testing.assert_allclose(
            total, spin.casimir * np.eye(spin.dimension), atol=1e-12
        )

    @pytest.mark.parametrize("ts", [1, 2, 3, 4, 5])
    def test_ladder_commutator(self, ts):
        # [Sz, S+] = S+ and [S+, S-] = 2 Sz pin the normalization
        ops = spin_matrices(SpinQuantum(ts))
        np.testing.assert_allclose(
            ops.sz @ ops.sp - ops.sp @ ops.sz, ops.sp, atol=1e-12
        )
        np.testing.assert_allclose(
            ops.sp @ ops.sm - ops.sm @ ops.sp, 2.0 * ops.sz, atol=1e-12
        )

    def test_exact_transpose_pairing(self):
        ops = spin_matrices(SpinQuantum(5))
        assert np.array_equal(ops.sm, ops.sp.T)

    def test_ladder_coefficients(self):
        # S=1: <0| S+ |-1> = sqrt(2)
        assert raise_coefficient(2, -2) == pytest.approx(math.sqrt(2.0), abs=0)
        assert lower_coefficient(2, 0) == pytest.approx(math.sqrt(2.0), abs=0)
        # top of the ladder annihilates
        assert raise_coefficient(3, 3) == 0.0


class TestEmbed:
    def test_two_site_z(self):
        sz = spin_matrices(SPIN_HALF).sz
        full = embed(sz, 0, (2, 2))
        np.testing.assert_array_equal(full, np.diag([0.5, 0.5, -0.5, -0.5]))
        full1 = embed(sz, 1, (2, 2))
        np.testing.assert_array_equal(full1, np.diag([0.5, -0.5, 0.5, -0.5]))

    def test_disjoint_embeds_commute(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2))
        ea = embed(a, 0, (3, 2, 2))
        eb = embed(b, 2, (3, 2, 2))
        np.testing.assert_allclose(ea @ eb, eb @ ea, atol=1e-12)

    def test_trace_is_multiplicative(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        full = embed(a, 1, (3, 2))
        assert np.trace(full) == pytest.approx(3 * np.trace(a), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            embed(np.eye(2), 2, (2, 2))
        with pytest.raises(ValueError):
            embed(np.eye(3), 0, (2, 2))

    @pytest.mark.parametrize("dims", [(), (2, 0), (3, -2)])
    def test_dimensions_must_be_positive(self, dims):
        with pytest.raises(ValueError, match="dims must be positive integers"):
            embed(np.eye(2), 0, dims)


class TestEigSym:
    def test_diagonal_matrix(self):
        evals, evecs = eig_sym(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(evals, [1.0, 2.0, 3.0], atol=0)
        np.testing.assert_allclose(np.abs(evecs.T), np.eye(3)[[1, 2, 0]], atol=0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(50, 50))
        m = a + a.T
        evals, evecs = eig_sym(m)
        scale = np.max(np.abs(m))
        np.testing.assert_allclose(
            evecs @ np.diag(evals) @ evecs.T, m, atol=1e-10 * scale
        )
        np.testing.assert_allclose(evecs.T @ evecs, np.eye(50), atol=1e-10)
        assert np.sum(evals) == pytest.approx(np.trace(m), rel=1e-9)
        assert np.all(np.diff(evals) >= 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            eig_sym(np.zeros((2, 3)))

    @pytest.mark.parametrize("vectors", [True, False])
    def test_rejects_complex_input(self, vectors):
        # a float cast would drop the imaginary part and solve another matrix
        for bad in (
            np.array([[2.0, 1j], [-1j, 2.0]]),  # Hermitian
            np.array([[1.0 + 0j, 0.0], [0.0, 1.0]]),  # real values, complex dtype
            np.array([[1.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 1.0]]),
        ):
            with pytest.raises(ValueError, match="complex"):
                eig_sym(bad, vectors=vectors)

    def test_eigenvalues_only(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 40))
        m = a + a.T
        evals, evecs = eig_sym(m, vectors=False)
        assert evecs is None
        np.testing.assert_allclose(evals, eig_sym(m)[0], rtol=0, atol=1e-12)

    def test_eigenvalues_only_rejects_bad_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=False)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                eig_sym(np.array([[bad, 0.0], [0.0, 1.0]]), vectors=False)
        with pytest.raises(ValueError, match="square"):
            eig_sym(np.zeros((2, 3)), vectors=False)


class TestUnits:
    def test_wavenumber_constant(self):
        # h c / k_B from the SI defining constants
        expected = 6.62607015e-34 * 2.99792458e10 / 1.380649e-23
        assert KELVIN_PER_WAVENUMBER == expected
        assert KELVIN_PER_WAVENUMBER == pytest.approx(1.438777, abs=5e-7)

    def test_curie_factor(self):
        assert CURIE_FACTOR_EMU_K_PER_MOL == pytest.approx(0.375150, abs=5e-6)

    def test_energy_conversions(self):
        assert wavenumber_to_kelvin(0.0) == 0.0
        j = wavenumber_to_kelvin(81.4)
        assert j == 81.4 * KELVIN_PER_WAVENUMBER
        assert round(j, 2) == 117.12
        assert wavenumber_to_kelvin(23.44) == pytest.approx(33.72, abs=0.01)
        assert kelvin_to_wavenumber(j) == pytest.approx(81.4, rel=1e-12)

    def test_chi_round_trip(self):
        chi = 0.0123
        red = chi_emu_per_mol_to_reduced(chi, 37.0, 2.13)
        back = chi_reduced_to_emu_per_mol(red, 37.0, 2.13)
        assert back == pytest.approx(chi, rel=1e-12)

    def test_chi_conversion_scaling(self):
        # reduced -> molar carries the g^2 / T Curie prefactor
        base = chi_reduced_to_emu_per_mol(1.0, 10.0, 2.0)
        assert chi_reduced_to_emu_per_mol(1.0, 10.0, 4.0) == pytest.approx(
            4.0 * base, rel=1e-12
        )
        assert chi_reduced_to_emu_per_mol(1.0, 20.0, 2.0) == pytest.approx(
            base / 2.0, rel=1e-12
        )

    def test_g_squared_keeps_its_bits_and_overflow_is_rejected(self):
        # g = 1.0204 is a g whose libm pow(g, 2) differs from g * g in
        # the last bit; the conversions round g^2 as ** does
        g = 1.0204
        assert chi_reduced_to_emu_per_mol(0.3, 7.0, g) == (
            CURIE_FACTOR_EMU_K_PER_MOL * g**2 / 7.0 * 0.3
        )
        assert chi_emu_per_mol_to_reduced(0.3, 7.0, g) == (
            0.3 * 7.0 / (CURIE_FACTOR_EMU_K_PER_MOL * g**2)
        )
        with pytest.raises(ValueError, match="not finite"):
            chi_reduced_to_emu_per_mol(0.3, 7.0, 1e200)

    @pytest.mark.parametrize("g", [1e-160, 1e-200, 5e-324, np.float64(1e-200)])
    def test_g_whose_square_is_not_normal_is_rejected(self, g):
        # g^2 below 2.2e-308 has lost digits or is 0, and the molar to
        # reduced conversion divides by it
        for convert in (chi_reduced_to_emu_per_mol, chi_emu_per_mol_to_reduced):
            with pytest.raises(ValueError, match="g_factor .* too small"):
                convert(0.3, 7.0, g)

    def test_smallest_g_with_a_normal_square_converts(self):
        g = 1.5e-154  # g^2 = 2.25e-308, just above the smallest normal float
        assert chi_reduced_to_emu_per_mol(0.3, 7.0, g) == (
            CURIE_FACTOR_EMU_K_PER_MOL * g**2 / 7.0 * 0.3
        )

    def test_convert_units_errors(self):
        with pytest.raises(ValueError):
            chi_reduced_to_emu_per_mol(1.0, -2.0, 2.0)
