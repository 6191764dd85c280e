"""Sector-blocked exact diagonalization against dense constructions."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from mixedspin import chain
from mixedspin.chain import (
    ChainSpec,
    SectorSpectrum,
    _coupling_paths,
    _enumerate_sectors,
    _hops,
    _ring_blocks,
    _spin_half_6j,
    bond_levels,
    build_hamiltonian,
    correlator_matrix,
    dense_hamiltonian,
    diagonalize,
    negativity_bruteforce,
    reduced_pair_state,
    susceptibility_exact,
    thermal_mean,
    thermal_mean_and_slope,
    thermal_weights,
)
from mixedspin.operators import (
    SpinQuantum,
    eig_sym,
    embed,
    lower_coefficient,
    raise_coefficient,
    spin_matrices,
)
from mixedspin.pair import characteristic_temperature, pair_correlator
from mixedspin.witness import solve_tc, susceptibility_nn_approx


def dense_thermal_rho(spec, t):
    h = dense_hamiltonian(spec)
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-(evals - evals[0]) / t)
    w /= w.sum()
    return (evecs * w) @ evecs.T


def product_sectors(spec):
    """Reference enumeration: one Python loop over every basis state."""
    sectors = {}
    for label in itertools.product(
        *(range(ts, -ts - 1, -2) for ts in spec.site_twice_spins)
    ):
        sectors.setdefault(sum(label), []).append(label)
    dims = spec.site_dimensions
    tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
    strides = np.array([math.prod(dims[k + 1 :]) for k in range(len(dims))])
    out = []
    for tsz in sorted(sectors, reverse=True):
        labels = np.asarray(sectors[tsz], dtype=np.int16)
        digits = (tspins[None, :] - labels.astype(np.int64)) // 2
        out.append((tsz, labels, digits @ strides))
    return out


def sector_levels(data, tsz):
    """Sector 2Sz = tsz's sorted eigenvalues, rebuilt from the level table:
    every multiplet with 2J >= |2Sz| has one state there, so its entry
    is repeated by its block's copies (the multiplicity over 2J + 1)."""
    run = data.twice_j >= abs(tsz)
    copies = data.multiplicity[run] // (data.twice_j[run] + 1)
    return np.sort(np.repeat(data.levels[run], copies))


class TestChainSpec:
    def test_site_layout(self):
        spec = ChainSpec(4, SpinQuantum(5), 1.0)
        assert spec.site_twice_spins == (5, 1, 5, 1)
        assert spec.site_dimensions == (6, 2, 6, 2)
        assert spec.total_dimension == 144

    def test_bonds(self):
        assert ChainSpec(4, SpinQuantum(1), 1.0).bonds() == (
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
        )
        assert ChainSpec(4, SpinQuantum(1), 1.0, boundary="open").bonds() == (
            (0, 1),
            (1, 2),
            (2, 3),
        )
        # the 2-site ring genuinely carries two bonds between its sites
        assert ChainSpec(2, SpinQuantum(1), 1.0).bonds() == ((0, 1), (1, 0))

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(3, SpinQuantum(1), 1.0)
        with pytest.raises(ValueError):
            ChainSpec(0, SpinQuantum(1), 1.0)
        with pytest.raises(ValueError):
            ChainSpec(2, SpinQuantum(0), 1.0)
        with pytest.raises(ValueError):
            ChainSpec(2, SpinQuantum(1), 0.0)
        with pytest.raises(ValueError):
            ChainSpec(2, SpinQuantum(1), 1.0, boundary="twisted")

    @pytest.mark.parametrize("n_sites", [4.0, True, "4"])
    def test_site_count_must_be_an_integer(self, n_sites):
        with pytest.raises(ValueError, match="n_sites must be an integer"):
            ChainSpec(n_sites, SpinQuantum(1), 1.0)

    @pytest.mark.parametrize("dim_cap", [1, 0, -8])
    def test_dimension_cap_below_two_is_rejected(self, dim_cap):
        with pytest.raises(ValueError, match=f"dim_cap must be >= 2, got {dim_cap}"):
            ChainSpec(2, SpinQuantum(1), 1.0, dim_cap=dim_cap)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_coupling_whose_level_spread_overflows_is_rejected(self, boundary):
        # n=4, S=1: the spread bound is |J| n_bonds 3/2, with 4 ring bonds
        # and 3 open ones
        bonds = 4 if boundary == "periodic" else 3
        largest = 1.7976931348623157e308
        for j in (largest, -largest, 1e308, largest / (1.5 * bonds) * 1.000001):
            with pytest.raises(ValueError, match="level spread"):
                ChainSpec(4, SpinQuantum(2), j, boundary=boundary)
        below = largest / (1.5 * bonds) * 0.999999
        ChainSpec(4, SpinQuantum(2), below, boundary=boundary)
        ChainSpec(4, SpinQuantum(2), 1e307, boundary=boundary)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_chain_too_long_for_a_float_level_spread_is_refused_by_the_cap(self, boundary):
        # n_bonds (2S+1)/2 leaves the float range: the cap refuses it at once
        for n_sites in (2**1024, 10**400):
            with pytest.raises(RuntimeError, match="dimension above 10{18} exceeds cap 32768;"):
                ChainSpec(n_sites, SpinQuantum(1), 1.0, boundary=boundary)

    def test_dimension_cap_is_a_runtime_failure(self):
        spec = ChainSpec(8, SpinQuantum(5), 1.0, dim_cap=1000)
        with pytest.raises(RuntimeError, match="20736"):
            build_hamiltonian(spec)
        with pytest.raises(RuntimeError):
            dense_hamiltonian(spec)


class TestSectorStructure:
    @pytest.mark.parametrize("n,ts", [(2, 1), (2, 5), (4, 2), (6, 1)])
    def test_sectors_partition_the_space(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        blocks = build_hamiltonian(spec)
        assert sum(b.hamiltonian.shape[0] for b in blocks) == spec.total_dimension
        for block in blocks:
            sums = block.labels.astype(int).sum(axis=1)
            assert np.all(sums == block.twice_total_sz)
            # enumeration is lexicographic, so dense-basis ranks ascend
            assert np.all(np.diff(block.codes) > 0)

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 1, "periodic"), (2, 5, "periodic"), (2, 2, "open"), (4, 3, "open"),
         (6, 2, "periodic"), (8, 1, "open"), (8, 3, "periodic"), (10, 2, "open")],
    )
    def test_enumeration_matches_the_product_loop_bitwise(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary)
        got = _enumerate_sectors(spec)
        want = product_sectors(spec)
        assert [tsz for tsz, _, _ in got] == [tsz for tsz, _, _ in want]
        for (tsz, labels, codes), (_, ref_labels, ref_codes) in zip(got, want):
            assert type(tsz) is int
            for arr, ref in ((labels, ref_labels), (codes, ref_codes)):
                assert arr.dtype == ref.dtype and arr.shape == ref.shape
                assert arr.tobytes() == ref.tobytes()

    def test_enumeration_checks_the_cap_before_allocating(self):
        # dimension 12^20: anything allocated first would not fit in memory
        with pytest.raises(RuntimeError, match="exceeds cap"):
            _enumerate_sectors(ChainSpec(40, SpinQuantum(5), 1.0))

    def test_cap_names_dimensions_up_to_18_digits(self):
        # 4^29 has 18 digits and is named; 4^30 is only bounded, and so is
        # a chain whose dimension would take minutes to form
        with pytest.raises(RuntimeError, match="dimension 288230376151711744 exceeds cap 32768;"):
            diagonalize(ChainSpec(58, SpinQuantum(1), 1.0))
        for n in (60, 200_000):
            with pytest.raises(RuntimeError, match="dimension above 10{18} exceeds cap 32768;"):
                diagonalize(ChainSpec(n, SpinQuantum(1), 1.0), vectors=False)
        big = 10**30
        with pytest.raises(RuntimeError, match=f"dimension above {big} exceeds cap {big};"):
            diagonalize(ChainSpec(200, SpinQuantum(1), 1.0, dim_cap=big))

    @pytest.mark.parametrize("n,ts", [(2, 3), (4, 1), (4, 2), (4, 3), (6, 1), (6, 2)])
    def test_blocks_are_exactly_symmetric(self, n, ts):
        for block in build_hamiltonian(ChainSpec(n, SpinQuantum(ts), 1.0)):
            assert np.array_equal(block.hamiltonian, block.hamiltonian.T)

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 1, "open"), (2, 3, "periodic"), (4, 1, "periodic"), (4, 2, "periodic"),
         (4, 3, "open"), (6, 1, "periodic"), (6, 2, "open")],
    )
    def test_blocked_spectrum_matches_dense(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary)
        blocked = diagonalize(spec).all_eigenvalues()
        dense = np.linalg.eigvalsh(dense_hamiltonian(spec))
        np.testing.assert_allclose(blocked, dense, atol=1e-10)

    @pytest.mark.parametrize("n,ts", [(2, 5), (4, 5), (2, 7), (4, 7)])
    def test_open_large_spin_blocks_match_dense(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.3, boundary="open")
        dense = dense_hamiltonian(spec)
        covered = np.zeros_like(dense, dtype=bool)
        for block in build_hamiltonian(spec):
            h = block.hamiltonian
            assert np.array_equal(h, h.T)
            rows = np.ix_(block.codes, block.codes)
            np.testing.assert_allclose(h, dense[rows], rtol=0, atol=1e-12)
            covered[rows] = True
        # total Sz is conserved: nothing couples two sectors
        assert not np.any(dense[~covered])

    @pytest.mark.parametrize("n,ts", [(2, 5), (4, 2), (4, 7), (6, 1)])
    def test_hop_table_matches_scalar_coefficients(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        tspins = spec.site_twice_spins
        for block in build_hamiltonian(spec):
            lab = block.labels
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    src, tgt, coeff = _hops(spec, lab, block.codes, a, b)
                    ref_src = [
                        s
                        for s in range(lab.shape[0])
                        if lab[s, a] < tspins[a] and lab[s, b] > -tspins[b]
                    ]
                    ref = [
                        raise_coefficient(int(tspins[a]), int(lab[s, a]))
                        * lower_coefficient(int(tspins[b]), int(lab[s, b]))
                        for s in ref_src
                    ]
                    assert src.tolist() == ref_src
                    assert coeff.tolist() == ref  # bitwise, not approximately
                    moved = lab[tgt].astype(int) - lab[src].astype(int)
                    assert np.all(moved[:, a] == 2) and np.all(moved[:, b] == -2)
                    assert np.count_nonzero(moved) == 2 * src.size

    def test_known_spectra(self):
        # open (S, 1/2) dimer: two multiplets at -J(S+1)/2 and J S/2
        evals = diagonalize(
            ChainSpec(2, SpinQuantum(1), 1.0, boundary="open")
        ).all_eigenvalues()
        np.testing.assert_allclose(evals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
        evals = diagonalize(
            ChainSpec(2, SpinQuantum(2), 1.0, boundary="open")
        ).all_eigenvalues()
        np.testing.assert_allclose(evals, [-1.0, -1.0, 0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_uniform_ring_ground_energies(self):
        # S=1/2 rings: E0/J = -2 (n=4) and -2.802775637732 (n=6)
        e4 = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0)).ground_energy_kelvin
        assert e4 == pytest.approx(-2.0, abs=1e-10)
        e6 = diagonalize(ChainSpec(6, SpinQuantum(1), 1.0)).ground_energy_kelvin
        assert e6 == pytest.approx(-2.802775637731995, abs=1e-9)

    def test_periodic_two_site_ring_doubles_the_exchange(self):
        open_evals = diagonalize(
            ChainSpec(2, SpinQuantum(1), 1.0, boundary="open")
        ).all_eigenvalues()
        ring_evals = diagonalize(ChainSpec(2, SpinQuantum(1), 1.0)).all_eigenvalues()
        np.testing.assert_allclose(ring_evals, 2.0 * open_evals, atol=1e-12)


class TestThermalWeights:
    def test_normalization_and_positivity(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0))
        for t in (0.05, 1.0, 300.0):
            tw = thermal_weights(data, t)
            assert tw.shape == data.levels.shape
            assert float(tw.sum()) == pytest.approx(1.0, abs=1e-12)
            assert np.all(tw >= 0.0)

    def test_infinite_temperature_is_uniform(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0))
        # each table entry carries the weight of its level copies
        tw = thermal_weights(data, 1e9)
        np.testing.assert_allclose(tw, data.multiplicity / 16.0, rtol=1e-8)

    def test_zero_temperature_concentrates_on_ground_multiplet(self):
        data = diagonalize(ChainSpec(2, SpinQuantum(2), 1.0, boundary="open"))
        per_level = thermal_weights(data, 1e-4) / data.multiplicity
        ground = np.abs(data.levels - data.levels.min()) < 1e-12
        np.testing.assert_allclose(per_level[ground], 0.5, atol=1e-12)
        np.testing.assert_allclose(per_level[~ground], 0.0, atol=1e-12)

    def test_singlet_occupation_of_the_half_half_dimer(self):
        # weight e^{3/4} / (e^{3/4} + 3 e^{-1/4}) of the singlet at T = J
        data = diagonalize(ChainSpec(2, SpinQuantum(1), 1.0, boundary="open"))
        tw = thermal_weights(data, 1.0)
        singlet = float(tw[np.argmin(data.levels)])
        assert data.multiplicity[np.argmin(data.levels)] == 1
        expected = math.exp(0.75) / (math.exp(0.75) + 3.0 * math.exp(-0.25))
        assert singlet == pytest.approx(expected, abs=1e-12)
        assert singlet == pytest.approx(0.4753669, abs=1e-7)

    def test_rejects_nonpositive_temperature(self):
        data = diagonalize(ChainSpec(2, SpinQuantum(1), 1.0))
        with pytest.raises(ValueError):
            thermal_weights(data, 0.0)


ARRAY_TEMPS = np.concatenate([[1e-300], np.geomspace(1e-3, 1e4, 29), [1e300]])


class TestTemperatureArrays:
    """An array of temperatures gives, element by element, the scalar bits."""

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 2, "open"), (4, 1, "periodic"), (6, 5, "periodic"), (8, 2, "open")],
    )
    def test_array_equals_scalar_calls_bitwise(self, n, ts, boundary):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary))
        chi = susceptibility_exact(data, ARRAY_TEMPS)
        tw = thermal_weights(data, ARRAY_TEMPS)
        assert chi.shape == ARRAY_TEMPS.shape
        for k, t in enumerate(ARRAY_TEMPS.tolist()):
            scalar = susceptibility_exact(data, t)
            assert type(scalar) is float
            assert chi[k].tobytes() == np.float64(scalar).tobytes()
            assert tw[k].tobytes() == thermal_weights(data, t).tobytes()
        # any array shape broadcasts the same way
        grid = ARRAY_TEMPS[:30].reshape(5, 6)
        assert susceptibility_exact(data, grid).tobytes() == chi[:30].tobytes()

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_any_invalid_element_raises(self, bad, position):
        data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0))
        temps = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        temps[position] = bad
        for kernel in (thermal_weights, susceptibility_exact):
            with pytest.raises(ValueError, match=f"got {bad}"):
                kernel(data, temps)


class TestMeanEnergy:
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 2, "open"), (4, 1, "periodic"), (6, 5, "periodic"), (8, 2, "open")],
    )
    def test_array_equals_scalar_calls_bitwise(self, n, ts, boundary):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary))
        energies = thermal_mean(data, data.levels, ARRAY_TEMPS)
        assert energies.shape == ARRAY_TEMPS.shape
        for k, t in enumerate(ARRAY_TEMPS.tolist()):
            scalar = thermal_mean(data, data.levels, t)
            assert type(scalar) is float
            assert energies[k].tobytes() == np.float64(scalar).tobytes()
        grid = ARRAY_TEMPS[:30].reshape(5, 6)
        assert thermal_mean(data, data.levels, grid).tobytes() == energies[:30].tobytes()

    def test_limits(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        assert thermal_mean(data, data.levels, 1e-300) == data.ground_energy_kelvin
        # H is traceless, so <H> falls off as -Tr(H^2) / (d T)
        levels = data.all_eigenvalues()
        hot = -float(levels @ levels) / levels.size / 1e6
        assert thermal_mean(data, data.levels, 1e6) == pytest.approx(hot, rel=1e-5)

    @pytest.mark.parametrize(
        "n,ts", [(2, 2), (4, 1), (4, 2), (6, 3), (6, 5), (8, 2)]
    )
    def test_ring_bond_correlator_is_energy_per_bond(self, n, ts):
        # every ring bond is equivalent, so <S_0 . S_1> = <H> / (n J); on
        # the 2-site ring the two bonds make H = 2J S_0 . S_1
        spec = ChainSpec(n, SpinQuantum(ts), 1.3)
        full = diagonalize(spec)
        levels = diagonalize(spec, vectors=False)
        for t in (0.01, 0.1, 0.4, 1.0, 3.0, 30.0):
            g1 = float(correlator_matrix(full, t).g_dot[0, 1])
            assert abs(thermal_mean(levels, levels.levels, t) / (n * 1.3) - g1) <= 1e-14


class TestThermalMean:
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 2, "open"), (4, 1, "periodic"), (6, 5, "periodic"), (8, 2, "open")],
    )
    def test_array_equals_scalar_calls_bitwise(self, n, ts, boundary):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary))
        values = bond_levels(data, (0, 1))
        means = thermal_mean(data, values, ARRAY_TEMPS)
        assert means.shape == ARRAY_TEMPS.shape
        for k, t in enumerate(ARRAY_TEMPS.tolist()):
            scalar = thermal_mean(data, values, t)
            assert type(scalar) is float
            assert means[k].tobytes() == np.float64(scalar).tobytes()
        grid = ARRAY_TEMPS[:30].reshape(5, 6)
        assert thermal_mean(data, values, grid).tobytes() == means[:30].tobytes()

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 1, "periodic"), (4, 3, "open"), (6, 5, "periodic"), (8, 2, "open")],
    )
    def test_mean_energy_keeps_its_bits(self, n, ts, boundary, vectors):
        data = diagonalize(
            ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary), vectors=vectors
        )
        spread = data.spec.level_spread_kelvin
        temps = [1e-300, *ARRAY_TEMPS.tolist(), spread, np.nextafter(spread, 2 * spread)]
        assert any(t > spread for t in temps) and any(t <= spread for t in temps)
        levels, mult = data.levels, data.multiplicity
        for t in temps:
            if t <= spread:
                # one exp per table entry, times the multiplicity; the sum of
                # those weighted factors and of their products with the
                # levels, each pairwise, and one division
                x = np.exp((data.ground_energy_kelvin - levels) / t) * mult
                total = (x * levels).sum() / x.sum()
            else:
                # H is traceless and sum(mult) is the dimension, so this is
                # sum m exp(-E/T) E / sum m exp(-E/T) = <H>
                x = mult * np.expm1(-levels / t)
                total = (x * levels).sum() / (x.sum() + data.spec.total_dimension)
            assert np.float64(thermal_mean(data, data.levels, t)).tobytes() == np.float64(
                total
            ).tobytes()

    @pytest.mark.parametrize("coupling", [1.3, -0.7])
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(4, 1, "periodic"), (4, 5, "periodic"), (6, 2, "periodic"), (6, 3, "periodic"),
         (2, 1, "open"), (2, 5, "open"), (4, 2, "open"), (6, 3, "open")],
    )
    def test_bond_correlator_reaches_its_high_temperature_series(
        self, n, ts, boundary, coupling
    ):
        # G1 = -(J/T) S(S+1)/4 + O((J/T)^2) on every bond of an open chain
        # and of a ring with n >= 4 (the 2-site ring's two bonds double it)
        spin = SpinQuantum(ts)
        spec = ChainSpec(n, spin, coupling, boundary=boundary)
        if boundary == "periodic":
            data = diagonalize(spec, vectors=False)
            values = data.levels / (n * coupling)
        else:
            data = diagonalize(spec)
            values = bond_levels(data, (0, 1))
        ratios = abs(coupling) * np.geomspace(1e10, 1e300, 30)
        leading = -spin.casimir / 4
        for t, g1 in zip(ratios, thermal_mean(data, values, ratios)):
            assert t * g1 / coupling == pytest.approx(leading, rel=1e-8)
            assert thermal_mean(data, values, float(t)) == g1

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_high_temperature_form_stays_finite_at_huge_coupling(self, boundary):
        # the largest T lies above the level spread (1.25e308 on the ring),
        # and the unscaled partial sums of the levels would overflow there
        spec = ChainSpec(4, SpinQuantum(2), 2.0761934805741516e307, boundary=boundary)
        data = diagonalize(spec)
        t = 1.7976931348623157e308
        assert t > spec.level_spread_kelvin
        for values in (data.levels, bond_levels(data, (0, 1))):
            plain = float((thermal_weights(data, t) * values).sum())
            assert thermal_mean(data, values, t) == pytest.approx(plain, rel=1e-12)

    def test_one_value_per_table_entry(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        for values in (data.levels[:-1], data.all_eigenvalues()):
            with pytest.raises(ValueError, match="level-table entry"):
                thermal_mean(data, values, 1.0)
            with pytest.raises(ValueError, match="level-table entry"):
                thermal_mean_and_slope(data, values, 1.0)


class TestThermalMeanAndSlope:
    """The T_c kernel: `thermal_mean` at one temperature, bit for bit, and
    its derivative in T from the same Boltzmann factors."""

    @pytest.mark.parametrize("coupling", [1.3, 10.0, -0.7])
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 1, "open"), (4, 1, "periodic"), (6, 5, "periodic"), (8, 2, "open"),
         (4, 9, "open"), (8, 2, "periodic")],
    )
    def test_mean_is_thermal_mean_bitwise(self, n, ts, boundary, coupling):
        data = diagonalize(
            ChainSpec(n, SpinQuantum(ts), coupling, boundary=boundary), vectors=False
        )
        spread = data.spec.level_spread_kelvin
        temps = [1e-300, *(abs(coupling) * np.geomspace(1e-3, 1e3, 61)).tolist()]
        temps += [spread, float(np.nextafter(spread, 2 * spread))]
        assert any(t > spread for t in temps)
        for values in (data.bond, data.levels):
            for t in temps:
                mean, slope = thermal_mean_and_slope(data, values, t)
                assert type(mean) is float
                assert mean.hex() == thermal_mean(data, values, t).hex()
                # the expm1 form above the level spread has no slope
                assert (slope is None) == (t > spread)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_mean_is_thermal_mean_bitwise_where_its_sums_overflow(self, boundary):
        # at T = J, below the level spread, the levels' sums overflow, and
        # `thermal_mean` redoes them on rescaled values
        spec = ChainSpec(4, SpinQuantum(2), 2.0761934805741516e307, boundary=boundary)
        data = diagonalize(spec, vectors=False)
        t = spec.coupling_kelvin
        assert t < spec.level_spread_kelvin
        with np.errstate(over="ignore", invalid="ignore"):
            w = data.multiplicity * np.exp((data.ground_energy_kelvin - data.levels) / t)
            assert not np.isfinite((w * data.levels).sum() / w.sum())
        mean, slope = thermal_mean_and_slope(data, data.levels, t)
        assert mean.hex() == thermal_mean(data, data.levels, t).hex()
        assert math.isfinite(mean) and slope is None

    @pytest.mark.parametrize("coupling", [1.3, 10.0, -0.7])
    @pytest.mark.parametrize("n,ts", [(4, 1), (6, 5), (8, 2), (4, 9), (10, 1)])
    def test_ring_slope_is_the_energy_variance(self, n, ts, coupling):
        # b = E/(nJ) on a ring, so dG1/dT = Var(E)/(nJT^2)
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), coupling), vectors=False)
        spread = data.spec.level_spread_kelvin
        for t in np.geomspace(1e-2 * abs(coupling), spread, 40).tolist():
            _, slope = thermal_mean_and_slope(data, data.bond, t)
            w = data.multiplicity * np.exp((data.ground_energy_kelvin - data.levels) / t)
            energy = (w * data.levels).sum() / w.sum()
            variance = (w * (data.levels - energy) ** 2).sum() / w.sum()
            assert slope == pytest.approx(variance / (n * coupling * t * t), rel=1e-12)

    @pytest.mark.parametrize("n,ts", [(2, 1), (4, 3), (6, 2), (8, 1), (4, 9)])
    def test_open_slope_is_the_derivative_of_thermal_mean(self, n, ts):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.3, boundary="open"), vectors=False)
        spread = data.spec.level_spread_kelvin
        for t in np.geomspace(0.05, 0.99 * spread, 25).tolist():
            h = 1e-5 * t
            central = (
                thermal_mean(data, data.bond, t + h) - thermal_mean(data, data.bond, t - h)
            ) / (2 * h)
            _, slope = thermal_mean_and_slope(data, data.bond, t)
            # the difference quotient's roundoff is about 2e-16 |G1| / h
            assert slope == pytest.approx(central, rel=1e-6, abs=1e-10 / t)


def oracle_weights(data, temperature_kelvin):
    """`thermal_weights` as every thermal mean once went through it."""
    t = np.asarray(temperature_kelvin, dtype=float)[..., None]
    # (E0 - E)/T overflows to -inf at subnormal T; exp(-inf) = 0 is the limit
    with np.errstate(over="ignore"):
        w = (data.ground_energy_kelvin - data.levels) / t
    np.exp(w, out=w)
    w *= data.multiplicity
    w /= w.sum(-1)[..., None]
    return w


def oracle_susceptibility(data, temperature_kelvin):
    """The former `susceptibility_exact`: normalized weights, then one sum,
    J(J + 1)/3 the mean Sz^2 of a multiplet's 2J + 1 states."""
    w = oracle_weights(data, temperature_kelvin)
    w *= data.twice_j * (data.twice_j + 2) / 12.0
    return w.sum(-1)


def oracle_thermal_mean(data, values, temperature_kelvin):
    """The former `thermal_mean`: normalized weights, then one sum, and the
    expm1 form above the level spread."""
    values = np.asarray(values, dtype=float)
    w = oracle_weights(data, temperature_kelvin)
    w *= values
    mean = w.sum(-1)
    t = np.asarray(temperature_kelvin, dtype=float)
    hot = t > data.spec.level_spread_kelvin
    if hot.any():
        mean = np.array(mean)
        _, scale = np.frexp(np.abs(values).max())
        w_m1 = data.multiplicity * np.expm1(-data.levels / t[hot][:, None])
        num = (w_m1 * np.ldexp(values, -scale)).sum(-1)
        mean[hot] = np.ldexp(num / (w_m1.sum(-1) + data.spec.total_dimension), scale)
    return mean


class TestKernelAgainstWeightsThenSum:
    """The thermal means skip the normalized weights; they agree with the
    weights-then-sum formula that did not (kept above as an oracle)."""

    @pytest.mark.parametrize("coupling", [1.3, -0.7])
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(4, 1, "periodic"), (6, 5, "periodic"), (8, 2, "periodic"), (10, 1, "periodic"),
         (2, 3, "open"), (4, 3, "open"), (8, 2, "open"), (10, 1, "open")],
    )
    def test_within_1e13_of_the_oracle(self, n, ts, boundary, coupling):
        spec = ChainSpec(n, SpinQuantum(ts), coupling, boundary=boundary)
        data = diagonalize(spec, vectors=False)
        spread = spec.level_spread_kelvin
        temps = np.concatenate(
            [
                abs(coupling) * ARRAY_TEMPS,
                spread * np.geomspace(1e-2, 1e2, 41),
                [spread, np.nextafter(spread, 2 * spread)],
            ]
        )
        pairs = [(susceptibility_exact(data, temps), oracle_susceptibility(data, temps))]
        for values in (data.levels, data.bond):
            pairs.append(
                (thermal_mean(data, values, temps), oracle_thermal_mean(data, values, temps))
            )
        for got, want in pairs:
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


class TestBondLevels:
    TEMPS = (1e-300, 1e-3, 0.05, 0.3, 1.0, 4.0, 100.0)

    @pytest.mark.parametrize(
        "n,ts", [(2, 1), (2, 2), (4, 3), (6, 5), (8, 2), (8, 1)]
    )
    def test_thermal_mean_matches_correlator(self, n, ts):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.0, boundary="open"))
        bonds = [(0, 1), (2, 3)] if n >= 4 else [(0, 1)]
        for bond in bonds:
            values = bond_levels(data, bond)
            for t in self.TEMPS:
                want = correlator_matrix(data, t).g_dot[bond]
                assert abs(thermal_mean(data, values, t) - want) <= 1e-14

    def test_ring_bond_is_energy_per_bond(self):
        spec = ChainSpec(6, SpinQuantum(3), 1.0)
        data = diagonalize(spec)
        values = bond_levels(data, (3, 4))
        for t in self.TEMPS:
            want = thermal_mean(data, data.levels, t) / spec.n_sites
            assert abs(thermal_mean(data, values, t) - want) <= 1e-14

    def test_spin_flip_partners_share_one_table_run(self):
        # one value per table entry, which holds each multiplet once, and
        # every sector |2Sz| is the 2J of some multiplet
        data = diagonalize(ChainSpec(6, SpinQuantum(3), 1.0, boundary="open"))
        values = bond_levels(data, (0, 1))
        assert values.shape == data.levels.shape
        assert not values.flags.writeable
        assert set(data.twice_j.tolist()) == {
            abs(sec.twice_total_sz) for sec in data.sectors
        }

    def test_needs_eigenvectors_and_distinct_sites(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0, boundary="open"))
        for bond in ((1, 1), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="distinct sites"):
                bond_levels(data, bond)
        levels = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        with pytest.raises(ValueError, match="vectors=True"):
            bond_levels(levels, (0, 1))


TABLE_CHAINS = [
    (n, ts, boundary)
    for boundary in ("periodic", "open")
    for n, ts in ((2, 1), (2, 5), (4, 2), (6, 3), (6, 5), (8, 2), (10, 1), (10, 2))
]


def per_sector_means(data, sectors, values, t):
    """chi_tilde and the mean of each per-sector quantity in `values`, from
    the per-sector layout: every level of every sector (2Sz, eigenvalues)
    in `sectors` on its own, with the sums taken exactly (math.fsum) so
    that the reference carries no summation-order error of its own. Above
    the level spread, sum expm1(-E/T) v / sum exp(-E/T), as
    `thermal_mean`."""
    e0 = data.ground_energy_kelvin
    raw = [np.exp(-(evals - e0) / t) for _, evals in sectors]
    z = math.fsum(math.fsum(r) for r in raw)
    chi = math.fsum(
        math.fsum((tsz / 2.0) ** 2 * r) for (tsz, _), r in zip(sectors, raw)
    ) / z
    means = []
    for per_sector in values:
        if t <= data.spec.level_spread_kelvin:
            means.append(math.fsum(math.fsum(r * v) for r, v in zip(raw, per_sector)) / z)
            continue
        x = [-evals / t for _, evals in sectors]
        num = math.fsum(math.fsum(np.expm1(xs) * v) for xs, v in zip(x, per_sector))
        den = math.fsum(math.fsum(np.exp(xs)) for xs in x)
        means.append(num / den)
    return chi, means


class TestLevelTable:
    """`diagonalize` records each SU(2) multiplet once, with its
    multiplicity and 2J, and every thermal sum runs over that table."""

    @pytest.mark.parametrize("n,ts,boundary", TABLE_CHAINS)
    def test_table_repeats_into_the_spectrum_bitwise(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary)
        for vectors in (False, True) if spec.total_dimension <= 1728 else (False,):
            data = diagonalize(spec, vectors=vectors)
            assert data.levels.shape == data.multiplicity.shape == data.twice_j.shape
            assert int(data.multiplicity.sum()) == spec.total_dimension
            # a ring's 0 < k < pi copies times the 2J + 1 states of a multiplet
            copies, rest = np.divmod(data.multiplicity, data.twice_j + 1)
            assert set(copies.tolist()) <= {1, 2} and not rest.any()
            assert np.all(data.twice_j >= 0)
            assert np.all(data.twice_j % 2 == sum(spec.site_twice_spins) % 2)
            full = np.sort(np.repeat(data.levels, data.multiplicity))
            assert full.tobytes() == data.all_eigenvalues().tobytes()
            if vectors:
                for sec in data.sectors:
                    rebuilt = sector_levels(data, sec.twice_total_sz)
                    assert rebuilt.tobytes() == sec.eigenvalues.tobytes()
            else:
                assert data.sectors is None
            assert data.ground_energy_kelvin == data.levels.min()
            for arr in (data.levels, data.multiplicity, data.twice_j):
                assert not arr.flags.writeable

    @pytest.mark.parametrize(
        "n,ts,boundary,entries",
        [(8, 2, "periodic", 199), (6, 5, "periodic", 142), (8, 2, "open", 262),
         (10, 2, "periodic", 828)],
    )
    def test_entry_count(self, n, ts, boundary, entries):
        # one entry per multiplet, and per k, -k pair of a ring's 0 < k < pi
        # blocks: the lowest sector's size on the Sz blocks (the open chain)
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary)
        data = diagonalize(spec, vectors=boundary == "open")
        assert data.levels.size == entries

    @pytest.mark.parametrize("coupling", [1.3, -0.7])
    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(4, 1, "periodic"), (6, 5, "periodic"), (8, 1, "periodic"), (10, 2, "periodic"),
         (4, 2, "open"), (6, 3, "open"), (8, 2, "open"), (10, 1, "open")],
    )
    def test_sums_agree_with_the_per_sector_layout(self, n, ts, boundary, coupling):
        # chi_tilde, <H> and the edge bond's G1 to 1e-15 relative, from the
        # Lieb-Mattis T -> 0 limit through the expm1 form above the spread
        spec = ChainSpec(n, SpinQuantum(ts), coupling, boundary=boundary)
        data = diagonalize(spec, vectors=boundary == "open")
        # every sector, 2Sz descending, each holding every multiplet of
        # 2J >= |2Sz| in ascending order
        tszs = sorted({tsz for u in data.twice_j.tolist() for tsz in (u, -u)}, reverse=True)
        sectors = [(tsz, sector_levels(data, tsz)) for tsz in tszs]
        assert sum(evals.size for _, evals in sectors) == spec.total_dimension
        table = [data.levels]
        per_sector = [[evals for _, evals in sectors]]
        if boundary == "open":
            bond = bond_levels(data, (0, 1))
            runs = {}
            for tsz in tszs:
                run = np.flatnonzero(data.twice_j >= abs(tsz))
                runs[tsz] = bond[run[np.argsort(data.levels[run], kind="stable")]]
            table.append(bond)
            per_sector.append([runs[tsz] for tsz in tszs])
        ratios = np.concatenate([np.geomspace(1e-300, 1e300, 61), np.geomspace(1e-2, 1e3, 40)])
        spread = spec.level_spread_kelvin
        temps = [*(abs(coupling) * ratios).tolist(), spread, np.nextafter(spread, 2 * spread)]
        chis = susceptibility_exact(data, np.array(temps))
        for t, chi in zip(temps, chis.tolist()):
            want_chi, want_means = per_sector_means(data, sectors, per_sector, t)
            assert chi == pytest.approx(want_chi, rel=1e-15, abs=0.0)
            for values, want in zip(table, want_means):
                assert thermal_mean(data, values, t) == pytest.approx(want, rel=1e-15, abs=0.0)


# every chain of dimension <= 8,000 with 2S <= 7
SMALL_CHAINS = [
    (n, ts)
    for n in range(2, 14, 2)
    for ts in range(1, 8)
    if ((ts + 1) * 2) ** (n // 2) <= 8000
]


class TestMultipletTable:
    """One level-table entry per SU(2) multiplet, on both boundaries, with
    and without eigenvectors."""

    @pytest.mark.parametrize("coupling", [1.0, -1.0])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n,ts", SMALL_CHAINS)
    def test_entries_expand_into_every_dense_sector(self, n, ts, boundary, coupling):
        # the 2J + 1 states of each entry, one in each |2Sz| <= 2J, give
        # every Sz block's levels; -M is +M's block mirrored bitwise
        spec = ChainSpec(n, SpinQuantum(ts), coupling, boundary=boundary)
        tol = 1e-12 * abs(coupling) * n
        blocks = [b for b in build_hamiltonian(spec) if b.twice_total_sz >= 0]
        dense = {b.twice_total_sz: np.linalg.eigvalsh(b.hamiltonian) for b in blocks}
        for vectors in (False, True) if spec.total_dimension <= 1728 else (False,):
            data = diagonalize(spec, vectors=vectors)
            for tsz, want in dense.items():
                for sz in {tsz, -tsz}:
                    got = sector_levels(data, sz)
                    np.testing.assert_allclose(got, want, rtol=0, atol=tol)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n,ts", SMALL_CHAINS)
    def test_multiplicities_count_the_states_and_sz_squared(self, n, ts, boundary):
        # sum m = d, and sum m J(J + 1)/3 = Tr (Sz_tot)^2 = d sum_i S_i(S_i + 1)/3,
        # both in integers (times 12 for the second)
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary)
        d = spec.total_dimension
        casimirs = sum(t * (t + 2) for t in spec.site_twice_spins)
        for vectors in (False, True) if d <= 1728 else (False,):
            data = diagonalize(spec, vectors=vectors)
            assert int(data.multiplicity.sum()) == d
            twelve_sz2 = data.multiplicity * data.twice_j * (data.twice_j + 2)
            assert int(twelve_sz2.sum()) == d * casimirs
            assert float(data._chi_columns[0].sum()) == d * casimirs / 12

    @pytest.mark.parametrize("n,ts", [(4, 1), (4, 2), (6, 3)])
    def test_bond_values_are_traces_where_multiplets_of_two_spins_meet(self, n, ts):
        # on the 4-ring H = J (S_0 + S_2) . (S_1 + S_3), and multiplets of
        # different J share a level; the eigensolver mixes them in the
        # sectors they share, and each bond's thermal mean stays exact
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        data = diagonalize(spec)
        spins_at = [set(data.twice_j[abs(data.levels - e) < 1e-9].tolist()) for e in data.levels]
        assert n > 4 or max(len(spins) for spins in spins_at) > 1
        cms = {t: correlator_matrix(data, t) for t in (0.05, 0.4, 3.0)}
        dims = spec.site_dimensions
        ops = [spin_matrices(SpinQuantum(x)) for x in spec.site_twice_spins]
        for i, k in spec.bonds()[:2]:
            values = bond_levels(data, (i, k))
            dot = embed(ops[i].sz, i, dims) @ embed(ops[k].sz, k, dims)
            flip = embed(ops[i].sp, i, dims) @ embed(ops[k].sm, k, dims)
            dot += 0.5 * (flip + flip.T)
            for t, cm in cms.items():
                got = thermal_mean(data, values, t)
                assert abs(got - cm.g_dot[i, k]) <= 1e-14
                want = float(np.trace(dense_thermal_rho(spec, t) @ dot))
                assert got == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n,ts", [(4, 2), (6, 1), (6, 3), (2, 2)])
    def test_ring_blocks_missing_a_level_below_are_refused(self, monkeypatch, n, ts):
        # every 2Sz = lowest + 2 block moved up by 0.37 J, out of the blocks below
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        lowest, ring_blocks = sum(spec.site_twice_spins) % 2, chain._ring_blocks

        def shifted(spec):
            for tsz, q, parity, block, copies in ring_blocks(spec):
                if tsz == lowest + 2:
                    block = block + 0.37 * np.eye(block.shape[0])
                yield tsz, q, parity, block, copies

        monkeypatch.setattr(chain, "_ring_blocks", shifted)
        with pytest.raises(RuntimeError, match="block holds a level at .* K that the"):
            diagonalize(spec, vectors=False)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n,ts", [(4, 2), (6, 1), (2, 2)])
    def test_sz_blocks_missing_a_level_below_are_refused(self, monkeypatch, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), -1.0, boundary=boundary)
        lowest, sector_blocks = sum(spec.site_twice_spins) % 2, chain._sector_blocks

        def shifted(spec, labels, codes):
            block = sector_blocks(spec, labels, codes)
            if labels[0].sum() == lowest + 2:
                block += 0.37 * np.eye(block.shape[0])
            return block

        monkeypatch.setattr(chain, "_sector_blocks", shifted)
        with pytest.raises(RuntimeError, match="block holds a level at .* K that the"):
            diagonalize(spec)


class TestLowTemperatureLimit:
    """Lieb-Mattis: the ground multiplet has spin S_g = (n/2)(S - 1/2), so
    chi_tilde -> S_g (S_g + 1) / 3 as T -> 0, on rings and open chains."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize(
        "n,ts",
        [(n, ts) for ts in (1, 2, 3) for n in (2, 4, 6, 8)]
        + [(n, ts) for ts in (4, 5) for n in (2, 4, 6)],
    )
    def test_chi_reaches_the_ground_multiplet_value(self, n, ts, boundary, vectors):
        spec = ChainSpec(n, SpinQuantum(ts), 1.7, boundary=boundary)
        data = diagonalize(spec, vectors=vectors)
        s_g = n / 2 * (ts / 2 - 0.5)
        temps = np.array([1e-14, 1e-300, 1e-320]) * 1.7  # the last is subnormal
        np.testing.assert_allclose(
            susceptibility_exact(data, temps), s_g * (s_g + 1) / 3, rtol=1e-12
        )

    def test_ground_multiplet_is_one_exact_level(self):
        spec = ChainSpec(6, SpinQuantum(5), 1.0, boundary="open")
        levels = diagonalize(spec, vectors=False).all_eigenvalues()
        e0 = levels[0]
        assert np.count_nonzero(levels == e0) == 13  # 2 S_g + 1, S_g = 6
        assert levels[13] - e0 > 0.1


class TestCorrelatorMatrix:
    @pytest.mark.parametrize("n,ts", [(2, 2), (4, 1), (4, 2), (6, 1)])
    def test_isotropy_and_moments(self, n, ts):
        spin = SpinQuantum(ts)
        data = diagonalize(ChainSpec(n, spin, 1.0))
        for t in (0.1, 1.0, 10.0):
            cm = correlator_matrix(data, t)
            assert np.array_equal(cm.g_zz, cm.g_zz.T)
            assert np.array_equal(cm.g_dot, cm.g_dot.T)
            np.testing.assert_allclose(cm.g_dot, 3.0 * cm.g_zz, atol=1e-9)
            for i, tsi in enumerate(data.spec.site_twice_spins):
                cas = tsi * (tsi + 2) / 4.0
                assert cm.g_dot[i, i] == pytest.approx(cas, abs=1e-10)

    def test_transverse_part_against_dense_operators(self):
        spec = ChainSpec(4, SpinQuantum(2), 1.0)
        data = diagonalize(spec)
        dims = spec.site_dimensions
        ops = [spin_matrices(SpinQuantum(ts)) for ts in spec.site_twice_spins]
        sx = [0.5 * (op.sp + op.sm) for op in ops]  # Sx = (S+ + S-)/2
        for t in (0.3, 2.0):
            rho = dense_thermal_rho(spec, t)
            cm = correlator_matrix(data, t)
            for i in range(4):
                for k in range(4):
                    sx_ik = embed(sx[i], i, dims) @ embed(sx[k], k, dims)
                    g_xx = float(np.trace(rho @ sx_ik))
                    assert g_xx == pytest.approx(cm.g_zz[i, k], abs=1e-9)
                    assert (cm.g_dot[i, k] - cm.g_zz[i, k]) / 2.0 == pytest.approx(
                        g_xx, abs=1e-9
                    )

    def test_bond_energy_consistency(self):
        # sum of J <S_i . S_j> over bonds must equal <H>
        spec = ChainSpec(6, SpinQuantum(1), 1.3)
        data = diagonalize(spec)
        for t in (0.2, 1.0, 5.0):
            cm = correlator_matrix(data, t)
            e_mean = float(thermal_weights(data, t) @ data.levels)
            e_bonds = sum(1.3 * cm.g_dot[i, k] for i, k in spec.bonds())
            assert e_bonds == pytest.approx(e_mean, abs=1e-9)

    def test_off_diagonal_decay_at_high_temperature(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0))
        cm = correlator_matrix(data, 1e6)
        off = cm.g_dot - np.diag(np.diag(cm.g_dot))
        assert np.max(np.abs(off)) < 1e-5


class TestSusceptibility:
    @pytest.mark.parametrize("n,ts", [(2, 1), (4, 1), (4, 2), (6, 1)])
    def test_exact_equals_correlator_sum(self, n, ts):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.0))
        for t in (0.1, 1.0, 10.0):
            from_sum = float(np.sum(correlator_matrix(data, t).g_zz))
            assert susceptibility_exact(data, t) == pytest.approx(from_sum, abs=1e-12)

    def test_gapped_ground_state_suppresses_chi(self):
        data = diagonalize(ChainSpec(2, SpinQuantum(1), 1.0, boundary="open"))
        assert susceptibility_exact(data, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_high_temperature_limit(self):
        spin = SpinQuantum(2)
        data = diagonalize(ChainSpec(4, spin, 1.0))
        limit = 2.0 * (spin.casimir / 3.0 + 0.25)
        assert susceptibility_exact(data, 1e7) == pytest.approx(limit, rel=1e-6)

    def test_nn_approx_formula(self):
        spin = SpinQuantum(1)
        # separable boundary: g1 = -S/2 gives n (12 S^2 - 4 S + 3) / 24
        assert susceptibility_nn_approx(2, spin, -0.25) == pytest.approx(
            2.0 * (12 * 0.25 - 4 * 0.5 + 3) / 24.0, rel=1e-14
        )
        assert susceptibility_nn_approx(2, spin, 0.0) == pytest.approx(0.5, rel=0)
        spin1 = SpinQuantum(2)
        assert susceptibility_nn_approx(4, spin1, -1.0) == pytest.approx(
            4.0 * (0.125 + 0.5 - 1.0 / 3.0), rel=1e-14
        )
        with pytest.raises(ValueError):
            susceptibility_nn_approx(3, spin, 0.0)


class TestReducedPairState:
    @pytest.mark.parametrize("n,ts", [(2, 2), (4, 1), (4, 3), (6, 1)])
    def test_density_matrix_properties(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        data = diagonalize(spec)
        da, db = spec.site_dimensions[0], spec.site_dimensions[1]
        for t in (0.2, 1.0, 8.0):
            rho = reduced_pair_state(data, t, (0, 1))
            assert rho.shape == (da * db, da * db)
            assert np.array_equal(rho, rho.T)
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    @pytest.mark.parametrize("bond", [(1, 1), (0, 4), (-1, 0)])
    def test_a_bond_needs_two_distinct_sites_of_the_chain(self, bond):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0))
        with pytest.raises(ValueError, match="is not a pair of distinct sites"):
            reduced_pair_state(data, 1.0, bond)

    def test_matches_dense_partial_trace(self):
        spec = ChainSpec(4, SpinQuantum(2), 1.0)
        data = diagonalize(spec)
        d0, d1 = 3, 2
        for t in (0.3, 2.0):
            rho_full = dense_thermal_rho(spec, t)
            # trace out sites 2, 3 (combined dimension 6)
            r = rho_full.reshape(d0 * d1, 6, d0 * d1, 6)
            expected = np.einsum("arbr->ab", r)
            got = reduced_pair_state(data, t, (0, 1))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_bond_correlator_from_reduced_state(self):
        spec = ChainSpec(4, SpinQuantum(1), 1.0)
        data = diagonalize(spec)
        ops_a = spin_matrices(SpinQuantum(1))
        dot = np.kron(ops_a.sz, ops_a.sz) + 0.5 * (
            np.kron(ops_a.sp, ops_a.sm) + np.kron(ops_a.sm, ops_a.sp)
        )
        for t in (0.4, 2.5):
            rho = reduced_pair_state(data, t, (0, 1))
            from_rho = float(np.trace(rho @ dot))
            cm = correlator_matrix(data, t)
            assert from_rho == pytest.approx(cm.g_dot[0, 1], abs=1e-10)

    def test_translation_equivalent_bonds_agree(self):
        data = diagonalize(ChainSpec(6, SpinQuantum(1), 1.0))
        t = 0.7
        base = reduced_pair_state(data, t, (0, 1))
        for bond in ((2, 3), (4, 5)):
            np.testing.assert_allclose(
                reduced_pair_state(data, t, bond), base, atol=1e-10
            )

    def test_dimer_cold_state_is_the_ground_projector(self):
        spec = ChainSpec(2, SpinQuantum(1), 1.0, boundary="open")
        data = diagonalize(spec)
        rho = reduced_pair_state(data, 1e-3, (0, 1))
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        np.testing.assert_allclose(rho, np.outer(singlet, singlet), atol=1e-12)

    def test_hot_state_is_maximally_mixed(self):
        spec = ChainSpec(4, SpinQuantum(1), 1.0)
        data = diagonalize(spec)
        rho = reduced_pair_state(data, 1e8, (0, 1))
        np.testing.assert_allclose(rho, np.eye(4) / 4.0, atol=1e-7)

    def test_boundary_wrap_bond(self):
        spec = ChainSpec(4, SpinQuantum(1), 1.0)
        data = diagonalize(spec)
        rho = reduced_pair_state(data, 1.0, (3, 0))
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            reduced_pair_state(data, 1.0, (0, 2))
        open_data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0, boundary="open"))
        with pytest.raises(ValueError):
            reduced_pair_state(open_data, 1.0, (3, 0))


class TestNegativityBruteforce:
    def test_singlet(self):
        v = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert negativity_bruteforce(np.outer(v, v), 2, 2) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_maximally_mixed(self):
        assert negativity_bruteforce(np.eye(6) / 6.0, 3, 2) == 0.0

    def test_product_state(self):
        rho_a = np.diag([0.7, 0.3])
        rho_b = np.diag([0.2, 0.8])
        assert negativity_bruteforce(np.kron(rho_a, rho_b), 2, 2) == 0.0

    def test_thermal_dimer_grid(self):
        spin = SpinQuantum(4)
        data = diagonalize(ChainSpec(2, spin, 1.0, boundary="open"))
        for t in np.geomspace(0.05, 20.0, 8):
            rho = reduced_pair_state(data, float(t), (0, 1))
            got = negativity_bruteforce(rho, 5, 2)
            expected = pair_correlator(spin, 1.0, float(t))
            expected = max(0.0, -(spin.value + 2.0 * expected)) / 5.0
            assert got == pytest.approx(expected, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            negativity_bruteforce(np.eye(4) / 4.0, 2, 3)
        with pytest.raises(ValueError):
            negativity_bruteforce(np.eye(4), 2, 2)  # trace 4
        bad = np.eye(4) / 4.0
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            negativity_bruteforce(bad, 2, 2)


def independently_solved(spec):
    """Every sector solved on its own with eigh: the unmirrored reference,
    each sector with its own levels. The eigenvector observables read the
    sectors and the ground energy alone; the level table is the
    eigenvalue-only spectrum's."""
    sectors = []
    for block in build_hamiltonian(spec):
        evals, evecs = np.linalg.eigh(block.hamiltonian)
        sectors.append(
            SectorSpectrum(
                block.twice_total_sz, block.labels, block.codes, evals, evecs
            )
        )
    levels = np.concatenate([sec.eigenvalues for sec in sectors])
    return dataclasses.replace(
        diagonalize(spec, vectors=False),
        sectors=tuple(sectors),
        ground_energy_kelvin=float(levels.min()),
        bond=None,
    )


# (2, 2) and (10, 2) rings have no 2Sz = 0 sector, so every sector is mirrored
MIRROR_SPECS = [
    (2, 2, "periodic"),
    (4, 1, "periodic"),
    (4, 2, "periodic"),
    (6, 5, "periodic"),
    (6, 3, "open"),
    (8, 2, "open"),
    (10, 2, "periodic"),
]


class TestSpinFlipMirror:
    """`diagonalize` solves the 2Sz >= 0 sectors and mirrors the others."""

    @pytest.mark.parametrize("n,ts,boundary", MIRROR_SPECS)
    def test_blocks_are_bitwise_mirrored(self, n, ts, boundary):
        # the precondition of the mirror: H(-M) is H(+M) reversed in rows and
        # columns, with the flipped labels in reverse order
        spec = ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary)
        blocks = {b.twice_total_sz: b for b in build_hamiltonian(spec)}
        top = spec.total_dimension - 1
        for tsz, block in blocks.items():
            partner = blocks[-tsz]
            assert np.array_equal(block.hamiltonian, partner.hamiltonian[::-1, ::-1])
            assert np.array_equal(block.labels, -partner.labels[::-1])
            assert np.array_equal(block.codes, top - partner.codes[::-1])

    @pytest.mark.parametrize("n,ts,boundary", MIRROR_SPECS[:-1])
    def test_mirrored_sectors_share_read_only_arrays(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary)
        blocks = build_hamiltonian(spec)
        data = diagonalize(spec)
        assert [s.twice_total_sz for s in data.sectors] == [
            b.twice_total_sz for b in blocks
        ]
        by_sz = {s.twice_total_sz: s for s in data.sectors}
        for block, sec in zip(blocks, data.sectors):
            assert not sec.eigenvalues.flags.writeable
            assert not sec.eigenvectors.flags.writeable
            assert np.array_equal(sec.labels, block.labels)
            if sec.twice_total_sz < 0:
                partner = by_sz[-sec.twice_total_sz]
                assert sec.eigenvalues is partner.eigenvalues
                assert np.shares_memory(sec.eigenvectors, partner.eigenvectors)
                assert np.array_equal(sec.eigenvectors, partner.eigenvectors[::-1])
            # every V, mirrored or not, diagonalizes its own block
            h, v = block.hamiltonian, sec.eigenvectors
            np.testing.assert_allclose(h @ v, v * sec.eigenvalues, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 2, "periodic"), (4, 1, "periodic"), (6, 5, "periodic"),
         (8, 2, "open"), (10, 2, "periodic")],
    )
    def test_mirror_agrees_with_independent_solves(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary)
        mirrored = diagonalize(spec)
        reference = independently_solved(spec)
        for t in (0.25, 0.6) if n < 10 else (0.6,):
            got = correlator_matrix(mirrored, t)
            want = correlator_matrix(reference, t)
            np.testing.assert_allclose(got.g_zz, want.g_zz, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.g_dot, want.g_dot, rtol=0, atol=1e-12)
            for bond in spec.bonds()[:2]:
                np.testing.assert_allclose(
                    reduced_pair_state(mirrored, t, bond),
                    reduced_pair_state(reference, t, bond),
                    rtol=0,
                    atol=1e-12,
                )

    @pytest.mark.parametrize("n,ts,boundary", MIRROR_SPECS[:-1])
    def test_eigenvalue_only_spectrum(self, n, ts, boundary):
        spec = ChainSpec(n, SpinQuantum(ts), 1.3, boundary=boundary)
        full = diagonalize(spec)
        levels = diagonalize(spec, vectors=False)
        # the table alone: one entry per multiplet, every |2Sz| a 2J, read-only
        assert levels.sectors is None
        assert set(levels.twice_j.tolist()) == {
            abs(sec.twice_total_sz) for sec in full.sectors
        }
        assert not levels.levels.flags.writeable
        for with_v in full.sectors:
            np.testing.assert_allclose(
                sector_levels(levels, with_v.twice_total_sz),
                with_v.eigenvalues,
                rtol=0,
                atol=1e-12,
            )
        temps = np.array([0.05, 0.7, 9.0])
        np.testing.assert_allclose(
            susceptibility_exact(levels, temps),
            susceptibility_exact(full, temps),
            rtol=1e-12,
        )

    def test_eigenvalue_only_spectrum_refuses_vector_observables(self):
        levels = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        with pytest.raises(ValueError, match="vectors=True"):
            correlator_matrix(levels, 1.0)
        with pytest.raises(ValueError, match="vectors=True"):
            reduced_pair_state(levels, 1.0, (0, 1))


MOMENTUM_RINGS = [(2, 1), (2, 2), (4, 1), (4, 2), (6, 3), (6, 5), (8, 2), (10, 2)]


def ring_blocks_by_sz(spec):
    """The blocks of `_ring_blocks`, as (q, parity, block, copies) lists by 2Sz."""
    blocks = {}
    for tsz, q, parity, matrix, copies in _ring_blocks(spec):
        blocks.setdefault(tsz, []).append((q, parity, matrix, copies))
    return blocks


class TestMomentumBlocks:
    """An eigenvalue-only ring spectrum is solved as translation-momentum
    blocks; every sector's levels must be those of its dense Sz block."""

    @pytest.mark.parametrize(
        "n,ts,coupling",
        [(n, ts, 1.3) for n, ts in MOMENTUM_RINGS]
        + [(n, ts, -0.7) for n, ts in MOMENTUM_RINGS if n <= 6],
    )
    def test_sector_levels_match_the_dense_block(self, n, ts, coupling):
        spec = ChainSpec(n, SpinQuantum(ts), coupling)
        blocks = ring_blocks_by_sz(spec)
        for block in build_hamiltonian(spec):
            if block.twice_total_sz < 0:
                continue
            levels = []
            for _, _, matrix, copies in blocks.pop(block.twice_total_sz):
                assert matrix.dtype == np.float64
                assert np.array_equal(matrix, matrix.T)
                levels += [eig_sym(matrix, vectors=False)[0]] * copies
            np.testing.assert_allclose(
                np.sort(np.concatenate(levels)),
                np.linalg.eigvalsh(block.hamiltonian),
                rtol=0,
                atol=1e-12 * abs(coupling) * n,
            )
        assert not blocks

    @pytest.mark.parametrize("n,ts", MOMENTUM_RINGS)
    def test_thermal_averages_match_the_sz_path(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.3)
        levels = diagonalize(spec, vectors=False)
        full = diagonalize(spec)
        temps = np.array([0.01, 0.05, 0.7, 9.0, 300.0]) * 1.3
        np.testing.assert_allclose(
            susceptibility_exact(levels, temps),
            susceptibility_exact(full, temps),
            rtol=1e-10,
        )
        np.testing.assert_allclose(
            thermal_mean(levels, levels.levels, temps),
            thermal_mean(full, full.levels, temps),
            rtol=1e-10,
            atol=1e-10 * 1.3 * n,
        )

    @pytest.mark.parametrize(
        "boundary,vectors,momentum",
        [("periodic", False, True), ("periodic", True, False), ("open", False, False)],
    )
    def test_only_eigenvalue_only_rings_take_the_momentum_path(
        self, monkeypatch, boundary, vectors, momentum
    ):
        solved = []

        def recording(matrix, vectors=True):
            solved.append(matrix)
            return eig_sym(matrix, vectors=vectors)

        def yielding(*args, **kwargs):
            for tsz, q, parity, block, copies in ring_blocks(*args, **kwargs):
                yielded.append((block, copies))
                yield tsz, q, parity, block, copies

        eig_sym, ring_blocks, yielded = chain.eig_sym, chain._ring_blocks, []
        monkeypatch.setattr(chain, "eig_sym", recording)
        monkeypatch.setattr(chain, "_ring_blocks", yielding)
        spec = ChainSpec(8, SpinQuantum(2), 1.0, boundary=boundary)
        data = diagonalize(spec, vectors=vectors)
        counted = sum(m.shape[0] * copies for m, copies in yielded)
        blocks = build_hamiltonian(spec)
        sizes = [b.hamiltonian.shape[0] for b in blocks]
        nonnegative = [b.hamiltonian.shape[0] for b in blocks if b.twice_total_sz >= 0]
        assert (data.sectors is None) == (not vectors)
        assert [sector_levels(data, b.twice_total_sz).size for b in blocks] == sizes
        if vectors:
            assert [s.eigenvalues.size for s in data.sectors] == sizes
        if momentum:
            # k and -k blocks are solved once, k = 0 and k = pi as two
            # parity blocks each; every block is real
            assert max(m.shape[0] for m in solved) < max(sizes) / 3
            assert {m.dtype for m in solved} == {np.dtype(float)}
            assert counted == sum(nonnegative)
        elif boundary == "open" and not vectors:
            # one block per total spin J, on its D(J) - D(J + 1) coupling
            # paths, and no Sz block at all
            dims = {b.twice_total_sz: b.hamiltonian.shape[0] for b in blocks}
            assert [m.shape[0] for m in solved] == [
                dims[tsz] - dims.get(tsz + 2, 0) for tsz in sorted(dims, reverse=True)
                if tsz >= 0
            ]
            assert max(m.shape[0] for m in solved) == 76 and counted == 0
        else:
            # one Sz block per 2Sz >= 0 sector; the -M sectors are mirrored
            assert [m.shape[0] for m in solved] == nonnegative
            assert all(m.dtype == np.dtype(float) for m in solved)

    def test_reflection_splits_the_k0_block(self):
        spec = ChainSpec(8, SpinQuantum(2), 1.0)
        [block] = [b for b in build_hamiltonian(spec) if b.twice_total_sz == 0]

        def orbit(lab):
            return min(tuple(np.roll(lab, 2 * r)) for r in range(4))

        # k = 0 has one state per translation orbit; reflection i -> -i
        # pairs up orbits, and each orbit it maps to itself has P = +1
        orbits = {orbit(lab) for lab in block.labels}
        lone = sum(orbit(np.roll(o[::-1], 1)) == o for o in orbits)
        even, odd = [(m, c) for q, _, m, c in ring_blocks_by_sz(spec)[0] if q == 0]
        assert even[1] == odd[1] == 1
        assert even[0].shape[0] == (len(orbits) + lone) // 2
        assert odd[0].shape[0] == (len(orbits) - lone) // 2

    @pytest.mark.parametrize("n,ts", [(8, 2), (6, 5)])
    def test_never_enumerates_the_product_basis(self, monkeypatch, n, ts):
        # the momentum blocks of every sector come from one pass over the
        # 2Sz >= 0 states, and the table keeps its layout bit for bit
        spec = ChainSpec(n, SpinQuantum(ts), 1.0)
        want = diagonalize(spec, vectors=False)

        def refuse(spec):
            raise AssertionError("the product basis was split into sectors")

        monkeypatch.setattr(chain, "_enumerate_sectors", refuse)
        data = diagonalize(spec, vectors=False)
        assert data.sectors is None
        assert int(data.multiplicity.sum()) == spec.total_dimension
        for got, ref in (
            (data.levels, want.levels),
            (data.multiplicity, want.multiplicity),
            (data.twice_j, want.twice_j),
        ):
            assert got.tobytes() == ref.tobytes()
        # runs 2J descending
        assert np.all(np.diff(data.twice_j) <= 0)

    def test_cap_bounds_the_total_dimension(self):
        for boundary in ("periodic", "open"):
            spec = ChainSpec(12, SpinQuantum(2), 1.0, boundary=boundary, dim_cap=46655)
            with pytest.raises(RuntimeError, match="46656"):
                diagonalize(spec, vectors=False)


class TestThermodynamicLimit:
    """Ring T_c/J approaches its n -> infinity value: each step in n moves
    it by less than the step before."""

    @pytest.mark.parametrize(
        "ts,expected",
        [(1, [0.86336, 0.80234, 0.79584, 0.79519]), (2, [1.03266, 0.92798, 0.90884, 0.90552])],
    )
    def test_ring_tc_steps_shrink(self, ts, expected):
        spin = SpinQuantum(ts)
        tcs = []
        for n in (4, 6, 8, 10):
            data = diagonalize(ChainSpec(n, spin, 1.0), vectors=False)
            tcs.append(
                solve_tc(lambda t: thermal_mean_and_slope(data, data.bond, t), spin, 1.0)
            )
        np.testing.assert_allclose(tcs, expected, rtol=0, atol=5e-6)
        steps = np.abs(np.diff(tcs))
        assert np.all(steps[1:] < steps[:-1])


# open chains of dimension <= 8,000 with n <= 10 and 2S <= 5
MULTIPLET_CHAINS = [
    (n, ts)
    for n in (2, 4, 6, 8, 10)
    for ts in range(1, 6)
    if ((ts + 1) * 2) ** (n // 2) <= 8000
]


class TestMultipletPath:
    """Open chains without eigenvectors are solved once per SU(2) multiplet,
    on the coupling paths of the sites taken in chain order."""

    @pytest.mark.parametrize("coupling", [1.3, -0.7])
    @pytest.mark.parametrize("n,ts", MULTIPLET_CHAINS)
    def test_levels_and_edge_bond_match_the_sz_blocks(self, n, ts, coupling):
        spec = ChainSpec(n, SpinQuantum(ts), coupling, boundary="open")
        multiplets, sz = diagonalize(spec, vectors=False), diagonalize(spec)
        # the same table layout: one sorted run per 2J, 2J descending
        assert np.array_equal(multiplets.twice_j, sz.twice_j)
        assert np.array_equal(multiplets.multiplicity, sz.multiplicity)
        tol = 1e-12 * abs(coupling) * n
        np.testing.assert_allclose(multiplets.levels, sz.levels, rtol=0, atol=tol)
        assert multiplets.sectors is None
        for theirs in sz.sectors:
            mine = sector_levels(multiplets, theirs.twice_total_sz)
            np.testing.assert_allclose(mine, theirs.eigenvalues, rtol=0, atol=tol)
        assert multiplets.ground_energy_kelvin == pytest.approx(
            sz.ground_energy_kelvin, rel=0, abs=tol
        )
        # the edge bond's per-level values give its thermal G1
        edge = multiplets.bond
        assert edge.shape == multiplets.levels.shape and not edge.flags.writeable
        temps = abs(coupling) * np.geomspace(1e-3, 1e3, 61)
        got = thermal_mean(multiplets, edge, temps)
        want = thermal_mean(sz, bond_levels(sz, (0, 1)), temps)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_never_enumerates_the_product_basis(self, monkeypatch):
        # the table's runs come from the coupling paths alone
        spec = ChainSpec(8, SpinQuantum(2), 1.0, boundary="open")
        want = diagonalize(spec, vectors=False)

        def refuse(spec):
            raise AssertionError("the product basis was enumerated")

        monkeypatch.setattr(chain, "_enumerate_sectors", refuse)
        data = diagonalize(spec, vectors=False)
        assert data.sectors is None
        assert int(data.multiplicity.sum()) == spec.total_dimension
        for got, ref in (
            (data.levels, want.levels),
            (data.multiplicity, want.multiplicity),
            (data.twice_j, want.twice_j),
            (data.bond, want.bond),
        ):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("coupling", [1.3, -0.7])
    @pytest.mark.parametrize("n,ts", MULTIPLET_CHAINS)
    def test_ring_bond_matches_the_sz_blocks(self, n, ts, coupling):
        # every ring bond is equivalent, so the eigenvalue-only ring's
        # per-level bond gives G1 of the first bond and of the second
        spec = ChainSpec(n, SpinQuantum(ts), coupling)
        levels, sz = diagonalize(spec, vectors=False), diagonalize(spec)
        temps = abs(coupling) * np.geomspace(1e-3, 1e3, 61)
        got = thermal_mean(levels, levels.bond, temps)
        for bond in [(0, 1), (1, 2)] if n >= 4 else [(0, 1)]:
            want = thermal_mean(sz, bond_levels(sz, bond), temps)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_only_spectra_without_vectors_carry_the_bond(self, boundary):
        spec = ChainSpec(4, SpinQuantum(2), 1.0, boundary=boundary)
        data = diagonalize(spec, vectors=False)
        assert data.bond.shape == data.levels.shape and not data.bond.flags.writeable
        assert diagonalize(spec).bond is None

    @pytest.mark.parametrize("n,ts", MULTIPLET_CHAINS)
    def test_coupling_paths_count_the_multiplets(self, n, ts):
        spec = ChainSpec(n, SpinQuantum(ts), 1.0, boundary="open")
        dims = {tsz: codes.size for tsz, _, codes in _enumerate_sectors(spec)}
        paths = chain._coupling_paths(spec)
        # distinct, in lexicographic order, and every step a triangle
        assert paths.shape[1] == n and np.all(paths[:, 0] == ts)
        rows = [tuple(path) for path in paths.tolist()]
        assert rows == sorted(set(rows))
        prev, site, tj = paths[:, :-1], np.array(spec.site_twice_spins[1:]), paths[:, 1:]
        assert np.all((np.abs(prev - site) <= tj) & (tj <= prev + site))
        # one path per multiplet: D(J) - D(J + 1) of spin J, 2J + 1 states each
        counts = {tj: int(np.count_nonzero(paths[:, -1] == tj)) for tj in dims if tj >= 0}
        assert sum(counts.values()) == paths.shape[0]
        for tj, count in counts.items():
            assert count == dims[tj] - dims.get(tj + 2, 0)
        assert sum((tj + 1) * count for tj, count in counts.items()) == spec.total_dimension

    def test_edge_bond_is_the_pair_value_of_j01(self):
        # on two sites the edge bond is the whole chain: S.s = E / J per
        # level, -5/4 on the J = 1 triplet and 3/4 on the J = 2 quintet
        spec = ChainSpec(2, SpinQuantum(3), 2.5, boundary="open")
        data = diagonalize(spec, vectors=False)
        np.testing.assert_array_equal(data.bond, [0.75, -1.25])
        np.testing.assert_array_equal(
            np.sort(np.repeat(data.bond, data.multiplicity)), [-1.25] * 3 + [0.75] * 5
        )
        np.testing.assert_allclose(data.bond, data.levels / 2.5, rtol=0, atol=1e-15)


def triangle(tx, ty):
    """Twice every spin that x and y couple to."""
    return range(abs(tx - ty), tx + ty + 1, 2)


def six_j(ta, tb, tc, td, te, tf):
    """The Wigner 6j symbol {a b c; d e f}, every spin given as twice its
    value: the reference for the closed form of `_spin_half_6j`.

    Racah's formula: the product of the four triangle coefficients
    Delta(abc) Delta(aef) Delta(dbf) Delta(dec) and the alternating sum
    over t of (t + 1)! / [(t - a - b - c)! (t - a - e - f)! (t - d - b - f)!
    (t - d - e - c)! (a + b + d + e - t)! (b + c + e + f - t)!
    (c + a + f + d - t)!]. The sum is taken over one common denominator
    in exact integers and squared into one ratio of integers with the
    triangle coefficients, then one (correctly rounded) division and one
    square root give the result within an ulp of the exact value. Zero
    wherever a triad (a b c), (a e f), (d b f), (d e c) fails the triangle
    rule or sums to a half-integer.
    """
    triads = ((ta, tb, tc), (ta, te, tf), (td, tb, tf), (td, te, tc))
    if any(not abs(x - y) <= z <= x + y or (x + y + z) % 2 for x, y, z in triads):
        return 0.0
    f = math.factorial
    rise = [(x + y + z) // 2 for x, y, z in triads]  # t >= each
    fall = [(ta + tb + td + te) // 2, (tb + tc + te + tf) // 2, (tc + ta + tf + td) // 2]
    lo, hi = max(rise), min(fall)
    # each term times the common denominator prod (hi - r)! prod (s - lo)!
    # is an integer
    total = sum(
        (-1) ** t
        * f(t + 1)
        * math.prod(math.perm(hi - r, hi - t) for r in rise)
        * math.prod(math.perm(s - lo, t - lo) for s in fall)
        for t in range(lo, hi + 1)
    )
    num = total**2
    den = (math.prod(f(hi - r) for r in rise) * math.prod(f(s - lo) for s in fall)) ** 2
    for x, y, z in triads:
        num *= f((x + y - z) // 2) * f((x - y + z) // 2) * f((y + z - x) // 2)
        den *= f((x + y + z) // 2 + 1)
    # the sign by comparison: a large total has no float
    return -math.sqrt(num / den) if total < 0 else math.sqrt(num / den)


class TestTwoSitesAtLargeSpin:
    """n = 2 chains at 2S where int16 labels, a fixed level tolerance and
    a 6j key packed in (2S + 2)^5 once failed. The ring's two bonds make
    it the pair at 2J; the open chain is the pair at J."""

    # 32767: one ulp of the levels (3.6e-12 J) exceeded the clustering
    # tolerance 1e-12 |J| n, exit 3; 32768: int16 labels, exit 1; 65535:
    # int16 sector numbers, whose groups 2 sector + odd collided, exit 3
    @pytest.mark.parametrize("ts", [32767, 32768, 65535])
    def test_ring_is_the_pair_at_twice_the_coupling(self, ts):
        spin = SpinQuantum(ts)
        data = diagonalize(ChainSpec(2, spin, 1.0, dim_cap=2 * (ts + 1)), vectors=False)
        # around the gap J (2S + 1), where G1 has left its T -> 0 limit
        for t in ((ts + 1) * np.array([0.3, 1.0, 3.0])).tolist():
            want = pair_correlator(spin, 2.0, t)
            assert want > pair_correlator(spin, 2.0, 1.0) + 1.0
            assert thermal_mean(data, data.bond, t) == pytest.approx(want, rel=1e-12)

    def test_open_chain_is_the_pair(self):
        # dimension 12,416 under the default cap: numpy refused a 6j key
        # radix of (2S + 2)^5, although n = 2 has no inner bond
        spin = SpinQuantum(6207)
        data = diagonalize(ChainSpec(2, spin, 1.0, boundary="open"), vectors=False)
        for t in (100.0, 355.0, 3000.0):
            g1 = thermal_mean(data, data.bond, t)
            assert g1 == pytest.approx(pair_correlator(spin, 1.0, t), rel=1e-12)
        kernel = functools.partial(thermal_mean_and_slope, data, data.bond)
        tc = solve_tc(kernel, spin, 1.0)
        assert f"{tc:.9g}" == f"{characteristic_temperature(spin, 1.0):.9g}" == "355.402682"


class TestSixJ:
    @pytest.mark.parametrize("ta,tb,tc,td", [(1, 2, 1, 2), (2, 2, 2, 2), (3, 4, 5, 2), (4, 7, 6, 5), (8, 3, 6, 9)])
    def test_orthogonality_sums(self, ta, tb, tc, td):
        # sqrt((2x + 1)(2y + 1)) {a b x; c d y} recouples (ab)x against
        # (ad)y: a square orthogonal matrix, so both sums are deltas
        xs = [x for x in triangle(ta, tb) if x in triangle(tc, td)]
        ys = [y for y in triangle(ta, td) if y in triangle(tc, tb)]
        u = np.array([[math.sqrt((x + 1) * (y + 1)) * six_j(ta, tb, x, tc, td, y) for y in ys] for x in xs])
        assert u.shape[0] == u.shape[1] > 1
        np.testing.assert_allclose(u.T @ u, np.eye(len(ys)), rtol=0, atol=1e-14)
        np.testing.assert_allclose(u @ u.T, np.eye(len(xs)), rtol=0, atol=1e-14)

    def test_known_values_and_selection_rules(self):
        # {a b c; 0 c b} = (-1)^(a+b+c) / sqrt((2b + 1)(2c + 1))
        for ta in range(0, 13):
            for tb in range(0, 13):
                for tc in triangle(ta, tb):
                    want = (-1) ** ((ta + tb + tc) // 2) / math.sqrt((tb + 1) * (tc + 1))
                    assert six_j(ta, tb, tc, 0, tc, tb) == pytest.approx(want, rel=2.3e-16)
        assert six_j(1, 1, 0, 1, 1, 2) == pytest.approx(1 / 2, rel=2.3e-16)
        assert six_j(2, 2, 2, 2, 2, 2) == pytest.approx(1 / 6, rel=2.3e-16)
        # a triad that breaks the triangle rule, or sums to a half-integer
        for args in ((2, 2, 6, 2, 2, 2), (2, 2, 2, 2, 2, 6), (1, 1, 1, 1, 1, 1), (2, 4, 2, 1, 1, 2)):
            assert six_j(*args) == 0.0

    def test_one_spin_half_matches_edmonds(self):
        # A. R. Edmonds, Angular Momentum in Quantum Mechanics, Table 5
        for ta in range(0, 21):
            for tb in range(0, 21):
                for tc in triangle(ta, tb):
                    if tc == 0:
                        continue
                    s = (ta + tb + tc) // 2
                    a, b, c = ta / 2, tb / 2, tc / 2
                    sign = (-1) ** s
                    want = sign * math.sqrt((s - 2 * b) * (s - 2 * c + 1) / ((2 * b + 1) * (2 * b + 2) * 2 * c * (2 * c + 1)))
                    got = six_j(ta, tb, tc, 1, tc - 1, tb + 1)
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0)
                    if tb:
                        want = sign * math.sqrt((s + 1) * (s - 2 * a) / (2 * b * (2 * b + 1) * 2 * c * (2 * c + 1)))
                        got = six_j(ta, tb, tc, 1, tc - 1, tb - 1)
                        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("ta,tb,tc", [(400, 401, 3), (401, 200, 601), (1000, 999, 1001)])
    def test_a_sum_beyond_the_float_range_keeps_its_sign(self, ta, tb, tc):
        # the exact sum over t leaves the float range; its sign once went
        # through a float, with OverflowError (open chains with 2S >= 171)
        s = (ta + tb + tc) // 2
        b, c = tb / 2, tc / 2
        want = (-1) ** s * math.sqrt((s - 2 * b) * (s - 2 * c + 1) / ((2 * b + 1) * (2 * b + 2) * 2 * c * (2 * c + 1)))
        assert six_j(ta, tb, tc, 1, tc - 1, tb + 1) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_column_permutations_leave_it_unchanged(self):
        for upper in ((3, 4, 5), (6, 6, 6), (2, 7, 7), (8, 5, 9)):
            for lower in ((1, 2, 3), (4, 3, 5), (6, 7, 5)):
                columns = list(zip(upper, lower))
                value = six_j(*upper, *lower)
                for perm in itertools.permutations(columns):
                    top, bottom = zip(*perm)
                    # the same exact integers, so bitwise the same value
                    assert six_j(*top, *bottom) == value


def open_chain_symbols(spec):
    """Every distinct symbol {j_k-1 s_k j_k; s_k+1 j_k+1 S - 1/2} on the
    coupling paths of an open chain, sorted, each with twice (A, C, M) of
    its form {A S C; 1/2 M S - 1/2}: (A, M) is (j_k+1, j_k-1) where s_k =
    1/2 (k odd), else (j_k-1, j_k+1)."""
    ts, twice = spec.spin.twice_spin, spec.site_twice_spins
    symbols = {}
    for path in _coupling_paths(spec).tolist():
        for k in range(1, spec.n_sites - 1):
            below, tc, above = path[k - 1 : k + 2]
            form = (above, tc, below) if k % 2 else (below, tc, above)
            symbols[below, twice[k], tc, twice[k + 1], above, ts - 1] = form
    return sorted(symbols.items())


class TestSpinHalfSixJ:
    """`_spin_half_6j`, the closed form of the open chains' symbols, equals
    Racah's sum (`six_j`) to the bit: both are the correctly rounded root
    of one exact ratio. `==` does not tell the two zeros apart."""

    @pytest.mark.parametrize(
        "n,ts",
        [
            (n, ts)
            for n in (2, 4, 6, 8)
            for ts in range(1, 10)
            if (2 * (ts + 1)) ** (n // 2) <= chain.DEFAULT_DIM_CAP
        ],
    )
    def test_every_symbol_of_the_open_chains_under_the_cap(self, n, ts):
        symbols = open_chain_symbols(ChainSpec(n, SpinQuantum(ts), 1.0, boundary="open"))
        assert len(symbols) > 0 or n == 2
        ta, tc, tm = np.array([form for _, form in symbols]).reshape(-1, 3).T
        got = _spin_half_6j(ta, ts, tc, tm)
        assert got.tolist() == [six_j(*symbol) for symbol, _ in symbols]

    @pytest.mark.parametrize("ts,samples", [(601, 40), (6207, 12), (20001, 5)])
    def test_sampled_symbols_at_large_spin(self, ts, samples):
        # all of a chain's symbols at once, as the chain evaluates them: past
        # 2^53 at 2S = 20001, where the ratio is taken in Python integers
        spec = ChainSpec(4, SpinQuantum(ts), 1.0, boundary="open", dim_cap=2_000_000_000)
        symbols = open_chain_symbols(spec)
        ta, tc, tm = np.array([form for _, form in symbols]).T
        got = _spin_half_6j(ta, ts, tc, tm)
        picks = np.linspace(0, len(symbols) - 1, samples).round().astype(int).tolist()
        assert got[picks].tolist() == [six_j(*symbols[k][0]) for k in picks]
        assert np.count_nonzero(got[picks]) >= samples // 2

    @pytest.mark.parametrize("down", [True, False])
    def test_either_side_of_the_int64_limit(self, down):
        # the largest product is the denominator 2C (2C + 1) 2S (2S + 1) for
        # M = C - 1/2, (2C + 1)(2C + 2) 2S (2S + 1) for M = C + 1/2; find the
        # last 2C that keeps it below 2^53 and take that and the next
        ts = 6207

        def den(tc):
            return (tc + (0 if down else 1)) * (tc + (1 if down else 2)) * ts * (ts + 1)

        tc = math.isqrt(2**53 // (ts * (ts + 1)))
        while den(tc) >= 2**53:
            tc -= 1
        while den(tc + 1) < 2**53:
            tc += 1
        for c in (tc, tc + 1):
            ta, tm = c + 1, c - 1 if down else c + 1
            got = _spin_half_6j(np.array([ta]), ts, np.array([c]), np.array([tm]))
            want = six_j(ta, ts, c, 1, tm, ts - 1)
            assert want != 0.0 and got.tolist() == [want]

    def test_a_ratio_whose_nearest_floats_divide_to_another_root(self):
        # 2S = 20001, n = 4: past 2^53 the quotient of the floats nearest to
        # numerator and denominator has a root one ulp off the exact ratio's
        ts, ta, tc, tm = 20001, 20000, 9489, 9490
        s = (ta + ts + tc) // 2
        num, den = (s - tc) * (s - ts + 1), (tc + 1) * (tc + 2) * ts * (ts + 1)
        assert den > 2**53 and math.sqrt(float(num) / float(den)) != math.sqrt(num / den)
        got = _spin_half_6j(np.array([ta]), ts, np.array([tc]), np.array([tm]))
        assert got.tolist() == [six_j(ta, ts, tc, 1, tm, ts - 1)]
