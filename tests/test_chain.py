"""Sector-blocked exact diagonalization against dense constructions."""

import math

import numpy as np
import pytest

from mixedspin import chain
from mixedspin.chain import (
    ChainSpec,
    SectorSpectralData,
    SectorSpectrum,
    _hops,
    _momentum_levels,
    _strides,
    bond_levels,
    build_hamiltonian,
    correlator_matrix,
    dense_hamiltonian,
    diagonalize,
    mean_energy,
    negativity_bruteforce,
    reduced_pair_state,
    susceptibility_exact,
    thermal_mean,
    thermal_weights,
)
from mixedspin.operators import (
    SpinQuantum,
    embed,
    lower_coefficient,
    raise_coefficient,
    spin_matrices,
)
from mixedspin.pair import pair_correlator
from mixedspin.witness import solve_tc, susceptibility_nn_approx


def dense_thermal_rho(spec, t):
    h = dense_hamiltonian(spec)
    evals, evecs = np.linalg.eigh(h)
    w = np.exp(-(evals - evals[0]) / t)
    w /= w.sum()
    return (evecs * w) @ evecs.T


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
        tspins = np.asarray(spec.site_twice_spins, dtype=np.int64)
        strides = _strides(spec.site_dimensions)
        for block in build_hamiltonian(spec):
            lab = block.labels
            for a in range(n):
                for b in range(n):
                    if a == b:
                        continue
                    src, tgt, coeff = _hops(lab, block.codes, tspins, strides, a, b)
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
            total = sum(float(w.sum()) for w in tw)
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(np.all(w >= 0.0) for w in tw)

    def test_infinite_temperature_is_uniform(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0))
        flat = np.concatenate(thermal_weights(data, 1e9))
        np.testing.assert_allclose(flat, np.full(16, 1.0 / 16.0), rtol=1e-8)

    def test_zero_temperature_concentrates_on_ground_multiplet(self):
        data = diagonalize(ChainSpec(2, SpinQuantum(2), 1.0, boundary="open"))
        flat = np.concatenate(thermal_weights(data, 1e-4))
        evals = np.concatenate([s.eigenvalues for s in data.sectors])
        ground = np.abs(evals - evals.min()) < 1e-12
        np.testing.assert_allclose(flat[ground], 0.5, atol=1e-12)
        np.testing.assert_allclose(flat[~ground], 0.0, atol=1e-12)

    def test_singlet_occupation_of_the_half_half_dimer(self):
        # weight e^{3/4} / (e^{3/4} + 3 e^{-1/4}) of the singlet at T = J
        data = diagonalize(ChainSpec(2, SpinQuantum(1), 1.0, boundary="open"))
        flat = np.concatenate(thermal_weights(data, 1.0))
        evals = np.concatenate([s.eigenvalues for s in data.sectors])
        singlet = float(flat[np.argmin(evals)])
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
            for w_all, w in zip(tw, thermal_weights(data, t)):
                assert w_all[k].tobytes() == w.tobytes()
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
        energies = mean_energy(data, ARRAY_TEMPS)
        assert energies.shape == ARRAY_TEMPS.shape
        for k, t in enumerate(ARRAY_TEMPS.tolist()):
            scalar = mean_energy(data, t)
            assert type(scalar) is float
            assert energies[k].tobytes() == np.float64(scalar).tobytes()
        grid = ARRAY_TEMPS[:30].reshape(5, 6)
        assert mean_energy(data, grid).tobytes() == energies[:30].tobytes()

    def test_limits(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        assert mean_energy(data, 1e-300) == data.ground_energy_kelvin
        # H is traceless, so <H> falls off as -Tr(H^2) / (d T)
        levels = data.all_eigenvalues()
        hot = -float(levels @ levels) / levels.size / 1e6
        assert mean_energy(data, 1e6) == pytest.approx(hot, rel=1e-5)

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
            g1 = float(correlator_matrix(full, t, pairs=((0, 1),)).g_dot[0, 1])
            assert abs(mean_energy(levels, t) / (n * 1.3) - g1) <= 1e-14


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
        for t in [1e-300, *ARRAY_TEMPS.tolist()]:
            # the expression mean_energy evaluated before thermal_mean existed
            total = 0.0
            for sector, w in zip(data.sectors, thermal_weights(data, t)):
                total = total + (w * sector.eigenvalues).sum(-1)
            assert np.float64(mean_energy(data, t)).tobytes() == np.float64(
                total
            ).tobytes()

    def test_one_value_array_per_sector(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        levels = [sec.eigenvalues for sec in data.sectors]
        with pytest.raises(ValueError):
            thermal_mean(data, levels[:-1], 1.0)


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
                want = correlator_matrix(data, t, pairs=(bond,)).g_dot[bond]
                assert abs(thermal_mean(data, values, t) - want) <= 1e-14

    def test_ring_bond_is_energy_per_bond(self):
        spec = ChainSpec(6, SpinQuantum(3), 1.0)
        data = diagonalize(spec)
        values = bond_levels(data, (3, 4))
        for t in self.TEMPS:
            want = mean_energy(data, t) / spec.n_sites
            assert abs(thermal_mean(data, values, t) - want) <= 1e-14

    def test_spin_flip_partners_share_one_array(self):
        data = diagonalize(ChainSpec(6, SpinQuantum(3), 1.0, boundary="open"))
        values = bond_levels(data, (0, 1))
        by_sz = {sec.twice_total_sz: v for sec, v in zip(data.sectors, values)}
        for sec, v in zip(data.sectors, values):
            assert v is by_sz[abs(sec.twice_total_sz)]
            assert v.shape == sec.eigenvalues.shape
            assert not v.flags.writeable

    def test_needs_eigenvectors_and_distinct_sites(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0, boundary="open"))
        for bond in ((1, 1), (0, 4), (-1, 0)):
            with pytest.raises(ValueError, match="distinct sites"):
                bond_levels(data, bond)
        levels = diagonalize(ChainSpec(4, SpinQuantum(2), 1.0), vectors=False)
        with pytest.raises(ValueError, match="vectors=True"):
            bond_levels(levels, (0, 1))


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

    @pytest.mark.parametrize(
        "n,ts,boundary",
        [(2, 2, "periodic"), (4, 5, "open"), (6, 1, "periodic"), (8, 2, "open")],
    )
    def test_requested_pairs_match_full_matrix(self, n, ts, boundary):
        data = diagonalize(ChainSpec(n, SpinQuantum(ts), 1.0, boundary=boundary))
        full = correlator_matrix(data, 0.7)
        for i in range(n):
            for k in range(n):
                if i == k:
                    continue
                part = correlator_matrix(data, 0.7, pairs=[(i, k)])
                assert part.g_dot[i, k].tobytes() == full.g_dot[i, k].tobytes()
                assert np.array_equal(part.g_zz, full.g_zz)
                assert np.array_equal(np.diag(part.g_dot), np.diag(full.g_dot))
                unrequested = ~np.eye(n, dtype=bool)
                unrequested[i, k] = unrequested[k, i] = False
                assert np.all(np.isnan(part.g_dot[unrequested]))
        # a pair named in both orders is still computed once
        both = correlator_matrix(data, 0.7, pairs=[(1, 0), (0, 1)])
        assert both.g_dot[0, 1].tobytes() == full.g_dot[0, 1].tobytes()

    def test_requested_pairs_must_be_distinct_sites(self):
        data = diagonalize(ChainSpec(4, SpinQuantum(1), 1.0))
        for bad in [(1, 1), (0, 4), (-1, 2), (0.5, 1)]:
            with pytest.raises(ValueError, match="distinct sites"):
                correlator_matrix(data, 1.0, pairs=[bad])

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
            e_mean = sum(
                float(w @ s.eigenvalues)
                for w, s in zip(thermal_weights(data, t), data.sectors)
            )
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
    """Every sector solved on its own with eigh: the unmirrored reference."""
    sectors = []
    for block in build_hamiltonian(spec):
        evals, evecs = np.linalg.eigh(block.hamiltonian)
        sectors.append(
            SectorSpectrum(
                block.twice_total_sz, block.labels, block.codes, evals, evecs
            )
        )
    return SectorSpectralData(spec, tuple(sectors))


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
        by_sz = {s.twice_total_sz: s for s in levels.sectors}
        for with_v, sec in zip(full.sectors, levels.sectors):
            assert sec.twice_total_sz == with_v.twice_total_sz
            assert sec.eigenvectors is None
            assert not sec.eigenvalues.flags.writeable
            assert sec.eigenvalues is by_sz[abs(sec.twice_total_sz)].eigenvalues
            np.testing.assert_allclose(
                sec.eigenvalues, with_v.eigenvalues, rtol=0, atol=1e-12
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
            correlator_matrix(levels, 1.0, pairs=[(0, 1)])
        with pytest.raises(ValueError, match="vectors=True"):
            reduced_pair_state(levels, 1.0, (0, 1))


MOMENTUM_RINGS = [(2, 1), (2, 2), (4, 1), (4, 2), (6, 3), (6, 5), (8, 2), (10, 2)]


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
        for block in build_hamiltonian(spec):
            if block.twice_total_sz < 0:
                continue
            np.testing.assert_allclose(
                _momentum_levels(spec, block.labels, block.codes),
                np.linalg.eigvalsh(block.hamiltonian),
                rtol=0,
                atol=1e-12 * abs(coupling) * n,
            )

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
            mean_energy(levels, temps),
            mean_energy(full, temps),
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

        eig_sym = chain.eig_sym
        monkeypatch.setattr(chain, "eig_sym", recording)
        spec = ChainSpec(8, SpinQuantum(2), 1.0, boundary=boundary)
        data = diagonalize(spec, vectors=vectors)
        sizes = [b.hamiltonian.shape[0] for b in build_hamiltonian(spec)]
        nonnegative = [s.eigenvalues.size for s in data.sectors if s.twice_total_sz >= 0]
        if momentum:
            # k and -k blocks are solved once; k = 0 and k = pi are real
            assert max(m.shape[0] for m in solved) < max(sizes) / 3
            assert {m.dtype for m in solved} == {np.dtype(float), np.dtype(complex)}
            counted = sum(
                m.shape[0] * (2 if np.iscomplexobj(m) else 1) for m in solved
            )
            assert counted == sum(nonnegative)
        else:
            assert [m.shape[0] for m in solved] == nonnegative
            assert all(m.dtype == np.dtype(float) for m in solved)

    def test_cap_bounds_the_total_dimension(self):
        spec = ChainSpec(12, SpinQuantum(2), 1.0, dim_cap=46655)
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
            tcs.append(solve_tc(lambda t: mean_energy(data, t) / n, spin, 1.0))
        np.testing.assert_allclose(tcs, expected, rtol=0, atol=5e-6)
        steps = np.abs(np.diff(tcs))
        assert np.all(steps[1:] < steps[:-1])
