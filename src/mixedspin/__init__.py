"""Thermal entanglement in mixed-spin (S, 1/2) Heisenberg chains.

Library layout:

* `operators`: exact real spin matrices, embedding, symmetric eigensolver.
* `units`: CODATA-derived constants and unit conversions.
* `pair`: closed forms for one (S, 1/2) exchange pair: correlator,
  negativity, characteristic temperature.
* `chain`: sector-blocked exact diagonalization, Boltzmann weights and
  thermal means of per-level values (energy, bond values), exact
  susceptibility, correlators, reduced pair states, brute-force
  negativity.
* `witness`: nearest-neighbor susceptibility, the separability
  threshold and witness, negativity lower bound, T_c solving and
  sweeps, built-in compound table.
* `fitdata`: measurement CSV ingestion, model curves, (J, g) fitting,
  per-point negativity bounds.
* `cli`: the `mixedspin` command.
"""

from .chain import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    CorrelatorMatrix,
    SectorSpectralData,
    bond_levels,
    build_hamiltonian,
    correlator_matrix,
    dense_hamiltonian,
    diagonalize,
    negativity_bruteforce,
    reduced_pair_state,
    susceptibility_exact,
    thermal_mean,
    thermal_weights,
)
from .fitdata import (
    FitResult,
    MeasurementSeries,
    bound_series,
    fit,
    load_measurements,
    model_chi,
    nelder_mead,
    synth_series,
)
from .operators import (
    SPIN_HALF,
    SpinOperators,
    SpinQuantum,
    eig_sym,
    embed,
    spin_matrices,
)
from .pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator,
    pair_correlator_literature,
    pair_negativity,
)
from .units import (
    CURIE_FACTOR_EMU_K_PER_MOL,
    KELVIN_PER_WAVENUMBER,
    chi_emu_per_mol_to_reduced,
    chi_reduced_to_emu_per_mol,
    kelvin_to_wavenumber,
    wavenumber_to_kelvin,
)
from .witness import (
    CompoundRecord,
    CompoundTcRow,
    LinearLaw,
    SweepResult,
    SweepRow,
    WitnessReport,
    builtin_compounds,
    compound_report,
    corrected_bound,
    correction_polynomial,
    lookup_compound,
    negativity_lower_bound,
    separability_threshold,
    solve_tc,
    susceptibility_nn_approx,
    sweep_tc,
    witness_report,
    witness_value,
)

__version__ = "0.1.0"
