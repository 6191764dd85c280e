"""Thermal entanglement in mixed-spin (S, 1/2) Heisenberg chains.

Library layout:

* `operators`: exact real spin matrices, embedding, symmetric eigensolver.
* `units`: CODATA-derived constants and unit conversions.
* `pair`: closed forms for one (S, 1/2) exchange pair: correlator,
  negativity, characteristic temperature.
* `chain`: sector-blocked exact diagonalization, Boltzmann weights and
  thermal means of per-level values (energy, bond values), exact
  susceptibility.
* `witness`: nearest-neighbor susceptibility, the separability
  threshold and witness, the paper's negativity bound, T_c solving and
  sweeps, built-in compound table.
* `fitdata`: measurement CSV ingestion, model curves, (J, g) fitting.
* `cli`: the `mixedspin` command.

This namespace holds no name that needs eigenvectors. The dense oracle
that does (Hamiltonians, correlator matrices, reduced pair states,
brute-force negativity, spin matrices and their embedding) lives in
`mixedspin.chain` and `mixedspin.operators`, as the reference for the
tests and the benchmark.
"""

from .chain import (
    DEFAULT_DIM_CAP,
    ChainSpec,
    SectorSpectralData,
    diagonalize,
    susceptibility_exact,
    thermal_mean,
    thermal_mean_and_slope,
    thermal_weights,
)
from .fitdata import (
    FitResult,
    MeasurementSeries,
    fit,
    load_measurements,
    model_chi,
    synth_series,
)
from .operators import SPIN_HALF, SpinQuantum, eig_sym
from .pair import (
    characteristic_temperature,
    negativity_from_g1,
    pair_correlator,
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
    lookup_compound,
    negativity_lower_bound,
    separability_threshold,
    solve_tc,
    susceptibility_nn_approx,
    sweep_tc,
    witness_report,
)

__version__ = "0.1.0"
