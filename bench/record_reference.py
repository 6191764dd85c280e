"""Record the n=10, S=1 periodic-ring reference used by the table_large checks.

    PYTHONPATH=src python3 bench/record_reference.py

The dense oracle cannot reach dimension 7776 cheaply, so this spectrum
(J = 1, sectors with 2Sz > 0) and the bond (0, 1) negativities are
recorded once from the package and committed. A later change that alters
these values fails the benchmark's checks.
"""

from __future__ import annotations

import json

from mixedspin.chain import ChainSpec, diagonalize, negativity_bruteforce, reduced_pair_state
from mixedspin.operators import SpinQuantum

from workloads import REFERENCE_N10

N_SITES, TWICE_SPIN = 10, 2
NEGATIVITY_T_OVER_J = (0.25, 0.6)


def main() -> None:
    spec = ChainSpec(n_sites=N_SITES, spin=SpinQuantum(TWICE_SPIN), coupling_kelvin=1.0)
    data = diagonalize(spec)
    dims = spec.site_dimensions
    reference = {
        "n_sites": N_SITES,
        "twice_spin": TWICE_SPIN,
        "sector_eigenvalues": {
            str(sec.twice_total_sz): sec.eigenvalues.tolist()
            for sec in data.sectors
            if sec.twice_total_sz > 0
        },
        "negativity_bond_0_1": {
            str(t): negativity_bruteforce(reduced_pair_state(data, t, (0, 1)), dims[0], dims[1])
            for t in NEGATIVITY_T_OVER_J
        },
    }
    REFERENCE_N10.write_text(json.dumps(reference) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
