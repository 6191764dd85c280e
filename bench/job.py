"""Run one mixedspin CLI job in this fresh process and report it as JSON.

    python3 bench/job.py SPAWN_TIME TRACE KERNEL -- CLI_ARGS...

SPAWN_TIME is the parent's `time.monotonic()` just before it started
this process (the clock is system-wide on Linux). TRACE is 0 or 1; with
1 every layer entry point is wrapped by `layers.install()`. KERNEL names
the reference kernel (a key of KERNEL_REFERENCE_S) timed just before and
just after the job.

The last stdout line is one JSON object: the CLI exit code, setup_s
(process start, imports and warm-up), job_s (wall time around
`cli.main`), kernel_s (the two kernel times), maxrss_kb, the CLI's
stdout and, when traced, the layer report. The process exits with the
CLI's exit code.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time

# The host's speed drifts by 20-40% over seconds to minutes. Each job
# process therefore times a fixed kernel that does not use mixedspin,
# doing the kind of work its workload spends its time on, and run.py
# scales job timings by KERNEL_REFERENCE_S / kernel time. These are the
# kernels' median times on a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4,
# OpenBLAS on 1 thread); they only set the scale of the reported seconds.
KERNEL_REFERENCE_S = {"thermal": 0.08, "eigh": 0.042}
# Sz-sector sizes of the (S=1, 1/2) 8-site ring the fit workload uses
THERMAL_SECTOR_SIZES = (1, 8, 32, 84, 160, 232, 262, 232, 160, 84, 32, 8, 1)


def time_kernel(name: str, np) -> float:
    """Seconds for one run of the named reference kernel."""
    rng = np.random.default_rng(0)
    if name == "thermal":  # Boltzmann weights over sectors, as in a fit
        sectors = [np.sort(rng.random(m)) * 20.0 for m in THERMAL_SECTOR_SIZES]
        start = time.perf_counter()
        for k in range(1000):
            raw = [np.exp(-levels / (0.5 + 0.001 * k)) for levels in sectors]
            z = float(sum(r.sum() for r in raw))
            [r / z for r in raw]
        return time.perf_counter() - start
    if name == "eigh":  # dense symmetric eigensolve
        sym = rng.random((400, 400))
        sym += sym.T
        start = time.perf_counter()
        for _ in range(2):
            np.linalg.eigh(sym)
        return time.perf_counter() - start
    raise ValueError(f"unknown kernel {name!r}")


def main(argv: list[str]) -> int:
    spawn_time = float(argv[0])
    traced = argv[1] == "1"
    kernel = argv[2]
    cli_args = argv[4:]

    import numpy as np

    from mixedspin import cli

    tracer = None
    if traced:
        import layers

        tracer = layers.install()
    # the first LAPACK call of a process can stall; pay it here, not in the job
    warm = np.arange(40_000.0).reshape(200, 200)
    np.linalg.eigh(warm + warm.T)
    setup_s = time.monotonic() - spawn_time

    captured = io.StringIO()
    real_stdout = sys.stdout
    kernel_before = time_kernel(kernel, np)
    sys.stdout = captured
    try:
        start = time.perf_counter()
        if tracer is None:
            rc = cli.main(cli_args)
        else:
            rc = tracer.call("cli", cli.main, cli_args)
        job_s = time.perf_counter() - start
    finally:
        sys.stdout = real_stdout
    kernel_after = time_kernel(kernel, np)

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "job_s": job_s,
        "kernel_s": [kernel_before, kernel_after],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": captured.getvalue(),
        "trace": tracer.report() if tracer is not None else None,
    }
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
