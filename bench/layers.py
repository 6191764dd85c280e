"""Outside-in layer tracing for one mixedspin CLI job.

`install()` replaces the module-level names through which `cli`, `chain`
and `fitdata` call each other (and through which `cli` reaches
`witness.solve_tc`) with wrappers that time each call as a span. The
package source is not edited. Spans nest strictly because a job is
single-threaded, so a span's self time is its duration minus the
durations of its direct children.

Not separately timed: sector enumeration, which is private and counted
inside `chain.build_hamiltonian`, and `units`, whose conversions are a
few float operations each and too thin to time.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    """Per-layer call counts, busy time and self time, plus exact counts."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, busy_s, self_s]
        self.counts: Counter[str] = Counter()
        self.read_masks: list[np.ndarray] = []
        self._child_time: list[float] = []

    def call(self, name, fn, *args, **kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += duration
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - children

    def report(self) -> dict:
        counts = dict(self.counts)
        # pairs a caller read from a correlator matrix, upper triangle only
        counts["chain.correlator_matrix.pairs_read"] = sum(
            int(np.triu(m | m.T, 1).sum()) for m in self.read_masks
        )
        return {"spans": self.spans, "counts": counts}


class _ReadLog(np.ndarray):
    """Array view that marks every element its caller indexes."""

    def __getitem__(self, key):
        self.read_mask[key] = True
        return np.asarray(self)[key]


def _log_reads(tracer: Tracer, result):
    n = result.g_dot.shape[0]
    mask = np.zeros((n, n), dtype=bool)
    tracer.read_masks.append(mask)
    tracer.counts["chain.correlator_matrix.pairs_computed"] += n * (n - 1) // 2
    views = {}
    for field in ("g_zz", "g_dot"):
        view = getattr(result, field).view(_ReadLog)
        view.read_mask = mask
        views[field] = view
    return dataclasses.replace(result, **views)


def _wrap(tracer: Tracer, module, attr: str, name: str, before=None, after=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            args = before(args)
        result = tracer.call(name, fn, *args, **kwargs)
        return result if after is None else after(result)

    setattr(module, attr, traced)


def install() -> Tracer:
    """Wrap every layer entry point of the package; return the recorder."""
    from mixedspin import chain, cli, fitdata

    tracer = Tracer()
    counts = tracer.counts

    def count_eig_size(args):
        d = args[0].shape[0]
        counts["operators.eig_sym.sum_d3"] += d**3
        return args

    def note_max_sector(blocks):
        largest = max(b.hamiltonian.shape[0] for b in blocks)
        counts["chain.max_sector_dim"] = max(counts["chain.max_sector_dim"], largest)
        return blocks

    def count_calls_of_first_arg(key):
        def before(args):
            inner = args[0]

            def counted(*a):
                counts[key] += 1
                return inner(*a)

            return (counted, *args[1:])

        return before

    def note_fit_iterations(result):
        counts["fitdata.fit.iterations"] += result.iterations
        return result

    for module, attr, name, before, after in (
        (cli, "diagonalize", "chain.diagonalize", None, None),
        (fitdata, "diagonalize", "chain.diagonalize", None, None),
        (chain, "build_hamiltonian", "chain.build_hamiltonian", None, note_max_sector),
        (chain, "eig_sym", "operators.eig_sym", count_eig_size, None),
        (chain, "thermal_weights", "chain.thermal_weights", None, None),
        (
            cli,
            "correlator_matrix",
            "chain.correlator_matrix",
            None,
            functools.partial(_log_reads, tracer),
        ),
        (cli, "reduced_pair_state", "chain.reduced_pair_state", None, None),
        (cli, "negativity_bruteforce", "chain.negativity_bruteforce", None, None),
        (cli, "susceptibility_exact", "chain.susceptibility_exact", None, None),
        (fitdata, "susceptibility_exact", "chain.susceptibility_exact", None, None),
        (
            cli,
            "solve_tc",
            "witness.solve_tc",
            count_calls_of_first_arg("witness.solve_tc.evals"),
            None,
        ),
        (cli, "fit", "fitdata.fit", None, note_fit_iterations),
        (
            fitdata,
            "nelder_mead",
            "fitdata.nelder_mead",
            count_calls_of_first_arg("fitdata.fit.evals"),
            None,
        ),
        (cli, "load_measurements", "fitdata.load_measurements", None, None),
        (cli, "synth_series", "fitdata.synth_series", None, None),
        (fitdata, "model_chi", "fitdata.model_chi", None, None),
        (fitdata, "pair_correlator", "pair.pair_correlator", None, None),
    ):
        _wrap(tracer, module, attr, name, before, after)
    return tracer
