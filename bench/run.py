"""mixedspin benchmark: closed-loop CLI jobs, end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding `src/`).
One client runs the workload's cycle of jobs again and again, each job in
a fresh `python3 bench/job.py` process, for about S seconds: a cycle
starts only if it should end nearer the deadline than not, going by the
median cycle so far. BLAS runs single-threaded in every
process. Inputs and references are made from the seed before the clock
starts, and every job's output is checked after it exits. End-to-end
timings are scaled to a reference host speed by a fixed kernel each job
process times beside its job (see job.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
runs every job twice, untraced and then traced, and reports the
per-layer metrics. Lines starting with '#' describe the run; the last
line is the JSON result. The exit code is 0 only if every job succeeded
and passed its check. See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from job import KERNEL_REFERENCE_S

BLAS_THREADS = 1
BLAS_ENV = {
    name: str(BLAS_THREADS)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}
JOB_TIMEOUT_S = 60.0
BENCH_DIR = Path(__file__).resolve().parent


def _machine_facts(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((root / "src" / "mixedspin").glob("*.py")):
        source.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": source.hexdigest(),
    }


def _run_job(job, traced: bool, kernel: str, env: dict) -> dict:
    """One job in a fresh process; returns its report with an 'error' key."""
    cmd = [sys.executable, str(BENCH_DIR / "job.py")]
    start = time.monotonic()
    cmd += [repr(start), "1" if traced else "0", kernel, "--", *job.argv]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {JOB_TIMEOUT_S} s", "wall_s": JOB_TIMEOUT_S}
    wall_s = time.monotonic() - start
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        report = {}
    report["wall_s"] = wall_s
    if proc.returncode != 0 or "rc" not in report:
        report["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"
        return report
    from workloads import CheckError

    try:
        job.check(report["stdout"])
    except (CheckError, ValueError, IndexError) as exc:
        report["error"] = f"output check failed: {exc}"
    return report


def _median_of_cycles(cycles, value) -> float:
    return statistics.median(sum(value(r) for r in cycle) for cycle in cycles)


def _end_to_end(jobs, cycles, kernel: str) -> dict:
    """End-to-end metrics, every time scaled to the reference host speed."""
    reference_s = KERNEL_REFERENCE_S[kernel]

    def scale(report) -> float:
        return reference_s / statistics.mean(report["kernel_s"])

    reports = [r for cycle in cycles for r in cycle]
    per_kind = {
        job.kind: [cycle[k] for cycle in cycles] for k, job in enumerate(jobs)
    }
    for kind, rs in per_kind.items():
        raw = [r["job_s"] for r in rs]
        print(
            f"#   {kind}: job_s p50 {statistics.median(raw):.4f} s unscaled, "
            f"min {min(raw):.4f}, max {max(raw):.4f}, n={len(raw)}"
        )
    print(
        f"#   {kernel} kernel: p50 {statistics.median(sum(r['kernel_s']) / 2 for r in reports):.4f} s, "
        f"reference {reference_s} s"
    )
    # a job's wall time spans its process; the two kernel runs are not part of it
    busy_s = sum((r["wall_s"] - sum(r["kernel_s"])) * scale(r) for r in reports)
    return {
        "jobs_per_s": len(reports) / busy_s,
        "job_s_p50": statistics.mean(
            statistics.median(r["job_s"] * scale(r) for r in rs) for rs in per_kind.values()
        ),
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in reports),
        "peak_rss_mb": max(r["maxrss_kb"] for r in reports) / 1024.0,
    }


def _per_layer(cycles, plain_cycles, names) -> dict:
    """Per-cycle layer numbers: exact counts, and medians of times over cycles."""

    def span(report, name, field):
        stat = report["trace"]["spans"].get(name)
        return stat[field] if stat else 0

    def exact_counts(cycle) -> dict:
        out = {}
        for name in {n for r in cycle for n in r["trace"]["counts"]}:
            values = [r["trace"]["counts"].get(name, 0) for r in cycle]
            out[name] = max(values) if name == "chain.max_sector_dim" else sum(values)
        for name in {n for r in cycle for n in r["trace"]["spans"]}:
            out[name + ".calls"] = sum(span(r, name, 0) for r in cycle)
        return out

    counts = [exact_counts(cycle) for cycle in cycles]
    mismatched = sorted({k for c in counts[1:] for k in c if c[k] != counts[0].get(k)})
    if mismatched:
        print(f"# FLAG: counts differ between cycles with identical inputs: {mismatched}")
    metrics = dict(counts[0])
    computed = metrics.pop("chain.correlator_matrix.pairs_computed", 0)
    read = metrics.pop("chain.correlator_matrix.pairs_read")
    metrics["chain.correlator_matrix.pairs_used_ratio"] = read / computed if computed else 0.0
    span_names = {n for cycle in cycles for r in cycle for n in r["trace"]["spans"]}
    for name in span_names:
        metrics[name + ".busy_s"] = _median_of_cycles(cycles, lambda r: span(r, name, 1))
        metrics[name + ".self_s"] = _median_of_cycles(cycles, lambda r: span(r, name, 2))
    metrics["trace.overhead_s"] = _median_of_cycles(
        cycles, lambda r: r["job_s"]
    ) - _median_of_cycles(plain_cycles, lambda r: r["job_s"])
    metrics["trace.count_mismatches"] = len(mismatched)

    self_times = sorted(
        ((metrics[n + ".self_s"], n) for n in span_names), reverse=True
    )
    print("# self time per cycle (s), largest first:")
    for value, name in self_times:
        print(f"#   {name}: {value:.4f} (calls {metrics[name + '.calls']})")
    print(
        "# not timed separately: sector enumeration (private, inside "
        "chain.build_hamiltonian) and units (too thin to time)"
    )
    return {name: metrics.get(name, 0) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "mixedspin" / "cli.py").is_file() or not spec_path.is_file():
        print(
            f"error: {root} is not a mixedspin source checkout "
            "(needs src/mixedspin and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(whys)}", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    os.environ.update(BLAS_ENV)  # before numpy loads in this process
    sys.path.insert(0, str(root / "src"))
    from workloads import KERNELS, WORKLOADS, CheckError

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    print(f"# machine {json.dumps(_machine_facts(root))}")
    print(f"# workload {args.workload} (seed {args.seed}): {whys[args.workload]}")
    (root / ".bench_run").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_run") as workdir:
        try:
            jobs = WORKLOADS[args.workload](random.Random(args.seed), Path(workdir))
        except CheckError as exc:
            print(f"error: reference rejected: {exc}", file=sys.stderr)
            return 1
        kernel = KERNELS[args.workload]
        print(f"# cycle: {', '.join(job.kind for job in jobs)}")
        cycles, plain_cycles, cycle_walls = [], [], []
        deadline = time.monotonic() + args.seconds
        # start a cycle only if it should end nearer the deadline than not
        while not cycles or time.monotonic() + statistics.median(cycle_walls) / 2 < deadline:
            cycle_start = time.monotonic()
            cycle, plain = [], []
            for job in jobs:
                if args.trace:
                    plain.append(_run_job(job, False, kernel, env))
                cycle.append(_run_job(job, bool(args.trace), kernel, env))
            cycles.append(cycle)
            plain_cycles.append(plain)
            cycle_walls.append(time.monotonic() - cycle_start)
            if any("error" in r for r in cycle + plain):
                break

    reports = [r for cycle in cycles + plain_cycles for r in cycle]
    failures = [r["error"] for r in reports if "error" in r]
    for error in failures[:5]:
        print(f"# FAILED: {error}", file=sys.stderr)
    result = {"correct": not failures, "attempted": len(reports), "failed": len(failures)}
    print(
        f"# {len(cycles)} cycles of {len(jobs)} jobs, closed loop, 1 client; "
        f"fail_ratio = {len(failures) / len(reports)!r} ratio ({len(failures)}/{len(reports)} jobs)"
    )
    if failures:
        result["metrics"] = {}
        print(json.dumps(result))
        return 1
    if args.trace:
        values = _per_layer(cycles, plain_cycles, [m["name"] for m in metric_specs])
    else:
        values = _end_to_end(jobs, cycles, kernel)
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
    }
    for m in metric_specs:
        print(f"# {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
