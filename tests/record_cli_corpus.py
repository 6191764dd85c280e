"""Record the CLI byte-identity corpus replayed by `test_cli_corpus.py`.

Each row is one `mixedspin` command: its arguments, any environment
variables, and the exit code, standard output and standard error that
`cli.main` gives for it, run in process. `{data}` in an argument stands
for this directory's `data/` folder. The `synth` rows marked with a
series name also write their output there, as the inputs of the `fit`
rows.

Run it only when a change to the CLI's output is intended, and list
every row whose recorded output changes in CHANGES.md; the script
prints the name and the old and new exit code, stdout and stderr of
each such row:

    PYTHONPATH=src python tests/record_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

DATA = Path(__file__).with_name("data")
CORPUS = DATA / "cli_corpus.json"

# the series file each of these `synth` rows writes from its stdout
SERIES = {
    "synth_pair_s1": "corpus_pair_s1.csv",
    "synth_ring4_s3half": "corpus_ring4_s3half.csv",
    "synth_open6_s1": "corpus_open6_s1.csv",
}
# (name, command line, environment variables)
ROWS = [
    # tc, pair model
    ("tc_pair_wavenumber", "tc --spin 1 --coupling 81.4cm-1", {}),
    ("tc_pair_twice_spin_json", "tc --spin 5/2 --coupling 3.2K --format json", {}),
    ("tc_pair_literature", "tc --spin 1/2 --coupling 5K --correlator literature", {}),
    ("tc_pair_large_spin", "tc --spin 206827000 --coupling 1K", {}),
    ("tc_compound", "tc --compound CN", {}),
    ("tc_compound_wavenumber", "tc --compound NiCu", {}),
    ("tc_compound_unreported", "tc --compound Cu-HTS", {}),
    ("tc_report", "tc --report", {}),
    ("tc_report_json", "tc --report --format json", {}),
    # tc, chain model
    ("tc_ring6_s1", "tc --model chain --spin 1 --sites 6 --coupling 10K", {}),
    ("tc_ring8_s_half_json", "tc --model chain --spin 1/2 --sites 8 --coupling 10K --format json", {}),
    ("tc_open8_s1", "tc --model chain --spin 1 --sites 8 --boundary open --coupling 10K", {}),
    ("tc_open4_s3half", "tc --model chain --spin 3/2 --sites 4 --boundary open --coupling 7.5cm-1", {}),
    # the README's two bisected T_c with an undetermined 9th digit
    ("tc_ring8_s1", "tc --model chain --spin 1 --sites 8 --coupling 10K", {}),
    ("tc_open6_s1", "tc --model chain --spin 1 --sites 6 --boundary open --coupling 10K", {}),
    # sweep
    ("sweep_default", "sweep", {}),
    ("sweep_grid_json", "sweep --spins 1,2 --couplings 10K,20cm-1 --format json", {}),
    # witness and bound
    ("witness_molar", "witness --chi 0.9 --temp 5 --spin 1", {}),
    ("witness_reduced_json", "witness --chi 0.5 --unit reduced --temp 3 --spin 1/2 --format json", {}),
    ("witness_separable", "witness --chi 2.5 --unit reduced --temp 40 --spin 3/2 --g 2.1 --n 2", {}),
    ("bound_reduced", "bound --chi 0.8 --unit reduced --temp 2 --spin 1", {}),
    ("bound_corrected", "bound --chi 0.8 --unit reduced --temp 2 --spin 1 --correct-j 3K", {}),
    ("bound_corrected_json", "bound --chi 1.2 --unit reduced --temp 4 --spin 3/2 --correct-j 2.5cm-1 --format json", {}),
    # chain
    ("chain_ring4_s1", "chain --spin 1 --sites 4 --coupling 10K --temps 1,10,100", {}),
    ("chain_ring8_s1_ferro", "chain --spin 1 --sites 8 --coupling -5K --temps log:0.5:50:5", {}),
    ("chain_ring6_s5half", "chain --spin 5/2 --sites 6 --coupling 10K --temps 2:20:3", {}),
    ("chain_open6_s3half_json", "chain --spin 3/2 --sites 6 --boundary open --coupling 10K --temps 1:20:4 --format json", {}),
    ("chain_open8_s_half_ferro", "chain --spin 1/2 --sites 8 --boundary open --coupling -4K --temps 0.5,5,50", {}),
    ("chain_dimer_s2", "chain --spin 2 --sites 2 --coupling 10K --temps 1,2", {}),
    # synth
    ("synth_pair_s1", "synth --spin 1 --j 10K --g 2 --temps 1:100:12", {}),
    ("synth_ring4_s3half", "synth --spin 3/2 --j 12K --g 2.05 --temps log:2:200:15 --model chain --sites 4", {}),
    ("synth_open6_s1", "synth --spin 1 --j 6K --g 2.1 --temps log:1:100:10 --model chain --sites 6 --boundary open", {}),
    # fit
    ("fit_pair", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 7K", {}),
    ("fit_pair_window_json", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 7K --window 5:80 --format json", {}),
    ("fit_pair_on_ring4", "fit --input {data}/corpus_ring4_s3half.csv --spin 3/2 --init-j 8K", {}),
    ("fit_ring4", "fit --input {data}/corpus_ring4_s3half.csv --spin 3/2 --init-j 8K --model chain --sites 4", {}),
    ("fit_open6", "fit --input {data}/corpus_open6_s1.csv --spin 1 --init-j 4K --init-g 2 --model chain --sites 6 --boundary open", {}),
    ("fit_ring4_noisy", "fit --input {data}/chain_fit_n4.csv --spin 1 --init-j 5K --model chain --sites 4", {}),
    ("fit_ring8_noisy", "fit --input {data}/chain_fit_n4.csv --spin 1 --init-j 5K --model chain --sites 8", {}),
    # refusals: exit 2
    ("tc_without_spin", "tc --coupling 5K", {}),
    ("tc_without_unit", "tc --spin 1/2 --coupling 5.12", {}),
    ("tc_ferro_chain", "tc --model chain --spin 1 --coupling -3K", {}),
    ("tc_report_chain", "tc --report --model chain --sites 4 --boundary open", {}),
    ("tc_report_spin_coupling", "tc --report --spin 1 --coupling 5K", {}),
    ("bound_ferro_correction", "bound --chi 0.8 --unit reduced --temp 2 --spin 1 --correct-j -3K --format json", {}),
    ("synth_ferro", "synth --spin 1/2 --j -6K --g 2 --temps 1,3,10 --model chain --sites 4 --boundary open", {}),
    ("sweep_no_spins", "sweep --spins ,", {}),
    ("sweep_no_couplings", "sweep --couplings ,", {}),
    ("chain_bad_range", "chain --spin 1 --coupling 10K --temps 1:2", {}),
    ("witness_subnormal_temp", "witness --chi 1 --unit reduced --temp 5e-324 --spin 1", {}),
    ("fit_huge_start", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 1e250K", {}),
    ("fit_pair_local_minimum", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 1K", {}),
    ("fit_ring4_below_float_range", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 1e-300K --model chain --sites 4", {}),
    ("fit_ring6_plateau", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 1e250K --model chain --sites 6", {}),
    ("fit_bad_window", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 7K --window 5:x", {}),
    ("fit_nan_window_min", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 7K --window nan:100", {}),
    ("fit_nan_window_max", "fit --input {data}/corpus_pair_s1.csv --spin 1 --init-j 7K --window 5:nan", {}),
    ("fit_reduced_series", "fit --input {data}/corpus_reduced_s1.csv --spin 1 --init-j 7K", {}),
    ("tc_pair_sites_boundary", "tc --spin 1 --coupling 5K --sites 8 --boundary open", {}),
    ("fit_pair_sites", "fit --input {data}/chain_fit_n4.csv --spin 1 --init-j 5K --sites 4", {}),
    ("tc_bad_dim_cap", "tc --model chain --spin 1 --coupling 10K", {"MIXEDSPIN_DIM_CAP": "big"}),
    ("tc_compound_spin", "tc --compound CN --spin 1/2", {}),
    ("tc_chain_literature", "tc --model chain --spin 1 --coupling 5K --correlator literature", {}),
    ("fit_ring4_dim_cap_0", "fit --input {data}/chain_fit_n4.csv --spin 1 --init-j 5K --model chain --sites 4", {"MIXEDSPIN_DIM_CAP": "0"}),
    ("synth_ring4_dim_cap_0", "synth --spin 1 --j 10K --g 2 --temps 1,2 --model chain", {"MIXEDSPIN_DIM_CAP": "0"}),
    ("fit_subnormal_temp", "fit --input {data}/corpus_subnormal_temp.csv --spin 1 --init-j 5K", {}),
    # refusals: exit 3
    ("tc_over_dim_cap", "tc --model chain --spin 1 --sites 8 --coupling 10K", {"MIXEDSPIN_DIM_CAP": "100"}),
    ("chain_huge", "chain --spin 1 --sites 1000000 --coupling 10K --temps 1", {}),
]


def argv_of(command: str) -> list[str]:
    return [arg.replace("{data}", str(DATA)) for arg in shlex.split(command)]


def run(main, command: str, env: dict[str, str]) -> tuple[int, str, str]:
    """`main`'s exit code, stdout and stderr for one row, in process."""
    saved = {name: os.environ.get(name) for name in {"MIXEDSPIN_DIM_CAP", *env}}
    os.environ.pop("MIXEDSPIN_DIM_CAP", None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv_of(command))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    # the data directory differs between checkouts
    return code, out.getvalue(), err.getvalue().replace(str(DATA), "{data}")


def record() -> list[dict]:
    from mixedspin.cli import main

    rows = []
    for name, command, env in ROWS:
        code, out, err = run(main, command, env)
        if name in SERIES:
            (DATA / SERIES[name]).write_text(out, encoding="utf-8")
        rows.append(
            {"name": name, "command": command, "env": env, "exit": code, "stdout": out, "stderr": err}
        )
    return rows


def report_changes(old: list[dict], new: list[dict]) -> None:
    """Print each row of `new` whose recording differs from `old`'s."""
    before = {row["name"]: row for row in old}
    for row in new:
        was = before.get(row["name"])
        for key in ("exit", "stdout", "stderr"):
            if was is None or was[key] != row[key]:
                print(f"{row['name']} {key}:")
                print(f"  old: {was[key] if was else None!r}")
                print(f"  new: {row[key]!r}")


if __name__ == "__main__":
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else []
    corpus = record()
    report_changes(old, corpus)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} rows written to {CORPUS}", file=sys.stderr)
