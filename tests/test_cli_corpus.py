"""Byte identity of the CLI: every recorded command gives its recorded output.

`data/cli_corpus.json` holds one row per command: its arguments, any
environment variables, and the exit code, stdout and stderr it gave
when recorded. Each row is replayed in process through `cli.main`. The
test never rewrites the corpus; `record_cli_corpus.py` does, and only
for an intended change of output.
"""

import json

import pytest

from mixedspin.cli import main
from record_cli_corpus import CORPUS, run

ROWS = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_the_corpus_covers_every_subcommand_and_exit_code():
    commands = {row["command"].split()[0] for row in ROWS}
    assert commands == {"tc", "sweep", "witness", "bound", "chain", "fit", "synth"}
    assert {row["exit"] for row in ROWS} == {0, 2, 3}


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_replayed_command_gives_its_recorded_output(row):
    code, out, err = run(main, row["command"], row["env"])
    assert (code, out, err) == (row["exit"], row["stdout"], row["stderr"])
