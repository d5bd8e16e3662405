"""CLI stdout pinned byte for byte against a recorded golden file.

test_output_is_byte_stable only compares one run with the next; this file
compares every run with bytes recorded once, so a refactor that changes
what the CLI prints fails here.  Three boxes: upper-only, Region B, and a
Region D box mirrored (lx > ly) with a non-unit raw scaling.  Every
command is recorded, in JSON and in CSV, including the flat key,value CSV
of the non-tabular commands; branch, which takes no box, once in each.

Regenerate (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from bilinear_hull.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

BOXES = {
    "upper-only": (["--uz", "0.4"], "0.5,0.5", "0.6,0.6", "0.5,0.5,0.35",
                   "0.5,0.5,0.45"),
    "region-b": (["--lx", "0.14", "--ly", "0.2", "--lz", "0.1",
                  "--uz", "0.7"],
                 "0.6,0.6", "0.3,0.9", "0.6,0.6,0.5", "0.6,0.6,0.05"),
    "region-d-mirrored": (["--lx", "1.0", "--ly", "0.56", "--lz", "0.8",
                           "--ux", "2", "--uy", "4", "--uz", "5.6"],
                          "1.5,2.4", "1.8,1.2", "1.8,1.2,2.6",
                          "1.0,3.0,0.5"),
}


def _commands():
    for name, (box, at1, at2, cone_pt, lin_pt) in BOXES.items():
        yield name, ["describe", *box]
        yield name, ["describe", *box, "--format", "csv"]
        yield name, ["check", *box, "--point", cone_pt]
        yield name, ["check", *box, "--point", lin_pt]
        yield name, ["separate", *box, "--point", cone_pt]
        yield name, ["separate", *box, "--point", lin_pt]
        yield name, ["tangent", *box, "--at", at1]
        yield name, ["tangent", *box, "--at", at2]
        yield name, ["envelope", *box, "--at", at1]
        yield name, ["envelope", *box, "--at", "9,9"]
        yield name, ["envelope", *box, "--grid", "5", "--format", "csv"]
        yield name, ["envelope", *box, "--grid", "3"]
        yield name, ["mesh", *box, "--grid", "5", "--format", "csv"]
        yield name, ["mesh", *box, "--grid", "3"]
        yield name, ["regions", *box, "--grid", "5"]
        yield name, ["volume", *box, "--method", "closed"]
    # appended after the first 48 records so their order stays as recorded
    for name, (box, at1, _, cone_pt, _) in BOXES.items():
        yield name, ["check", *box, "--point", cone_pt, "--format", "csv"]
        yield name, ["regions", *box, "--grid", "5", "--format", "csv"]
        yield name, ["volume", *box, "--method", "numeric", "--grid", "16"]
        yield name, ["volume", *box, "--method", "mc", "--samples", "4096",
                     "--seed", "3"]
        yield name, ["oracle", *box, "--at", at1, "--samples", "15"]
        yield name, ["oracle", *box, "--point", cone_pt, "--samples", "15"]
    yield None, ["branch", "--grid", "5"]
    yield None, ["branch", "--grid", "5", "--format", "csv"]


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def _load():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_command():
    recorded = [rec["argv"] for rec in _load()]
    assert recorded == [argv for _, argv in _commands()]


def test_cli_stdout_matches_golden():
    changed = []
    for rec in _load():
        code, out = _run(rec["argv"])
        if (code, out) != (rec["exit"], rec["stdout"]):
            changed.append(" ".join(rec["argv"]))
    assert not changed, changed


if __name__ == "__main__":
    records = []
    for _, argv in _commands():
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
