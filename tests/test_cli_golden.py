"""CLI stdout pinned byte for byte against a recorded golden file.

test_output_is_byte_stable only compares one run with the next; this file
compares every run with bytes recorded once, so a refactor that changes
what the CLI prints fails here.  Three boxes: upper-only, Region B, and a
Region D box mirrored (lx > ly) with a non-unit raw scaling.  Every
command is recorded, in JSON and in CSV, including the flat key,value CSV
of the non-tabular commands; branch, which takes no box, once in each.
The large grid tables (201x201 mesh, 64x64 envelope grid) are pinned by
the sha256 of their stdout instead, in LARGE_TABLES.

Regenerate the golden file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
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


# sha256 of the stdout of the tables too large for the golden file: per
# box, and the 201x201 mesh CSV once more on the unit box (no box flags).
# Recorded once; print fresh ones only when an output change is intended.
LARGE_TABLES = {
    ("mesh", "--grid", "201", "--format", "csv"): {
        "upper-only": "f7d8a400ceda8c10ecebd3e130605e82"
                      "2fef057808905a4f075af686499ba41b",
        "region-b": "0d4d034631f91828d3e7da331ef80f32"
                    "edb32c27dd41f0ae6b591c3fb587133d",
        "region-d-mirrored": "1631b28776312df30da7cb6982037255"
                             "5e0c0456648bd524b685b194461f2202",
        None: "f7ad101db1712196f6c64d81579a5e88"
              "c7244b34ba50ac10ab9b132cbf776ff6",
    },
    ("mesh", "--grid", "201"): {
        "upper-only": "b33c2c5a463f81b9b3d20ef6397fb539"
                      "5225b69e4ad7407abef4b710c2ed6900",
        "region-b": "8792d87de4337952de08b10a5878ff19"
                    "24ff3e1fd270c3984a9f85c46768fadd",
        "region-d-mirrored": "f68af7618a90bba1aa8f71e4c78d085e"
                             "dc252d0b160467e97f33572bce5c8845",
    },
    ("envelope", "--grid", "64", "--format", "csv"): {
        "upper-only": "130c4373d9b633129d55e27f41321424"
                      "c9afded2a8d315b42057a71533a66e7b",
        "region-b": "6aab626734cb41be8d82f13663053efa"
                    "4db6c882a19e4ea7fdae6dfd69d8a0ec",
        "region-d-mirrored": "3a57b969259e84ff45e4285704f40d0c"
                             "d59e39b457a471805f9cc0054724785d",
    },
}


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


def test_large_tables_match_their_digests():
    changed = []
    for (command, *flags), digests in LARGE_TABLES.items():
        for name, digest in digests.items():
            box = BOXES[name][0] if name else []
            argv = [command, *box, *flags]
            code, out = _run(argv)
            if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
                changed.append(" ".join(argv))
    assert not changed, changed


if __name__ == "__main__":
    records = []
    for _, argv in _commands():
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
