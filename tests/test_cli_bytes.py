"""The CLI's output pinned byte for byte over a fixed grid of argument lists.

`tests/data/cli_bytes.json` holds, for every argv, the exit code of
``cli.main(argv)`` and the sha256 of what it wrote to stdout and stderr.  A
change that is meant to alter output re-baselines the file and names the
changed argvs in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_bytes.py

Python's ``**`` calls the C library's ``pow``, so the digits are only pinned
for the libc the file was written with; elsewhere the test skips.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import pytest

from defosc.cli import main

DATA = Path(__file__).parent / "data" / "cli_bytes.json"


def _argvs() -> list[list[str]]:
    """About 150 argument lists: every subcommand, csv and json, and the error paths."""
    argvs = []
    one = [("0.5", None), ("1", None), ("1.015", None), ("1.5", None)]
    two = [("0.8", "1.3"), ("1.2", "0.9"), ("1.1", "1.1")]
    for family in ("A", "B", "C", "D", "At", "Bt", "Ct", "Dt"):
        for q, p in (two if family.endswith("t") else one):
            pq = ["--q", q] + (["--p", p] if p else [])
            for fmt in ("csv", "json"):
                argvs.append(["dsf", "--family", family, *pq, "--n-max", "40", "--format", fmt])
            argvs.append(["spectrum", "--family", family, *pq, "--n-max", "25"]
                         + (["--format", "json"] if q in ("1.5", "1.2") else []))
            argvs.append(["verify", "--family", family, *pq, "--dim", "12"])
    argvs += [
        ["dsf", "--fig1"],
        ["dsf", "--fig1", "--format", "json"],
        ["dsf", "--family", "C", "--q", "1.5", "--n-max", "500"],
        ["dsf", "--family", "A", "--q", "0.5", "--n-max", "600"],
        ["dsf", "--family", "A", "--q", "1.1", "--n-max", "3000"],
        ["dsf", "--family", "D", "--q", "0.999", "--n-max", "0", "--format", "json"],
        ["dsf", "--family", "Bt", "--q", "1e-3", "--p", "2", "--n-max", "5"],
        ["spectrum", "--family", "B", "--q", "2", "--n-max", "0"],
        ["spectrum", "--family", "A", "--q", "1.015", "--n-max", "100", "--format", "json"],
        ["spectrum", "--family", "C", "--q", "0.5", "--n-max", "600"],
        ["verify", "--family", "A", "--q", "1.015", "--dim", "30"],
        ["verify", "--family", "A", "--q", "1.015", "--dim", "30", "--perturb", "1e-3"],
        ["verify", "--family", "Ct", "--q", "1.2", "--p", "0.9", "--dim", "20", "--perturb=-1e-6"],
        ["verify", "--family", "D", "--q", "0.5", "--dim", "300"],
        ["verify", "--family", "B", "--q", "1.1", "--dim", "3"],
        ["verify", "--family", "A", "--q", "1.1", "--dim", "100", "--tol", "1e-14"],
        ["verify", "--family", "C", "--q", "0.5", "--dim", "513"],
        ["verify", "--family", "C", "--q", "0.5", "--dim", "530"],
        ["verify", "--family", "A", "--q", "1.5", "--dim", "1000"],
        ["verify", "--family", "A", "--q", "1.1", "--dim", "6", "--format", "csv"],
        # G and H levels whose lead power is not a normal double (the folded form)
        ["verify", "--family", "B", "--q", "2", "--dim", "300"],
        ["verify", "--family", "B", "--q", "1.5", "--dim", "500"],
        ["verify", "--family", "Bt", "--q", "1.1", "--p", "0.9", "--dim", "1000"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:1.5",
         "--tol", "1e-6"],
        ["degeneracy", "--family", "A", "--n", "90", "--m", "0", "--q-range", "1.001:1.1",
         "--tol", "1e-7", "--format", "json"],
        ["degeneracy", "--family", "A", "--n", "30", "--m", "0", "--q-range", "1.001:1.5",
         "--tol", "1e-7"],
        ["degeneracy", "--family", "B", "--n", "5", "--m", "2", "--q-range", "0.5:0.999"],
        ["degeneracy", "--family", "C", "--n", "7", "--m", "1", "--q-range", "0.3:3",
         "--format", "json"],
        ["degeneracy", "--family", "D", "--n", "12", "--m", "4", "--q-range", "0.5:1.5"],
        ["degeneracy", "--family", "A", "--n", "3", "--m", "0", "--q-range", "0.9999:1.0001"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:1.5",
         "--tol", "1e-17"],
    ]
    errors = [
        ["dsf", "--q", "1.1"],
        ["dsf", "--family", "A"],
        ["dsf", "--family", "Z", "--q", "1"],
        ["dsf", "--family", "A", "--q", "-2"],
        ["dsf", "--family", "A", "--q", "0"],
        ["dsf", "--family", "A", "--q", "nan"],
        ["dsf", "--family", "A", "--q", "inf"],
        ["dsf", "--family", "At", "--q", "1.1"],
        ["dsf", "--family", "A", "--q", "1.1", "--p", "0.9"],
        ["dsf", "--family", "A", "--q", "1.1", "--p", "0"],
        ["dsf", "--family", "A", "--q", "1.1", "--n-max", "-1"],
        ["dsf", "--family", "A", "--q", "1.1", "--n-max", "-1", "--format", "json"],
        ["dsf", "--family", "Bt", "--q", "1e-300", "--p", "1e300", "--n-max", "3"],
        ["dsf", "--family", "Ct", "--q", "1e300", "--p", "1e-300", "--n-max", "3"],
        ["spectrum", "--family", "A"],
        ["spectrum", "--q", "1.1"],
        ["spectrum", "--family", "A", "--q", "1e200", "--n-max", "0"],
        ["spectrum", "--family", "A", "--q", "1.1", "--n-max", "-1"],
        ["spectrum", "--family", "Dt", "--q", "1.1"],
        ["verify", "--family", "A", "--q", "1.1", "--tol", "inf"],
        ["verify", "--family", "A", "--q", "1.1", "--tol", "nan"],
        ["verify", "--family", "A", "--q", "1.1", "--tol", "0"],
        ["verify", "--family", "A", "--q", "1.1", "--tol", "-1"],
        ["verify", "--family", "A", "--q", "1.1", "--dim", "2"],
        ["verify", "--family", "A", "--q", "1.1", "--dim", "20000"],
        ["verify", "--family", "A"],
        ["verify", "--q", "1.1"],
        ["verify", "--family", "At", "--q", "1.1", "--dim", "5"],
        ["verify", "--family", "A", "--q", "-1", "--dim", "5"],
        ["verify", "--family", "A", "--q", "1.5", "--dim", "30", "--perturb", "1e308"],
        ["verify", "--family", "C", "--q", "1e5", "--dim", "30", "--perturb", "1e300"],
        ["degeneracy", "--family", "A", "--q-range", "1.001:1.5"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0"],
        ["degeneracy", "--n", "10", "--m", "0", "--q-range", "1.001:1.5"],
        ["degeneracy", "--family", "A", "--n", "3", "--m", "3", "--q-range", "1.001:1.5"],
        ["degeneracy", "--family", "A", "--n", "-1", "--m", "0", "--q-range", "1.001:1.5"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.5:1.001"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1:1.5"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:inf"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:1.5",
         "--tol", "inf"],
        ["degeneracy", "--family", "A", "--n", "10", "--m", "0", "--q-range", "1.001:1.5",
         "--tol", "0"],
        ["degeneracy", "--family", "At", "--n", "10", "--m", "0", "--q-range", "1.001:1.5"],
        ["degeneracy", "--family", "A", "--n", "900", "--m", "0", "--q-range", "0.01:0.5"],
    ]
    return argvs + errors


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue()),
            "stderr": _sha256(err.getvalue())}


def _libc() -> list[str]:
    return list(platform.libc_ver())


_DATA = (json.loads(DATA.read_text(encoding="utf-8")) if DATA.exists()
         else {"libc": None, "cases": []})


def test_grid_covers_every_subcommand_and_exit_code():
    cases = _DATA["cases"]
    assert len(cases) >= 150
    assert [case["argv"] for case in cases] == _argvs()
    assert {case["argv"][0] for case in cases} == {"dsf", "spectrum", "verify", "degeneracy"}
    assert {case["exit"] for case in cases} == {0, 1, 2}


@pytest.mark.skipif(_libc() != _DATA["libc"],
                    reason=f"grid written with libc {_DATA['libc']}, running on {_libc()}")
@pytest.mark.parametrize("case", _DATA["cases"], ids=lambda case: " ".join(case["argv"]))
def test_cli_bytes_match_the_grid(case):
    assert _run(case["argv"]) == case


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    grid = {"libc": _libc(), "cases": [_run(argv) for argv in _argvs()]}
    DATA.write_text(json.dumps(grid, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(grid['cases'])} cases to {DATA}")
