"""ROADMAP item 1's baseline table, rebuilt from traced spans.

Each row names the ROADMAP figure, the span it is read from, and the size the
benchmark actually runs.  Sizes outside the workload boxes (D = 1000) are
reported at the largest size measured, never extrapolated.
"""

from __future__ import annotations

import statistics

# label, ROADMAP figure, workload, span name, size filter, parent-span filter, note
ROWS = [
    ("phi_closed scalar", "13.5 us/call", "tables", "dsf.phi_closed", None, None, "n in 0..201"),
    ("energy scalar", "26 us/call", "tables", "spectra.energy", None, None, "n in 0..200"),
    ("phi_from_gh n=60", "100 us", "tables", "dsf.phi_from_gh", 60, None, "n = 60"),
    ("phi_from_gh n=200", "364 us", "tables", "dsf.phi_from_gh", 200, None, "n = 200"),
    ("build_rep D=100", "2.7 ms", "verify", "fock.build_rep", 100, None, "D = 100"),
    ("build_rep D=300", "11 ms", "verify", "fock.build_rep", 300, None, "D = 300"),
    ("build_rep D=1000", "114 ms", None, None, None, None,
     "not measured: D = 1000 lies outside the verify box"),
    ("verify_heisenberg D=1000", "0.37 s", "verify", "fock.verify_heisenberg", 300, None,
     "D = 300; D = 1000 lies outside the verify box"),
    ("verify_gh_relation D=1000", "0.61 s", "verify", "fock.verify_gh_relation", 300, None,
     "D = 300; D = 1000 lies outside the verify box"),
    ("verify_ladder D=1000", "0.95 s", "verify", "fock.verify_ladder", 300, None,
     "D = 300; D = 1000 lies outside the verify box"),
    ("find_metric D=1000", "47 ms", "verify", "symmetry.find_metric", 30, None,
     "D = 30; find_metric runs only at D = 30 (NaN residuals above)"),
    ("find_degeneracy(A, 90, 0)", "11.6 ms", "roots", "spectra.find_degeneracy", 90,
     "task.criterion1", "criterion 1 search, q in [1.001, 1.1], tol 1e-7"),
    ("defosc dsf end to end", "0.31 s", "cli", "task.dsf", None, None,
     "n-max in 50..100, traced child process"),
]


def _median_ms(spans: list[tuple], name: str, size, parent_name) -> tuple[float | None, int]:
    durations = [
        (end - start) * 1e3
        for span_name, start, end, parent, _task, span_size, _err in spans
        if span_name == name and (size is None or span_size == size)
        and (parent_name is None or (parent >= 0 and spans[parent][0] == parent_name))
    ]
    return (statistics.median(durations) if durations else None), len(durations)


def rows(spans_by_workload: dict[str, list[tuple]], import_ms: float | None) -> list[dict]:
    """Table rows for whichever workloads were traced; the rest read 'not measured'."""
    out = []
    for label, figure, workload, name, size, parent, note in ROWS:
        spans = spans_by_workload.get(workload)
        value, samples = _median_ms(spans, name, size, parent) if spans else (None, 0)
        out.append({"row": label, "roadmap": figure, "workload": workload, "measured_ms": value,
                    "samples": samples, "size": note})
    out.append({"row": "import defosc.cli", "roadmap": "0.135 s", "workload": "any",
                "measured_ms": import_ms, "samples": 5 if import_ms is not None else 0,
                "size": "fresh child process"})
    roots = spans_by_workload.get("roots")
    crit1 = [(end - start) * 1e3 for name, start, end, *_ in roots or () if name == "task.criterion1"]
    out.append({"row": "acceptance criterion 1", "roadmap": "32 ms", "workload": "roots",
                "measured_ms": sum(crit1) if len(crit1) == 3 else None, "samples": len(crit1),
                "size": "the three criterion 1 searches"})
    for label, figure in (("acceptance criterion 2", "334 ms"), ("acceptance criterion 3", "1.47 s"),
                          ("tier-1", "484 tests in 4.0 s")):
        out.append({"row": label, "roadmap": figure, "workload": None, "measured_ms": None,
                    "samples": 0, "size": "not measured: runs in the pytest suite"})
    return out


def format_rows(table: list[dict]) -> str:
    lines = [f"{'ROADMAP row':28} {'ROADMAP':>18} {'measured':>14}  size measured"]
    for row in table:
        ms = row["measured_ms"]
        value = ("not measured" if ms is None else f"{ms * 1e3:.4g} us" if ms < 1 else f"{ms:.4g} ms")
        lines.append(f"{row['row']:28} {row['roadmap']:>18} {value:>14}  {row['size']}"
                     + (f" ({row['samples']} samples)" if row["samples"] else ""))
    return "\n".join(lines)
