"""Tests of the benchmark's own parts: reference, span arithmetic, tail rule, strict JSON."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import defosc  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("family,q,p,n", [
    ("A", 1.015, None, 10), ("B", 0.8, None, 60), ("C", 1.5, None, 37), ("D", 0.93, None, 1),
    ("At", 1.2, 1.1, 25), ("Bt", 0.85, 1.3, 50), ("Ct", 1.4, 0.9, 12), ("Dt", 1.0, 1.0, 30),
])
def test_reference_matches_closed_form(family, q, p, n):
    expect = defosc.phi_closed(family, defosc.DeformationParams(q=q, p=p), n)
    value = float(reference.phi_table(family, q, p, n)[n])
    assert math.isclose(value, expect, rel_tol=1e-13)


def test_reference_gap_signs_bracket_criterion_1_root():
    # E_q(10) = E_q(0) near q = 1.0913 (acceptance criterion 1)
    assert reference.gap_signs("A", [1.09, 1.093], 10, 0) in ([-1, 1], [1, -1])


def test_self_time_of_synthetic_nest():
    spans = [
        ("root", 0.0, 10.0, -1, 0, -1, 0),
        ("dsf.phi_closed", 1.0, 4.0, 0, 0, -1, 0),
        ("dsf.phi_closed", 3.0, 6.0, 0, 0, -1, 1),  # overlaps its sibling: union [1, 6]
        ("spectra.energy", 2.0, 3.0, 1, 0, -1, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["dsf.phi_closed"] == {"calls": 2, "self_ms": pytest.approx(5000.0), "errors": 1}
    assert totals["spectra.energy"]["calls"] == 1


def test_tracer_nests_cross_module_calls_and_restores_bindings():
    original = defosc.spectra.energy
    tracer = tracing.Tracer()
    tracer.install(defosc)
    try:
        defosc.spectrum("A", 1.1, 2)
    finally:
        tracer.uninstall()
    assert defosc.spectra.energy is original and defosc.energy is original
    spans = tracer.spans()
    names = [s[0] for s in spans]
    assert names.count("spectra.spectrum") == 1 and names.count("spectra.energy") == 3
    assert names.count("dsf.phi_closed") == 6
    for name, _start, _end, parent, *_ in spans:
        expect = {"spectra.spectrum": None, "spectra.energy": "spectra.spectrum",
                  "dsf.phi_closed": "spectra.energy"}[name]
        assert (spans[parent][0] if parent >= 0 else None) == expect


@pytest.mark.parametrize("tasks", [40, 60, 100, 300])
def test_tail_percentile_leaves_ten_tasks_beyond(tasks):
    assert run.tail_percentile(tasks) == pytest.approx(100 * (1 - 10 / tasks))
    latencies = [float(v) for v in range(tasks, 0, -1)]
    tail = run.nearest_rank(latencies, run.tail_percentile(tasks))
    assert sum(v > tail for v in latencies) == 10
    # and no higher percentile keeps ten beyond
    assert sum(v > run.nearest_rank(latencies, run.tail_percentile(tasks) + 1e-6) for v in latencies) < 10


def test_nearest_rank_median():
    assert run.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


@pytest.mark.parametrize("text", ['{"x": NaN}', '{"x": Infinity}', '[-Infinity]'])
def test_cli_json_parse_rejects_non_finite_constants(text):
    with pytest.raises(ValueError):
        workloads.strict_json(text)


def test_cli_json_parse_accepts_standard_json():
    assert workloads.strict_json('{"rows": [[0, 0.0], [1, 1e-300]]}') == {"rows": [[0, 0.0], [1, 1e-300]]}


def test_check_flags_a_perturbed_table():
    wl = workloads.Tables("tables", 0)
    task = next(t for t in wl.tasks if t.cls == "recipe60")
    out = wl.summarize(wl.run(task))
    assert wl.check(task, out)[0] == "ok"
    bad = out[:30] + (out[30] * (1 + 1e-9),) + out[31:]
    status, _err, problem = wl.check(task, bad)
    assert status == "failed" and "phi_from_gh(30)" in problem


def test_benchmark_json_names_match_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    fake = {"layers": tracing.layer_totals([]), "rep_bytes": 0, "import_ms": 1.0, "bytes_out": 0,
            "max_rel_err": 0.0, "overhead_s": 0.0, "task_p50_ms": 1.0, "task_tail_ms": 1.0,
            "tasks_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0, "ok_ratio": 1.0}
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_metrics(fake))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end_metrics(fake))
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    printed = run.per_layer_metrics(fake) | run.end_to_end_metrics(fake)
    assert {name: metric["unit"] for name, metric in printed.items()} == units
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
