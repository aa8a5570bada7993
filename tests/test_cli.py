import json
import math

import pytest

from defosc import phi_closed
from defosc.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDsfCommand:
    def test_undeformed_column(self, capsys):
        code, out, _ = run(capsys, "dsf", "--family", "A", "--q", "1", "--n-max", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,phi"
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2", "3", "4", "5"]

    def test_last_row_value(self, capsys):
        code, out, _ = run(capsys, "dsf", "--family", "A", "--q", "2", "--n-max", "1")
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.2, rel=1e-15)

    def test_denominator_overflow_is_not_an_error(self, capsys):
        # (1 + x**(2n-2)) (1 + x**(2n)) overflows from n = 439; phi(500) is about 1e-88
        code, out, err = run(capsys, "dsf", "--family", "C", "--q", "1.5", "--n-max", "500")
        assert (code, err) == (0, "")
        last = float(out.splitlines()[-1].split(",")[1])
        assert last == phi_closed("C", 1.5, 500) and 0.0 < last < 1e-80

    def test_fig1_dataset_shape(self, capsys):
        code, out, _ = run(capsys, "dsf", "--fig1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,SF1,SF2,SF3"
        assert len(lines) == 102  # header + 101 rows
        assert all(len(line.split(",")) == 4 for line in lines)

    def test_fig1_spot_values(self, capsys):
        _, out, _ = run(capsys, "dsf", "--fig1")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for n in (0, 1, 17, 60, 100):
            cells = rows[n]
            assert int(cells[0]) == n
            for column, family in zip(cells[1:], ("A", "B", "C")):
                assert float(column) == pytest.approx(phi_closed(family, 1.015, n), rel=1e-15)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "dsf", "--family", "B", "--q", "1.1",
                           "--n-max", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["family"] == "B"
        assert payload["columns"] == ["n", "phi"]
        assert payload["rows"][0] == [0, 0.0]
        assert payload["rows"][3][1] == pytest.approx(phi_closed("B", 1.1, 3))

    def test_two_parameter_family(self, capsys):
        code, out, _ = run(capsys, "dsf", "--family", "At", "--q", "1.2",
                           "--p", "1.1", "--n-max", "2")
        assert code == 0
        value = float(out.splitlines()[2].split(",")[1])
        from defosc import DeformationParams
        assert value == pytest.approx(phi_closed("At", DeformationParams(q=1.2, p=1.1), 1))


class TestSpectrumCommand:
    def test_ground_state_row(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "A", "--q", "1.015", "--n-max", "0")
        assert code == 0
        q = 1.015
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(q**-1 / (1 + q**2), rel=1e-14)

    def test_family_b_ground_state(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "B", "--q", "2", "--n-max", "0")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(0.8, rel=1e-14)

    def test_undeformed_column(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "D", "--q", "1", "--n-max", "4")
        values = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert values == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_json_includes_ground_state_block(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--family", "A", "--q", "2",
                           "--n-max", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["ground_state"] == {
            "E1": pytest.approx(0.1), "E2": pytest.approx(0.8),
            "E3": pytest.approx(0.1), "E4": pytest.approx(0.8),
        }

    def test_csv_ground_state_note_goes_to_stderr(self, capsys):
        _, out, err = run(capsys, "spectrum", "--family", "A", "--q", "2", "--n-max", "1")
        assert "ground-state" in err
        assert "ground-state" not in out


class TestVerifyCommand:
    def test_passing_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "A", "--q", "1.015", "--dim", "30")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["meta"]["trusted"] == 29
        for name in ("heisenberg", "gh_relation", "ladder", "ratio_recursions"):
            assert report["residuals"][name] <= 1e-10
        assert report["boundary"]["heisenberg"] > 0
        assert report["hermiticity_defect"]["X"] > 0

    def test_two_parameter_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "At", "--q", "1.2",
                           "--p", "1.1", "--dim", "30")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_perturbation_hook_fails(self, capsys):
        code, out, err = run(capsys, "verify", "--family", "A", "--q", "1.015",
                             "--dim", "10", "--perturb", "1e-3")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert "heisenberg" in err
        assert "ladder" in err  # the override keeps no closed-form table on the rep

    def test_ignores_format_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "A", "--q", "1.1",
                           "--dim", "8", "--format", "csv")
        assert code == 0
        json.loads(out)  # still a JSON report


class TestDegeneracyCommand:
    def test_tenth_level_root(self, capsys):
        code, out, _ = run(capsys, "degeneracy", "--family", "A", "--n", "10",
                           "--m", "0", "--q-range", "1.001:1.5", "--tol", "1e-6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,q_star,residual,q_lo,q_hi"
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert abs(float(cells[2]) - 1.0913) <= 5e-4
        assert float(cells[4]) < float(cells[2]) < float(cells[5])

    def test_ninetieth_level_root_json(self, capsys):
        code, out, _ = run(capsys, "degeneracy", "--family", "A", "--n", "90",
                           "--m", "0", "--q-range", "1.001:1.1",
                           "--tol", "1e-7", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        roots = payload["roots"]
        assert len(roots) == 1
        assert abs(roots[0]["q_star"] - 1.015148) <= 5e-6

    def test_empty_interval_is_success(self, capsys):
        code, out, _ = run(capsys, "degeneracy", "--family", "A", "--n", "3",
                           "--m", "5", "--q-range", "1.001:1.01")
        assert code == 0
        assert out.splitlines() == ["n,m,q_star,residual,q_lo,q_hi"]

    def test_missing_levels_is_usage_error(self, capsys):
        code, _, err = run(capsys, "degeneracy", "--family", "A",
                           "--q-range", "1.001:1.5")
        assert code == 2
        assert "error" in err


class TestOutputContract:
    def test_deterministic_output(self, capsys):
        argv = ("dsf", "--family", "C", "--q", "1.33", "--n-max", "40")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_csv_file_lf_only(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "dsf", "--family", "A", "--q", "1.1",
                           "--n-max", "7", "--out", str(target))
        assert code == 0
        assert out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert not any(line.endswith(b",") for line in raw.splitlines())

    def test_full_precision_round_trip(self, capsys):
        _, out, _ = run(capsys, "dsf", "--family", "A", "--q", "1.015", "--n-max", "20")
        for line in out.splitlines()[1:]:
            n_text, phi_text = line.split(",")
            assert float(phi_text) == phi_closed("A", 1.015, int(n_text))

    def test_json_meta_key_order_is_stable(self, capsys):
        _, out, _ = run(capsys, "verify", "--family", "A", "--q", "1.1", "--dim", "6")
        report = json.loads(out)
        assert list(report) == ["meta", "residuals", "boundary", "hermiticity_defect", "passed"]
        assert list(report["meta"]) == ["family", "q", "p", "dim", "trusted", "tol"]
        _, out, _ = run(capsys, "spectrum", "--family", "A", "--q", "1.1", "--n-max", "3",
                        "--format", "json")
        assert list(json.loads(out)) == ["meta", "columns", "rows", "ground_state"]


class TestErrorPaths:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "dsf", "--family", "Z", "--q", "1")
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize("argv,message", [
        (("dsf", "--q", "1.1"), "--family is required for this command"),
        (("degeneracy", "--family", "A", "--n", "10", "--m", "0"),
         "--q-range lo:hi is required for degeneracy searches"),
    ])
    def test_missing_required_option_is_domain_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_q(self, capsys):
        code, _, err = run(capsys, "spectrum", "--family", "A")
        assert code == 2
        assert "--q" in err

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "dsf", "--family", "A", "--q", "-2")
        assert code == 2
        assert "q > 0" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "A", "--q", "0.5", "--dim", "600"),
        ("dsf", "--family", "A", "--q", "0.5", "--n-max", "3000"),
        ("verify", "--family", "A", "--q", "1.5", "--dim", "600"),  # phi underflows
        ("verify", "--family", "B", "--q", "0.5", "--dim", "600"),
        ("verify", "--family", "C", "--q", "0.5", "--dim", "530"),  # f(512) overflows
    ])
    def test_double_range_exit_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "double-precision range" in lines[0]

    @pytest.mark.parametrize("argv,shown", [
        (("dsf", "--family", "Bt", "--q", "1e-300", "--p", "1e300", "--n-max", "3"), "0.0"),
        (("dsf", "--family", "Ct", "--q", "1e300", "--p", "1e-300", "--n-max", "3"), "inf"),
        (("spectrum", "--family", "At", "--q", "1e-300", "--p", "1e300", "--n-max", "3"), "0.0"),
        (("verify", "--family", "Dt", "--q", "1e-300", "--p", "1e300", "--dim", "5"), "0.0"),
    ])
    def test_power_base_out_of_range_is_domain_error(self, capsys, argv, shown):
        # q and p are in range but Q = q/p is not: this exited 1 through a ZeroDivisionError
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: phi_closed requires finite Q = q/p > 0, got {shown}\n"

    def test_unread_coefficient_overflow_is_left_to_the_ratio_recursions(self, capsys):
        # build_rep at D = 513 never reads f(512); verify_ratio_recursions(n_max = 513) does
        code, out, err = run(capsys, "verify", "--family", "C", "--q", "0.5", "--dim", "513")
        assert (code, out) == (2, "")
        assert err == "error: ratio recursions leave the double-precision range at level 511\n"

    @pytest.mark.parametrize("tol, shown", [("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
    def test_bad_verify_tolerance_is_domain_error(self, capsys, tol, shown):
        code, out, err = run(capsys, "verify", "--family", "A", "--q", "1.1", "--tol", tol)
        assert (code, out) == (2, "")
        assert err == f"error: tol must be positive, got {shown}\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--family", "A", "--q", "1.1"),
        ("degeneracy", "--family", "A", "--q", "1.1", "--n", "10", "--m", "0",
         "--q-range", "1.001:1.5"),
    ])
    def test_infinite_tolerance_is_domain_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--tol", "inf")
        assert (code, out) == (2, "")
        assert err == "error: tol must be finite, got inf\n"

    @pytest.mark.parametrize("command", ["dsf", "spectrum"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_n_max_is_domain_error(self, capsys, command, fmt):
        code, out, err = run(capsys, command, "--family", "A", "--q", "1.1", "--n-max", "-1",
                             "--format", fmt)
        assert (code, out) == (2, "")
        assert err == "error: n_max must be >= 0, got -1\n"

    @pytest.mark.parametrize("command, row", [("dsf", "0,0"), ("spectrum", "0,0.41135335252982314")])
    def test_zero_n_max_is_one_row(self, capsys, command, row):
        code, out, _ = run(capsys, command, "--family", "A", "--q", "1.1", "--n-max", "0")
        assert code == 0
        assert out.splitlines()[1:] == [row]

    def test_infinite_q_range_is_domain_error(self, capsys):
        code, out, err = run(capsys, "degeneracy", "--family", "A", "--n", "10", "--m", "0",
                             "--q-range", "1.001:inf")
        assert (code, out) == (2, "")
        assert err == "error: search endpoints must be finite, got (1.001, inf)\n"

    def test_bad_q_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["degeneracy", "--family", "A", "--n", "1", "--m", "0",
                  "--q-range", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


BASE_ARGV = {
    "dsf": ["dsf"],
    "spectrum": ["spectrum"],
    "verify": ["verify"],
    "degeneracy": ["degeneracy", "--n", "10", "--m", "0", "--q-range", "1.001:1.5"],
}
BIG = "1" + "0" * 400
HOSTILE = [("--dim", BIG), ("--n-max", "-" + BIG), ("--q", "1e308"), ("--q", "5e-324"),
           ("--tol", "1e-320")]
DEGENERACY_ONLY = [("--n", BIG), ("--m", BIG), ("--q-range", "5e-324:0.5")]


class TestExitCodeContract:
    """Every subcommand exits 0, 1 or 2 on hostile input and never writes NaN or Infinity."""

    @pytest.mark.parametrize("command,option,value", [
        pytest.param(command, option, value, id=f"{command}{option}={value[:8]}")
        for command, hostile in [*((command, HOSTILE) for command in BASE_ARGV),
                                 ("degeneracy", DEGENERACY_ONLY)]
        for option, value in hostile])
    @pytest.mark.parametrize("family", [("A",), ("B",), ("Bt", "--p", "0.9")], ids=["A", "B", "Bt"])
    def test_hostile_argument(self, capsys, command, option, value, family):
        argv = [*BASE_ARGV[command], "--family", family[0], "--q", "1.1", *family[1:],
                "--format", "json", option, value]  # the last --q wins
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        else:
            json.loads(out, parse_constant=_reject_constant)

    def test_verify_refuses_residuals_that_are_not_finite(self, capsys):
        # phi near the double range overflows the products: this wrote NaN and exited 1
        code, out, err = run(capsys, "verify", "--family", "A", "--q", "1.5", "--dim", "30",
                             "--perturb", "1e308")
        assert (code, out) == (2, "")
        assert err == "error: verify reports non-finite numbers for heisenberg, gh_relation\n"

    @pytest.mark.parametrize("argv", [
        ("--family", "B", "--q", "2", "--dim", "300"),
        ("--family", "B", "--q", "1.5", "--dim", "500"),
        ("--family", "Bt", "--q", "1.1", "--p", "0.9", "--dim", "1000"),
        ("--family", "B", "--q", "1.1", "--dim", "3000"),
    ])
    def test_gh_relation_holds_where_the_lead_power_of_h_is_subnormal(self, capsys, argv):
        # H read 0.0 or lost its digits there, and these exited 1 on a correct algebra
        code, out, err = run(capsys, "verify", *argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["residuals"]["gh_relation"] <= 1e-15
