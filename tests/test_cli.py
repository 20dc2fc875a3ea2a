import errno
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublejc import ATOM_PAIR, InitialState, ModelParams, QubitEquivalenceError, Source, scan
from doublejc import _numtext, cli
from doublejc.cli import _build_parser, _json, _write_output, main

README = Path(__file__).resolve().parent.parent / "README.md"

PI_4 = repr(math.pi / 4)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in rows[1:]])
    return header, data


# -------------------------------------------------------------- constants

def test_constants_resonant_table(capsys):
    rc, out, _ = run_cli(capsys, "constants", "--delta", "0", "--G", "1")
    assert rc == 0
    table = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(table["L"]) == 0.5
    assert float(table["M"]) == 0.5
    assert float(table["N"]) == 0.5
    assert float(table["rabi"]) == 1.0


def test_constants_physical_json(capsys):
    rc, out, _ = run_cli(capsys, "constants", "--omega", "2", "--nu", "1", "--g", "0.5", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["delta"] == 1.0
    assert payload["N"] == pytest.approx(0.35355339059327373, rel=1e-15)


def test_constants_rejects_zero_coupling(capsys):
    rc, _, err = run_cli(capsys, "constants", "--g", "0")
    assert rc == 2
    assert "coupling must be positive" in err
    for big_g in ("0", "-1"):
        rc, _, err = run_cli(capsys, "constants", "--delta", "0", "--G", big_g)
        assert rc == 2
        assert "coupling must be positive" in err


def test_constants_rejects_detuning_below_minus_nu(capsys):
    # no omega given: the default nu = 10 G puts omega = nu + delta at -10
    rc, out, err = run_cli(capsys, "constants", "--delta", "-20", "--G", "1")
    assert rc == 2
    assert out == ""
    assert "detuning must be above -nu = -10 (nu defaults to 10 G)" in err


def test_constants_rejects_incomplete_physical_parameters(capsys):
    rc, out, err = run_cli(capsys, "constants", "--omega", "2", "--g", "0.5")
    assert rc == 2
    assert out == ""
    assert "physical parameterization needs --omega, --nu and --g" in err


def test_constants_rejects_mixed_parameterizations(capsys):
    rc, _, err = run_cli(capsys, "constants", "--omega", "2", "--nu", "1", "--g", "0.5", "--delta", "1")
    assert rc == 2
    assert "not both" in err


def test_unknown_flag_exits_2(capsys):
    assert main(["constants", "--bogus", "1"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- scan

def test_scan_psi_matches_cosine(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--family", "psi", "--alpha", PI_4,
        "--delta", "0", "--G", "1", "--tmax", "6.2832", "--steps", "201",
    )
    assert rc == 0
    header, data = parse_csv(out)
    assert header == ["t", "AB"]
    assert data.shape == (201, 2)
    expected = np.cos(data[:, 0] / 2) ** 2
    assert np.abs(data[:, 1] - expected).max() <= 1e-12


def test_scan_psi_rounded_alpha_close(capsys):
    # alpha given to four decimals: the |sin 2a| prefactor is off by ~7e-12
    rc, out, _ = run_cli(
        capsys, "scan", "--alpha", "0.7854", "--delta", "0", "--G", "1",
        "--tmax", "6.2832", "--steps", "201",
    )
    assert rc == 0
    _, data = parse_csv(out)
    assert np.abs(data[:, 1] - np.cos(data[:, 0] / 2) ** 2).max() <= 1e-10


def test_scan_phi_hits_exact_zero_window(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--family", "phi", "--alpha", "0.2618", "--delta", "0", "--G", "1",
    )
    assert rc == 0
    _, data = parse_csv(out)
    inside = (data[:, 0] > 1.2) & (data[:, 0] < 5.0)
    assert inside.sum() > 500
    assert np.all(data[inside, 1] == 0.0)
    assert data[0, 1] == pytest.approx(0.5, abs=1e-4)


def test_scan_product_state_all_zero(capsys):
    rc, out, _ = run_cli(capsys, "scan", "--family", "psi", "--alpha", "0", "--steps", "101")
    assert rc == 0
    _, data = parse_csv(out)
    assert np.all(data[:, 1] == 0.0)


def test_scan_all_pairs_oracle(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--family", "psi", "--alpha", PI_4,
        "--pair", "all", "--source", "oracle", "--tmax", "3.14", "--steps", "41",
    )
    assert rc == 0
    header, data = parse_csv(out)
    assert header == ["t", "AB", "ab", "Aa", "Bb", "Ab", "Ba"]
    assert data[0, 1] == pytest.approx(1.0, abs=1e-12)
    assert data[0, 2:] == pytest.approx(np.zeros(5), abs=1e-9)


def test_scan_closed_form_rejects_other_pairs(capsys):
    rc, _, err = run_cli(capsys, "scan", "--pair", "ab")
    assert rc == 2
    assert "atom-atom" in err


def test_scan_rejects_custom_family(capsys):
    rc, _, err = run_cli(capsys, "scan", "--family", "custom")
    assert rc == 2
    assert "invalid choice: 'custom'" in err


def test_scan_csv_deterministic(tmp_path, capsys):
    args = ["scan", "--family", "phi", "--alpha", "0.3", "--delta", "0.2", "--G", "1.1", "--steps", "301"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert b"\r" not in a  # LF line endings


def test_scan_json_output(capsys):
    rc, out, _ = run_cli(
        capsys, "scan", "--format", "json", "--steps", "11", "--tmax", "1.0", "--source", "oracle",
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["times"]) == 11
    assert set(payload["concurrence"]) == {"AB"}
    assert payload["cutoff"] == 1


def test_phi_scan_prints_no_negative_zero(capsys):
    # the resonant peaks t = pi and 3 pi lie on this grid, where phi_f is -0.0
    argv = ["scan", "--family", "phi", "--alpha", "0.3", "--delta", "0", "--G", "1", "--steps", "201"]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert "3.1415926535897936,0\n" in out and "9.4247779607693793,0\n" in out
    assert not re.search(r"(^|,)-0(\.0)?$", out, re.M)
    rc, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert rc == 0
    assert not any(math.copysign(1.0, value) < 0 for value in json.loads(out)["concurrence"]["AB"])


def test_scan_plot_script(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    script_path = tmp_path / "curve.gp"
    rc, _, _ = run_cli(
        capsys, "scan", "--steps", "51", "--out", str(csv_path), "--plot-script", str(script_path),
    )
    assert rc == 0
    assert csv_path.exists()
    script = script_path.read_text()
    assert str(csv_path) in script
    assert "plot" in script


def test_scan_plot_script_doubles_quotes_in_the_csv_path(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in ("it's", "curve"):
        rc, _, _ = run_cli(capsys, "scan", "--steps", "11", "--out", f"{name}.csv", "--plot-script", f"{name}.gp")
        assert rc == 0
    # '' is gnuplot's escape for ' inside a single-quoted string
    assert (tmp_path / "it's.gp").read_text().splitlines()[-1] == "plot 'it''s.csv' using 1:2 with lines title 'AB'"
    assert (tmp_path / "curve.gp").read_text() == (
        "# gnuplot script generated by doublejc scan\n"
        "set datafile separator ','\n"
        "set xlabel 't (units of 1/G)'\n"
        "set ylabel 'concurrence'\n"
        "set yrange [-0.02:1.05]\n"
        "set key outside\n"
        "plot 'curve.csv' using 1:2 with lines title 'AB'\n"
    )


def test_scan_plot_script_needs_out(capsys):
    rc, _, err = run_cli(capsys, "scan", "--plot-script", "x.gp")
    assert rc == 2
    assert "--out" in err


# ------------------------------------------------------------------ death

def test_death_phi_reports_interval(capsys):
    rc, out, _ = run_cli(
        capsys, "death", "--family", "phi", "--alpha", repr(math.pi / 12), "--delta", "0", "--G", "1",
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["dead_intervals"]) == 2  # default scan covers two periods
    start, end = payload["dead_intervals"][0]
    assert start == pytest.approx(1.08817621, abs=1e-6)
    assert end == pytest.approx(5.19500909, abs=1e-6)
    assert payload["period"] == pytest.approx(2 * math.pi, rel=1e-12)
    assert payload["initial_concurrence"] == pytest.approx(0.5, abs=1e-12)
    assert payload["touch_points"] == []


def test_death_psi_touch_points_only(capsys):
    rc, out, _ = run_cli(capsys, "death", "--family", "psi", "--alpha", PI_4)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dead_intervals"] == []
    assert payload["touch_points"] == pytest.approx([math.pi, 3 * math.pi], abs=1e-9)


def test_death_phi_quarter_touches_only(capsys):
    rc, out, _ = run_cli(capsys, "death", "--family", "phi", "--alpha", PI_4)
    assert rc == 0
    payload = json.loads(out)
    assert payload["dead_intervals"] == []
    assert payload["touch_points"] == pytest.approx([math.pi, 3 * math.pi], abs=1e-9)


def test_death_exit_code_zero_even_with_death(capsys):
    rc, out, _ = run_cli(capsys, "death", "--family", "phi", "--alpha", "0.2")
    assert rc == 0
    assert json.loads(out)["dead_intervals"]


def death_on_both_sources(capsys, *argv):
    reports = []
    for source in ("oracle", "closed"):
        rc, out, _ = run_cli(capsys, "death", *argv, "--steps", "201", "--source", source)
        assert rc == 0
        reports.append(json.loads(out))
    return reports


@pytest.mark.parametrize("alpha", ["1e-7", "1e-10"])
def test_death_near_product_psi_only_touches_on_both_sources(capsys, alpha):
    # the oracle used to read the grid values below 1e-9 around each touch, or all of them, as dead
    oracle, closed = death_on_both_sources(capsys, "--family", "psi", "--alpha", alpha)
    assert oracle["dead_intervals"] == closed["dead_intervals"] == []
    assert closed["touch_points"] == pytest.approx([math.pi, 3 * math.pi], abs=1e-12)
    assert oracle["touch_points"] == pytest.approx(closed["touch_points"], abs=1e-12)


def test_death_near_product_phi_dies_twice_on_both_sources(capsys):
    # the oracle used to report the whole grid as one dead interval
    oracle, closed = death_on_both_sources(capsys, "--family", "phi", "--alpha", "1e-10")
    assert len(oracle["dead_intervals"]) == len(closed["dead_intervals"]) == 2


@pytest.mark.parametrize("steps, tmax", [("201", "40"), ("101", "10")])
def test_death_oracle_product_window_starts_at_the_first_time(capsys, steps, tmax):
    # sample 0 is a zero above -FEW_ULPS: the root across its cell rounded to -2.7755575615628914e-17 (201 steps),
    # and t_d + (t_n - t_d) s_d / (s_d - s_n), formed left to right, to 1.3877787807814457e-17 (101 steps); the
    # fraction s_d / (s_d - 0) is exactly 1, so the root is the live sample's time
    rc, out, _ = run_cli(capsys, "death", "--family", "phi", "--alpha", "0", "--delta", "0", "--G", "1",
                         "--source", "oracle", "--steps", steps, "--tmax", tmax)
    assert rc == 0
    assert json.loads(out)["dead_intervals"] == [[0.0, float(tmax)]]



def test_death_below_the_zero_threshold_floor(capsys):
    # the floor README states: at alpha = 1e-13 every grid value is within ZERO_TOL of zero, so the phi oracle
    # merges its windows; psi's tau is one exact entry, so its oracle touch point is the closed form's pi
    # (a dense SVD put it where its rounding was lowest, at 3.0473)
    argv = ["--alpha", "1e-13", "--delta", "0", "--G", "1", "--steps", "401"]
    psi_oracle, psi_closed = (json.loads(run_cli(capsys, "death", "--family", "psi", *argv, "--source", source)[1])
                              for source in ("oracle", "closed"))
    assert psi_oracle["dead_intervals"] == psi_closed["dead_intervals"] == []
    assert psi_oracle["touch_points"] == pytest.approx([math.pi], abs=1e-12)
    assert psi_closed["touch_points"] == pytest.approx([math.pi], abs=1e-12)
    phi_oracle = json.loads(run_cli(capsys, "death", "--family", "phi", *argv, "--source", "oracle")[1])
    [[start, end]] = phi_oracle["dead_intervals"]
    assert start == pytest.approx(1.3e-11, rel=0.05)
    assert end == pytest.approx(4 * math.pi, abs=1e-9)
    assert phi_oracle["touch_points"] == []


@pytest.mark.parametrize("zero_tol", ["nan", "-1", "1e-3"])
@pytest.mark.parametrize("command", ["death", "sweep"])
def test_bad_zero_tol_exits_2(tmp_path, capsys, command, zero_tol):
    # --zero-tol is no flag and no config key any more, bad or plausible: zero runs are bounded
    # by ZERO_TOL on both sources, and a looser threshold merged oracle windows
    argv = [command, "--family", "phi", "--source", "oracle", "--steps", "201"]
    rc, out, err = run_cli(capsys, *argv, "--zero-tol", zero_tol)
    assert rc == 2
    assert out == ""
    assert f"unrecognized arguments: --zero-tol {zero_tol}" in err
    for key in ("zero-tol", "zero_tol"):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {zero_tol}\n")
        rc, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert rc == 2
        assert out == ""
        assert f"unknown key {key!r}" in err


def test_death_rejects_all_pairs(capsys):
    rc, out, err = run_cli(capsys, "death", "--pair", "all", "--steps", "11")
    assert rc == 2
    assert out == ""
    assert "death detection works on a single pair" in err


# --------------------------------------------------------------- validate

def test_validate_default_passes(capsys):
    rc, out, _ = run_cli(capsys, "validate")
    assert rc == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["max_abs_error"] <= 1e-9


def test_validate_cutoff_insensitive(capsys):
    rc1, out1, _ = run_cli(capsys, "validate", "--family", "phi", "--alpha", "0.4", "--steps", "301")
    rc3, out3, _ = run_cli(
        capsys, "validate", "--family", "phi", "--alpha", "0.4", "--steps", "301", "--cutoff", "3",
    )
    assert rc1 == 0 and rc3 == 0
    e1 = json.loads(out1)["max_abs_error"]
    e3 = json.loads(out3)["max_abs_error"]
    assert abs(e1 - e3) <= 1e-12


def test_validate_custom_family_rejected(capsys):
    rc, _, err = run_cli(capsys, "validate", "--family", "custom")
    assert rc == 2
    assert "invalid choice: 'custom'" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_validate_rejects_bad_tolerance(capsys, value):
    # NaN or infinity would print a "tolerance" that is not valid JSON
    rc, out, err = run_cli(capsys, "validate", "--tolerance", value, "--steps", "11")
    assert rc == 2
    assert out == ""
    assert "tolerance must be finite and non-negative" in err


@pytest.mark.parametrize("nu", ["1e3", "1e6", "1e9", "1e12"])
def test_validate_does_not_drift_with_nu(capsys, nu):
    # in the lab frame the error grew like eps nu t: 1.6e-6 at nu = 1e9, which exited 1
    rc, out, _ = run_cli(capsys, "validate", "--family", "phi", "--alpha", "0.3", "--delta", "0.37", "--G", "1",
                         "--nu", nu, "--steps", "401")
    assert rc == 0
    assert json.loads(out)["max_abs_error"] <= 1e-12


@pytest.mark.parametrize("argv", [["scan"], ["scan", "--source", "oracle"], ["death"], ["death", "--source", "oracle"],
                                  ["validate"], ["sweep"], ["sweep", "--source", "oracle"]])
def test_a_grid_with_repeated_times_exits_2(capsys, argv):
    # linspace gives [0, 0, 5e-324] for a subnormal tmax; validate used to pass on its 3 samples at 2 times
    rc, out, err = run_cli(capsys, *argv, "--tmax", "5e-324", "--steps", "3")
    assert (rc, out) == (2, "")
    assert err == "doublejc: error: times must be strictly increasing\n"


@pytest.mark.parametrize("argv", [["scan"], ["scan", "--source", "oracle"], ["death"], ["death", "--source", "oracle"],
                                  ["validate"], ["sweep"], ["sweep", "--source", "oracle"]])
def test_a_step_count_past_the_float_range_exits_2(capsys, argv):
    # the closed sweep and death divided t_max by such a count before building a grid and raised OverflowError;
    # now every command asks numpy for the grid, which refuses it before allocating
    rc, out, err = run_cli(capsys, *argv, "--steps", "1" + "0" * 400)
    assert (rc, out) == (2, "")
    assert err == "doublejc: error: Maximum allowed size exceeded\n"


@pytest.mark.parametrize("source", ["closed", "oracle"])
def test_a_period_past_the_float_range_exits_2(capsys, source):
    # 2 pi / rabi overflows once rabi is below about 3.5e-308; the JSON reports printed "period": Infinity
    for argv in (["death"], ["sweep", "--alphas", "0.3"], ["sweep", "--alphas", "0.3", "--format", "json"]):
        rc, out, err = run_cli(capsys, *argv, "--delta", "0", "--G", "1e-308", "--tmax", "1", "--steps", "11",
                               "--source", source)
        assert (rc, out) == (2, "")
        assert err == "doublejc: error: the period 2*pi/rabi overflows, and JSON has no Infinity\n"
    # the CSV sweep lists no period, and just above the limit the period is a finite double
    rc, out, _ = run_cli(capsys, "sweep", "--alphas", "0.3", "--format", "csv", "--delta", "0", "--G", "1e-308",
                         "--tmax", "1", "--steps", "11", "--source", source)
    assert rc == 0 and out.startswith("alpha,")
    rc, out, _ = run_cli(capsys, "death", "--delta", "0", "--G", "3.6e-308", "--tmax", "1", "--steps", "11",
                         "--source", source)
    assert rc == 0 and math.isfinite(json.loads(out)["period"])


def test_not_enough_memory_exits_2_with_one_line(capsys, monkeypatch):
    # one atom-cavity pair's Hamiltonian at cutoff 1e7 would take 728 TiB, beyond the address space, so the
    # allocation fails at once and nothing is paged in; exit 1 would read as a failed validation
    rc, out, err = run_cli(capsys, "scan", "--source", "oracle", "--cutoff", "10000000", "--steps", "3")
    assert (rc, out) == (2, "")
    assert err.startswith("doublejc: error: not enough memory: Unable to allocate ")
    assert err.count("\n") == 1 and err.endswith("\n")

    def out_of_memory(ns):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "constants", ("", out_of_memory))
    assert run_cli(capsys, "constants") == (2, "", "doublejc: error: not enough memory: allocation failed\n")


def test_closed_report_past_max_windows_exits_2_with_one_line(capsys):
    # resonant psi lists a touch a period: 1.6e9 of them are refused before any is listed, not built until the
    # memory runs out
    for command in (("death", "--alpha", "0.3"), ("sweep", "--alphas", "1e-13,0.3,1.2")):
        rc, out, err = run_cli(capsys, *command, "--family", "psi", "--delta", "0", "--G", "1", "--tmax", "1e10",
                               "--steps", "101")
        assert (rc, out) == (2, "")
        assert err.startswith("doublejc: error: a closed-form report over [0.0, 10000000000.0] would list a window ")
        assert err.count("\n") == 1


def test_validate_failure_exit_code(capsys):
    rc, out, _ = run_cli(capsys, "validate", "--tolerance", "1e-30", "--steps", "101")
    assert rc == 1
    assert json.loads(out)["pass"] is False


# ------------------------------------------------------------------ sweep

def test_sweep_json(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "--family", "phi", "--alphas", "0.1309,0.19635,0.2618",
        "--delta", "0", "--G", "1", "--tmax", "6.2832", "--steps", "1001",
    )
    assert rc == 0
    payload = json.loads(out)
    lengths = []
    for report in payload["reports"]:
        assert len(report["dead_intervals"]) == 1
        start, end = report["dead_intervals"][0]
        lengths.append(end - start)
    assert lengths == sorted(lengths, reverse=True)


def test_sweep_csv(capsys):
    rc, out, _ = run_cli(
        capsys, "sweep", "--family", "phi", "--alpha-min", "0.1", "--alpha-max", "0.3",
        "--alpha-count", "3", "--steps", "501", "--format", "csv",
    )
    assert rc == 0
    header, data = parse_csv(out)
    assert header[0] == "alpha"
    assert data.shape[0] == 3
    assert np.all(data[:, 1] >= 1)  # all these angles die


def test_sweep_bad_alphas(capsys):
    rc, _, err = run_cli(capsys, "sweep", "--alphas", "a,b")
    assert rc == 2
    assert "comma-separated" in err


@pytest.mark.parametrize("grid", [["--alpha-count", "0"], ["--alpha-min", "0.5", "--alpha-max", "0.4"],
                                  ["--alpha-max", "inf"], ["--alpha-min=-inf"], ["--alpha-min", "-inf"],
                                  ["--alpha-min", "nan"], ["--alpha-max", "nan"],
                                  # a span that overflows: "overflow encountered in subtract", then in multiply
                                  ["--alpha-min=-1e308", "--alpha-max", "1e308", "--alpha-count", "3"],
                                  # a span of exactly the largest float: linspace overflows at 4 points, not at 3
                                  ["--alpha-min=-8.988465674311579e+307", "--alpha-max", "8.988465674311579e+307",
                                   "--alpha-count", "4"],
                                  # an end beyond ALPHA_MAX: linspace's last product may overflow
                                  ["--alpha-min", "0", "--alpha-max", "1.7976931348623157e+308", "--alpha-count", "4"]])
def test_sweep_bad_alpha_grid(capsys, grid):
    # a non-finite end, or a span linspace cannot form, is refused before np.linspace, which printed
    # "invalid value encountered in multiply" or "overflow encountered in subtract"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "sweep", "--steps", "11", *grid)
    assert rc == 2
    assert out == ""
    assert err == "doublejc: error: bad alpha grid\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["death", "--family", "phi", "--alpha", "0.3", "--delta", "1e162"],
        ["death", "--family", "psi", "--alpha", "0.3", "--delta", "1e300"],
        ["sweep", "--family", "psi", "--alphas", "0.3", "--delta", "1e200"],
        ["sweep", "--family", "phi", "--alphas", "0.3,1.2", "--delta", "1e300"],
    ],
)
def test_underflowed_peak_weight_reports_as_the_oracle_does(capsys, argv):
    # past |delta| / G of about 4.5e161 the peak weight G^2 / rabi^2 underflows to 0, and the closed form used to
    # divide by it (ZeroDivisionError, exit 1); the concurrence is |sin 2 alpha| throughout, dead nowhere
    reports = {}
    for source in ("closed", "oracle"):
        rc, out, err = run_cli(capsys, *argv, "--G", "1", "--steps", "3", "--source", source)
        assert (rc, err) == (0, "")
        payload = json.loads(out)
        reports[source] = payload.get("reports", [payload])
    for closed, oracle in zip(reports["closed"], reports["oracle"]):
        assert closed["dead_intervals"] == oracle["dead_intervals"] == []
        assert closed["touch_points"] == oracle["touch_points"] == []


def test_sweep_past_exact_peak_indices_prints_no_warning(capsys):
    # rabi t / 2 pi near 2e19 passes 2^63: the sweep's own integer cast of the peak indices printed
    # "RuntimeWarning: invalid value encountered in cast"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "sweep", "--family", "psi", "--alphas", "1e-13", "--delta", "1e19", "--G", "1",
                               "--steps", "3")
    assert (rc, err) == (0, "")
    assert [str(w.message) for w in caught] == []
    assert json.loads(out)["reports"][0]["touch_points"] == [0.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--alpha", "1e308"],
        ["scan", "--alpha", "1e308", "--source", "oracle"],
        ["scan", "--alpha=-1e308", "--family", "phi"],
        ["death", "--alpha", "1e308"],
        ["validate", "--alpha", "1e308"],
        ["sweep", "--alphas", "0.3,1e308"],
        ["sweep", "--alphas", "1e308", "--source", "oracle"],
    ],
)
def test_angle_whose_double_overflows_exits_2(capsys, argv):
    # the closed path used to fail on sin(2 alpha) with "math domain error", the oracle to print a number
    rc, out, err = run_cli(capsys, *argv, "--steps", "11")
    assert rc == 2
    assert out == ""
    assert err == ("doublejc: error: alpha must be finite with |alpha| <= 8.988465674311579e+307, "
                   "so that 2 alpha is finite\n")



@pytest.mark.parametrize("argv", [["validate"], ["death", "--source", "oracle"], ["scan", "--source", "oracle"],
                                  ["sweep", "--source", "oracle"]])
def test_overflowing_oracle_exits_2_without_warnings(capsys, argv):
    # delta = omega - nu is 1.7e308, so the rotating frame's diagonal 2 delta overflows; without the guard the
    # propagator printed a RuntimeWarning and exited 2 with "Eigenvalues did not converge"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, *argv, "--omega", "1.7e308", "--nu", "1", "--g", "1", "--steps", "5")
    assert rc == 2
    assert out == ""
    assert err == "doublejc: error: Hamiltonian diagonal 2*atom + 2*cutoff*mode is not finite\n"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("command", ["scan", "death", "sweep"])
def test_overflowing_closed_phase_exits_2_without_warnings(capsys, command):
    # rabi t_max / 2 overflowed in the closed forms: scan and death printed two RuntimeWarnings and exited 2 with
    # "concurrence values must lie in [0, 1]", and sweep printed reports built from NaN samples
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, command, "--delta", "1e308", "--G", "1", "--steps", "5")
    assert (rc, out) == (2, "")
    assert err == "doublejc: error: closed-form phase rabi * t_max / 2 is not finite\n"
    assert [str(w.message) for w in caught] == []


def reject_constant(name):
    raise ValueError(f"non-finite number {name} in the output")


def numbers(payload):
    """Every number in a JSON payload, in document order."""
    if isinstance(payload, dict):
        return [x for value in payload.values() for x in numbers(value)]
    if isinstance(payload, list):
        return [x for value in payload for x in numbers(value)]
    return [payload] if isinstance(payload, float) else []


@pytest.mark.parametrize("argv", [["death", "--source", "oracle", "--tmax", "1e10", "--nu", "1e300"],
                                  ["validate", "--tmax", "1e10", "--steps", "5", "--nu", "1e300"],
                                  ["validate", "--steps", "5", "--nu", "1e308"],
                                  ["death", "--source", "oracle", "--steps", "5", "--nu", "1e308"],
                                  ["scan", "--source", "oracle", "--steps", "5", "--nu", "1e308", "--format", "json"],
                                  ["sweep", "--source", "oracle", "--steps", "5", "--nu", "1e308"]])
def test_oracle_at_a_huge_nu_runs_in_the_rotating_frame(capsys, argv):
    # in the lab frame the phases nu t overflowed at nu = 1e300, and at nu = 1e308 the diagonal 2 omega + 2 nu did:
    # all exited 2, with "propagation phase max|E| * max(t) is not finite" or "Hamiltonian diagonal 2*omega +
    # 2*cutoff*nu is not finite"; the oracle's frame rotates at nu, so its energies stay at the scale of delta and G
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, *argv, "--G", "1")
    assert (rc, err) == (0, "")
    assert [str(w.message) for w in caught] == []
    payload = json.loads(out, parse_constant=reject_constant)
    assert payload.get("pass", True) is True
    if "1e308" in argv and "oracle" in argv:  # the closed form's numbers, to rounding
        closed = json.loads(run_cli(capsys, *["closed" if a == "oracle" else a for a in argv], "--G", "1")[1])
        assert numbers(payload) == pytest.approx(numbers(closed), abs=1e-12)


def test_default_tmax_at_a_huge_coupling_names_the_phase(capsys):
    # the default end time 4 pi/(2g) overflowed 2g to inf and exited with "tmax must be positive and finite"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(capsys, "validate", "--omega", "1", "--nu", "1", "--g", "1e308", "--steps", "5")
    assert rc == 2
    assert out == ""
    assert err == "doublejc: error: propagation phase max|E| * max(t) is not finite\n"
    assert [str(w.message) for w in caught] == []


def test_default_tmax_is_four_pi_over_big_g(capsys):
    # 2 pi/g and 4 pi/(2g) are the same double wherever 2g is finite
    for g in (0.5, 0.3, 1e-300, 1e300):
        rc, out, _ = run_cli(capsys, "death", "--omega", "1", "--nu", "1", "--g", repr(g), "--steps", "3")
        assert rc == 0
        assert json.loads(out)["tmax"] == 4.0 * math.pi / (2.0 * g)


# ------------------------------------------------------------------- flags

#: subcommand -> every flag it takes besides --config
FLAGS = {
    "constants": "--omega --nu --g --delta --G --format --out",
    "scan": "--family --alpha --omega --nu --g --delta --G --tmax --steps --pair --source --cutoff --format --out "
            "--plot-script",
    "death": "--family --alpha --omega --nu --g --delta --G --tmax --steps --pair --source --cutoff --out",
    "validate": "--family --alpha --omega --nu --g --delta --G --tmax --steps --cutoff --out --tolerance",
    "sweep": "--family --omega --nu --g --delta --G --tmax --steps --source --cutoff --format --out --alphas "
             "--alpha-min --alpha-max --alpha-count",
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_takes_only_the_flags_it_reads(command):
    taken = {flag for action in _build_parser().commands[command]._actions for flag in action.option_strings}
    assert taken == {"-h", "--help", "--config", *FLAGS[command].split()}


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--pair", "ab"],
        ["sweep", "--alpha", "0.3"],
        ["death", "--format", "csv"],
        ["validate", "--source", "oracle"],
        ["validate", "--pair", "ab"],
        ["constants", "--family", "psi"],
        ["constants", "--steps", "11"],
    ],
)
def test_flag_a_subcommand_does_not_read_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


#: config files the argv below name as @name
CONFIGS = {"good": "family = phi\nalpha = 0.3\nsteps = 11\ndelta = -0.5\n", "neg": "delta = -1e-3\nsteps = 11\n",
           "badkey": "fam = phi\n", "badvalue": "steps = x\n", "noequals": "steps 11\n"}

PARSED = [["constants"], ["constants", "--format", "json", "--delta=-0.2", "--G", "2"], ["scan"],
          ["scan", "--family", "phi", "--alpha", "0.3", "--delta", "0.5", "--G", "1", "--steps", "1001", "--format",
           "csv", "--out", "x.csv", "--source", "closed"], ["scan", "--steps", "3", "--steps", "4"],
          ["death", "--delta", "-0.5", "--G", "1", "--pair", "Aa"], ["death", "--delta", "-1e-3", "--alpha", "-.5"],
          ["validate", "--tolerance", "1e-3", "--cutoff", "2"], ["sweep", "--alphas", "-1e-3,0.2", "--alpha-min", "-inf"],
          ["sweep", "--alpha-count", "3", "--alpha-max=1.2"], ["scan", "--config", "@good"],
          ["scan", "--steps", "5", "--config", "@good", "--format", "json"], ["death", "--config=@neg", "--G", "2"],
          ["sweep", "--config", "@good", "--alphas", "0.3"]]
REFUSED = [[], ["-h"], ["--help"], ["bogus"], ["scna"], ["--steps", "3", "scan"], ["--", "scan"], ["scan", "-h"],
           ["sweep", "--help"], ["death", "-h", "--delta", "-1"], ["scan", "--bogus", "1"], ["scan", "-x", "1"],
           ["constants", "--steps", "11"], ["scan", "--steps", "11", "extra"], ["scan", "--steps", "11", "--"],
           ["scan", "--", "--steps", "11"], ["scan", "--steps"], ["scan", "--steps", "x"], ["scan", "--ste", "11"],
           ["scan", "--he"], ["death", "--delta", "-x"], ["death", "--delta", "-h"], ["death", "--steps", "11", "-1"],
           ["death", "--delta", "-1x"], ["sweep", "--alphas", "a,b"], ["scan", "--config"],
           ["scan", "--config", "@badkey"], ["scan", "--config", "@badvalue", "--steps", "3"],
           ["scan", "--config", "@noequals"], ["scan", "--config", "@missing"], ["scan", "--config", "@good", "--bogus"]]


@pytest.mark.parametrize("argv, parses", [(argv, True) for argv in PARSED] + [(argv, False) for argv in REFUSED])
def test_one_pass_parse_equals_the_full_parser(tmp_path, capsys, monkeypatch, argv, parses):
    # main parses with the subcommand's own parser; the full parser, then the config re-parse with it, is the
    # reference, and each must reach the same Namespace, or write the same usage and errors with the same exit code
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [arg.replace("@", f"{tmp_path}{os.sep}") for arg in argv]
    seen = []
    for name, (doc, _) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, (doc, lambda ns: seen.append(ns) or 0))
    fast = run_cli(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda args: _build_parser().parse_args(args))
        full = run_cli(capsys, *argv)
    assert fast == full
    assert len(seen) == (2 if parses else 0)
    if parses:
        assert seen[0] == seen[1] and fast[0] == 0 and fast[1:] == ("", "")
    else:
        assert fast[0] != 0 or (fast[1].startswith("usage: doublejc") and fast[2] == "")  # --help exits 0


@pytest.mark.parametrize("flag, value, tail", [("--delta", "-1e-3", ["--G", "1", "--steps", "11"]),
                                               ("--alphas", "-1e-3,0.2", ["--steps", "11"]),
                                               ("--delta", "-INF", [])])
def test_a_negative_number_after_its_flag_reads_as_its_equals_form(capsys, flag, value, tail):
    # argparse's own pattern took -1e-3 and -inf for flags: "expected one argument", where --delta=-1e-3 runs
    command = "sweep" if flag == "--alphas" else "death"
    separate, joined = run_cli(capsys, command, flag, value, *tail), run_cli(capsys, command, f"{flag}={value}", *tail)
    assert separate == joined
    assert separate[0] == (2 if value == "-INF" else 0)


@pytest.mark.parametrize("value", ["-x", "-h", "--bogus"])
def test_an_option_after_a_flag_still_leaves_it_without_its_value(capsys, value):
    rc, out, err = run_cli(capsys, "death", "--delta", value)
    assert rc == 2 and out == ""
    assert err.endswith("doublejc death: error: argument --delta: expected one argument\n")


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(lines) >= 5 and all(line[0] == "doublejc" for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(line[1:]) == 0, line
    capsys.readouterr()


def test_readme_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    # what the block's comments promise, in order
    assert out.startswith("((1.08817")
    position = 0
    for expected in ("5.19500", "(7.37136", "11.47819", "6.283185", "True"):
        assert expected in out[position:], (expected, out)
        position = out.index(expected, position) + len(expected)


# ----------------------------------------------------------------- writers

def test_unwritable_out_exits_2(tmp_path, capsys):
    rc, out, err = run_cli(capsys, "validate", "--steps", "11", "--out", str(tmp_path / "missing" / "x.json"))
    assert rc == 2
    assert out == ""
    assert err.startswith("doublejc: error: cannot write output:") and err.count("\n") == 1


def test_unwritable_plot_script_exits_2(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    rc, out, err = run_cli(capsys, "scan", "--steps", "11", "--format", "csv", "--out", str(csv),
                           "--plot-script", str(tmp_path / "missing" / "curve.gp"))
    assert rc == 2
    assert out == ""
    assert err.startswith("doublejc: error: cannot write output:") and err.count("\n") == 1


@pytest.mark.parametrize("old_steps, new_steps", [(2001, 11), (11, 2001)])
def test_out_over_an_existing_file_equals_a_fresh_write(tmp_path, capsys, old_steps, new_steps):
    """An output rewritten in place is cut to its new length: shorter over longer and longer over shorter."""
    argv = ["scan", "--family", "phi", "--delta", "0.3", "--G", "1", "--format", "csv"]
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert main(argv + ["--steps", str(old_steps), "--out", str(reused)]) == 0
    assert main(argv + ["--steps", str(new_steps), "--out", str(reused)]) == 0
    assert main(argv + ["--steps", str(new_steps), "--out", str(fresh)]) == 0
    capsys.readouterr()
    assert reused.read_bytes() == fresh.read_bytes()
    assert reused.read_bytes().count(b"\n") == new_steps + 2


def test_out_to_the_null_device_exits_0(capsys):
    rc, out, err = run_cli(capsys, "scan", "--steps", "11", "--out", os.devnull)
    assert (rc, out, err) == (0, "", "")


def test_a_stream_that_fails_leaves_what_was_written(tmp_path):
    """A chunk stream that raises part-way leaves exactly the chunks before it, not the old file's tail."""
    path = tmp_path / "out.txt"
    path.write_text("x" * 10000)

    def chunks():
        yield "first chunk\n"
        raise ValueError("stream failed")

    with pytest.raises(ValueError, match="stream failed"):
        _write_output(str(path), chunks())
    assert path.read_bytes() == b"first chunk\n"


def test_a_new_output_gets_the_mode_open_gives(tmp_path, capsys):
    umask = os.umask(0o022)
    os.umask(umask)
    path = tmp_path / "new.txt"
    assert main(["constants", "--out", str(path)]) == 0
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask


def source_env() -> dict:
    """The environment of a subprocess that imports doublejc from this checkout's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv, lines", [(["scan", "--steps", "200001"], 1), (["constants"], 0)])
def test_a_closed_stdout_exits_2_with_one_line(argv, lines):
    """Output piped into a reader that stops early: one error line and exit 2, no traceback.  A long scan meets
    the closed pipe while it streams; a short report, which fits in the buffer, only when it is flushed."""
    env = source_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a pipe is by default
    proc = subprocess.Popen([sys.executable, "-m", "doublejc.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        for _ in range(lines):
            assert proc.stdout.readline().endswith(b"\n")
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1].decode()
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2, err
    assert err == f"doublejc: error: cannot write output: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


NO_STDOUT = f"doublejc: error: cannot write output: [Errno {errno.EBADF}] stdout is closed\n"


def test_no_stdout_exits_2_with_one_line(capsys, monkeypatch):
    # an interpreter started with its stdout descriptor closed has sys.stdout None: writing to it raised
    # AttributeError, a traceback and exit 1
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["constants"]) == 2
    assert capsys.readouterr().err == NO_STDOUT


@pytest.mark.skipif(sys.platform == "win32", reason="closes the descriptor with a POSIX shell")
def test_a_closed_stdout_descriptor_exits_2_with_one_line():
    proc = subprocess.run(["sh", "-c", 'exec "$0" -m doublejc.cli constants >&-', sys.executable],
                          env=source_env(), stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60)
    assert (proc.returncode, proc.stderr.decode()) == (2, NO_STDOUT)


#: values whose formatting has edge cases: signed zero, the smallest subnormal, a tiny normal, a repeating
#: fraction, and magnitudes from 1e16 up, where repr switches to an exponent
EDGE_VALUES = [0.0, -0.0, 1.0, 5e-324, 1e-300, 1 / 3,
               1e16, 2.0**53 + 2, 1.2345678901234567e22, 1.7976931348623157e308]


def reference_csv_rows(table) -> str:
    """The per-number CSV the bulk writer replaces: one ``format(x, ".17g")`` per cell."""
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in table)


def reference_json(header: dict, columns) -> str:
    """The per-number JSON the bulk writer replaces: ``json.dumps`` with ``indent=2`` over lists."""
    times, *rows = columns
    payload = {**header, "times": list(times), "concurrence": {f"P{i}": list(row) for i, row in enumerate(rows)}}
    return json.dumps(payload, indent=2)


def bulk_csv_rows(table) -> str:
    """The CSV rows ``scan`` and ``sweep`` stream: the bulk writer with a comma after each cell but a row's last."""
    return "".join(_numtext.chunks(table, [","] * (np.shape(table)[1] - 1) + ["\n"], shortest=False))


def bulk_json(header: dict, columns) -> str:
    times, *rows = (np.array(column, dtype=float) for column in columns)
    return _json({**header, "times": times, "concurrence": {f"P{i}": row for i, row in enumerate(rows)}})


def tables(elements):
    """(rows, 1 + pairs) tables as column lists: 1, 2 or 7 columns, edge values mixed in."""
    values = st.one_of(st.sampled_from(EDGE_VALUES), elements)
    return st.tuples(st.integers(1, 30), st.sampled_from([1, 2, 7])).flatmap(
        lambda shape: st.lists(st.lists(values, min_size=shape[0], max_size=shape[0]),
                               min_size=shape[1], max_size=shape[1]))


writers = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@writers
@given(tables(st.floats()))
def test_bulk_csv_matches_per_number_formatting(columns):
    table = np.column_stack(columns)
    assert bulk_csv_rows(table) == reference_csv_rows(table)
    assert bulk_csv_rows([list(row) for row in table]) == reference_csv_rows(table)


finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))

#: what ``death`` and ``sweep`` write: lists of float pairs (as lists or tuples), lists of dicts, empty lists
death_reports = st.fixed_dictionaries({
    "dead_intervals": st.lists(st.one_of(st.tuples(finite, finite), st.lists(finite, min_size=2, max_size=2)),
                               max_size=3),
    "touch_points": st.lists(finite, max_size=3),
    "period": finite,
    "initial_concurrence": finite,
})


@writers
@given(tables(st.floats(allow_nan=False, allow_infinity=False)), st.sampled_from(["phi", "psi"]),
       finite, st.integers(2, 10**6), st.booleans(), death_reports, st.lists(death_reports, max_size=3))
@example([[0.0]], "phi", 0.0, 2, True, {"dead_intervals": [], "touch_points": [], "period": 1.0,
                                        "initial_concurrence": 0.0}, [])
def test_bulk_json_matches_json_dumps(columns, family, alpha, steps, passed, report, reports):
    header = {"family": family, "alpha": alpha, "steps": steps, "source": "oracle", "pass": passed, **report,
              "reports": [{"alpha": alpha, **each} for each in reports]}
    assert bulk_json(header, columns) == reference_json(header, columns)
    assert _json(header) == json.dumps(header, indent=2)


def test_json_scalars_match_json_dumps():
    # a finite float is written as its repr without a json.dumps call; everything else still goes through it, numpy
    # scalars too, whose repr (np.float64(0.1)) is no JSON
    scalars = [0.1, -0.0, 5e-324, 1e16, 1.7976931348623157e308, math.nan, math.inf, -math.inf, np.float64(0.1),
               np.float64(math.nan), True, False, 0, -7, 2**70, None, "pi"]
    assert _json(scalars) == json.dumps(scalars, indent=2)
    for scalar in scalars:
        assert _json(scalar) == json.dumps(scalar)
    # a list or tuple of finite floats only is written in one join; one holding anything else keeps the item path
    floats = np.random.default_rng(3).normal(size=100_000).tolist()
    lists = [[], [0.5], (-0.0, 5e-324), floats[:10], floats, [0.1, math.nan], [1.0, math.inf], [-math.inf],
             [1.0, 2], [0.1, np.float64(0.2)], [0.1, [0.2, 0.3]], [[0.1], 0.2], ([],)]
    for value in lists:
        document = {"touches": value, "nested": [value, {"deeper": value}], "last": 1.5}
        assert _json(document) == json.dumps(document, indent=2)
        assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bulk_json_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        _json({"times": np.array([0.0, bad])})


def test_module_entry_point_runs_main(capsys):
    env = source_env()
    module = [sys.executable, "-m", "doublejc.cli"]
    result = subprocess.run([*module, "constants"], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert main(["constants"]) == 0
    assert result.stdout == capsys.readouterr().out
    # the exit code passes through: a failed validation exits 1
    result = subprocess.run([*module, "validate", "--tolerance", "1e-20", "--steps", "11"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 1, result.stderr
    assert json.loads(result.stdout)["pass"] is False


def test_long_scan_output_matches_per_number_formatting(tmp_path, capsys):
    steps, t_max = 10001, 4 * math.pi
    series = scan(InitialState.psi(math.pi / 4), ModelParams.from_detuning(0.0, 1.0), ATOM_PAIR, t_max, steps,
                  Source.CLOSED_FORM)
    argv = ["scan", "--delta", "0", "--G", "1", "--steps", str(steps)]
    csv_path, json_path = tmp_path / "scan.csv", tmp_path / "scan.json"
    assert main(argv + ["--out", str(csv_path)]) == 0
    assert main(argv + ["--format", "json", "--out", str(json_path)]) == 0
    capsys.readouterr()

    _, header, rows = csv_path.read_bytes().decode().split("\n", 2)
    assert header == "t,AB"
    assert rows == reference_csv_rows(zip(series.times, series.values))
    scalars = {"family": "psi", "alpha": math.pi / 4, "omega": 10.0, "nu": 10.0, "g": 0.5, "tmax": t_max,
               "steps": steps, "source": "closed", "cutoff": 1}
    want = json.dumps({**scalars, "times": series.times.tolist(), "concurrence": {"AB": series.values.tolist()}},
                      indent=2)
    assert json_path.read_bytes().decode() == want + "\n"


# ----------------------------------------------------------------- config

def test_config_file_merge_and_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sample config\nfamily = phi\nalpha = 0.2618\nG = 1\ndelta = 0\nsteps = 101\n")
    for argv in (["--config", str(cfg), "--steps", "51"], ["--steps", "51", "--config", str(cfg)]):
        rc, out, _ = run_cli(capsys, "scan", *argv)
        assert rc == 0
        _, data = parse_csv(out)
        assert data.shape[0] == 51  # flag wins over config, wherever --config sits
        assert "family=phi" in out.splitlines()[0]


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fam = phi\n")
    rc, _, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert rc == 2
    assert "unknown key" in err


def test_config_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# comment\nfamily = phi\n\nsteps 11\n")
    rc, out, err = run_cli(capsys, "scan", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert f"{cfg}:4: expected 'key = value'" in err


def test_config_missing_file(capsys):
    rc, _, err = run_cli(capsys, "scan", "--config", "/does/not/exist.cfg")
    assert rc == 2


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("scan", "pair", "xx"),
        ("scan", "source", "foo"),
        ("death", "source", "foo"),
        ("scan", "format", "xml"),
        ("scan", "family", "foo"),
    ],
)
def test_config_bad_value_exits_2(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    rc, out, err = run_cli(capsys, command, "--config", str(cfg), "--steps", "11")
    assert rc == 2
    assert out == ""
    assert f"--{key}" in err and repr(value) in err


def test_config_negative_value_and_keys_of_other_subcommands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = -0.5\nG = 1\ntolerance = 1e-3\n")  # tolerance belongs to validate
    rc, out, _ = run_cli(capsys, "scan", "--config", str(cfg), "--steps", "11")
    assert rc == 0
    assert "delta=-0.5 " in out.splitlines()[0]
    assert parse_csv(out)[1].shape == (11, 2)



def test_config_keys_sweep_does_not_read_are_ignored(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("family = phi\nalpha = 0.3\npair = ab\nalphas = 0.2,0.4\nsteps = 101\nformat = csv\n")
    rc, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert rc == 0
    header, data = parse_csv(out)
    assert header[0] == "alpha"
    assert data[:, 0].tolist() == [0.2, 0.4]


# ------------------------------------------------------------- exit codes

def test_qubit_equivalence_maps_to_exit_3(monkeypatch, capsys):
    import doublejc.cli as cli_module

    def explode(*args, **kwargs):
        raise QubitEquivalenceError("mode a holds population 1.0e-02 above one photon")

    monkeypatch.setattr(cli_module, "scan", explode)
    # the atom pair reads its report from a sweep; every other pair scans
    rc, _, err = run_cli(capsys, "death", "--pair", "Aa", "--source", "oracle")
    assert rc == 3
    assert "physical assumption" in err


def test_long_closed_death_is_small_and_equals_the_short_one(capsys):
    # 2,000,001 steps made a 16 MB grid and a closed row that no report read
    argv = ["death", "--family", "phi", "--alpha", "0.3", "--delta", "0.5", "--G", "1"]
    tracemalloc.start()
    try:
        rc, out, _ = run_cli(capsys, *argv, "--steps", "2000001")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 1e6
    long, short = json.loads(out), json.loads(run_cli(capsys, *argv, "--steps", "2001")[1])
    assert long.pop("steps") == 2_000_001 and short.pop("steps") == 2001
    assert long == short and long["dead_intervals"]


@pytest.mark.parametrize("command", ["scan", "death"])
def test_closed_form_rejects_cutoff_zero(capsys, command):
    rc, out, err = run_cli(capsys, command, "--family", "phi", "--alpha", "0.3", "--cutoff", "0", "--steps", "11")
    assert rc == 2
    assert out == ""
    assert "cutoff must be at least 1" in err


def test_repeated_calls_keep_no_state(tmp_path, capsys):
    # the parser is built once per process: neither flags nor config may stick to it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps = 11\nsource = oracle\n")
    rc, out, _ = run_cli(capsys, "scan", "--config", str(cfg), "--steps", "12", "--format", "json")
    assert rc == 0 and len(json.loads(out)["times"]) == 12
    rc, out, _ = run_cli(capsys, "scan")
    assert rc == 0
    header, data = parse_csv(out)
    assert header == ["t", "AB"]
    assert data.shape == (2001, 2)
    assert "source=closed" in out.splitlines()[0]


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(capsys, "death", "--family", "phi", "--alpha", "0.3", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["dead_intervals"]


# --------------------------------------------------------- non-finite input

def test_death_rejects_nan_alpha(capsys):
    rc, out, err = run_cli(capsys, "death", "--family", "phi", "--alpha", "nan", "--delta", "0", "--G", "1")
    assert rc == 2
    assert out == ""
    assert "alpha must be finite" in err


def test_scan_rejects_infinite_tmax(capsys):
    rc, out, err = run_cli(capsys, "scan", "--family", "phi", "--alpha", "0.3", "--tmax", "inf", "--steps", "3")
    assert rc == 2
    assert out == ""
    assert "tmax must be positive and finite" in err


def test_constants_rejects_infinite_coupling(capsys):
    for big_g in ("inf", "nan"):
        rc, out, err = run_cli(capsys, "constants", "--delta", "0", "--G", big_g)
        assert rc == 2
        assert out == ""
        assert "frequencies must be finite" in err
