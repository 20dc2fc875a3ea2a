import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from doublejc import QubitEquivalenceError
from doublejc.cli import _build_parser, main

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



@pytest.mark.parametrize("zero_tol", ["nan", "-1"])
@pytest.mark.parametrize("command", ["death", "sweep"])
def test_bad_zero_tol_exits_2(capsys, command, zero_tol):
    # with a NaN or negative threshold every dead interval and touch point used to vanish
    argv = [command, "--family", "phi", "--source", "oracle", "--steps", "201", "--zero-tol", zero_tol]
    rc, out, err = run_cli(capsys, *argv, *(["--alpha", "0.3"] if command == "death" else ["--alphas", "0.3"]))
    assert rc == 2
    assert out == ""
    assert "zero_tol must be finite and non-negative" in err


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



# ------------------------------------------------------------------- flags

#: subcommand -> every flag it takes besides --config
FLAGS = {
    "constants": "--omega --nu --g --delta --G --format --out",
    "scan": "--family --alpha --omega --nu --g --delta --G --tmax --steps --pair --source --cutoff --format --out "
            "--plot-script",
    "death": "--family --alpha --omega --nu --g --delta --G --tmax --steps --pair --source --cutoff --out --zero-tol",
    "validate": "--family --alpha --omega --nu --g --delta --G --tmax --steps --cutoff --out --tolerance",
    "sweep": "--family --omega --nu --g --delta --G --tmax --steps --source --cutoff --format --out --zero-tol "
             "--alphas --alpha-min --alpha-max --alpha-count",
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_takes_only_the_flags_it_reads(command):
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    taken = {flag for action in subparsers.choices[command]._actions for flag in action.option_strings}
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


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    lines = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(lines) >= 5 and all(line[0] == "doublejc" for line in lines)
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(line[1:]) == 0, line
    capsys.readouterr()


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
    rc, _, err = run_cli(capsys, "death")
    assert rc == 3
    assert "physical assumption" in err


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
    rc, out, err = run_cli(capsys, "constants", "--G", "inf")
    assert rc == 2
    assert out == ""
    assert "finite" in err
