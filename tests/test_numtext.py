"""The vectorised number writer (``doublejc._numtext``) behind the CLI's CSV and JSON output.

It must write exactly the bytes ``'%.17g' %`` and ``float.__repr__`` write, whatever the chunk boundaries, stream
long scans instead of holding them whole, and build its lookup tables only on first use.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numtext_sweep
from doublejc import ATOM_PAIR, InitialState, ModelParams, Source, StateFamily, _numtext, scan
from doublejc.cli import _json, main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def python_text(values, shortest: bool) -> list:
    fmt = float.__repr__ if shortest else "%.17g".__mod__
    return [fmt(value) for value in np.asarray(values, dtype=float).tolist()]


def written(values, shortest: bool) -> list:
    return "".join(_numtext.chunks(np.asarray(values, dtype=float), ["\n"], shortest)).split("\n")[:-1]


def test_hard_sets_and_random_doubles_match_python():
    found = numtext_sweep.sweep(20000, seed=17)
    assert {name: bad[:3] for name, bad in found.items() if bad} == {}


#: any double, and doubles spread over the magnitudes the vectorised path handles
doubles = st.one_of(st.floats(), st.floats(1e-6, 1e17).flatmap(lambda x: st.sampled_from([x, -x])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(doubles, min_size=1, max_size=40), st.booleans())
def test_any_doubles_match_python(values, shortest):
    assert written(values, shortest) == python_text(values, shortest)


def csv_rows(table) -> str:
    """The CSV rows the CLI streams: a comma after each number but a row's last, which ends the line."""
    return "".join(_numtext.chunks(table, [","] * (np.shape(table)[1] - 1) + ["\n"], shortest=False))


def reference_csv(table) -> str:
    return "".join(",".join(python_text(row, False)) + "\n" for row in table)


def edge_mix(count: int, rng) -> np.ndarray:
    """Scan-like values with zeros, signs, powers of two and out-of-range magnitudes mixed in."""
    values = rng.uniform(0.0, 12.0, count)
    specials = [0.0, -0.0, 0.5, -2.0, 1e-7, 3e17, -1.5e300, 1e15 + 1, 0.1]
    picks = rng.random(count) < 0.2
    values[picks] = rng.choice(specials, picks.sum())
    return values


@pytest.mark.parametrize("cols", [1, 2, 7])
@pytest.mark.parametrize("numbers", [_numtext.CHUNK - 1, _numtext.CHUNK, _numtext.CHUNK + 1, 3 * _numtext.CHUNK + 7])
def test_tables_across_chunk_boundaries(numbers, cols):
    rng = np.random.default_rng(numbers * 10 + cols)
    table = edge_mix(-(-numbers // cols) * cols, rng).reshape(-1, cols)
    assert csv_rows(table) == reference_csv(table)
    column = edge_mix(numbers, rng)
    assert _json({"times": column}) == json.dumps({"times": column.tolist()}, indent=2)


def test_dying_phi_scan_writes_its_zeros_as_python_does(tmp_path, capsys):
    # phi at alpha = 0.3 dies for most of each period: the closed scan holds thousands of exact zeros, which the
    # writer takes from its tables while it writes the numbers around them
    argv = ["scan", "--family", "phi", "--alpha", "0.3", "--delta", "0", "--G", "1", "--tmax", "12", "--steps", "10001"]
    init, params = InitialState(StateFamily.PHI_ALPHA, 0.3), ModelParams.from_detuning(0.0, 1.0)
    series = scan(init, params, ATOM_PAIR, 12.0, 10001, Source.CLOSED_FORM)
    assert (series.values == 0).sum() > 5000
    table = np.column_stack([series.times, series.values])
    assert main(argv + ["--out", str(tmp_path / "scan.csv")]) == 0
    # compared as lines, whose first difference pytest finds at once
    lines = (tmp_path / "scan.csv").read_text().splitlines(keepends=True)
    assert lines[2:] == reference_csv(table).splitlines(keepends=True)
    assert main(argv + ["--format", "json", "--out", str(tmp_path / "scan.json")]) == 0
    text = (tmp_path / "scan.json").read_text()
    document = json.loads(text)
    assert document["concurrence"]["AB"] == series.values.tolist() and document["times"] == series.times.tolist()
    assert text.splitlines(keepends=True) == (json.dumps(document, indent=2) + "\n").splitlines(keepends=True)
    capsys.readouterr()


def test_empty_and_single_json_arrays():
    for values in ([], [0.25], [-1e-7]):
        document = {"a": {"b": np.array(values, dtype=float)}}
        assert _json(document) == json.dumps({"a": {"b": values}}, indent=2)


@pytest.mark.parametrize("fmt, limit_mib", [("csv", 13.8), ("json", 13.35)])
def test_long_scan_streams_its_output(tmp_path, capsys, fmt, limit_mib):
    # half of what a writer holding the whole text reached: 27.6 MiB for CSV and 26.7 MiB for JSON
    out = tmp_path / f"scan.{fmt}"
    assert main(["scan", "--steps", "11", "--format", fmt, "--out", str(out)]) == 0  # tables built outside the trace
    tracemalloc.start()
    try:
        assert main(["scan", "--steps", "200001", "--format", fmt, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < limit_mib
    assert out.stat().st_size > 200001 * 20
    capsys.readouterr()


def test_import_builds_no_table():
    code = "import doublejc.cli; from doublejc import _numtext; print(_numtext._tables.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"
