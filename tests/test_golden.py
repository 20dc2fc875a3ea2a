"""Golden CLI outputs: a fixed set of invocations must keep printing the same files.

Closed-form outputs must stay byte-identical.  Oracle outputs are compared
numerically, every number within ``ORACLE_TOL``, since a change of linear
algebra route legitimately moves their last digits; their text with every
number masked must still match byte for byte, so the layout is pinned too.

Regenerate the files (only when a change deliberately alters an output, and
say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

Without names it rewrites only the files whose fresh output fails the
comparison above, so last-digit oracle noise of another BLAS leaves the
passing files as they are; named files are rewritten unconditionally.  It
prints which files it rewrote and which it kept.
"""

import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest

from doublejc.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ORACLE_TOL = 1e-9
#: a JSON or CSV number, non-finite spellings included
NUMBER = re.compile(r"-?\b(?:\d+(?:\.\d+)?(?:e[-+]?\d+)?|nan|inf|NaN|Infinity)\b")

#: file name -> argv; a name containing "oracle" is compared numerically and with its numbers masked
CASES = {
    "constants_detuned.txt": ["constants", "--delta", "0.5", "--G", "1"],
    "constants_physical.json": ["constants", "--omega", "2", "--nu", "1", "--g", "0.5", "--format", "json"],
    "scan_phi_closed.csv": ["scan", "--family", "phi", "--alpha", "0.3", "--delta", "0", "--G", "1",
                            "--steps", "201"],
    "scan_psi_closed.json": ["scan", "--family", "psi", "--alpha", "0.7", "--delta", "1", "--G", "1",
                             "--tmax", "10", "--steps", "101", "--format", "json"],
    "death_phi_closed.json": ["death", "--family", "phi", "--alpha", "0.3", "--delta", "0.5", "--G", "1",
                              "--steps", "1001"],
    "death_psi_closed.json": ["death", "--family", "psi", "--alpha", "0.4", "--delta", "0", "--G", "1",
                              "--steps", "401"],
    "sweep_phi_closed.csv": ["sweep", "--family", "phi", "--delta", "0", "--G", "1", "--alpha-count", "6",
                             "--steps", "501", "--format", "csv"],
    "sweep_phi_closed.json": ["sweep", "--family", "phi", "--delta", "1", "--G", "1",
                              "--alphas", "0.1,0.3,0.5", "--steps", "501"],
    # touch points at pi and 3pi; at alpha = 1e-13 the whole grid is one zero run
    "sweep_psi_closed.json": ["sweep", "--family", "psi", "--delta", "0", "--G", "1",
                              "--alphas", "1e-13,0.3,1.2", "--steps", "401"],
    # 101 touch points each, one a period; the last is the clipped end 631.4601227, since the 101st peak 201 pi
    # lies 6.7e-7 past it inside its zero run
    "sweep_psi_many_touches_closed.json": ["sweep", "--family", "psi", "--delta", "0", "--G", "1",
                                           "--alphas", "0.3,1.2", "--tmax", "631.4601227", "--steps", "101"],
    # the threshold pi/4, touch points above it, and the narrow live gaps of alpha = 1e-13
    "sweep_phi_touch_closed.json": ["sweep", "--family", "phi", "--delta", "0", "--G", "1",
                                    "--alphas", "0.7853981633974483,0.9,1e-13", "--steps", "401"],
    "scan_all_oracle.csv": ["scan", "--family", "phi", "--alpha", "0.5333333333333333", "--delta", "1",
                            "--G", "1", "--pair", "all", "--source", "oracle", "--steps", "101"],
    "scan_all_oracle.json": ["scan", "--family", "phi", "--alpha", "0.5333333333333333", "--delta", "1",
                             "--G", "1", "--pair", "all", "--source", "oracle", "--steps", "101",
                             "--format", "json"],
    "scan_psi_oracle.json": ["scan", "--family", "psi", "--alpha", "0.6", "--delta", "0.5", "--G", "1",
                             "--pair", "Ab", "--source", "oracle", "--cutoff", "2", "--steps", "81",
                             "--format", "json"],
    "death_phi_oracle.json": ["death", "--family", "phi", "--alpha", "0.3", "--delta", "0", "--G", "1",
                              "--source", "oracle", "--steps", "201"],
    "sweep_phi_oracle.json": ["sweep", "--family", "phi", "--delta", "0.5", "--G", "1", "--source", "oracle",
                              "--alphas", "0.2,0.4,0.9", "--steps", "201"],
    # one batched propagation at cutoff 2, with the product-state floor at 1e-13 and the Bell state pi/4
    "sweep_psi_oracle.json": ["sweep", "--family", "psi", "--delta", "0.7", "--G", "1", "--source", "oracle",
                              "--alphas", "1e-13,0.3,0.7853981633974483,1.2", "--cutoff", "2", "--steps", "161"],
}


def _run(name: str, path: Path) -> None:
    assert main(CASES[name] + ["--out", str(path)]) == 0


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)), where
        assert (math.isnan(got) and math.isnan(want)) or abs(got - want) <= ORACLE_TOL, \
            f"{where}: {got!r} vs {want!r}"
    else:
        assert got == want, where


def _parse_csv(text: str) -> tuple:
    """(echo and column header lines, numeric rows)."""
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:k], [[float(x) for x in line.split(",")] for line in lines[k:]]


def _assert_golden(name: str, path: Path) -> None:
    # decoded from bytes, not read as text, so that a line-ending change shows in the masked layout
    got, want = (p.read_bytes().decode("utf-8") for p in (path, GOLDEN / name))
    if "oracle" not in name:
        assert path.read_bytes() == (GOLDEN / name).read_bytes()
        return
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), f"{name}: layout differs"
    if name.endswith(".json"):
        _assert_close(json.loads(got), json.loads(want), name)
    else:
        got_header, got_rows = _parse_csv(got)
        want_header, want_rows = _parse_csv(want)
        assert got_header == want_header
        _assert_close(got_rows, want_rows, name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    path = tmp_path / name
    _run(name, path)
    _assert_golden(name, path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_from_config(name, tmp_path):
    """The same case with every flag moved into a ``key = value`` config file."""
    command, *flags = CASES[name]
    config = tmp_path / "case.cfg"
    config.write_text("".join(f"{key[2:]} = {value}\n" for key, value in zip(flags[::2], flags[1::2])))
    path = tmp_path / name
    assert main([command, "--config", str(config), "--out", str(path)]) == 0
    _assert_golden(name, path)


def _regenerate(names) -> None:
    """Rewrite the named golden files, or without names every file whose fresh output fails ``_assert_golden``."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for case in sorted(names or CASES):
            fresh = Path(scratch) / case
            _run(case, fresh)
            if not names and (GOLDEN / case).exists():
                try:
                    _assert_golden(case, fresh)
                except AssertionError:
                    pass
                else:
                    print(f"kept {GOLDEN / case}")
                    continue
            (GOLDEN / case).write_bytes(fresh.read_bytes())
            print(f"rewrote {GOLDEN / case}")


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
