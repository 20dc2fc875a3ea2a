"""Command-line front end.

Subcommands
-----------
constants   print the derived dressed-state constants
scan        concurrence versus time as CSV or JSON, optional gnuplot script
death       sudden-death report (intervals, touch points, period) as JSON
validate    closed-form versus oracle cross-check, exit code encodes pass/fail
sweep       death reports across a grid of superposition angles

Exit codes: 0 success/pass, 1 validation failure, 2 configuration error,
3 physical-assumption violation (a retained cavity mode left the qubit
regime).

Model parameters come either as physical frequencies (--omega --nu --g) or
as detuning plus interaction strength (--delta --G, with --nu optional and
defaulting to 10*G; the atom-atom concurrence does not depend on nu).  Flags
override an optional ``key = value`` config file passed with --config.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import Source, detect_death, scan, scan_pairs, sweep_alpha, validate
from .model import InitialState, ModelParams, StateFamily, derive_constants
from .numerics import ALL_PAIRS, ATOM_PAIR, QubitEquivalenceError, SubsystemPair

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_ASSUMPTION_VIOLATED = 3

PAIR_NAMES = tuple(p.name for p in ALL_PAIRS)


class CLIError(Exception):
    """Configuration problem; maps to exit code 2."""


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------- arguments

# config-file key -> (argparse dest, converter)
_CONFIG_KEYS = {
    "family": ("family", str),
    "alpha": ("alpha", float),
    "omega": ("omega", float),
    "nu": ("nu", float),
    "g": ("g", float),
    "delta": ("delta", float),
    "G": ("big_g", float),
    "tmax": ("tmax", float),
    "steps": ("steps", int),
    "pair": ("pair", str),
    "source": ("source", str),
    "cutoff": ("cutoff", int),
    "format": ("format", str),
    "out": ("out", str),
    "plot-script": ("plot_script", str),
    "tolerance": ("tolerance", float),
    "zero-tol": ("zero_tol", float),
    "alphas": ("alphas", str),
    "alpha-min": ("alpha_min", float),
    "alpha-max": ("alpha_max", float),
    "alpha-count": ("alpha_count", int),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file; flags override it")
    parser.add_argument("--family", choices=["psi", "phi", "custom"])
    parser.add_argument("--alpha", type=float, help="superposition angle (rad)")
    parser.add_argument("--omega", type=float, help="atomic transition frequency")
    parser.add_argument("--nu", type=float, help="cavity mode frequency")
    parser.add_argument("--g", type=float, help="atom-cavity coupling")
    parser.add_argument("--delta", type=float, help="detuning omega - nu")
    parser.add_argument("--G", dest="big_g", type=float, help="interaction strength 2g")
    parser.add_argument("--tmax", type=float, help="scan end time (default 4*pi/G)")
    parser.add_argument("--steps", type=int, help="grid points (default 2001)")
    parser.add_argument("--pair", choices=list(PAIR_NAMES) + ["all"])
    parser.add_argument("--source", choices=["closed", "oracle"])
    parser.add_argument("--cutoff", type=int, help="Fock cutoff (default 1)")
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--out", help="output file (default stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublejc",
        description="Entanglement dynamics of two independent Jaynes-Cummings pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("constants", "print derived dressed-state constants"),
        ("scan", "concurrence versus time"),
        ("death", "sudden-death report"),
        ("validate", "closed-form versus oracle cross-check"),
        ("sweep", "death reports across an alpha grid"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        if name == "scan":
            p.add_argument("--plot-script", help="write a gnuplot script next to the CSV")
        if name in ("death", "sweep"):
            p.add_argument("--zero-tol", type=float,
                           help="zero threshold for touch points and oracle dead intervals")
        if name == "validate":
            p.add_argument("--tolerance", type=float, help="pass threshold (default 1e-9)")
        if name == "sweep":
            p.add_argument("--alphas", help="comma-separated alpha values (rad)")
            p.add_argument("--alpha-min", type=float)
            p.add_argument("--alpha-max", type=float)
            p.add_argument("--alpha-count", type=int)
    return parser


def _apply_config(ns: argparse.Namespace) -> None:
    if not ns.config:
        return
    try:
        with open(ns.config, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CLIError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CLIError(f"{ns.config}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise CLIError(f"{ns.config}:{lineno}: unknown key {key!r}")
        dest, convert = _CONFIG_KEYS[key]
        if not hasattr(ns, dest) or getattr(ns, dest) is not None:
            continue  # flags win, and keys for other subcommands are ignored
        try:
            setattr(ns, dest, convert(value))
        except ValueError:
            raise CLIError(f"{ns.config}:{lineno}: bad value for {key!r}") from None


# ------------------------------------------------------------- resolution

def _resolve_params(ns: argparse.Namespace) -> ModelParams:
    physical = ns.omega is not None or ns.g is not None
    derived = ns.delta is not None or ns.big_g is not None
    if physical and derived:
        raise CLIError("give either --omega/--nu/--g or --delta/--G, not both")
    if ns.g is not None and not ns.g > 0:
        raise CLIError("coupling must be positive")
    if ns.big_g is not None and not ns.big_g > 0:
        raise CLIError("coupling must be positive")
    try:
        if physical:
            if ns.omega is None or ns.nu is None or ns.g is None:
                raise CLIError("physical parameterization needs --omega, --nu and --g")
            return ModelParams(omega=ns.omega, nu=ns.nu, g=ns.g)
        delta = 0.0 if ns.delta is None else ns.delta
        big_g = 1.0 if ns.big_g is None else ns.big_g
        return ModelParams.from_detuning(delta, big_g, ns.nu)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _resolve_init(ns: argparse.Namespace, context: str) -> InitialState:
    family = ns.family or "psi"
    if family == "custom":
        raise CLIError(f"{context} requires a named family")
    alpha = math.pi / 4 if ns.alpha is None else ns.alpha
    try:
        return InitialState(StateFamily(family), alpha)
    except ValueError as exc:
        raise CLIError(str(exc)) from None


def _resolve_grid(ns: argparse.Namespace, params: ModelParams) -> tuple[float, int]:
    big_g = 2.0 * params.g
    tmax = 4.0 * math.pi / big_g if ns.tmax is None else ns.tmax
    steps = 2001 if ns.steps is None else ns.steps
    if not (math.isfinite(tmax) and tmax > 0):
        raise CLIError("tmax must be positive and finite")
    if steps < 2:
        raise CLIError("steps must be at least 2")
    return tmax, steps


def _resolve_cutoff(ns: argparse.Namespace) -> int:
    cutoff = 1 if ns.cutoff is None else ns.cutoff
    if cutoff < 1:
        raise CLIError("cutoff must be at least 1")
    return cutoff


def _write_output(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _echo_line(params: ModelParams, init: InitialState, tmax, steps, pairs, source, cutoff) -> str:
    c = derive_constants(params)
    fields = [
        f"family={init.family.value}",
        f"alpha={_fmt(init.alpha)}",
        f"omega={_fmt(params.omega)}",
        f"nu={_fmt(params.nu)}",
        f"g={_fmt(params.g)}",
        f"delta={_fmt(c.delta)}",
        f"G={_fmt(c.big_g)}",
        f"tmax={_fmt(tmax)}",
        f"steps={steps}",
        f"pair={'+'.join(pairs)}",
        f"source={source}",
        f"cutoff={cutoff}",
    ]
    return "# " + " ".join(fields) + "\n"


# ------------------------------------------------------------- subcommands

def _cmd_constants(ns: argparse.Namespace) -> int:
    params = _resolve_params(ns)
    c = derive_constants(params)
    items = [
        ("delta", c.delta),
        ("G", c.big_g),
        ("rabi", c.rabi),
        ("lambda_plus", c.lambda_plus),
        ("lambda_minus", c.lambda_minus),
        ("L", c.l_coef),
        ("M", c.m_coef),
        ("N", c.n_coef),
    ]
    if (ns.format or "csv") == "json":
        text = json.dumps(dict(items), indent=2) + "\n"
    else:
        text = "".join(f"{key} = {_fmt(value)}\n" for key, value in items)
    _write_output(ns, text)
    return EXIT_OK


def _gnuplot_script(csv_path: str, pairs) -> str:
    plots = ", ".join(
        f"'{csv_path}' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(pairs)
    )
    return (
        "# gnuplot script generated by doublejc scan\n"
        "set datafile separator ','\n"
        "set xlabel 't (units of 1/G)'\n"
        "set ylabel 'concurrence'\n"
        "set yrange [-0.02:1.05]\n"
        "set key outside\n"
        f"plot {plots}\n"
    )


def _cmd_scan(ns: argparse.Namespace) -> int:
    params = _resolve_params(ns)
    init = _resolve_init(ns, "a scan")
    tmax, steps = _resolve_grid(ns, params)
    cutoff = _resolve_cutoff(ns)
    source = ns.source or "closed"
    pair_name = ns.pair or "AB"
    fmt = ns.format or "csv"

    if ns.plot_script and (fmt != "csv" or not ns.out):
        raise CLIError("--plot-script needs --format csv and --out")

    pairs = ALL_PAIRS if pair_name == "all" else (SubsystemPair.from_name(pair_name),)
    if source == "closed":
        if pair_name != "AB":
            raise CLIError("closed-form scans cover only the atom-atom pair")
        series = {"AB": scan(init, params, ATOM_PAIR, tmax, steps, Source.CLOSED_FORM, cutoff)}
    else:
        series = scan_pairs(init, params, pairs, tmax, steps, cutoff)

    names = [p.name for p in pairs]
    times = series[names[0]].times
    if fmt == "json":
        payload = {
            "family": init.family.value,
            "alpha": init.alpha,
            "omega": params.omega,
            "nu": params.nu,
            "g": params.g,
            "tmax": tmax,
            "steps": steps,
            "source": source,
            "cutoff": cutoff,
            "times": times.tolist(),
            "concurrence": {name: series[name].values.tolist() for name in names},
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [_echo_line(params, init, tmax, steps, names, source, cutoff)]
        lines.append("t," + ",".join(names) + "\n")
        columns = [series[name].values for name in names]
        for j, t in enumerate(times):
            row = [_fmt(t)] + [_fmt(col[j]) for col in columns]
            lines.append(",".join(row) + "\n")
        text = "".join(lines)
    _write_output(ns, text)

    if ns.plot_script:
        with open(ns.plot_script, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_gnuplot_script(ns.out, names))
    return EXIT_OK


def _cmd_death(ns: argparse.Namespace) -> int:
    params = _resolve_params(ns)
    init = _resolve_init(ns, "death detection")
    tmax, steps = _resolve_grid(ns, params)
    cutoff = _resolve_cutoff(ns)
    source = Source(ns.source or "closed")
    pair_name = ns.pair or "AB"
    if pair_name == "all":
        raise CLIError("death detection works on a single pair")
    try:
        series = scan(init, params, SubsystemPair.from_name(pair_name), tmax, steps, source, cutoff)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    report = detect_death(series, ns.zero_tol)
    payload = {
        "family": init.family.value,
        "alpha": init.alpha,
        "pair": pair_name,
        "source": source.value,
        "tmax": tmax,
        "steps": steps,
        **report.to_dict(),
    }
    _write_output(ns, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_validate(ns: argparse.Namespace) -> int:
    params = _resolve_params(ns)
    init = _resolve_init(ns, "validation")
    tmax, steps = _resolve_grid(ns, params)
    cutoff = _resolve_cutoff(ns)
    tolerance = 1e-9 if ns.tolerance is None else ns.tolerance
    report = validate(init, params, tmax, steps, tolerance, cutoff)
    payload = {"family": init.family.value, "alpha": init.alpha, **report.to_dict()}
    _write_output(ns, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _sweep_grid(ns: argparse.Namespace) -> list:
    if ns.alphas is not None:
        try:
            grid = [float(part) for part in ns.alphas.split(",") if part.strip()]
        except ValueError:
            raise CLIError("--alphas must be a comma-separated list of numbers") from None
        if not grid:
            raise CLIError("--alphas must be a comma-separated list of numbers")
        return grid
    lo = 0.05 if ns.alpha_min is None else ns.alpha_min
    hi = math.pi / 2 - 0.05 if ns.alpha_max is None else ns.alpha_max
    count = 25 if ns.alpha_count is None else ns.alpha_count
    if count < 1 or hi < lo:
        raise CLIError("bad alpha grid")
    return np.linspace(lo, hi, count).tolist()


def _cmd_sweep(ns: argparse.Namespace) -> int:
    params = _resolve_params(ns)
    init = _resolve_init(ns, "a sweep")
    tmax, steps = _resolve_grid(ns, params)
    cutoff = _resolve_cutoff(ns)
    source = Source(ns.source or "closed")
    grid = _sweep_grid(ns)
    try:
        results = sweep_alpha(init.family, params, grid, tmax, steps, source, cutoff, ns.zero_tol)
    except ValueError as exc:
        raise CLIError(str(exc)) from None

    if (ns.format or "json") == "csv":
        lines = ["alpha,dead_intervals,first_death_start,first_death_end,total_dead_length,initial_concurrence\n"]
        for alpha, report in results:
            first = report.dead_intervals[0] if report.dead_intervals else (math.nan, math.nan)
            lines.append(
                ",".join(
                    [
                        _fmt(alpha),
                        str(len(report.dead_intervals)),
                        _fmt(first[0]),
                        _fmt(first[1]),
                        _fmt(report.total_dead_length()),
                        _fmt(report.initial_concurrence),
                    ]
                )
                + "\n"
            )
        text = "".join(lines)
    else:
        payload = {
            "family": init.family.value,
            "source": source.value,
            "tmax": tmax,
            "steps": steps,
            "reports": [{"alpha": alpha, **report.to_dict()} for alpha, report in results],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(ns, text)
    return EXIT_OK


_COMMANDS = {
    "constants": _cmd_constants,
    "scan": _cmd_scan,
    "death": _cmd_death,
    "validate": _cmd_validate,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config(ns)
        return _COMMANDS[ns.command](ns)
    except CLIError as exc:
        print(f"doublejc: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except QubitEquivalenceError as exc:
        print(f"doublejc: physical assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
