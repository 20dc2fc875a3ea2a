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
defaulting to 10*G; the atom-atom concurrence does not depend on nu).  An
optional ``key = value`` config file passed with --config is parsed like the
same flags; flags given on the command line override it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .analysis import Source, detect_death, scan, scan_pairs, sweep_alpha, validate
from .model import InitialState, ModelParams, StateFamily, derive_constants
from .numerics import ALL_PAIRS, QubitEquivalenceError, SubsystemPair

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_ASSUMPTION_VIOLATED = 3

PAIR_NAMES = tuple(p.name for p in ALL_PAIRS)


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------- arguments

def _alpha_list(text: str) -> list:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        grid = []
    if not grid:
        raise argparse.ArgumentTypeError("must be a comma-separated list of numbers")
    return grid


#: (flag, argparse keywords, the subcommands that read it): the one definition
#: of every option.  A config file's keys are these flags without their dashes.
_OPTIONS = (
    ("--family", dict(choices=["psi", "phi"], default="psi"), "scan death validate sweep"),
    ("--alpha", dict(type=float, default=math.pi / 4, help="superposition angle (rad)"), "scan death validate"),
    ("--omega", dict(type=float, help="atomic transition frequency"), "constants scan death validate sweep"),
    ("--nu", dict(type=float, help="cavity mode frequency"), "constants scan death validate sweep"),
    ("--g", dict(type=float, help="atom-cavity coupling"), "constants scan death validate sweep"),
    ("--delta", dict(type=float, help="detuning omega - nu"), "constants scan death validate sweep"),
    ("--G", dict(dest="big_g", type=float, help="interaction strength 2g"), "constants scan death validate sweep"),
    ("--tmax", dict(type=float, help="scan end time (default 4*pi/G)"), "scan death validate sweep"),
    ("--steps", dict(type=int, default=2001, help="grid points (default 2001)"), "scan death validate sweep"),
    ("--pair", dict(choices=[*PAIR_NAMES, "all"], default="AB"), "scan death"),
    ("--source", dict(choices=["closed", "oracle"], default="closed"), "scan death sweep"),
    ("--cutoff", dict(type=int, default=1, help="Fock cutoff (default 1)"), "scan death validate sweep"),
    ("--format", dict(choices=["csv", "json"]), "constants scan sweep"),
    ("--out", dict(help="output file (default stdout)"), "constants scan death validate sweep"),
    ("--plot-script", dict(help="write a gnuplot script next to the CSV"), "scan"),
    ("--zero-tol", dict(type=float, help="zero threshold for touch points and oracle dead intervals"),
     "death sweep"),
    ("--tolerance", dict(type=float, default=1e-9, help="pass threshold (default 1e-9)"), "validate"),
    ("--alphas", dict(type=_alpha_list, help="comma-separated alpha values (rad)"), "sweep"),
    ("--alpha-min", dict(type=float, default=0.05), "sweep"),
    ("--alpha-max", dict(type=float, default=math.pi / 2 - 0.05), "sweep"),
    ("--alpha-count", dict(type=int, default=25), "sweep"),
)

#: config key -> the subcommands that take it
_KEY_COMMANDS = {flag[2:]: commands.split() for flag, _, commands in _OPTIONS}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublejc",
        description="Entanglement dynamics of two independent Jaynes-Cummings pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=doc, allow_abbrev=False)  # a flag it lacks may not match another by prefix
        p.add_argument("--config", help="key = value config file; flags override it")
        for flag, kwargs, commands in _OPTIONS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
    return parser


def _config_args(path: str, command: str) -> list:
    """The config file's lines as ``--key=value`` arguments of ``command``."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from None
    args = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _KEY_COMMANDS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if command in _KEY_COMMANDS[key]:  # keys of other subcommands are ignored
            args.append(f"--{key}={value}")
    return args


# ------------------------------------------------------------- resolution

def _resolve_params(ns: argparse.Namespace) -> ModelParams:
    physical = ns.omega is not None or ns.g is not None
    if physical and (ns.delta is not None or ns.big_g is not None):
        raise ValueError("give either --omega/--nu/--g or --delta/--G, not both")
    if not physical:
        return ModelParams.from_detuning(ns.delta or 0.0, 1.0 if ns.big_g is None else ns.big_g, ns.nu)
    if ns.g is not None and not ns.g > 0:
        raise ValueError("coupling must be positive")
    if ns.omega is None or ns.nu is None or ns.g is None:
        raise ValueError("physical parameterization needs --omega, --nu and --g")
    return ModelParams(omega=ns.omega, nu=ns.nu, g=ns.g)


def _resolve_run(ns: argparse.Namespace) -> tuple[ModelParams, float]:
    """Parameters and scan end time of the subcommands that scan."""
    params = _resolve_params(ns)
    tmax = 4.0 * math.pi / (2.0 * params.g) if ns.tmax is None else ns.tmax
    if not (math.isfinite(tmax) and tmax > 0):
        raise ValueError("tmax must be positive and finite")
    return params, tmax


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


def _write_output(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        _write_file(ns.out, text)
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
    if ns.format == "json":
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
    params, tmax = _resolve_run(ns)
    init = InitialState(StateFamily(ns.family), ns.alpha)
    if ns.plot_script and (ns.format == "json" or not ns.out):
        raise ValueError("--plot-script needs --format csv and --out")

    pairs = ALL_PAIRS if ns.pair == "all" else (SubsystemPair.from_name(ns.pair),)
    if ns.source == "oracle":
        series = scan_pairs(init, params, pairs, tmax, ns.steps, ns.cutoff)
    else:  # scan rejects every pair but AB
        series = {p.name: scan(init, params, p, tmax, ns.steps, Source.CLOSED_FORM, ns.cutoff) for p in pairs}

    names = [p.name for p in pairs]
    times = series[names[0]].times
    if ns.format == "json":
        payload = {
            "family": init.family.value,
            "alpha": init.alpha,
            "omega": params.omega,
            "nu": params.nu,
            "g": params.g,
            "tmax": tmax,
            "steps": ns.steps,
            "source": ns.source,
            "cutoff": ns.cutoff,
            "times": times.tolist(),
            "concurrence": {name: series[name].values.tolist() for name in names},
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [_echo_line(params, init, tmax, ns.steps, names, ns.source, ns.cutoff)]
        lines.append("t," + ",".join(names) + "\n")
        columns = [series[name].values for name in names]
        for j, t in enumerate(times):
            row = [_fmt(t)] + [_fmt(col[j]) for col in columns]
            lines.append(",".join(row) + "\n")
        text = "".join(lines)
    _write_output(ns, text)

    if ns.plot_script:
        _write_file(ns.plot_script, _gnuplot_script(ns.out, names))
    return EXIT_OK


def _cmd_death(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    init = InitialState(StateFamily(ns.family), ns.alpha)
    if ns.pair == "all":
        raise ValueError("death detection works on a single pair")
    source = Source(ns.source)
    series = scan(init, params, SubsystemPair.from_name(ns.pair), tmax, ns.steps, source, ns.cutoff)
    report = detect_death(series, ns.zero_tol)
    payload = {
        "family": init.family.value,
        "alpha": init.alpha,
        "pair": ns.pair,
        "source": source.value,
        "tmax": tmax,
        "steps": ns.steps,
        **report.to_dict(),
    }
    _write_output(ns, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_validate(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    init = InitialState(StateFamily(ns.family), ns.alpha)
    report = validate(init, params, tmax, ns.steps, ns.tolerance, ns.cutoff)
    payload = {"family": init.family.value, "alpha": init.alpha, **report.to_dict()}
    _write_output(ns, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _cmd_sweep(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    source = Source(ns.source)
    if ns.alphas is None and (ns.alpha_count < 1 or ns.alpha_max < ns.alpha_min):
        raise ValueError("bad alpha grid")
    grid = ns.alphas or np.linspace(ns.alpha_min, ns.alpha_max, ns.alpha_count).tolist()
    results = sweep_alpha(StateFamily(ns.family), params, grid, tmax, ns.steps, source, ns.cutoff, ns.zero_tol)

    if ns.format == "csv":
        lines = ["alpha,dead_intervals,first_death_start,first_death_end,total_dead_length,initial_concurrence\n"]
        for alpha, report in results:
            first = report.dead_intervals[0] if report.dead_intervals else (math.nan, math.nan)
            fields = [_fmt(alpha), str(len(report.dead_intervals)), _fmt(first[0]), _fmt(first[1]),
                      _fmt(report.total_dead_length()), _fmt(report.initial_concurrence)]
            lines.append(",".join(fields) + "\n")
        text = "".join(lines)
    else:
        payload = {"family": ns.family, "source": source.value, "tmax": tmax, "steps": ns.steps,
                   "reports": [{"alpha": alpha, **report.to_dict()} for alpha, report in results]}
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(ns, text)
    return EXIT_OK


#: subcommand -> (help, handler)
_COMMANDS = {
    "constants": ("print derived dressed-state constants", _cmd_constants),
    "scan": ("concurrence versus time", _cmd_scan),
    "death": ("sudden-death report", _cmd_death),
    "validate": ("closed-form versus oracle cross-check", _cmd_validate),
    "sweep": ("death reports across an alpha grid", _cmd_sweep),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.config:
            # the subcommand comes first (the top level takes no options); config
            # lines go ahead of the flags, so the flags win
            ns = parser.parse_args([ns.command, *_config_args(ns.config, ns.command), *argv[1:]])
        return _COMMANDS[ns.command][1](ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"doublejc: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except QubitEquivalenceError as exc:
        print(f"doublejc: physical assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
