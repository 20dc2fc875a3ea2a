"""Command-line front end.

Subcommands
-----------
constants   print the derived dressed-state constants
scan        concurrence versus time as CSV or JSON, optional gnuplot script
death       sudden-death report (intervals, touch points, period) as JSON
validate    closed-form versus oracle cross-check, exit code encodes pass/fail
sweep       death reports across a grid of superposition angles

Exit codes: 0 success/pass, 1 validation failure, 2 configuration error
(not enough memory included), 3 physical-assumption violation (a retained
cavity mode left the qubit regime).

Model parameters come either as physical frequencies (--omega --nu --g) or
as detuning plus interaction strength (--delta --G, with --nu optional and
defaulting to 10*G; the atom-atom concurrence does not depend on nu).  An
optional ``key = value`` config file passed with --config is parsed like the
same flags; flags given on the command line override it.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import re
import stat
import sys

import numpy as np

from . import _numtext
from .analysis import Source, detect_death, scan, scan_pairs, sweep_alpha, validate
from .model import ALPHA_MAX, InitialState, ModelParams, StateFamily, derive_constants
from .numerics import ALL_PAIRS, ATOM_PAIR, QubitEquivalenceError, SubsystemPair

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_ASSUMPTION_VIOLATED = 3

PAIR_NAMES = tuple(p.name for p in ALL_PAIRS)


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(float(x), ".17g")


def _json_chunks(obj, level: int = 0):
    """``json.dumps(obj, indent=2)`` of a CLI document in pieces; a finite 1-D float array streams in chunks."""
    if type(obj) is float and math.isfinite(obj):  # json.dumps writes exactly its repr
        yield float.__repr__(obj)
        return
    pad = "\n" + "  " * level
    if isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():
            raise ValueError("Out of range float values are not JSON compliant")
        yield "[" + pad + "  " if obj.size else "[]"
        yield from _numtext.chunks(obj, ["," + pad + "  "], shortest=True, end=pad + "]")
        return
    if isinstance(obj, dict):
        items, ends = ((json.dumps(key) + ": ", value) for key, value in obj.items()), "{}"
    elif isinstance(obj, (list, tuple)):
        if obj and all(type(x) is float and math.isfinite(x) for x in obj):  # one join, no generator per float
            yield "[" + pad + "  " + ("," + pad + "  ").join(map(float.__repr__, obj)) + pad + "]"
            return
        items, ends = (("", value) for value in obj), "[]"
    else:
        yield json.dumps(obj)
        return
    lead = ends[0] + pad + "  "
    for key, value in items:
        yield lead + key
        yield from _json_chunks(value, level + 1)
        lead = "," + pad + "  "
    yield ends if lead[0] == ends[0] else pad + ends[1]


def _json(obj) -> str:
    return "".join(_json_chunks(obj))


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
    """The full parser; ``commands`` maps each subcommand to its parser, which reads -1e-3 and -inf as values."""
    parser = argparse.ArgumentParser(
        prog="doublejc",
        description="Entanglement dynamics of two independent Jaynes-Cummings pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # allow_abbrev: a flag a subcommand lacks may not match another by prefix
    parser.commands = {name: sub.add_parser(name, help=doc, allow_abbrev=False) for name, (doc, _) in _COMMANDS.items()}
    for name, p in parser.commands.items():
        p._negative_number_matcher = re.compile(r"-\.?\d|-(inf(inity)?|nan)\Z", re.IGNORECASE)  # private argparse
        p.add_argument("--config", help="key = value config file; flags override it")
        for flag, kwargs, commands in _OPTIONS:
            if name in commands.split():
                p.add_argument(flag, **kwargs)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, in one pass of the subcommand's own parser where argv[0] names one."""
    sub = _build_parser().commands.get(argv[0]) if argv else None
    ns, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0])) if sub else (None, True)
    return _build_parser().parse_args(argv) if rest else ns  # leftovers get the full parser's usage and error


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
    # 4 pi/G with G = 2g, written so that no 2g can overflow
    tmax = 2.0 * math.pi / params.g if ns.tmax is None else ns.tmax
    if not (math.isfinite(tmax) and tmax > 0):
        raise ValueError("tmax must be positive and finite")
    return params, tmax


def _drop_stdout() -> None:
    """Point stdout's descriptor, where it has one, at the null device, so that the text it still buffers after a
    failed write (a closed pipe) cannot fail again when the interpreter flushes it at shutdown."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write_output(path, chunks) -> None:
    """Write the text ``chunks`` to ``path`` (stdout if None) as they come, never holding a long scan whole.

    A file is rewritten in place and then cut to the length written: emptying it first costs the file system a
    round of freeing and allocating its blocks.  Devices and pipes are never cut."""
    try:
        if not path:
            if sys.stdout is None:  # the interpreter started with its stdout descriptor closed
                raise OSError(errno.EBADF, "stdout is closed")
            try:
                sys.stdout.writelines(chunks)
                sys.stdout.flush()
            except OSError:
                _drop_stdout()
                raise
            return
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            try:
                fh.writelines(chunks)
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()  # flushes, then cuts at the position written
    except OSError as exc:
        raise ValueError(f"cannot write output: {exc}") from None


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
        text = _json(dict(items)) + "\n"
    else:
        text = "".join(f"{key} = {_fmt(value)}\n" for key, value in items)
    _write_output(ns.out, [text])
    return EXIT_OK


def _gnuplot_script(csv_path: str, pairs) -> str:
    quoted = csv_path.replace("'", "''")  # gnuplot's escape inside a single-quoted string
    plots = ", ".join(
        f"'{quoted}' using 1:{i + 2} with lines title '{name}'"
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

    pairs = ALL_PAIRS if ns.pair == "all" else (SubsystemPair(ns.pair),)
    if ns.source == "oracle":
        series = scan_pairs(init, params, pairs, tmax, ns.steps, ns.cutoff)
    else:  # scan rejects every pair but AB
        series = {p.name: scan(init, params, p, tmax, ns.steps, Source.CLOSED_FORM, ns.cutoff) for p in pairs}

    names = [p.name for p in pairs]
    times = series[names[0]].times
    if ns.format == "json":
        chunks = itertools.chain(_json_chunks({
            "family": init.family.value, "alpha": init.alpha, "omega": params.omega, "nu": params.nu, "g": params.g,
            "tmax": tmax, "steps": ns.steps, "source": ns.source, "cutoff": ns.cutoff, "times": times,
            "concurrence": {name: series[name].values for name in names}}), ["\n"])
    else:
        header = _echo_line(params, init, tmax, ns.steps, names, ns.source, ns.cutoff) + "t," + ",".join(names) + "\n"
        table = np.column_stack([times, *(series[name].values for name in names)])
        chunks = itertools.chain([header], _numtext.chunks(table, [","] * len(names) + ["\n"], shortest=False))
    _write_output(ns.out, chunks)

    if ns.plot_script:
        _write_output(ns.plot_script, [_gnuplot_script(ns.out, names)])
    return EXIT_OK


def _cmd_death(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    init = InitialState(StateFamily(ns.family), ns.alpha)
    if ns.pair == "all":
        raise ValueError("death detection works on a single pair")
    source, pair = Source(ns.source), SubsystemPair(ns.pair)
    if pair == ATOM_PAIR:  # detect_death(scan(...)) bit for bit, and grid-free on the closed source
        [(_, report)] = sweep_alpha(init.family, params, [init.alpha], tmax, ns.steps, source, ns.cutoff)
    else:
        report = detect_death(scan(init, params, pair, tmax, ns.steps, source, ns.cutoff))
    if not math.isfinite(report.period):  # 2 pi / rabi overflows once rabi is below about 3.5e-308
        raise ValueError("the period 2*pi/rabi overflows, and JSON has no Infinity")
    payload = {"family": init.family.value, "alpha": init.alpha, "pair": ns.pair, "source": source.value,
               "tmax": tmax, "steps": ns.steps, **report.to_dict()}
    _write_output(ns.out, [_json(payload), "\n"])
    return EXIT_OK


def _cmd_validate(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    init = InitialState(StateFamily(ns.family), ns.alpha)
    report = validate(init, params, tmax, ns.steps, ns.tolerance, ns.cutoff)
    payload = {"family": init.family.value, "alpha": init.alpha, **report.to_dict()}
    _write_output(ns.out, [_json(payload), "\n"])
    return EXIT_OK if report.passed else EXIT_VALIDATION_FAILED


def _cmd_sweep(ns: argparse.Namespace) -> int:
    params, tmax = _resolve_run(ns)
    source = Source(ns.source)
    # ends within ALPHA_MAX less than the largest float apart, before linspace overflows on them (at a span of
    # exactly that float some counts still overflow); written so that a NaN fails it
    if ns.alphas is None and not (ns.alpha_count >= 1 and -ALPHA_MAX <= ns.alpha_min <= ns.alpha_max <= ALPHA_MAX
                                  and ns.alpha_max - ns.alpha_min < sys.float_info.max):
        raise ValueError("bad alpha grid")
    grid = ns.alphas or np.linspace(ns.alpha_min, ns.alpha_max, ns.alpha_count).tolist()
    results = sweep_alpha(StateFamily(ns.family), params, grid, tmax, ns.steps, source, ns.cutoff)

    if ns.format == "csv":
        rows = [(alpha, len(report.dead_intervals), *(report.dead_intervals or [(math.nan, math.nan)])[0],
                 report.total_dead_length(), report.initial_concurrence) for alpha, report in results]
        header = "alpha,dead_intervals,first_death_start,first_death_end,total_dead_length,initial_concurrence\n"
        chunks = itertools.chain([header], _numtext.chunks(rows, [","] * header.count(",") + ["\n"], shortest=False))
    elif not all(math.isfinite(report.period) for _, report in results):  # as in _cmd_death
        raise ValueError("the period 2*pi/rabi overflows, and JSON has no Infinity")
    else:
        payload = {"family": ns.family, "source": source.value, "tmax": tmax, "steps": ns.steps,
                   "reports": [{"alpha": alpha, **report.to_dict()} for alpha, report in results]}
        chunks = [_json(payload), "\n"]
    _write_output(ns.out, chunks)
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
    try:
        ns = _parse(argv)
        if ns.config:
            # the subcommand comes first (the top level takes no options); config
            # lines go ahead of the flags, so the flags win
            ns = _parse([ns.command, *_config_args(ns.config, ns.command), *argv[1:]])
        return _COMMANDS[ns.command][1](ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"doublejc: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # not a failed validation, which exit 1 would report
        print(f"doublejc: error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except QubitEquivalenceError as exc:
        print(f"doublejc: physical assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION_VIOLATED


if __name__ == "__main__":
    sys.exit(main())
